import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import filter_census
import smallgraphs
from autorbit.canon import automorphism_group, canonical_form, is_isomorphic
from autorbit.errors import (
    NotASubsetError,
    NotDivisibleError,
    ParameterRangeError,
    PreconditionError,
    VertexRangeError,
)
from autorbit.graphs import Graph, from_edge_mask, parse_graph6
from autorbit import recon
from autorbit.orbits import edge_set_orbit, vertex_orbit
from autorbit.recon import (
    Card,
    Deck,
    augmented_deck,
    check_vertex_edge_orbit_identity,
    classic_deck,
    kelly_edge_count,
    recover_aut_order,
    unique_extension_filter,
    vertex_deleted,
)


def connected_graphs(n):
    for mask in range(1 << math.comb(n, 2)):
        g = from_edge_mask(n, mask)
        if g.is_connected():
            yield g


def test_vertex_deleted_triangle():
    assert vertex_deleted(smallgraphs.triangle(), 0) == Graph(2, frozenset({(0, 1)}))


def test_vertex_deleted_path_center():
    assert vertex_deleted(smallgraphs.path(3), 1) == smallgraphs.empty(2)


def test_vertex_deleted_twin_hubs_bridge(twin_hubs):
    # removing the bridge leaves the two stars, with old labels 6 shifted to 5
    card = vertex_deleted(twin_hubs, 5)
    assert card == Graph(6, frozenset({(0, 4), (1, 4), (2, 5), (3, 5)}))


def test_vertex_deleted_range_check(twin_hubs):
    with pytest.raises(VertexRangeError):
        vertex_deleted(twin_hubs, 7)


def test_classic_deck_shape(twin_hubs):
    deck = classic_deck(twin_hubs)
    assert deck.kind == "classic"
    assert len(deck.cards) == 7
    assert all(card.graph.n == 6 for card in deck.cards)
    assert sum(deck.multiplicities().values()) == 7


def test_augmented_deck_of_triangle():
    deck = augmented_deck(smallgraphs.triangle())
    assert len(deck.classes) == 1
    cls = deck.classes[0]
    assert cls.multiplicity == 3
    assert cls.representative.graph.m == 1  # one surviving edge plus an isolated vertex


def test_augmented_deck_origin_is_isolated(twin_hubs):
    for card in augmented_deck(twin_hubs).cards:
        assert card.graph.degree(card.origin_vertex) == 0
        assert card.deleted_edges == twin_hubs.incident_edges(card.origin_vertex)


def test_twin_hubs_multiplicities(twin_hubs):
    deck = augmented_deck(twin_hubs)
    assert sorted(deck.multiplicities().values()) == [1, 2, 4]


def test_star_multiplicities():
    deck = augmented_deck(smallgraphs.star(3))
    assert sorted(deck.multiplicities().values()) == [1, 3]


def test_blind_deck_strips_bookkeeping(twin_hubs):
    blind = augmented_deck(twin_hubs).blind()
    assert all(c.origin_vertex is None and c.deleted_edges is None for c in blind.cards)
    assert blind.multiplicities() == augmented_deck(twin_hubs).multiplicities()


def test_deck_flavors_agree_up_to_the_isolated_vertex():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 6)
        g = from_edge_mask(n, rng.randrange(1 << math.comb(n, 2)))
        classic = classic_deck(g)
        augmented = augmented_deck(g)
        lifted = Counter(canonical_form(Graph(c.graph.n + 1, c.graph.edges)) for c in classic.cards)
        direct = Counter(canonical_form(c.graph) for c in augmented.cards)
        assert lifted == direct
        # and the reverse direction: dropping each card's origin vertex
        dropped = Counter(
            canonical_form(vertex_deleted(c.graph, c.origin_vertex)) for c in augmented.cards
        )
        assert dropped == Counter(canonical_form(c.graph) for c in classic.cards)


def test_kelly_edge_count_examples(twin_hubs):
    assert kelly_edge_count(augmented_deck(smallgraphs.triangle())) == 3
    assert kelly_edge_count(augmented_deck(twin_hubs)) == 6
    assert kelly_edge_count(augmented_deck(smallgraphs.path(3))) == 2


def test_kelly_rejects_classic_and_malformed_decks(twin_hubs):
    with pytest.raises(PreconditionError):
        kelly_edge_count(classic_deck(twin_hubs))
    # a doctored augmented deck whose counts cannot come from a graph:
    # on 4 vertices the card edge counts must sum to a multiple of 2
    one_edge = Graph(4, frozenset({(0, 1)}))
    fake = Deck("augmented", (Card(one_edge),) + tuple(Card(smallgraphs.empty(4)) for _ in range(3)))
    with pytest.raises(NotDivisibleError):
        kelly_edge_count(fake)
    with pytest.raises(PreconditionError):
        kelly_edge_count(Deck("augmented", (Card(smallgraphs.empty(2)), Card(smallgraphs.empty(2)))))


def test_vertex_edge_orbit_identity_examples(twin_hubs):
    assert check_vertex_edge_orbit_identity(smallgraphs.triangle())
    assert check_vertex_edge_orbit_identity(twin_hubs)


def test_vertex_edge_orbit_identity_preconditions():
    with pytest.raises(PreconditionError):
        check_vertex_edge_orbit_identity(smallgraphs.triangle_plus_isolated())
    with pytest.raises(PreconditionError):
        check_vertex_edge_orbit_identity(smallgraphs.path(2))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_vertex_edge_orbit_identity_exhaustive(n):
    for g in connected_graphs(n):
        assert check_vertex_edge_orbit_identity(g)


def test_recover_aut_order_triangle():
    # card: one edge plus the isolated origin; both deleted edges must rejoin it
    deck = augmented_deck(smallgraphs.triangle())
    card = deck.cards[0]
    assert recover_aut_order(card.graph, 3, card.deleted_edges) == 6


def test_recover_aut_order_star_center():
    star = smallgraphs.star(3)
    deck = augmented_deck(star)
    center = deck.cards[0]
    assert center.graph.m == 0
    assert recover_aut_order(center.graph, 1, center.deleted_edges) == 6
    leaf = deck.cards[1]
    assert recover_aut_order(leaf.graph, 3, leaf.deleted_edges) == 6


def test_recover_aut_order_every_twin_hub_card(twin_hubs):
    deck = augmented_deck(twin_hubs)
    mults = deck.multiplicities()
    for card in deck.cards:
        m = mults[canonical_form(card.graph)]
        assert recover_aut_order(card.graph, m, card.deleted_edges) == 8


@pytest.mark.parametrize("multiplicity", [0, -2])
def test_recover_aut_order_rejects_a_non_positive_multiplicity(multiplicity):
    card = augmented_deck(smallgraphs.path(4)).cards[0]
    with pytest.raises(ParameterRangeError):
        recover_aut_order(card.graph, multiplicity, card.deleted_edges)


def test_recover_aut_order_rejects_present_edges(twin_hubs):
    deck = augmented_deck(twin_hubs)
    card = deck.cards[0]
    still_there = next(iter(card.graph.edges))
    with pytest.raises(NotASubsetError):
        recover_aut_order(card.graph, 1, frozenset({still_there}))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_multiplicity_equals_origin_orbit_size(n):
    for g in connected_graphs(n):
        deck = augmented_deck(g)
        mults = deck.multiplicities()
        group = automorphism_group(g)
        for card in deck.cards:
            assert mults[canonical_form(card.graph)] == vertex_orbit(group, card.origin_vertex).size


@pytest.mark.parametrize(
    "builder",
    [smallgraphs.triangle, lambda: smallgraphs.path(4), lambda: smallgraphs.cycle(5)],
)
def test_filter_reconstructs_named_graphs(builder):
    g = builder()
    report = unique_extension_filter(augmented_deck(g).blind())
    assert report.unique
    assert canonical_form(report.reconstructed[0]) == canonical_form(g)
    # with unique reconstruction the certified ratio is the symmetry count
    assert report.certified[0].ratio == Fraction(automorphism_group(g).order)


def test_filter_report_details():
    g = smallgraphs.path(4)
    report = unique_extension_filter(augmented_deck(g).blind())
    assert report.total_edges == 3
    assert len(report.cards) == 2  # end-deleted and inner-deleted card classes
    for card_report in report.cards:
        assert card_report.deleted_degree in (1, 2)
        for ext in card_report.classes:
            assert ext.ratio == Fraction(
                card_report.multiplicity * automorphism_group(card_report.graph).order,
                ext.orbit_size,
            )
    # the filter decides consistency by the ratio law, so this direction holds by
    # construction; test_consistency_flag_matches_the_extended_walk checks the flag
    # against the extended graph's own orbit
    consistent = [e for c in report.cards for e in c.classes if e.multiplicity_consistent]
    assert all(e.ratio == Fraction(e.extended_aut) for e in consistent)


def seeded_connected_graphs(seed, count):
    """``count`` connected G(n, m) graphs, cycling n through 4-8."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        n = 4 + len(graphs) % 5
        g = smallgraphs.seeded_graph(rng, n)
        if g.is_connected():
            graphs.append(g)
    return graphs


def test_consistency_flag_matches_the_extended_walk():
    # the deck-multiplicity law itself: the extended graph's orbit of the added
    # set, walked under the extended graph's group, equals the multiplicity
    seen = Counter()
    for g in seeded_connected_graphs(41, 60):
        report = unique_extension_filter(augmented_deck(g).blind())
        for card_report in report.cards:
            card = card_report.graph
            for ext in card_report.classes:
                cand = frozenset(ext.edges)
                walked = edge_set_orbit(automorphism_group(Graph(card.n, card.edges | cand)), cand)
                assert ext.multiplicity_consistent == (walked.size == card_report.multiplicity)
                seen[ext.multiplicity_consistent] += 1
    assert seen[True] and seen[False]


def test_filter_walks_one_orbit_per_class_under_the_card_group(monkeypatch):
    walked = []

    def spy(group, pairs):
        walked.append(group)
        return edge_set_orbit(group, pairs)

    monkeypatch.setattr(recon, "edge_set_orbit", spy)
    for g in seeded_connected_graphs(43, 15):
        walked.clear()
        report = unique_extension_filter(augmented_deck(g).blind())
        expected = [automorphism_group(c.graph) for c in report.cards for _ in c.classes]
        assert len(walked) == len(expected)
        assert walked == expected


def test_certified_certificates_are_pairwise_distinct():
    # reconstructed graphs are the certified ones in certificate order, with no
    # two certified ratios pointing at one isomorphism class
    named = [smallgraphs.triangle(), smallgraphs.path(4), smallgraphs.cycle(5)]
    for g in named + list(connected_graphs(5)) + seeded_connected_graphs(47, 60):
        report = unique_extension_filter(augmented_deck(g).blind())
        certs = [match.certificate for match in report.certified]
        assert len(set(certs)) == len(certs)
        assert [canonical_form(r) for r in report.reconstructed] == sorted(certs)
        assert report.unique == (len(report.reconstructed) == 1)


def test_filter_certifies_no_graph_with_another_deck():
    # EQjO (|Aut| 8): extending its cards at non-isolated vertices certifies EOjo
    # (|Aut| 4), whose augmented deck is another; from the isolated vertex EQjO
    # is reconstructed uniquely
    g = parse_graph6("EQjO")
    wrong = parse_graph6("EOjo")
    assert sorted(augmented_deck(wrong).certificates) != sorted(augmented_deck(g).certificates)
    report = unique_extension_filter(augmented_deck(g).blind())
    assert report.unique and canonical_form(report.reconstructed[0]) == canonical_form(g)


@pytest.mark.parametrize("n, certified", [(3, 2), (4, 6), (5, 14), (6, 45)])
def test_filter_census_certifies_no_wrong_graph(n, certified):
    graphs = filter_census.classes(n)
    labelled = {canonical_form(from_edge_mask(n, mask)) for mask in range(1 << math.comb(n, 2))}
    assert [canonical_form(g) for g in graphs] == sorted(labelled)  # one graph per class
    assert filter_census.census(graphs) == (certified, [])


def graphs_with_shared_isolation(seed, count):
    """``count`` seeded G(n, m) graphs, n cycling through 4-8, each with an
    augmented card that has two or more isolated vertices."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        g = smallgraphs.seeded_graph(rng, 4 + len(graphs) % 5)
        if any(sum(c.graph.degree(v) == 0 for v in range(g.n)) >= 2 for c in augmented_deck(g).cards):
            graphs.append(g)
    return graphs


def test_certified_graphs_have_the_input_deck():
    # the filter's docstring proves this, so the filter does not check it
    graphs = [g for n in range(3, 7) for g in filter_census.classes(n)] + graphs_with_shared_isolation(53, 80)
    checked = 0
    for g in graphs:
        deck = augmented_deck(g).blind()
        for match in unique_extension_filter(deck).certified:
            assert sorted(augmented_deck(match.graph).certificates) == sorted(deck.certificates)
            checked += 1
    assert checked >= 2 + 6 + 14 + 45


def test_first_isolated_vertex_gives_the_reports_of_every_isolated_vertex(monkeypatch):
    # the candidates at every isolated vertex, ordered by their sorted pairs
    def every_isolated_vertex(card, gap):
        sets = set()
        for u in (v for v in range(card.n) if card.degree(v) == 0):
            local = [p for p in card.non_edges() if u in p]
            sets.update(map(frozenset, itertools.combinations(local, gap)))
        return sorted(tuple(sorted(s)) for s in sets)

    graphs = graphs_with_shared_isolation(59, 80)
    first = [unique_extension_filter(augmented_deck(g).blind()) for g in graphs]
    monkeypatch.setattr(recon, "_candidate_sets", every_isolated_vertex)
    every = [unique_extension_filter(augmented_deck(g).blind()) for g in graphs]
    assert first == every
    assert any(r.certified for r in first)


def test_filter_rejects_a_card_with_no_isolated_vertex():
    # four 2K2 cards pass kelly_edge_count (m = 8 / 2 = 4), but an augmented card
    # always keeps its deleted vertex isolated
    matching = Graph(4, frozenset({(0, 1), (2, 3)}))
    deck = Deck("augmented", (Card(matching),) * 4)
    assert kelly_edge_count(deck) == 4
    with pytest.raises(PreconditionError, match="isolated"):
        unique_extension_filter(deck)


def test_filter_preconditions(twin_hubs):
    with pytest.raises(PreconditionError):
        unique_extension_filter(classic_deck(twin_hubs))
    tiny = augmented_deck(smallgraphs.path(2))
    with pytest.raises(PreconditionError):
        unique_extension_filter(tiny)
    with pytest.raises(PreconditionError):
        unique_extension_filter(Deck("augmented", augmented_deck(twin_hubs).cards[:3]))
    with pytest.raises(PreconditionError):
        unique_extension_filter(Deck("augmented", ()))


def test_filter_leaves_the_deck_checks_to_kelly():
    # a 2-vertex graph's augmented deck, and cards that differ in n, fail kelly_edge_count's checks
    with pytest.raises(PreconditionError, match="n >= 3"):
        unique_extension_filter(augmented_deck(smallgraphs.path(2)))
    mixed = (Card(smallgraphs.empty(4)),) * 3 + (Card(smallgraphs.empty(5)),)
    with pytest.raises(PreconditionError, match="vertex count"):
        unique_extension_filter(Deck("augmented", mixed))


def test_filter_extension_classes_give_isomorphic_extensions():
    # all candidates in one orbit class extend to isomorphic graphs
    g = smallgraphs.cycle(5)
    deck = augmented_deck(g).blind()
    report = unique_extension_filter(deck)
    for card_report in report.cards:
        card = card_report.graph
        group = automorphism_group(card)
        for ext in card_report.classes:
            orbit = edge_set_orbit(group, frozenset(ext.edges))
            certs = {
                canonical_form(Graph(card.n, card.edges | member)) for member in orbit.elements
            }
            assert certs == {ext.extended_certificate}
