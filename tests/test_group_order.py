"""The search's harvest as the group, and orders read off its base, checked against sympy and closed forms.

The search's groups must never need their element list: a guard replaces the
closure with one that raises and runs every production entry point.
"""

import itertools
import json
import math
import random

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

import smallgraphs
from autorbit import canon, perms
from autorbit.canon import automorphism_group
from autorbit.cli import main
from autorbit.ermodel import verify_proof_chain
from autorbit.graphs import all_pairs, edge_set, emit_graph6, from_edge_mask, parse_graph6
from autorbit.perms import apply_edge_set, is_automorphism, reduce_generators
from autorbit.ratio import verify_ratio_identity
from autorbit.recon import augmented_deck, recover_aut_order, unique_extension_filter
from test_search_golden import aut_graphs


def sympy_order(group) -> int:
    gens = [Permutation(list(g)) for g in group.generators]
    return PermutationGroup(gens or [Permutation(list(range(group.degree)))]).order()


def families():
    for n in range(1, 21):
        yield f"K{n}", smallgraphs.complete(n), math.factorial(n)
        yield f"E{n}", smallgraphs.empty(n), math.factorial(n)
    for d in range(3, 7):
        yield f"Q{d}", smallgraphs.hypercube(d), 2**d * math.factorial(d)
    yield "Petersen", smallgraphs.petersen(), 120
    for n in range(3, 21):
        yield f"C{n}", smallgraphs.cycle(n), 2 * n
    for a, b in ((2, 2), (3, 3), (5, 5), (2, 3), (3, 5), (4, 7)):
        yield f"grid{a}x{b}", smallgraphs.grid(a, b), 8 if a == b else 4


@pytest.mark.parametrize(
    "graph, expected", [pytest.param(g, order, id=name) for name, g, order in families()]
)
def test_order_matches_closed_form_and_sympy(graph, expected):
    group = automorphism_group(graph)
    assert group.order == expected
    assert sympy_order(group) == expected


def every_small_graph():
    for n in range(7):
        for mask in range(1 << math.comb(n, 2)):
            yield from_edge_mask(n, mask), None


def seeded_cases():
    """Seeded graphs at n = 7-40, plain and with a second pair colour."""
    rng = random.Random("first-path-order")
    for n in range(7, 41):
        for _ in range(4):
            graph = smallgraphs.seeded_graph(rng, n)
            yield graph, None
            yield graph, edge_set(rng.sample(all_pairs(n), rng.randint(0, math.comb(n, 2) // 4)), n)


def family_cases():
    for _, graph, _ in families():
        yield graph, None
    for graph in (smallgraphs.grid(8, 8), smallgraphs.cycle(64), smallgraphs.empty(50), smallgraphs.complete(30)):
        yield graph, None
    for graph in aut_graphs().values():  # the golden ``aut`` reports' graphs
        yield graph, None


def test_first_path_order_matches_the_base_reduction():
    # the harvest is the group: automorphisms (keeping the colour), at most n - 1 of
    # them, strong for the base, and handed out by automorphism_group as they are
    for graph, colour in itertools.chain(every_small_graph(), seeded_cases(), family_cases()):
        outcome = canon._outcome(graph) if colour is None else canon._search(graph, colour)
        gens = outcome.generators
        assert all(is_automorphism(g, graph) for g in gens), (graph, colour)
        assert colour is None or all(apply_edge_set(g, colour) == colour for g in gens), (graph, colour)
        assert len(gens) <= max(graph.n - 1, 0), (graph, colour)
        assert outcome.order == reduce_generators(gens, outcome.base)[1], (graph, colour)
        if colour is None:
            group = automorphism_group(graph)
            assert group.generators == tuple(sorted(gens)) and group.order == outcome.order


def test_a_redundant_harvest_is_kept_as_it_is():
    graph = parse_graph6("X?_????????I??`???A??????????A????G??O??@??????????")
    outcome = canon._search(graph)
    reduced, order = reduce_generators(outcome.generators, outcome.base)
    assert (graph.n, graph.m, len(outcome.generators), len(reduced)) == (25, 10, 15, 14)
    assert outcome.order == order == 464_486_400
    group = automorphism_group(graph)
    assert len(group.generators) == 15 and group.order == 464_486_400
    assert sympy_order(group) == sympy_order(perms.PermGroup(25, reduced)) == 464_486_400


def test_first_path_order_matches_sympy_on_a_seeded_sample():
    rng = random.Random("first-path-sympy")
    sample = rng.sample(list(every_small_graph()), 150) + rng.sample(list(seeded_cases()), 150)
    for graph, colour in sample:
        outcome = canon._search(graph, colour)
        gens = [Permutation(list(g)) for g in outcome.generators] or [Permutation(list(range(graph.n)))]
        assert outcome.order == PermutationGroup(gens).order(), (graph, colour)


def test_order_matches_sympy_on_random_graphs():
    rng = random.Random(20261018)
    for _ in range(200):
        n = rng.randint(7, 10)
        npairs = math.comb(n, 2)
        m = rng.randint(0, npairs)
        graph = from_edge_mask(n, sum(1 << i for i in rng.sample(range(npairs), m)))
        group = automorphism_group(graph)
        assert group.order == sympy_order(group), (n, graph.mask)


@pytest.fixture
def no_closure(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("group elements were enumerated")

    monkeypatch.setattr(perms, "_closure", refuse)


def test_production_paths_never_enumerate_elements(no_closure, twin_hubs, capsys):
    assert automorphism_group(smallgraphs.complete(9)).order == math.factorial(9)
    assert verify_ratio_identity(twin_hubs, {(0, 4), (4, 5)}).holds
    assert verify_proof_chain(twin_hubs, {(0, 4), (4, 5)}).all_hold
    deck = augmented_deck(twin_hubs)
    multiplicity = deck.multiplicities()[deck.certificates[4]]
    assert recover_aut_order(deck.cards[4].graph, multiplicity, deck.cards[4].deleted_edges) == 8
    assert unique_extension_filter(augmented_deck(smallgraphs.path(4)).blind()).unique
    for command in ("aut", "recover-aut", "recon-filter"):
        assert main([command, "--graph", emit_graph6(twin_hubs)]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == command

