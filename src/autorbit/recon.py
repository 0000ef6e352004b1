"""Deck machinery: vertex-deleted and incident-edge-deleted card multisets,
multiplicities, automorphism-count recovery from a single card, and the
unique-extension filter, which sums the ratio law over each card's extensions.

An augmented card keeps all n vertices and deletes the edges incident on one
of them, so the deleted vertex survives as an isolated vertex. Classic cards
drop the vertex as well (higher labels shift down by one). The two deck
flavors carry the same information up to adding or removing that isolated
vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .canon import automorphism_group, canonical_form
from .errors import NotASubsetError, NotDivisibleError, ParameterRangeError, PreconditionError
from .graphs import EdgeSet, Graph, edge_set
from .orbits import edge_set_orbit, vertex_orbit


@dataclass(frozen=True)
class Card:
    """One deck entry. Origin bookkeeping exists for testing; blind decks drop it."""

    graph: Graph
    origin_vertex: int | None = None
    deleted_edges: EdgeSet | None = None


@dataclass(frozen=True)
class DeckClass:
    certificate: bytes
    representative: Card
    multiplicity: int


@dataclass(frozen=True)
class Deck:
    kind: str  # "classic" or "augmented"
    cards: tuple[Card, ...]

    @cached_property
    def certificates(self) -> tuple[bytes, ...]:
        """Each card's isomorphism certificate, in card order."""
        return tuple(canonical_form(card.graph) for card in self.cards)

    @cached_property
    def classes(self) -> tuple[DeckClass, ...]:
        """Cards grouped by isomorphism certificate, ordered by certificate."""
        by_cert: dict[bytes, list[int]] = {}
        for i, cert in enumerate(self.certificates):
            by_cert.setdefault(cert, []).append(i)
        return tuple(
            DeckClass(cert, self.cards[idx[0]], len(idx))
            for cert, idx in sorted(by_cert.items())
        )

    def multiplicities(self) -> dict[bytes, int]:
        return {cls.certificate: cls.multiplicity for cls in self.classes}

    def blind(self) -> "Deck":
        return Deck(self.kind, tuple(Card(c.graph) for c in self.cards))


def vertex_deleted(graph: Graph, v: int) -> Graph:
    """Remove a vertex and its incident edges; labels above v shift down."""
    graph.incident_edges(v)  # validates v
    edges = frozenset(
        (u - (u > v), w - (w > v)) for u, w in graph.edges if v not in (u, w)
    )
    return Graph(graph.n - 1, edges)


def classic_deck(graph: Graph) -> Deck:
    if graph.n < 2:
        raise PreconditionError("decks need at least two vertices")
    return Deck(
        "classic",
        tuple(Card(vertex_deleted(graph, v), origin_vertex=v) for v in range(graph.n)),
    )


def augmented_deck(graph: Graph) -> Deck:
    if graph.n < 2:
        raise PreconditionError("decks need at least two vertices")
    cards = []
    for v in range(graph.n):
        incident = graph.incident_edges(v)
        cards.append(
            Card(graph.delete_edges(incident), origin_vertex=v, deleted_edges=incident)
        )
    return Deck("augmented", tuple(cards))


def kelly_edge_count(deck: Deck) -> int:
    """Total edge count of the original graph from an augmented deck.

    Every edge survives in exactly n - 2 of the n cards, so the card edge
    counts sum to m * (n - 2); anything else means the deck is malformed.
    """
    if deck.kind != "augmented":
        raise PreconditionError("edge-count recovery expects an augmented deck")
    if not deck.cards:
        raise PreconditionError("empty deck")
    n = deck.cards[0].graph.n
    if any(card.graph.n != n for card in deck.cards):
        raise PreconditionError("augmented cards must share the vertex count")
    if n < 3:
        raise PreconditionError("edge-count recovery needs n >= 3")
    total = sum(card.graph.m for card in deck.cards)
    if total % (n - 2):
        raise NotDivisibleError(f"card edge counts sum to {total}, not divisible by {n - 2}")
    return total // (n - 2)


def check_vertex_edge_orbit_identity(graph: Graph) -> bool:
    """True iff every vertex's incident-edge-set orbit matches its vertex orbit.

    Only meaningful for connected graphs on 3+ vertices, where distinct
    vertices always carry distinct incident sets; other inputs are rejected.
    """
    if graph.n < 3 or not graph.is_connected():
        raise PreconditionError("requires a connected graph on at least 3 vertices")
    group = automorphism_group(graph)
    for v in range(graph.n):
        if edge_set_orbit(group, graph.incident_edges(v)).size != vertex_orbit(group, v).size:
            return False
    return True


def recover_aut_order(card: Graph, multiplicity: int, deleted: EdgeSet) -> int:
    """Automorphism count of the original graph from one augmented card.

    ``deleted`` is the incident edge set that was removed to form the card
    (known in testing mode). The count is |Aut(card)| * multiplicity divided
    by the orbit size of the deleted set as non-edges of the card; the
    division must be exact. ``multiplicity`` must be the deleted vertex's orbit
    size; a card matching a card from another orbit (pseudo-similar vertices) has more.
    """
    if multiplicity < 1:
        raise ParameterRangeError(f"a card's multiplicity is at least 1, got {multiplicity}")
    dset = edge_set(deleted, card.n)
    overlap = dset & card.edges
    if overlap:
        raise NotASubsetError(f"deleted pairs {sorted(overlap)} are still edges of the card")
    group = automorphism_group(card)
    ao = edge_set_orbit(group, dset).size
    numerator = group.order * multiplicity
    if numerator % ao:
        raise NotDivisibleError(
            f"|Aut(card)| * multiplicity = {numerator} is not divisible by orbit size {ao}"
        )
    return numerator // ao


@dataclass(frozen=True)
class ExtensionClass:
    """One orbit class of candidate extension sets for a card."""

    edges: tuple
    orbit_size: int
    extended_aut: int
    extended_certificate: bytes
    star_vertices: int  # vertices of the extended graph whose incident edges are exactly ``edges``


@dataclass(frozen=True)
class CardClassReport:
    certificate: bytes
    graph: Graph
    multiplicity: int
    deleted_degree: int
    classes: tuple[ExtensionClass, ...]


@dataclass(frozen=True)
class CertifiedMatch:
    ratio: Fraction
    certificate: bytes
    graph: Graph


@dataclass(frozen=True)
class ExtensionFilterReport:
    total_edges: int
    cards: tuple[CardClassReport, ...]
    certified: tuple[CertifiedMatch, ...]
    unique: bool
    reconstructed: tuple[Graph, ...]


def _candidate_sets(card: Graph, degree_gap: int) -> itertools.combinations:
    """The degree_gap-subsets of pairs at the card's first isolated vertex, in sorted order.

    Any permutation of the isolated vertices is a card automorphism, and it
    moves pairs at a later one to smaller pairs at the first, so every orbit
    class's smallest member lies there.
    """
    u = next((v for v in range(card.n) if card.degree(v) == 0), None)
    if u is None:
        raise PreconditionError("an augmented card keeps its deleted vertex isolated; this card has none")
    return itertools.combinations([(min(u, v), max(u, v)) for v in range(card.n) if v != u], degree_gap)


def _star_vertices(graph: Graph, star: tuple) -> int:
    """How many vertices of ``graph`` have exactly ``star``, one vertex's incident edges, as theirs."""
    if not star:
        return graph.degrees().count(0)  # every isolated vertex
    return 2 if len(star) == 1 and all(graph.degree(v) == 1 for v in star[0]) else 1  # 2 on a K2 component


def unique_extension_filter(deck: Deck) -> ExtensionFilterReport:
    """Extend each card class at its isolated vertex and certify the graphs that have this deck.

    For card class c (card K_c, multiplicity m_c) the candidates are the sets
    of pairs at K_c's first isolated vertex u that restore Kelly's edge count,
    one orbit walk under Aut(K_c) per orbit class. Class X extends to
    H = K_c + X and adds t_X * |AO_K_c(X)| * |Aut(H)| to c's tally of H's
    certificate, where t_X counts H's vertices whose incident edges are X. H
    is certified when its tally is m_c * |Aut(K_c)| for every c.

    That holds exactly when H's augmented deck is the input deck. Write
    K = K_c. An isomorphism H - s -> K, for a star s of H, can send s's centre
    to u (permuting K's isolated vertices is an automorphism of K), so each
    Aut(H)-orbit of such stars meets a class X with K + X ~ H, and only one:
    an isomorphism K + X -> K + Y sending X to Y maps K onto K. By the
    paper's law that orbit has |Aut(H)| * |AO_K(X)| / |Aut(K)| stars, each
    shared by t_X vertices, so the tally over |Aut(K)| counts H's vertices
    whose augmented card is ~ K; as the m_c sum to n, H has no other card. A
    card with more edges than Kelly's count has no candidates. Kelly's lemma
    screens each candidate before its walk: H's card at v has total_edges -
    deg(v) edges, so a graph with this deck has the sorted degrees
    ``kelly_degrees``, and a class whose extension has other degrees only feeds
    the tally of a graph that is never certified. Screened sets stay unseen.
    """
    if deck.kind != "augmented":
        raise PreconditionError("the extension filter expects an augmented deck")
    if deck.cards and deck.cards[0].graph.n != len(deck.cards):
        raise PreconditionError(f"augmented decks carry n={deck.cards[0].graph.n} cards, got {len(deck.cards)}")
    total_edges = kelly_edge_count(deck)  # rejects an empty deck, mixed vertex counts and n < 3
    kelly_degrees = sorted(total_edges - card.graph.m for card in deck.cards)

    card_reports: list[CardClassReport] = []
    tallies: list[tuple[dict[bytes, int], int]] = []  # per card class: the tally and its wanted value
    extended_graphs: dict[bytes, Graph] = {}
    for cls in deck.classes:
        card = cls.representative.graph
        gap = total_edges - card.m
        group = automorphism_group(card)
        degrees = card.degrees()
        ext_classes: list[ExtensionClass] = []
        tally: dict[bytes, int] = {}
        seen: set[EdgeSet] = set()
        for pairs in _candidate_sets(card, gap) if gap >= 0 else ():  # more edges than Kelly's count: none
            cand = frozenset(pairs)
            if cand in seen:
                continue
            if sorted(d + sum(v in pair for pair in pairs) for v, d in enumerate(degrees)) != kelly_degrees:
                continue  # Kelly's lemma rules this degree sequence out
            orbit = edge_set_orbit(group, cand)
            seen.update(orbit.elements)
            extended = Graph(card.n, card.edges | cand)
            cert = canonical_form(extended)
            ext = ExtensionClass(pairs, orbit.size, automorphism_group(extended).order, cert,
                                 _star_vertices(extended, pairs))
            ext_classes.append(ext)
            tally[cert] = tally.get(cert, 0) + ext.star_vertices * ext.orbit_size * ext.extended_aut
            extended_graphs.setdefault(cert, extended)
        tallies.append((tally, cls.multiplicity * group.order))
        card_reports.append(CardClassReport(cls.certificate, card, cls.multiplicity, gap, tuple(ext_classes)))

    certified = tuple(
        CertifiedMatch(Fraction(automorphism_group(graph).order), cert, graph)
        for cert, graph in sorted(extended_graphs.items())
        if all(tally.get(cert) == wanted for tally, wanted in tallies)
    )
    reconstructed = tuple(match.graph for match in certified)
    return ExtensionFilterReport(total_edges, tuple(card_reports), certified, len(certified) == 1, reconstructed)
