"""Deck machinery: vertex-deleted and incident-edge-deleted card multisets,
multiplicities, automorphism-count recovery from a single card, and the
equal-ratio unique-extension filter.

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
    division must be exact.
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
    ratio: Fraction
    extended_aut: int
    extended_certificate: bytes
    multiplicity_consistent: bool


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


def unique_extension_filter(deck: Deck) -> ExtensionFilterReport:
    """Group candidate extensions per card by orbit and match ratios across cards.

    For each card class the candidates are partitioned into orbit classes
    under the card's automorphisms, one orbit walk per class, and each class
    gets the exact quantity multiplicity * |Aut(card)| / orbit size. A class
    only joins cross-card matching when it is multiplicity-consistent: the
    extended graph's orbit of the added set equals the multiplicity. As the
    extended graph minus that set is the card, the ratio law makes this hold
    exactly when the quantity equals |Aut(extended)|, which decides it. A
    ratio certifies when every card class attains it with exactly one
    consistent class and all the extended graphs agree; the reconstruction is
    unique when exactly one certificate survives.

    A certified graph H has the input deck. Each card class c (card K_c,
    multiplicity m_c) picked a set X_c, the whole star of the isolated vertex
    u_c in K_c + X_c ~ H, with |AO(X_c)| = m_c. Let V_c be the vertices of H
    whose star lies in the Aut(H)-orbit of X_c's image. Each of them has an
    augmented card ~ K_c, so the V_c are disjoint, and v -> star(v) maps V_c
    onto that orbit, so |V_c| >= m_c. As the m_c sum to n, |V_c| = m_c and
    the V_c partition H's vertices: H's augmented deck is the input deck.
    """
    if deck.kind != "augmented":
        raise PreconditionError("the extension filter expects an augmented deck")
    n = len(deck.cards)
    if deck.cards and deck.cards[0].graph.n != n:
        raise PreconditionError(f"augmented decks carry n={deck.cards[0].graph.n} cards, got {n}")
    total_edges = kelly_edge_count(deck)  # rejects an empty deck, mixed vertex counts and n < 3

    card_reports: list[CardClassReport] = []
    for cls in deck.classes:
        card = cls.representative.graph
        gap = total_edges - card.m
        ext_classes: list[ExtensionClass] = []
        if gap >= 1:
            group = automorphism_group(card)
            seen: set[EdgeSet] = set()
            for pairs in _candidate_sets(card, gap):
                cand = frozenset(pairs)
                if cand in seen:
                    continue
                orbit = edge_set_orbit(group, cand)
                seen.update(orbit.elements)
                extended = Graph(card.n, card.edges | cand)
                ratio = Fraction(cls.multiplicity * group.order, orbit.size)
                ext_aut = automorphism_group(extended).order
                ext_classes.append(
                    ExtensionClass(
                        edges=pairs,
                        orbit_size=orbit.size,
                        ratio=ratio,
                        extended_aut=ext_aut,
                        extended_certificate=canonical_form(extended),
                        multiplicity_consistent=ratio == ext_aut,
                    )
                )
        card_reports.append(
            CardClassReport(
                certificate=cls.certificate,
                graph=card,
                multiplicity=cls.multiplicity,
                deleted_degree=gap,
                classes=tuple(ext_classes),
            )
        )

    tables: list[dict[Fraction, list[ExtensionClass]]] = [{} for _ in card_reports]
    for table, report in zip(tables, card_reports):
        for ext in report.classes:
            if ext.multiplicity_consistent:
                table.setdefault(ext.ratio, []).append(ext)

    certified: list[CertifiedMatch] = []
    for ratio in sorted(tables[0]):
        picks = [table.get(ratio, ()) for table in tables]
        if all(len(p) == 1 for p in picks) and len({p[0].extended_certificate for p in picks}) == 1:
            chosen = picks[0][0]
            graph = Graph(n, card_reports[0].graph.edges | frozenset(chosen.edges))
            certified.append(CertifiedMatch(ratio=ratio, certificate=chosen.extended_certificate, graph=graph))

    # a consistent ratio is its extended graph's |Aut|, so certified certificates are distinct
    reconstructed = tuple(match.graph for match in sorted(certified, key=lambda m: m.certificate))
    return ExtensionFilterReport(
        total_edges=total_edges,
        cards=tuple(card_reports),
        certified=tuple(certified),
        unique=len(certified) == 1,
        reconstructed=reconstructed,
    )
