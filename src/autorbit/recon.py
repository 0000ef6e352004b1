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

from .canon import automorphism_group, symmetry
from .errors import NotASubsetError, NotDivisibleError, PreconditionError
from .graphs import EdgeSet, Graph, edge_set
from .orbits import edge_set_orbit, vertex_orbit
from .perms import PermGroup
from .ratio import AutCache, cached_aut_group


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
    group: PermGroup  # the representative's automorphism group


@dataclass(frozen=True)
class Deck:
    kind: str  # "classic" or "augmented"
    cards: tuple[Card, ...]

    @cached_property
    def symmetries(self) -> tuple[tuple[PermGroup, bytes], ...]:
        """Each card's automorphism group and certificate from one search, in card order."""
        return tuple(symmetry(card.graph) for card in self.cards)

    @cached_property
    def certificates(self) -> tuple[bytes, ...]:
        """Each card's isomorphism certificate, in card order."""
        return tuple(certificate for _, certificate in self.symmetries)

    @cached_property
    def classes(self) -> tuple[DeckClass, ...]:
        """Cards grouped by isomorphism certificate, ordered by certificate."""
        by_cert: dict[bytes, list[int]] = {}
        for i, cert in enumerate(self.certificates):
            by_cert.setdefault(cert, []).append(i)
        return tuple(
            DeckClass(cert, self.cards[idx[0]], len(idx), self.symmetries[idx[0]][0])
            for cert, idx in sorted(by_cert.items())
        )

    def multiplicities(self) -> dict[bytes, int]:
        return {cls.certificate: cls.multiplicity for cls in self.classes}

    def blind(self) -> "Deck":
        deck = Deck(self.kind, tuple(Card(c.graph) for c in self.cards))
        deck.__dict__["symmetries"] = self.symmetries  # same graphs, same searches
        return deck


def vertex_deleted(graph: Graph, v: int) -> Graph:
    """Remove a vertex and its incident edges; labels above v shift down."""
    graph.incident_edges(v)  # validates v
    edges = frozenset(
        (u - (u > v), w - (w > v)) for u, w in graph.edges if v not in (u, w)
    )
    return Graph(graph.n - 1, edges)


def with_isolated_vertex(graph: Graph) -> Graph:
    """Same edges with one extra isolated vertex labeled n."""
    return Graph(graph.n + 1, graph.edges)


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


def recover_aut_order(
    card: Graph,
    multiplicity: int,
    deleted: EdgeSet,
    cache: AutCache | None = None,
) -> int:
    """Automorphism count of the original graph from one augmented card.

    ``deleted`` is the incident edge set that was removed to form the card
    (known in testing mode). The count is |Aut(card)| * multiplicity divided
    by the orbit size of the deleted set as non-edges of the card; the
    division must be exact.
    """
    dset = edge_set(deleted, card.n)
    overlap = dset & card.edges
    if overlap:
        raise NotASubsetError(f"deleted pairs {sorted(overlap)} are still edges of the card")
    group = cached_aut_group(card, cache)
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
    origin_mode: str
    cards: tuple[CardClassReport, ...]
    certified: tuple[CertifiedMatch, ...]
    unique: bool
    reconstructed: tuple[Graph, ...]


def _candidate_origins(card: Graph, mode: str) -> list[int]:
    if mode not in ("isolated", "all"):
        raise ValueError(f"unknown origin mode {mode!r}")
    if mode == "isolated":
        isolated = [v for v in range(card.n) if card.degree(v) == 0]
        if isolated:
            return isolated
    return list(range(card.n))


def _candidate_sets(card: Graph, degree_gap: int, mode: str) -> list[EdgeSet]:
    """All degree_gap-subsets of non-edges sharing a plausible origin vertex."""
    non_edges = sorted(card.non_edges())
    out: list[EdgeSet] = []
    seen: set[EdgeSet] = set()
    for u in _candidate_origins(card, mode):
        if card.degree(u) + degree_gap > card.n - 1:
            continue
        local = [p for p in non_edges if u in p]
        for combo in itertools.combinations(local, degree_gap):
            cand = frozenset(combo)
            if cand not in seen:
                seen.add(cand)
                out.append(cand)
    return out


def unique_extension_filter(deck: Deck, origins: str = "isolated") -> ExtensionFilterReport:
    """Group candidate extensions per card by orbit and match ratios across cards.

    For each card class the candidates are partitioned into orbit classes
    under the card's automorphisms, and each class gets the exact quantity
    multiplicity * |Aut(card)| / orbit size. A class only participates in
    cross-card matching when it is multiplicity-consistent: the extended
    graph's own orbit of the added set must equal the observed multiplicity
    (the deck-multiplicity law), in which case the quantity equals the
    extended graph's automorphism count. A shared ratio certifies when every
    card class attains it with exactly one consistent class and all the
    extended graphs agree; the reconstruction is unique when exactly one
    certificate survives.
    """
    if deck.kind != "augmented":
        raise PreconditionError("the extension filter expects an augmented deck")
    n = deck.cards[0].graph.n
    if n < 3:
        raise PreconditionError("the extension filter needs n >= 3")
    if len(deck.cards) != n:
        raise PreconditionError(f"augmented decks carry n={n} cards, got {len(deck.cards)}")
    total_edges = kelly_edge_count(deck)

    card_reports: list[CardClassReport] = []
    for cls in deck.classes:
        card = cls.representative.graph
        gap = total_edges - card.m
        ext_classes: list[ExtensionClass] = []
        if gap >= 1:
            group = cls.group
            remaining = _candidate_sets(card, gap, origins)
            seen: set[EdgeSet] = set()
            for cand in sorted(remaining, key=lambda s: tuple(sorted(s))):
                if cand in seen:
                    continue
                orbit = edge_set_orbit(group, cand)
                seen.update(orbit.elements)
                extended = Graph(card.n, card.edges | cand)
                ext_group, ext_certificate = symmetry(extended)
                ao_ext = edge_set_orbit(ext_group, cand).size
                ext_classes.append(
                    ExtensionClass(
                        edges=tuple(sorted(cand)),
                        orbit_size=orbit.size,
                        ratio=Fraction(cls.multiplicity * group.order, orbit.size),
                        extended_aut=ext_group.order,
                        extended_certificate=ext_certificate,
                        multiplicity_consistent=ao_ext == cls.multiplicity,
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

    consistent = [
        {c.ratio: [e for e in report.classes if e.multiplicity_consistent and e.ratio == c.ratio]
         for c in report.classes if c.multiplicity_consistent}
        for report in card_reports
    ]
    shared: set[Fraction] = set(consistent[0]) if consistent else set()
    for table in consistent[1:]:
        shared &= set(table)

    certified: list[CertifiedMatch] = []
    for ratio in sorted(shared):
        picks = [table[ratio] for table in consistent]
        if any(len(p) != 1 for p in picks):
            continue
        certs = {p[0].extended_certificate for p in picks}
        if len(certs) != 1:
            continue
        chosen = picks[0][0]
        graph = Graph(
            card_reports[0].graph.n,
            card_reports[0].graph.edges | frozenset(chosen.edges),
        )
        certified.append(CertifiedMatch(ratio=ratio, certificate=chosen.extended_certificate, graph=graph))

    distinct = {}
    for match in certified:
        distinct.setdefault(match.certificate, match.graph)
    reconstructed = tuple(distinct[cert] for cert in sorted(distinct))
    return ExtensionFilterReport(
        total_edges=total_edges,
        origin_mode=origins,
        cards=tuple(card_reports),
        certified=tuple(certified),
        unique=len(reconstructed) == 1,
        reconstructed=reconstructed,
    )
