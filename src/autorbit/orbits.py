"""Orbits of vertices, vertex pairs, and whole edge sets under a permutation group.

Orbits are computed by breadth-first closure over the generator action, so
large groups with small orbits stay cheap. Pairs and edge sets (frozensets
of pairs) are moved through the vertex action, each image pair re-normalized
inline, so no walk builds a table over all C(n, 2) pairs.
"""

from __future__ import annotations

from .errors import DegreeMismatchError
from .graphs import Pair, normalize_pair
from .perms import PermGroup, point_orbit


class Orbit:
    """An orbit with its element kind ('vertex', 'pair', or 'edge-set')."""

    __slots__ = ("kind", "elements")

    def __init__(self, kind: str, elements):
        self.kind = kind
        self.elements = frozenset(elements)

    @property
    def size(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> list:
        if self.kind == "edge-set":
            return [
                tuple(sorted(e))
                for e in sorted(self.elements, key=lambda e: tuple(sorted(e)))
            ]
        return sorted(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Orbit):
            return NotImplemented
        return self.kind == other.kind and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.kind, self.elements))

    def __repr__(self) -> str:
        return f"Orbit(kind={self.kind!r}, size={self.size})"


def _seed(group: PermGroup, pairs) -> frozenset:
    """The pairs normalized, each end checked to be a vertex of the group's degree."""
    seed = frozenset(normalize_pair(*p) for p in pairs)
    for p in seed:
        if p[0] < 0 or p[1] >= group.degree:
            raise DegreeMismatchError(f"pair {p} out of range for degree {group.degree}")
    return seed


def vertex_orbit(group: PermGroup, v: int) -> Orbit:
    if not 0 <= v < group.degree:
        raise DegreeMismatchError(f"vertex {v} out of range for degree {group.degree}")
    return Orbit("vertex", point_orbit([v], group.generators))


def pair_orbit(group: PermGroup, pair: Pair) -> Orbit:
    """Orbit of one pair, walked through the vertex action."""
    seen = frontier = set(_seed(group, [pair]))
    while frontier:
        frontier = {(g[u], g[v]) if g[u] < g[v] else (g[v], g[u])
                    for u, v in frontier for g in group.generators} - seen
        seen |= frontier
    return Orbit("pair", seen)


def edge_set_orbit(group: PermGroup, pairs) -> Orbit:
    """Orbit of a whole set of pairs, compared as sets.

    The seed may mix edges and non-edges of whatever graph the group came
    from; the action only needs the pairs themselves.
    """
    seen = frontier = {_seed(group, pairs)}
    while frontier:
        frontier = {frozenset([(g[u], g[v]) if g[u] < g[v] else (g[v], g[u]) for u, v in s])
                    for s in frontier for g in group.generators} - seen
        seen |= frontier
    return Orbit("edge-set", seen)
