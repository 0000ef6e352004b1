"""Orbits of vertices, vertex pairs, and whole edge sets under a permutation group.

Orbits are computed by breadth-first closure over the generator action, so
large groups with small orbits stay cheap. Edge-set orbits walk over
frozensets of pair indices, each generator acting through its pair-index
permutation, and only materialize their elements as pair sets when asked,
since exact counting is the common case.
"""

from __future__ import annotations

from .errors import DegreeMismatchError
from .graphs import Pair, all_pairs, normalize_pair, pair_index
from .perms import PermGroup, point_orbit


class Orbit:
    """An orbit with its element kind ('vertex', 'pair', or 'edge-set').

    Edge-set orbits may be backed by sets of pair indices; ``size`` is
    always cheap and ``elements`` converts on first access.
    """

    __slots__ = ("kind", "_elements", "_indices", "_degree")

    def __init__(self, kind: str, elements=None, *, indices=None, degree: int = 0):
        self.kind = kind
        self._elements = frozenset(elements) if elements is not None else None
        self._indices = indices
        self._degree = degree

    @property
    def size(self) -> int:
        if self._elements is not None:
            return len(self._elements)
        return len(self._indices)

    @property
    def elements(self) -> frozenset:
        if self._elements is None:
            pairs = all_pairs(self._degree)
            self._elements = frozenset(
                frozenset(pairs[i] for i in state) for state in self._indices
            )
        return self._elements

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


def vertex_orbit(group: PermGroup, v: int) -> Orbit:
    if not 0 <= v < group.degree:
        raise DegreeMismatchError(f"vertex {v} out of range for degree {group.degree}")
    return Orbit("vertex", point_orbit([v], group.generators))


def pair_orbit(group: PermGroup, pair: Pair) -> Orbit:
    p = normalize_pair(*pair)
    if p[1] >= group.degree:
        raise DegreeMismatchError(f"pair {p} out of range for degree {group.degree}")
    pairs = all_pairs(group.degree)
    return Orbit("pair", (pairs[i] for i in point_orbit([pair_index(*p)], group.pair_action)))


def edge_set_orbit(group: PermGroup, pairs) -> Orbit:
    """Orbit of a whole set of pairs, compared as sets.

    The seed may mix edges and non-edges of whatever graph the group came
    from; the action only needs the pairs themselves.
    """
    seed = frozenset(normalize_pair(*p) for p in pairs)
    if any(p[1] >= group.degree for p in seed):
        raise DegreeMismatchError(f"pair set exceeds degree {group.degree}")
    tables = group.pair_action
    seen = {frozenset(pair_index(*p) for p in seed)}
    frontier = list(seen)
    while frontier:
        frontier = {frozenset(map(t.__getitem__, s)) for s in frontier for t in tables} - seen
        seen |= frontier
    return Orbit("edge-set", indices=seen, degree=group.degree)
