"""Orbits of vertices, vertex pairs, and whole edge sets under a permutation group.

Orbits are computed by breadth-first closure over the generator action, so
large groups with small orbits stay cheap. Edge-set orbits walk over
pair-index bitmasks and only materialize their elements as pair sets when
asked, since exact counting is the common case.
"""

from __future__ import annotations

from .errors import DegreeMismatchError
from .graphs import Pair, all_pairs, normalize_pair, pair_index
from .perms import PermGroup, point_orbit

_ZERO_BYTE_TABLE = (0,) * 256


class Orbit:
    """An orbit with its element kind ('vertex', 'pair', or 'edge-set').

    Edge-set orbits may be backed by raw bitmasks; ``size`` is always cheap
    and ``elements`` converts on first access.
    """

    __slots__ = ("kind", "_elements", "_masks", "_degree")

    def __init__(self, kind: str, elements=None, *, masks=None, degree: int = 0):
        self.kind = kind
        self._elements = frozenset(elements) if elements is not None else None
        self._masks = masks
        self._degree = degree

    @property
    def size(self) -> int:
        if self._elements is not None:
            return len(self._elements)
        return len(self._masks)

    @property
    def elements(self) -> frozenset:
        if self._elements is None:
            pairs = all_pairs(self._degree)
            out = []
            for mask in self._masks:
                members = []
                while mask:
                    low = mask & -mask
                    members.append(pairs[low.bit_length() - 1])
                    mask ^= low
                out.append(frozenset(members))
            self._elements = frozenset(out)
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


def _walk_masks(seed_mask: int, tables, nbytes: int) -> set[int]:
    """BFS closure of one pair-index bitmask under byte-translation tables."""
    seen = {seed_mask}
    frontier = [seed_mask]
    if nbytes <= 4:
        quads = [(tg + (_ZERO_BYTE_TABLE,) * (4 - len(tg)))[:4] for tg in tables]
        while frontier:
            new = []
            for x in frontier:
                b0 = x & 255
                b1 = (x >> 8) & 255
                b2 = (x >> 16) & 255
                b3 = (x >> 24) & 255
                for t0, t1, t2, t3 in quads:
                    y = t0[b0] | t1[b1] | t2[b2] | t3[b3]
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
            frontier = new
        return seen
    while frontier:
        new = []
        for x in frontier:
            for per_gen in tables:
                y = 0
                rest = x
                j = 0
                while rest:
                    y |= per_gen[j][rest & 255]
                    rest >>= 8
                    j += 1
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def edge_set_orbit(group: PermGroup, pairs) -> Orbit:
    """Orbit of a whole set of pairs, compared as sets.

    The seed may mix edges and non-edges of whatever graph the group came
    from; the action only needs the pairs themselves.
    """
    seed = frozenset(normalize_pair(*p) for p in pairs)
    if any(p[1] >= group.degree for p in seed):
        raise DegreeMismatchError(f"pair set exceeds degree {group.degree}")
    seed_mask = 0
    for p in seed:
        seed_mask |= 1 << pair_index(*p)
    npairs = group.degree * (group.degree - 1) // 2
    masks = _walk_masks(seed_mask, group.pair_action_bytes, (npairs + 7) // 8)
    return Orbit("edge-set", masks=masks, degree=group.degree)
