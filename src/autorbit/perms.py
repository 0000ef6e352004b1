"""Vertex permutations, their actions on graphs and edge sets, and permutation groups.

A permutation of degree n is a tuple ``images`` of length n where
``images[i]`` is the image of vertex i. Groups are carried as generator
lists; the search's groups carry its harvest and the order it multiplied up
along its first path. ``reduce_generators`` (order read off a base) and the
closure behind ``elements`` are reference definitions, off every search path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import CapExceededError, DegreeMismatchError
from .graphs import EdgeSet, Graph, Pair

Perm = tuple[int, ...]

ELEMENT_CAP = 10_000_000
BRUTE_FORCE_CAP = 8


def identity(n: int) -> Perm:
    return tuple(range(n))


def make_perm(images: Iterable[int]) -> Perm:
    """Validate and freeze a permutation given by its image array."""
    perm = tuple(images)
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"{perm} is not a bijection of 0..{len(perm) - 1}")
    return perm


def compose(f: Perm, g: Perm) -> Perm:
    """Composite permutation applying g first: (f o g)(x) = f(g(x))."""
    if len(f) != len(g):
        raise DegreeMismatchError(f"degrees {len(f)} and {len(g)} differ")
    return tuple(f[x] for x in g)


def inverse(f: Perm) -> Perm:
    inv = [0] * len(f)
    for i, fi in enumerate(f):
        inv[fi] = i
    return tuple(inv)


def apply_pair(f: Perm, pair: Pair) -> Pair:
    """Image of a vertex pair, re-normalized to (min, max)."""
    u, v = pair
    if not (0 <= u < len(f) and 0 <= v < len(f)):
        raise DegreeMismatchError(f"pair {pair} out of range for degree {len(f)}")
    fu, fv = f[u], f[v]
    return (fu, fv) if fu < fv else (fv, fu)


def apply_edge_set(f: Perm, pairs: Iterable[Pair]) -> EdgeSet:
    return frozenset(apply_pair(f, p) for p in pairs)


def apply_graph(f: Perm, graph: Graph) -> Graph:
    """Relabel a graph by f; the image has edge (f(u), f(v)) for each edge (u, v)."""
    if len(f) != graph.n:
        raise DegreeMismatchError(f"degree {len(f)} does not match n={graph.n}")
    return Graph(graph.n, apply_edge_set(f, graph.edges))


def is_automorphism(f: Perm, graph: Graph) -> bool:
    """True iff relabeling by f maps the edge set onto itself."""
    if len(f) != graph.n:
        raise DegreeMismatchError(f"degree {len(f)} does not match n={graph.n}")
    adjacency = graph.adjacency
    return all((adjacency[f[u]] >> f[v]) & 1 for u, v in graph.edges)


def _closure(degree: int, generators: tuple[Perm, ...], cap: int) -> tuple[Perm, ...]:
    """BFS closure of the generators starting from the identity.

    Enumeration order is deterministic for a fixed generator order.
    """
    ident = identity(degree)
    seen = {ident}
    ordered = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for h in frontier:
            for g in generators:
                c = tuple(g[x] for x in h)
                if c not in seen:
                    if len(seen) >= cap:
                        raise CapExceededError(f"group enumeration exceeds cap {cap}")
                    seen.add(c)
                    ordered.append(c)
                    new.append(c)
        frontier = new
    return tuple(ordered)


@dataclass(frozen=True)
class PermGroup:
    """Permutation group given by degree and a sorted generator tuple."""

    degree: int
    generators: tuple[Perm, ...]

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        return _closure(self.degree, self.generators, ELEMENT_CAP)

    @cached_property
    def _order(self) -> int:
        return len(self.elements)

    @property
    def order(self) -> int:
        """Recorded by the search that built the group, else the closure's size."""
        return self._order

    @cached_property
    def pair_action_bytes(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per-generator byte-translation tables over pair-index bitmasks.

        Entry j of a generator's table maps any byte of mask bits 8j..8j+7 to
        the OR of their image bits, read off ``pair_action_table``. No
        production path reads these tables: every orbit walk moves pairs
        through the vertex action. The attribute is kept only because
        ``perfbench/tracing.py`` lists it in ``SPANNED_ATTRS``.
        """
        npairs = self.degree * (self.degree - 1) // 2
        return tuple(
            tuple(
                tuple(sum(1 << table[j + i] for i in range(min(8, npairs - j)) if b >> i & 1)
                      for b in range(256))
                for j in range(0, npairs, 8)
            )
            for table in map(pair_action_table, self.generators)
        )


def pair_action_table(f: Perm) -> tuple[int, ...]:
    """Permutation of normalized-pair indices induced by a vertex permutation."""
    first = [v * (v - 1) // 2 for v in range(len(f))]  # the index of (0, v), as in ``pair_index``
    return tuple(first[fv] + fu if fv > fu else first[fu] + fv for v, fv in enumerate(f) for fu in f[:v])


def point_orbit(points: Iterable[int], generators: Sequence[Perm]) -> set[int]:
    """Every vertex that the generated group maps some vertex of ``points`` to."""
    seen = frontier = set(points)
    while frontier:
        frontier = {g[x] for x in frontier for g in generators} - seen
        seen |= frontier
    return seen


class Orbits:
    """Orbits under a growing list of permutations: a union-find that merges each one once."""

    def __init__(self, n: int):
        self.root = list(range(n))  # a name for each point's orbit
        self.members = [[x] for x in range(n)]  # each orbit's points, under its name
        self.merged = 0

    def update(self, generators: Sequence[Perm]) -> "Orbits":
        root, members = self.root, self.members
        for g in generators[self.merged:]:
            for x, y in enumerate(g):
                a, b = root[x], root[y]
                if a != b:
                    for z in members[b]:
                        root[z] = a
                    members[a] += members[b]
        self.merged = len(generators)
        return self

    def orbit(self, x: int) -> list[int]:
        return self.members[self.root[x]]


def reduce_generators(generators: Iterable[Perm], base: Sequence[int]) -> tuple[tuple[Perm, ...], int]:
    """Small generating subset and the group order, read off a base.

    The generators must be strong for the base: those fixing ``base[:i]``
    generate its pointwise stabilizer's orbit of ``base[i]``, and only the
    identity fixes the whole base. The search's harvest is strong for its
    first-path base (McKay & Piperno 2014); a full element list is strong
    for any base. From the deepest level up, a generator is kept while it
    enlarges the level point's orbit under those kept so far, until that
    orbit is its orbit under every generator fixing the earlier points (the
    first base point each moves is not earlier). The order is the product of
    those orbit lengths. Both orbits grow level by level, kept in ``Orbits``.
    """
    pool = sorted(set(generators))
    if not pool:
        return (), 1
    moved = [next((i for i, b in enumerate(base) if g[b] != b), len(base)) for g in pool]
    deepest_first = [pool[j] for j in sorted(range(len(pool)), key=moved.__getitem__, reverse=True)]
    level_orbits, kept_orbits = Orbits(len(pool[0])), Orbits(len(pool[0]))
    kept: list[Perm] = []
    order = 1
    for level in range(len(base) - 1, -1, -1):
        point = base[level]
        level_gens = [g for g, i in zip(pool, moved) if i >= level]
        target = len(level_orbits.update(deepest_first[:len(level_gens)]).orbit(point))
        while len(kept_orbits.orbit(point)) < target:
            for g in level_gens:
                if any(kept_orbits.root[g[x]] != kept_orbits.root[point] for x in kept_orbits.orbit(point)):
                    kept.append(g)
                    if len(kept_orbits.update(kept).orbit(point)) == target:
                        break
        order *= target
    return tuple(kept), order


def perm_group(generators: Iterable[Iterable[int]], degree: int | None = None) -> PermGroup:
    """Normalize generators (validate, dedupe, drop identity, sort) into a group."""
    gens = [make_perm(g) for g in generators]
    if degree is None:
        if not gens:
            raise DegreeMismatchError("degree is required for an empty generator list")
        degree = len(gens[0])
    for g in gens:
        if len(g) != degree:
            raise DegreeMismatchError(f"generator degree {len(g)} != {degree}")
    ident = identity(degree)
    return PermGroup(degree, tuple(sorted(set(gens) - {ident})))


def group_order(generators: Iterable[Iterable[int]], degree: int | None = None) -> int:
    """Order of the group generated by ``generators`` via closure enumeration."""
    gens = list(generators)
    return perm_group(gens, degree).order if gens else 1


def brute_force_aut(graph: Graph, cap: int = BRUTE_FORCE_CAP) -> PermGroup:
    """Automorphism group by filtering all n! bijections against the definition.

    The returned group's element list is exactly the filtered set (in
    lexicographic order); the generators are a reduced subset of it.
    """
    n = graph.n
    if n > cap:
        raise CapExceededError(f"n={n} exceeds brute-force cap {cap}")
    adjacency = graph.adjacency
    edges = tuple(graph.edges)
    auts = [
        p
        for p in itertools.permutations(range(n))
        if all((adjacency[p[u]] >> p[v]) & 1 for u, v in edges)
    ]
    generators, _ = reduce_generators(auts, range(n))
    group = perm_group(generators, degree=n)
    group.__dict__["elements"] = tuple(auts)
    return group
