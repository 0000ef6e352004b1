"""Independent brute-force oracles used only by tests.

Everything here goes straight to definitions (all n! bijections, all edge
subsets) and never through the search code it is checking.
"""

import itertools
import math

from autorbit.graphs import Graph, from_edge_mask, normalize_pair
from autorbit.orbits import Orbit
from autorbit.perms import PermGroup, apply_edge_set, apply_graph, apply_pair


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    """Try every bijection between the vertex sets."""
    if g.n != h.n or g.m != h.m:
        return False
    return any(apply_graph(p, g).edges == h.edges for p in itertools.permutations(range(g.n)))


def brute_aut_order(g: Graph) -> int:
    """Count adjacency-preserving bijections directly."""
    adjacency = g.adjacency
    edges = tuple(g.edges)
    return sum(
        1
        for p in itertools.permutations(range(g.n))
        if all((adjacency[p[u]] >> p[v]) & 1 for u, v in edges)
    )


def randrange_floyd(n: int, m: int, rng) -> set[int]:
    """Indices of m distinct pairs out of C(n, 2) by Floyd's subset sampling, one ``randrange`` per step."""
    total = math.comb(n, 2)
    chosen: set[int] = set()
    for j in range(total - m, total):
        t = rng.randrange(j + 1)
        chosen.add(t if t not in chosen else j)
    return chosen


def labeled_copy_census(n: int) -> dict[int, list[int]]:
    """Group every edge mask on n vertices into brute-force isomorphism classes.

    Returns {representative mask: [member masks]}; representatives are the
    smallest mask of their class. Masks are compared with brute_isomorphic,
    so this is usable only for small n.
    """
    classes: dict[int, list[int]] = {}
    reps: list[tuple[int, Graph]] = []
    for mask in range(1 << math.comb(n, 2)):
        graph = from_edge_mask(n, mask)
        for rep_mask, rep_graph in reps:
            if brute_isomorphic(rep_graph, graph):
                classes[rep_mask].append(mask)
                break
        else:
            reps.append((mask, graph))
            classes[mask] = [mask]
    return classes


def enumerated_orbit(group: PermGroup, x) -> Orbit:
    """{f(x) for every f in the group}, by full enumeration.

    ``x`` is a vertex, a pair, or an iterable of pairs taken as a set.
    """
    if isinstance(x, int):
        return Orbit("vertex", frozenset(f[x] for f in group.elements))
    if isinstance(x, tuple):
        p = normalize_pair(*x)
        return Orbit("pair", frozenset(apply_pair(f, p) for f in group.elements))
    seed = frozenset(normalize_pair(*p) for p in x)
    return Orbit("edge-set", frozenset(apply_edge_set(f, seed) for f in group.elements))


def stabilizer_order(group: PermGroup, x) -> int:
    """Number of group elements fixing x (setwise for pair sets), by enumeration."""
    if isinstance(x, int):
        return sum(1 for f in group.elements if f[x] == x)
    if isinstance(x, tuple):
        p = normalize_pair(*x)
        return sum(1 for f in group.elements if apply_pair(f, p) == p)
    seed = frozenset(normalize_pair(*p) for p in x)
    return sum(1 for f in group.elements if apply_edge_set(f, seed) == seed)


def full_refine(rows: tuple[int, ...], cells: list[list[int]], layers: int = 1) -> list[list[int]]:
    """Coarsest equitable refinement of an ordered partition, recounting every cell each pass.

    A vertex's row holds its neighbours under each pair colour, colour k in
    bits k*n..k*n+n-1. Cells split by the vector of neighbour counts into
    every current cell, colour by colour; fragments are ordered by that
    signature, so the result is deterministic.
    """
    cells = [sorted(c) for c in cells]
    n = len(rows)
    while True:
        masks = [sum(1 << v for v in c) for c in cells]
        for k in range(1, layers):
            masks += [m << (k * n) for m in masks[: len(cells)]]
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                row = rows[v]
                sig = tuple((row & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) > 1:
                changed = True
            for sig in sorted(groups):
                new_cells.append(groups[sig])
        if not changed:
            return new_cells
        cells = new_cells
