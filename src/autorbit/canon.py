"""Automorphism search, canonical certificates, and isomorphism testing.

The engine is classic individualization-refinement: refine an ordered vertex
partition to its coarsest equitable refinement, pick the first smallest
non-singleton cell, individualize each of its vertices in turn, and recurse.
Discrete partitions (leaves) induce a relabeling of the graph; the
certificate is the lexicographically smallest relabeled adjacency bitstring
over all leaves, and automorphism generators are harvested whenever two
leaves produce identical bitstrings. Already-discovered automorphisms that
fix the current branching sequence pointwise are used to skip equivalent
siblings, so the harvest is strong for the first path's branching sequence
and the group order is the product of orbit lengths along it. A second pair
colour rides in the same row ints, one n-bit layer per colour, so the same
search finds the automorphisms that keep an edge set in place. Correctness
before speed: the whole engine is validated against the brute-force
definition on every small graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graphs import Graph, edge_set
from .perms import Perm, PermGroup, identity, perm_group, point_orbit, reduce_generators

OrderedPartition = list[list[int]]


def unit_partition(n: int) -> OrderedPartition:
    return [list(range(n))] if n else []


def _validate_partition(n: int, cells: OrderedPartition) -> OrderedPartition:
    seen: set[int] = set()
    out = []
    for cell in cells:
        cl = list(cell)
        out.append(cl)
        seen.update(cl)
    if len(seen) != n or seen != set(range(n)) or sum(len(c) for c in out) != n:
        raise ValueError("cells must partition 0..n-1 without repeats")
    return out


def _refine(rows: tuple[int, ...], cells: OrderedPartition, layers: int = 1) -> OrderedPartition:
    """Coarsest equitable refinement of an ordered partition.

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
        new_cells: OrderedPartition = []
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


def color_refine(graph: Graph, partition: OrderedPartition | None = None) -> OrderedPartition:
    """Equitable refinement of ``partition`` (the unit partition by default)."""
    cells = unit_partition(graph.n) if partition is None else _validate_partition(graph.n, partition)
    return _refine(graph.adjacency, cells)


@dataclass
class _SearchOutcome:
    generators: list[Perm] = field(default_factory=list)
    base: tuple[int, ...] = ()
    best_bits: int = 0
    leaves: int = 0


def _search(n: int, rows: tuple[int, ...], layers: int = 1) -> _SearchOutcome:
    """Individualization-refinement over rows that stack ``layers`` pair colours."""
    ident = identity(n)
    outcome = _SearchOutcome()
    gens = outcome.generators
    first_bits: int | None = None
    first_lab: Perm = ident
    best_bits = 0
    best_lab: Perm = ident
    # a leaf's bits are the relabeled upper triangle of each colour in turn
    layer_rows = [rows] + [tuple(row >> (k * n) for row in rows) for k in range(1, layers)]

    def leaf_bits(lab: Perm) -> int:
        bits = 0
        for layer in layer_rows:
            for i in range(n):
                row = layer[lab[i]]
                for j in range(i + 1, n):
                    bits = (bits << 1) | ((row >> lab[j]) & 1)
        return bits

    def harvest(lab_a: Perm, lab_b: Perm) -> None:
        g = [0] * n
        for i in range(n):
            g[lab_a[i]] = lab_b[i]
        gt = tuple(g)
        if gt != ident:
            gens.append(gt)

    def recurse(cells: OrderedPartition, base: tuple[int, ...]) -> None:
        nonlocal first_bits, first_lab, best_bits, best_lab
        cells = _refine(rows, cells, layers)
        target = -1
        target_size = n + 1
        for i, cell in enumerate(cells):
            size = len(cell)
            if 1 < size < target_size:
                target_size = size
                target = i
        if target < 0:
            lab = tuple(cell[0] for cell in cells)
            bits = leaf_bits(lab)
            outcome.leaves += 1
            if first_bits is None:
                outcome.base = base
                first_bits = bits
                first_lab = lab
                best_bits = bits
                best_lab = lab
                return
            if bits == first_bits:
                harvest(first_lab, lab)
            if bits < best_bits:
                best_bits = bits
                best_lab = lab
            elif bits == best_bits and bits != first_bits:
                harvest(best_lab, lab)
            return
        head = cells[:target]
        cell = cells[target]
        tail = cells[target + 1:]
        tried: list[int] = []
        for v in cell:
            if tried:
                fixers = [g for g in gens if all(g[b] == b for b in base)]
                if fixers and v in point_orbit(tried, fixers):
                    continue
            rest = [w for w in cell if w != v]
            recurse(head + [[v], rest] + tail, base + (v,))
            tried.append(v)

    recurse(unit_partition(n), ())
    outcome.best_bits = best_bits
    return outcome


def _outcome(graph: Graph) -> _SearchOutcome:
    """The graph's search, run once per Graph object and kept on it like ``adjacency``.

    The group and the certificate both derive from it; a separately built
    equal graph is searched again.
    """
    outcome = graph.__dict__.get("_search_outcome")
    if outcome is None:
        outcome = graph.__dict__["_search_outcome"] = _search(graph.n, graph.adjacency)
    return outcome


def automorphism_group(graph: Graph) -> PermGroup:
    """Automorphism group computed by individualization-refinement search.

    The harvest is reduced along the search's first-path base, which also
    yields the order the group carries.
    """
    outcome = _outcome(graph)
    generators, order = reduce_generators(outcome.generators, outcome.base)
    group = perm_group(generators, degree=graph.n)
    group.__dict__["_order"] = order
    return group


def edge_set_stabilizer_order(graph: Graph, pairs) -> int:
    """Number of automorphisms of ``graph`` that map the pair set onto itself.

    The pairs are a second pair colour stacked above the adjacency rows, so
    one search of the two-coloured graph finds Aut(graph) ∩ Aut(pairs). The
    pairs may be edges, non-edges or a mix of both.
    """
    n = graph.n
    colour = [0] * n
    for u, v in edge_set(pairs, n):
        colour[u] |= 1 << v
        colour[v] |= 1 << u
    rows = tuple(row | (c << n) for row, c in zip(graph.adjacency, colour))
    outcome = _search(n, rows, 2)
    return reduce_generators(outcome.generators, outcome.base)[1]


def _pack_bits(bits: int, nbits: int) -> bytes:
    nbytes = (nbits + 7) // 8
    if nbytes == 0:
        return b""
    return (bits << (nbytes * 8 - nbits)).to_bytes(nbytes, "big")


def canonical_form(graph: Graph) -> bytes:
    """Relabeling-invariant certificate; two graphs share it iff isomorphic.

    Layout: 4 bytes of vertex count, then the canonically relabeled upper
    triangle (row-major) packed big-endian.
    """
    n = graph.n
    return n.to_bytes(4, "big") + _pack_bits(_outcome(graph).best_bits, math.comb(n, 2))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    return canonical_form(g) == canonical_form(h)
