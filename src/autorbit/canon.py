"""Automorphism search, canonical certificates, and isomorphism testing.

The engine is classic individualization-refinement: refine an ordered vertex
partition to its coarsest equitable refinement, pick the first smallest
non-singleton cell, individualize each of its vertices in turn, and recurse.
Refinement counts neighbours only into the cells that are new since its last
pass (at a search node, just the individualized vertex), which gives the
same cells in the same order as recounting every cell. Discrete partitions
(leaves) induce a relabeling of the graph, whose bits are set from the edge
lists through a vertex-to-position table; the certificate is the
lexicographically smallest relabeled adjacency bitstring over all leaves. A
leaf whose bitstring equals the first leaf's yields an automorphism, and the
search jumps back to the first-path node its path left. Known automorphisms
fixing the current branching sequence skip equivalent siblings, so the at
most n - 1 harvested generators are strong for the first path's branching
sequence and the group order is the product of orbit lengths along it. A
second pair colour rides in the row ints (bits n..2n-1) and in a second
triangle after the first, so the same search finds the automorphisms that
keep an edge set in place. An isomorphism test stops at a leaf equal to the
other graph's certificate. Correctness before speed: the whole engine is
validated against the brute-force definition on every small graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import CapExceededError
from .graphs import EdgeSet, Graph, edge_set
from .perms import Perm, PermGroup, perm_group, point_orbit, reduce_generators

OrderedPartition = list[list[int]]

# one stack frame per search level; below the interpreter's default recursion
# limit of 1000, with room for the callers' frames
MAX_SEARCH_DEPTH = 800


def unit_partition(n: int) -> OrderedPartition:
    return [list(range(n))] if n else []


def _validate_partition(n: int, cells: OrderedPartition) -> OrderedPartition:
    out = [list(cell) for cell in cells]
    members = [v for cell in out for v in cell]
    if len(members) != n or set(members) != set(range(n)):
        raise ValueError("cells must partition 0..n-1 without repeats")
    return out


def _refine(
    rows: tuple[int, ...], cells: OrderedPartition, layers: int = 1, new: list[int] | None = None
) -> OrderedPartition:
    """Coarsest equitable refinement of an ordered partition.

    A vertex's row holds its neighbours under each pair colour, colour k in
    bits k*n..k*n+n-1. Cells split by the vector of neighbour counts into
    every current cell, colour by colour; fragments are ordered by that
    signature, so the result is deterministic.

    Only counts into the ``new`` cells (indices, all by default) are taken,
    only cells next to one of them are examined, and each pass's new cells
    are the fragments of the cells it split. A cell's members already agree
    on their counts into every other cell, so the new counts group them, and
    sort the fragments, as the full vector would. Passing just a singleton
    [v] split off an equitable partition (sorted, as returned here) is exact
    too: the count into the rest of v's old cell follows from the count into
    [v], which comes first.
    """
    n = len(rows)
    if new is None:  # else the cells come sorted and non-empty, as this returns them
        cells = [sorted(c) for c in cells if c]
    masks = [0] * len(cells)  # vertex bitmask per cell, 0 until needed
    pending = range(len(cells)) if new is None else new
    while pending:
        near = 0  # neighbours of the new cells, under any colour
        for j in pending:
            masks[j] = masks[j] or sum(1 << w for w in cells[j])
            for w in cells[j]:
                near |= rows[w]
        if not near:  # no cell has a neighbour in the new cells, so none can split
            break
        counted = [masks[j] << (k * n) for k in range(layers) for j in pending]
        for k in range(1, layers):
            near |= near >> (k * n)
        out: OrderedPartition = []
        out_masks: list[int] = []
        pending = []
        for cell, mask in zip(cells, masks):
            if len(cell) > 1:
                mask = mask or sum(1 << v for v in cell)
                if mask & near:
                    groups: dict[tuple[int, ...], list[int]] = {}
                    for v in cell:
                        sig = tuple([(rows[v] & m).bit_count() for m in counted])
                        groups.setdefault(sig, []).append(v)
                    if len(groups) > 1:
                        for sig in sorted(groups):
                            pending.append(len(out))
                            out.append(groups[sig])
                            out_masks.append(0)
                        continue
            out.append(cell)
            out_masks.append(mask)
        cells, masks = out, out_masks
    return cells


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
    nodes: int = 0


def _search(graph: Graph, colour: EdgeSet | None = None, stop: int | None = None) -> _SearchOutcome:
    """Individualization-refinement over the graph, plus ``colour`` (if given,
    even empty) as a second pair colour at row bits n..2n-1, up to a leaf equal to ``stop``."""
    n = graph.n
    colours = [graph.edges] if colour is None else [graph.edges, colour]
    rows = list(graph.adjacency)
    for u, v in colour or ():
        rows[u] |= 1 << (n + v)
        rows[v] |= 1 << (n + u)
    outcome = _SearchOutcome()
    gens = outcome.generators
    first_bits: int | None = None
    first_lab: Perm = ()
    best_bits = 0
    # leaf bits: each colour's relabeled upper triangle, row-major, as 0/1 text after a "0"
    # (so n < 2 parses); colour k's pair at positions i < j is character k*span + start[i] + j
    span = math.comb(n, 2)
    blank = bytearray(b"0") * (1 + len(colours) * span)
    start = [span - math.comb(n - 1 - i, 2) - (n - 1) for i in range(n)]

    def leaf_bits(lab: Perm) -> int:
        pos = [0] * n
        for i, v in enumerate(lab):
            pos[v] = i
        text = blank[:]
        for shift, pairs in zip((0, span), colours):
            for u, v in pairs:
                i, j = pos[u], pos[v]
                text[shift + (start[i] + j if i < j else start[j] + i)] = 49  # "1"
        return int(text, 2)

    def recurse(cells: OrderedPartition, base: tuple[int, ...], new: list[int] | None) -> int:
        """Search below a node; return the depth of the first-path node to go on at."""
        nonlocal first_bits, first_lab, best_bits
        depth = len(base)
        if depth == MAX_SEARCH_DEPTH:
            raise CapExceededError(f"search depth exceeds the cap of {MAX_SEARCH_DEPTH} levels")
        cells = _refine(rows, cells, len(colours), new)
        outcome.nodes += 1
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
                first_bits = best_bits = bits
                first_lab = lab
            elif bits == first_bits:
                g = [0] * n
                for a, b in zip(first_lab, lab):
                    g[a] = b
                gens.append(tuple(g))
                # jump back: this subtree is the image of one already searched
                return next(i for i, (a, b) in enumerate(zip(base, outcome.base)) if a != b)
            best_bits = min(best_bits, bits)  # a leaf equal to stop, a certificate, is the least
            return -1 if bits == stop else depth  # -1 unwinds every level
        head = cells[:target]
        cell = cells[target]
        tail = cells[target + 1:]
        # ``orbit``: the tried siblings' orbit under ``fixers``, the generators
        # fixing ``base``, refiltered when the harvest has grown since
        fixers: list[Perm] = []
        filtered = 0
        orbit: set[int] = set()
        for v in cell:
            if orbit:
                if len(gens) > filtered:
                    filtered = len(gens)
                    fixers = [g for g in gens if all(g[b] == b for b in base)]
                    orbit = point_orbit(orbit, fixers)
                if v in orbit:
                    continue
            rest = [w for w in cell if w != v]
            resume = recurse(head + [[v], rest] + tail, base + (v,), [target])
            if resume < depth:
                return resume
            orbit |= point_orbit([v], fixers)
        return depth

    recurse(unit_partition(n), (), None)
    outcome.best_bits = best_bits
    return outcome


def _outcome(graph: Graph, stop: int | None = None) -> _SearchOutcome:
    """The graph's search, run once per Graph object and kept on it like ``adjacency``.

    The group and the certificate both derive from it; a separately built
    equal graph is searched again. A search stopped at ``stop`` is not kept.
    """
    outcome = graph.__dict__.get("_search_outcome") or _search(graph, stop=stop)
    if outcome.best_bits != stop:
        graph.__dict__["_search_outcome"] = outcome
    return outcome


def automorphism_group(graph: Graph) -> PermGroup:
    """Automorphism group computed by individualization-refinement search.

    The harvest is reduced along the search's first-path base, which also
    yields the order the group carries. The group is kept on the graph next
    to its search.
    """
    group = graph.__dict__.get("_aut_group")
    if group is None:
        outcome = _outcome(graph)
        generators, order = reduce_generators(outcome.generators, outcome.base)
        group = graph.__dict__["_aut_group"] = perm_group(generators, degree=graph.n)
        group.__dict__["_order"] = order
    return group


def edge_set_stabilizer_order(graph: Graph, pairs) -> int:
    """Number of automorphisms of ``graph`` that map the pair set onto itself.

    The pairs are a second pair colour stacked above the adjacency rows, so
    one search of the two-coloured graph finds Aut(graph) ∩ Aut(pairs). The
    pairs may be edges, non-edges or a mix of both.
    """
    outcome = _search(graph, edge_set(pairs, graph.n))
    return reduce_generators(outcome.generators, outcome.base)[1]


def canonical_form(graph: Graph) -> bytes:
    """Relabeling-invariant certificate; two graphs share it iff isomorphic.

    Layout: 4 bytes of vertex count, then the canonically relabeled upper
    triangle (row-major) packed big-endian.
    """
    n = graph.n
    nbits = math.comb(n, 2)
    nbytes = (nbits + 7) // 8
    packed = _outcome(graph).best_bits << (nbytes * 8 - nbits)
    return n.to_bytes(4, "big") + packed.to_bytes(nbytes, "big")


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Whether g ≅ h, searching ``h`` only up to a leaf equal to ``g``'s certificate, which is exact:
    such a leaf relabels ``h`` onto that form, and if g ≅ h, the stopped search is a prefix of the
    full one, whose best leaf is that form."""
    if g.n != h.n or g.m != h.m or sorted(g.degrees()) != sorted(h.degrees()):
        return False
    stop = _outcome(g).best_bits
    return _outcome(h, stop).best_bits == stop
