"""Automorphism search, canonical certificates, and isomorphism testing.

The engine is classic individualization-refinement: refine an ordered vertex
partition, with each cell's vertex mask, to its coarsest equitable
refinement, pick the first smallest non-singleton cell, individualize each of
its vertices in turn, and recurse. Refinement counts neighbours only into the
cells new since its last pass (at a search node, just the individualized
vertex; one such cell is keyed by the bare count) and looks only next to
those that are not the largest fragment of a split, which gives the same
cells in the same order as recounting every cell. Leaves relabel the graph;
the certificate is the least relabeled adjacency bitstring over all leaves.
Off the first path, a node whose cell sizes match the first path's at its
depth maps those cells onto its own in order; if that is an automorphism, it
is kept and the search jumps back to the first-path node the path left. A
sibling twin to its node's first child (same neighbours, but for each other)
is skipped, its swap with the child kept on the first path. Below a
first-path node whose open cells are all twin classes, the rest of the path,
one swap a level, and its leaf are written down without search. Known
automorphisms fixing the branching sequence skip equivalent siblings (on the
first path, orbits kept in a union-find), so the at most n - 1 harvested
generators are strong for the first path, and the group order is the product
of its orbit lengths, multiplied in as each first-path node finishes. The
group is that harvest and order, unreduced: rarely, a generator is redundant. A
second pair colour rides in the row ints (bits n..2n-1) and in a second
triangle after the first, so the same search finds the automorphisms that
keep an edge set in place. An isomorphism test stops at a leaf equal to the
other graph's certificate. The engine is checked against brute force on
every small graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import CapExceededError
from .graphs import EdgeSet, Graph, edge_set
from .perms import Orbits, Perm, PermGroup, point_orbit

OrderedPartition = list[list[int]]

# one stack frame per search level; below the interpreter's default recursion
# limit of 1000, with room for the callers' frames
MAX_SEARCH_DEPTH = 800


def unit_partition(n: int) -> OrderedPartition:
    return [list(range(n))] if n else []


def _refine(
    rows: tuple[int, ...], cells: OrderedPartition, layers: int = 1, new: list[int] | None = None,
    masks: list[int] | None = None,
) -> OrderedPartition:
    """Coarsest equitable refinement of an ordered partition.

    A vertex's row holds its neighbours under each pair colour, colour k in
    bits k*n..k*n+n-1. Cells split by the vector of neighbour counts into
    every current cell, colour by colour; fragments are ordered by that
    signature, so the result is deterministic.

    Only counts into the ``new`` cells (indices, all by default) are taken,
    and each pass's new cells are the fragments of the cells it split. A
    cell's members already agree on their counts into every other cell, so
    the new counts group them, and sort the fragments, as the full vector
    would. Only cells next to the loud new cells, all but the largest
    fragment of each split, are examined, and their members next to none
    share one signature: a count into that fragment is the count into the
    old cell, the same across the cell, less those into the loud ones.
    Passing just [v] split off an equitable partition (sorted, as returned
    here) is exact too, the rest of v's old cell uncounted after [v].
    ``masks``, the cells' vertex bitmasks if given, is updated in place.
    """
    n = len(rows)
    if new is None:  # else the cells come sorted and non-empty, as this returns them
        cells = [sorted(c) for c in cells if c]
        new = range(len(cells))
    masks = [sum(1 << w for w in c) for c in cells] if masks is None else masks
    pending = loud = new
    while pending:
        near = 0  # neighbours of the loud new cells, under any colour
        for j in loud:
            for w in cells[j]:
                near |= rows[w]
        if not near:  # no cell has a neighbour in the new cells, so none can split
            break
        counted = [masks[j] for j in pending]
        for k in range(1, layers):  # the counts in the other colours, whose neighbours join near
            counted += [masks[j] << (k * n) for j in pending]
            near |= near >> (k * n)
        one = len(counted) == 1 and counted[0]  # a lone count keys by the int, not a 1-tuple
        out: OrderedPartition = []
        out_masks, pending, loud = [], [], []
        for cell, mask in zip(cells, masks):
            if len(cell) > 1 and mask & near:
                groups: dict[int | tuple[int, ...], list[int]] = {}
                calm = []  # the members meeting no loud cell
                for v in cell:
                    if near >> v & 1:
                        row = rows[v]
                        key = (row & one).bit_count() if one else tuple([(row & m).bit_count() for m in counted])
                        groups.setdefault(key, []).append(v)
                    else:
                        calm.append(v)
                if calm:  # a group of its own: the others meet a loud cell
                    row = rows[calm[0]]
                    groups[(row & one).bit_count() if one else tuple([(row & m).bit_count() for m in counted])] = calm
                if len(groups) > 1:
                    largest = max(groups.values(), key=len)
                    for _, fragment in sorted(groups.items()):
                        pending.append(len(out))
                        if fragment is largest:
                            quiet = len(out)  # its mask is what the others leave of the old cell's
                            out_masks.append(0)
                        else:
                            loud.append(len(out))
                            out_masks.append(sum(1 << v for v in fragment))
                            mask ^= out_masks[-1]
                        out.append(fragment)
                    out_masks[quiet] = mask
                    continue
            out.append(cell)
            out_masks.append(mask)
        cells = out
        masks[:] = out_masks
    return cells


def color_refine(graph: Graph, partition: OrderedPartition | None = None) -> OrderedPartition:
    """Equitable refinement of ``partition`` (the unit partition by default)."""
    cells = unit_partition(graph.n) if partition is None else [list(cell) for cell in partition]
    members = [v for cell in cells for v in cell]
    if len(members) != graph.n or set(members) != set(range(graph.n)):
        raise ValueError("cells must partition 0..n-1 without repeats")
    return _refine(graph.adjacency, cells)


@dataclass
class _SearchOutcome:
    generators: list[Perm] = field(default_factory=list)
    base: tuple[int, ...] = ()
    best_bits: int = 0
    leaves: int = 0
    nodes: int = 0
    order: int = 1  # the product of the first path's orbit lengths under the harvest


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
    first_cells: list[OrderedPartition] = []  # the first path's refined partitions, by depth
    best_bits: int | None = None  # None until the first leaf
    orbits: Orbits | None = None  # the first path's, once there is a generator
    layers = 1 if colour is None else 1 | 1 << n  # a vertex's bit in each colour's row
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

    def twins(f: int, v: int) -> bool:  # in every pair colour: swapping them is an automorphism
        return not (rows[f] ^ rows[v]) & ~((1 << f | 1 << v) * layers)

    def swap(f: int, v: int) -> Perm:
        return tuple(v if x == f else f if x == v else x for x in range(n))

    def recurse(cells: OrderedPartition, masks: list[int], base: tuple[int, ...], new: list[int]) -> int:
        """Search below a node; return the depth of the first-path node to go on at."""
        nonlocal best_bits, orbits
        depth = len(base)
        if depth == MAX_SEARCH_DEPTH:
            raise CapExceededError(f"search depth exceeds the cap of {MAX_SEARCH_DEPTH} levels")
        cells = _refine(rows, cells, len(colours), new, masks)
        outcome.nodes += 1
        open_cells = [(len(cell), i) for i, cell in enumerate(cells) if len(cell) > 1]
        on_path = best_bits is None
        if on_path:
            first_cells.append(cells)
            if open_cells and all(twins(cells[i][0], v) for _, i in open_cells for v in cells[i][1:]):
                # individualizing twins splits nothing: write the path down, cells by (size, index), a swap a level
                if depth + sum(size - 1 for size, _ in open_cells) >= MAX_SEARCH_DEPTH:  # the leaf's depth
                    raise CapExceededError(f"search depth exceeds the cap of {MAX_SEARCH_DEPTH} levels")
                parts, swaps = [[cell] for cell in cells], []  # each cell's fragments so far
                for size, i in sorted(open_cells):
                    cell = cells[i]
                    for k in range(1, size):
                        parts[i][-1:] = [[cell[k - 1]], cell[k:]]
                        first_cells.append([c for fragments in parts for c in fragments])
                        swaps.append((cell[k - 1], cell[k]))
                    outcome.order *= math.factorial(size)
                gens.extend(swap(f, v) for f, v in reversed(swaps))  # deepest level first
                base += tuple(f for f, _ in swaps)
                cells, open_cells = first_cells[-1], []
        outcome.leaves += not open_cells
        if not on_path and depth < len(first_cells) and list(map(len, cells)) == list(map(len, first_cells[depth])):
            # an automorphism mapping the first path's cells here onto these maps the subtree
            # searched below that node onto this one (and the first leaf onto a leaf)
            g = [0] * n
            for a, b in zip(first_cells[depth], cells):
                for x, y in zip(a, b):
                    g[x] = y
            if all(rows[g[u]] >> (k + g[v]) & 1 for k, pairs in zip((0, n), colours) for u, v in pairs):
                gens.append(tuple(g))
                # jump back to the first-path node this path left
                return next(i for i, (a, b) in enumerate(zip(base, outcome.base)) if a != b)
        if not open_cells:
            bits = leaf_bits(tuple(cell[0] for cell in cells))
            if on_path:
                outcome.base, best_bits = base, bits
            best_bits = min(best_bits, bits)  # a leaf equal to stop, a certificate, is the least
            return -1 if bits == stop else depth  # -1 unwinds every level
        target = min(open_cells)[1]  # the first smallest
        head, cell, tail = cells[:target], cells[target], cells[target + 1:]
        mask_head, mask, mask_tail = masks[:target], masks[target], masks[target + 1:]
        # skip a sibling in the tried ones' orbit under the generators fixing base (on the first path: all)
        f, tried, orbit, fixers = cell[0], [], set(), None
        for v in cell:
            if (orbits.root[v] if on_path and orbits else v) in orbit:
                continue
            if v != f and twins(f, v):  # swapping them maps f's subtree onto v's
                if on_path:
                    gens.append(swap(f, v))
            else:
                child = head + [[v], [w for w in cell if w != v]] + tail
                resume = recurse(child, mask_head + [1 << v, mask ^ 1 << v] + mask_tail, base + (v,), [target])
                if resume < depth:
                    return resume
            tried.append(v)
            if on_path and gens:
                orbits = (orbits or Orbits(n)).update(gens)
                orbit = {orbits.root[t] for t in tried}
            else:
                fixers = [g for g in gens if all(g[b] == b for b in base)] if fixers is None else fixers
                orbit |= point_orbit([v], fixers)
        if on_path and orbits:  # every generator so far fixes base: this is the stabilizer chain's index
            outcome.order *= len(orbits.orbit(f))
        return depth

    root = unit_partition(n)
    recurse(root, [(1 << n) - 1] * len(root), (), [0] * len(root))
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

    The generators are the search's harvest, strong for its first-path base
    and at most n - 1, each joining two of that path's orbits; the group
    carries the order the search read off that path. Only the search is kept
    on the graph, so each call builds the group anew from it.
    """
    outcome = _outcome(graph)
    group = PermGroup(graph.n, tuple(sorted(outcome.generators)))
    group.__dict__["_order"] = outcome.order
    return group


def edge_set_stabilizer_order(graph: Graph, pairs) -> int:
    """Number of automorphisms of ``graph`` that map the pair set onto itself.

    The pairs are a second pair colour stacked above the adjacency rows, so
    one search of the two-coloured graph finds Aut(graph) ∩ Aut(pairs). The
    pairs may be edges, non-edges or a mix of both.
    """
    return _search(graph, edge_set(pairs, graph.n)).order


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
    if g.n != h.n or g.m != h.m or g.degree_sequence != h.degree_sequence:
        return False
    stop = _outcome(g).best_bits
    return _outcome(h, stop).best_bits == stop
