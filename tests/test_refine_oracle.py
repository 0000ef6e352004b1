"""Split-cell refinement against the full-signature refinement it replaced.

``oracles.full_refine`` recounts every vertex against every cell on every
pass. ``canon._refine`` counts only into the cells that are new since the
last pass; both must return the same cells in the same order.
"""

import math
import random

import pytest

import smallgraphs
from autorbit import canon
from autorbit.graphs import all_pairs
from oracles import full_refine


def graphs():
    rng = random.Random("refine-oracle")
    for n in range(41):
        yield f"G{n}", smallgraphs.seeded_graph(rng, n)
    yield "C64", smallgraphs.cycle(64)
    yield "grid8x8", smallgraphs.grid(8, 8)
    yield "Q5", smallgraphs.hypercube(5)
    yield "Petersen", smallgraphs.petersen()
    yield "K8", smallgraphs.complete(8)
    yield "E8", smallgraphs.empty(8)


def rows_with_layers(graph, layers, rng):
    """Adjacency rows, with a seeded second pair colour stacked above when layers == 2."""
    if layers == 1:
        return graph.adjacency
    pairs = rng.sample(all_pairs(graph.n), rng.randint(0, math.comb(graph.n, 2)))
    return smallgraphs.two_colour_rows(graph, pairs)


def seeded_partition(n, rng):
    """Vertices dealt into a few cells in shuffled order, members unsorted."""
    vertices = list(range(n))
    rng.shuffle(vertices)
    cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 4)))) if n > 1 else []
    return [vertices[a:b] for a, b in zip([0] + cuts, cuts + [n]) if vertices[a:b]]


CASES = [
    pytest.param(graph, layers, id=f"{name}-{layers}colour")
    for name, graph in graphs()
    for layers in (1, 2)
]
# long chains of passes, where the quiet largest fragments and the carried cell masks act;
# with two colours the second is the pairs at distance two, which keeps the chains long
LONG_CHAINS = [
    pytest.param(name, graph, layers, id=f"{name}-{layers}colour")
    for name, graph in [
        ("C100", smallgraphs.cycle(100)),
        ("C200", smallgraphs.cycle(200)),
        ("P200", smallgraphs.path(200)),
        ("grid12x12", smallgraphs.grid(12, 12)),
        ("K1,60", smallgraphs.star(60)),
    ]
    for layers in (1, 2)
]


def distance_two_rows(graph, layers):
    if layers == 1:
        return graph.adjacency
    rows = graph.adjacency
    pairs = [(u, w) for u, w in all_pairs(graph.n) if rows[u] & rows[w] and not rows[u] >> w & 1]
    return smallgraphs.two_colour_rows(graph, pairs)


def check_refine_matches_full_refinement(rows, n, layers, rng):
    partitions = [canon.unit_partition(n)] + [seeded_partition(n, rng) for _ in range(3)]
    for cells in partitions + [[[]] + partitions[-1], partitions[-1] + [[]]]:
        assert canon._refine(rows, cells, layers) == full_refine(rows, cells, layers)


def check_individualizing_walks(rows, n, layers, rng):
    """Walks down from the root as the search calls ``_refine``: one new cell a pass, and the
    cells' vertex masks carried from node to node, updated in place."""
    for walk in range(3):
        unit = canon.unit_partition(n)
        masks = [(1 << n) - 1] * len(unit)
        cells = canon._refine(rows, unit, layers, [0] * len(unit), masks)
        assert cells == full_refine(rows, unit, layers)
        while any(len(cell) > 1 for cell in cells):
            assert masks == [sum(1 << w for w in cell) for cell in cells]
            open_cells = [i for i, cell in enumerate(cells) if len(cell) > 1]
            # the search's choice first (first smallest cell, first vertex), then seeded ones
            i = min(open_cells, key=lambda j: len(cells[j])) if walk == 0 else rng.choice(open_cells)
            v = cells[i][0] if walk == 0 else rng.choice(cells[i])
            split = cells[:i] + [[v], [w for w in cells[i] if w != v]] + cells[i + 1:]
            masks = masks[:i] + [1 << v, masks[i] ^ 1 << v] + masks[i + 1:]
            cells = canon._refine(rows, split, layers, [i], masks)
            assert cells == full_refine(rows, split, layers)
        assert masks == [sum(1 << w for w in cell) for cell in cells]


@pytest.mark.parametrize("graph, layers", CASES)
def test_refine_matches_full_signature_refinement(graph, layers):
    rng = random.Random(f"{graph.n}:{graph.mask}:{layers}")
    check_refine_matches_full_refinement(rows_with_layers(graph, layers, rng), graph.n, layers, rng)


@pytest.mark.parametrize("graph, layers", CASES)
def test_individualizing_passes_only_the_singleton_as_new(graph, layers):
    rng = random.Random(f"path:{graph.n}:{graph.mask}:{layers}")
    check_individualizing_walks(rows_with_layers(graph, layers, rng), graph.n, layers, rng)


@pytest.mark.parametrize("name, graph, layers", LONG_CHAINS)
def test_long_pass_chains_match_full_signature_refinement(name, graph, layers):
    rows = distance_two_rows(graph, layers)
    check_refine_matches_full_refinement(rows, graph.n, layers, random.Random(f"long:{name}:{layers}"))
    check_individualizing_walks(rows, graph.n, layers, random.Random(f"long-path:{name}:{layers}"))
