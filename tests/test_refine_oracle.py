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


@pytest.mark.parametrize("graph, layers", CASES)
def test_refine_matches_full_signature_refinement(graph, layers):
    rng = random.Random(f"{graph.n}:{graph.mask}:{layers}")
    rows = rows_with_layers(graph, layers, rng)
    n = graph.n
    partitions = [canon.unit_partition(n)] + [seeded_partition(n, rng) for _ in range(3)]
    for cells in partitions + [[[]] + partitions[-1], partitions[-1] + [[]]]:
        assert canon._refine(rows, cells, layers) == full_refine(rows, cells, layers)


@pytest.mark.parametrize("graph, layers", CASES)
def test_individualizing_passes_only_the_singleton_as_new(graph, layers):
    rng = random.Random(f"path:{graph.n}:{graph.mask}:{layers}")
    rows = rows_with_layers(graph, layers, rng)
    for walk in range(3):
        cells = full_refine(rows, canon.unit_partition(graph.n), layers)
        while any(len(cell) > 1 for cell in cells):
            open_cells = [i for i, cell in enumerate(cells) if len(cell) > 1]
            # the search's choice first (first smallest cell, first vertex), then seeded ones
            i = min(open_cells, key=lambda j: len(cells[j])) if walk == 0 else rng.choice(open_cells)
            v = cells[i][0] if walk == 0 else rng.choice(cells[i])
            split = cells[:i] + [[v], [w for w in cells[i] if w != v]] + cells[i + 1:]
            cells = canon._refine(rows, split, layers, [i])
            assert cells == full_refine(rows, split, layers)
