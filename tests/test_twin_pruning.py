"""Twin pruning in the search: what it records must be automorphisms, and what it skips is never refined.

A sibling v that is a twin of its node's first child f in every pair colour
(the same neighbours, apart from each other) is skipped, with the swap
(f v) recorded on the first path; once every open cell of a first-path node
is a class of twins, the rest of the first path is peeled with one swap a
level. Both kinds of swap join the generators the group order is read from.
"""

import math
import random

import smallgraphs
from autorbit import canon
from autorbit.graphs import all_pairs, edge_set, from_edge_mask, new_graph
from autorbit.perms import apply_edge_set


def seeded_two_colour_cases():
    rng = random.Random("twin-soundness")
    for n in range(7, 13):
        for _ in range(40):
            graph = smallgraphs.seeded_graph(rng, n)
            # a few pairs, or nearly all, so that twins survive in both colours
            k = rng.choice([rng.randint(0, n // 2), math.comb(n, 2) - rng.randint(0, n // 2)])
            yield graph, edge_set(rng.sample(all_pairs(n), k), n)


def every_small_graph():
    for n in range(7):
        for mask in range(1 << math.comb(n, 2)):
            yield from_edge_mask(n, mask), None


def is_swap(g):
    return sum(x != y for x, y in enumerate(g)) == 2


def test_every_harvested_generator_keeps_both_pair_colours():
    swaps = 0
    for graph, colour in list(every_small_graph()) + list(seeded_two_colour_cases()):
        outcome = canon._search(graph, colour)
        for g in outcome.generators:
            assert apply_edge_set(g, graph.edges) == graph.edges, (graph, colour, g)
            assert colour is None or apply_edge_set(g, colour) == colour, (graph, colour, g)
            swaps += is_swap(g)
    assert swaps > 10_000  # twin swaps and peeled levels were harvested


def are_twins(pair_sets, f, v):
    def around(pairs, x):
        return {a if b == x else b for a, b in pairs if x in (a, b)} - {f, v}

    return all(around(pairs, f) == around(pairs, v) for pairs in pair_sets)


def test_a_twin_of_the_first_child_is_never_refined(monkeypatch):
    searched = []
    real = canon._refine

    def spy(rows, cells, layers=1, new=None, masks=None):
        if new is not None and len(new) == 1 and len(cells[new[0]]) == 1 and new[0] + 1 < len(cells):
            # a child: [v] split off the front of its parent's cell, sorted, whose first is f
            v, rest = cells[new[0]][0], cells[new[0] + 1]
            searched.append((v, min(v, rest[0])))
        return real(rows, cells, layers, new, masks)

    monkeypatch.setattr(canon, "_refine", spy)
    rng = random.Random("twin-spy")
    cases = [(smallgraphs.twin_hubs(), None), (new_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)]), None)]
    cases += [(from_edge_mask(5, mask), None) for mask in range(1 << 10)]
    cases += [(g, c) for g, c in seeded_two_colour_cases() if rng.random() < 0.5]
    siblings = 0
    for graph, colour in cases:
        searched.clear()
        canon._search(graph, colour)
        pair_sets = [graph.edges] if colour is None else [graph.edges, colour]
        for v, f in searched:
            if v != f:
                siblings += 1
                assert not are_twins(pair_sets, f, v), (graph, colour, f, v)
    assert siblings > 100
