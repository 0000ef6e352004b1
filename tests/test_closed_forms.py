"""Group orders and certificates of symmetric families, against closed forms, up to 240 vertices.

Edgeless graphs E_n, perfect matchings M_k, stars K1,n and cycles C_n have
every sibling on the first path equivalent, so they are where the
partition-map test must cut the search short: each takes at most 2n search
nodes (E50 took 1,275 when every sibling descended to a leaf first). In E_n,
K_n, stars and K_{a,b} with a != b every open cell of the root is a class of
twins (false twins, but true ones in K_n), so the first path is peeled after
one refinement; K_{a,a} with a > 1 refines the root, one vertex's side and the other
side, whose map is the swap of the sides.
"""

import math
import random

import pytest

import smallgraphs
from autorbit import canon
from autorbit.graphs import new_graph
from autorbit.perms import apply_graph, make_perm


def matching(k):
    return new_graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


def complete_bipartite(sides):
    a, b = sides
    return new_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# name: (build, |Aut|, search nodes, or None for at most 2n)
FAMILIES = {
    "E": (smallgraphs.empty, math.factorial, lambda n: 1),
    "K": (smallgraphs.complete, math.factorial, lambda n: 1),
    "M": (matching, lambda k: 2**k * math.factorial(k), None),
    "K1,": (smallgraphs.star, math.factorial, lambda n: 1),
    "C": (smallgraphs.cycle, lambda n: 2 * n, None),
    "Ka,b": (
        complete_bipartite,
        lambda s: math.factorial(s[0]) * math.factorial(s[1]) * (2 if s[0] == s[1] else 1),
        lambda s: 3 if s[0] == s[1] > 1 else 1,  # K1,1 = K2
    ),
}
CASES = (
    [("E", n) for n in (0, 1, 2, 9, 60, 240)]
    + [("K", n) for n in (1, 2, 3, 9, 60)]
    + [("M", k) for k in (1, 3, 30, 120)]
    + [("K1,", n) for n in (2, 5, 60, 239)]
    + [("C", n) for n in (3, 4, 7, 64, 240)]
    + [("Ka,b", s) for s in ((1, 1), (2, 5), (3, 3), (7, 2), (30, 30), (40, 90))]
)


@pytest.mark.parametrize("family, size", CASES, ids=[f"{f}{s}".replace(" ", "") for f, s in CASES])
def test_order_certificate_and_node_count_match_the_closed_form(family, size):
    build, order, nodes = FAMILIES[family]
    graph = build(size)
    n = graph.n
    assert canon.automorphism_group(graph).order == order(size)
    if nodes is None:
        assert canon._outcome(graph).nodes <= max(2 * n, 1)
    else:
        assert canon._outcome(graph).nodes == nodes(size)
    relabel = make_perm(random.Random(f"{family}{size}").sample(range(n), n))
    assert canon.canonical_form(apply_graph(relabel, graph)) == canon.canonical_form(graph)
