"""Group orders and certificates of symmetric families, against closed forms, up to 240 vertices.

Edgeless graphs E_n, perfect matchings M_k, stars K1,n and cycles C_n have
every sibling on the first path equivalent, so they are where the
partition-map test must cut the search short: each takes at most 2n search
nodes (E50 took 1,275 when every sibling descended to a leaf first).
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


FAMILIES = {
    "E": (smallgraphs.empty, math.factorial),
    "M": (matching, lambda k: 2**k * math.factorial(k)),
    "K1,": (smallgraphs.star, math.factorial),
    "C": (smallgraphs.cycle, lambda n: 2 * n),
}
CASES = (
    [("E", n) for n in (0, 1, 2, 9, 60, 240)]
    + [("M", k) for k in (1, 3, 30, 120)]
    + [("K1,", n) for n in (2, 5, 60, 239)]
    + [("C", n) for n in (3, 4, 7, 64, 240)]
)


@pytest.mark.parametrize("family, size", CASES, ids=[f"{f}{s}" for f, s in CASES])
def test_order_certificate_and_node_count_match_the_closed_form(family, size):
    build, order = FAMILIES[family]
    graph = build(size)
    n = graph.n
    assert canon.automorphism_group(graph).order == order(size)
    assert canon._outcome(graph).nodes <= max(2 * n, 1)
    relabel = make_perm(random.Random(f"{family}{size}").sample(range(n), n))
    assert canon.canonical_form(apply_graph(relabel, graph)) == canon.canonical_form(graph)
