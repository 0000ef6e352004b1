"""Certificates against networkx's VF2 isomorphism test on seeded graphs at n = 7-10."""

import math
import random

import networkx as nx

from autorbit.canon import canonical_form, is_isomorphic
from autorbit.graphs import Graph, all_pairs, new_graph


def to_nx(graph: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(graph.n))
    out.add_edges_from(graph.edges)
    return out


def relabelled(graph: Graph, rng: random.Random) -> Graph:
    perm = list(range(graph.n))
    rng.shuffle(perm)
    return new_graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges])


def degree_preserving_swaps(graph: Graph, rng: random.Random, swaps: int) -> Graph:
    """Replace edges ab, cd by ad, cb where that keeps the graph simple."""
    edges = set(graph.edges)
    for _ in range(swaps):
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        if rng.random() < 0.5:
            c, d = d, c
        ad, cb = tuple(sorted((a, d))), tuple(sorted((c, b)))
        if len({a, b, c, d}) == 4 and ad not in edges and cb not in edges:
            edges -= {(a, b), tuple(sorted((c, d)))}
            edges |= {ad, cb}
    return Graph(graph.n, frozenset(edges))


def decoded(certificate: bytes) -> Graph:
    """The graph a certificate spells: a 4-byte n, then the upper triangle row by row, big-endian."""
    n = int.from_bytes(certificate[:4], "big")
    bits = "".join(f"{byte:08b}" for byte in certificate[4:])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(n, frozenset(pair for pair, bit in zip(pairs, bits) if bit == "1"))


def degrees(graph: Graph) -> list[int]:
    return sorted(row.bit_count() for row in graph.adjacency)


def test_certificates_agree_with_vf2():
    rng = random.Random("vf2-differential")
    verdicts = []
    for _ in range(300):
        n = rng.randint(7, 10)
        g = new_graph(n, rng.sample(all_pairs(n), rng.randint(2, math.comb(n, 2) - 2)))
        assert canonical_form(relabelled(g, rng)) == canonical_form(g), (n, g.mask)
        assert nx.is_isomorphic(to_nx(decoded(canonical_form(g))), to_nx(g)), (n, g.mask)
        h = relabelled(degree_preserving_swaps(g, rng, rng.randint(1, 3)), rng)
        assert degrees(h) == degrees(g)
        same = canonical_form(h) == canonical_form(g)
        assert same == nx.is_isomorphic(to_nx(g), to_nx(h)), (n, g.mask, h.mask)
        assert is_isomorphic(g, h) == same
        verdicts.append(same)
    assert 30 <= sum(verdicts) <= 270


def test_is_isomorphic_agrees_with_vf2():
    # same n and m, so the verdict comes from the degree screen or from the certificates
    rng = random.Random("vf2-is-isomorphic")
    screened = 0
    for _ in range(300):
        n = rng.randint(7, 10)
        m = rng.randint(2, math.comb(n, 2) - 2)
        g = new_graph(n, rng.sample(all_pairs(n), m))
        h = new_graph(n, rng.sample(all_pairs(n), m)) if rng.random() < 0.5 else relabelled(g, rng)
        screened += degrees(g) != degrees(h)
        assert is_isomorphic(g, h) == nx.is_isomorphic(to_nx(g), to_nx(h)), (n, g.mask, h.mask)
    assert 50 <= screened <= 250
