import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smallgraphs
from autorbit.errors import (
    CapExceededError,
    Graph6FormatError,
    NotASubsetError,
    SelfLoopError,
    VertexRangeError,
)
from autorbit.graphs import (
    MAX_VERTICES,
    Graph,
    _graph6_encode_n,
    all_pairs,
    edge_set,
    emit_edge_list,
    emit_graph6,
    enumerate_labeled_graphs,
    from_edge_mask,
    new_graph,
    pair_index,
    pair_unrank,
    parse_edge_list,
    parse_graph6,
)


def random_graph(rng: random.Random, n: int) -> Graph:
    return from_edge_mask(n, rng.randrange(1 << math.comb(n, 2)))


def test_construction_normalizes_and_collapses_reverse_duplicates():
    g = new_graph(3, [(0, 1), (1, 0), (1, 2)])
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_twin_hubs_has_six_edges(twin_hubs):
    assert twin_hubs.n == 7
    assert twin_hubs.m == 6


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        new_graph(2, [(0, 0)])


def test_out_of_range_rejected():
    with pytest.raises(VertexRangeError):
        new_graph(2, [(0, 2)])


def test_edge_set_helper_normalizes():
    assert edge_set([(2, 1), (1, 2), (0, 1)]) == frozenset({(1, 2), (0, 1)})
    with pytest.raises(VertexRangeError):
        edge_set([(0, 5)], n=3)


def test_pair_indexing_roundtrip():
    for i in range(200):
        u, v = pair_unrank(i)
        assert u < v
        assert pair_index(u, v) == i
    assert [pair_unrank(i) for i in range(3)] == [(0, 1), (0, 2), (1, 2)]


@pytest.mark.parametrize("vs", [range(1, 2001), range(2**20 - 3, 2**20 + 4), range(2**31 - 3, 2**31 + 4)])
def test_pair_unrank_at_every_column_boundary(vs):
    # the isqrt formula without correction must hold where a column of pairs
    # starts and ends, and on either side of it
    for v in vs:
        for u in (0, 1, v - 2, v - 1):
            if 0 <= u < v:
                assert pair_unrank(pair_index(u, v)) == (u, v)
        start = v * (v - 1) // 2
        for index in (start - 1, start, start + 1):
            if index >= 0:
                u, w = pair_unrank(index)
                assert 0 <= u < w and pair_index(u, w) == index


def test_delete_edges_twin_hubs(twin_hubs):
    reduced = twin_hubs.delete_edges([(0, 4), (4, 5)])
    assert reduced.edges == frozenset({(1, 4), (5, 6), (2, 6), (3, 6)})
    assert reduced.n == 7


def test_delete_nothing_is_identity(twin_hubs):
    assert twin_hubs.delete_edges([]) == twin_hubs


def test_delete_edge_of_triangle_gives_path():
    reduced = smallgraphs.triangle().delete_edges([(0, 1)])
    assert reduced.edges == frozenset({(0, 2), (1, 2)})


def test_delete_requires_subset(twin_hubs):
    with pytest.raises(NotASubsetError):
        twin_hubs.delete_edges([(0, 1)])


def test_incident_edges(twin_hubs):
    assert twin_hubs.incident_edges(4) == frozenset({(0, 4), (1, 4), (4, 5)})
    assert Graph(3, frozenset({(1, 2)})).incident_edges(0) == frozenset()
    assert smallgraphs.triangle().incident_edges(0) == frozenset({(0, 1), (0, 2)})
    with pytest.raises(VertexRangeError):
        twin_hubs.incident_edges(7)


def test_non_edges():
    assert smallgraphs.triangle().non_edges() == frozenset()
    assert smallgraphs.empty(3).non_edges() == frozenset({(0, 1), (0, 2), (1, 2)})
    assert smallgraphs.wedge().non_edges() == frozenset({(0, 2)})


@given(st.integers(0, 7), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_edges_and_non_edges_partition_all_pairs(n, rng):
    g = random_graph(rng, n)
    assert g.edges | g.non_edges() == frozenset(all_pairs(n))
    assert not g.edges & g.non_edges()


@given(st.integers(1, 7), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_degree_sum_counts_each_edge_twice(n, rng):
    g = random_graph(rng, n)
    assert sum(g.degree(v) for v in range(n)) == 2 * g.m
    for v in range(n):
        assert len(g.incident_edges(v)) == g.degree(v)


@given(st.integers(1, 7), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_deleting_incident_edges_isolates_the_vertex(n, rng):
    g = random_graph(rng, n)
    v = rng.randrange(n)
    assert g.delete_edges(g.incident_edges(v)).degree(v) == 0


def test_is_connected():
    assert smallgraphs.path(5).is_connected()
    assert not smallgraphs.triangle_plus_isolated().is_connected()
    assert smallgraphs.empty(1).is_connected()
    assert not smallgraphs.empty(2).is_connected()


def test_graph6_known_vectors():
    assert emit_graph6(smallgraphs.wedge()) == "Bg"
    assert emit_graph6(smallgraphs.triangle()) == "Bw"
    assert emit_graph6(smallgraphs.complete(4)) == "C~"
    assert parse_graph6("Bw") == smallgraphs.triangle()
    assert parse_graph6(">>graph6<<Bw") == smallgraphs.triangle()


def test_graph6_errors():
    with pytest.raises(Graph6FormatError):
        parse_graph6("")
    with pytest.raises(Graph6FormatError):
        parse_graph6("B")  # body truncated
    with pytest.raises(Graph6FormatError):
        parse_graph6("Bw!")


def test_graph6_roundtrip_and_reference_codec_agreement():
    rng = random.Random(20260810)
    for _ in range(300):
        n = rng.randint(0, 12)
        g = random_graph(rng, n)
        text = emit_graph6(g)
        assert parse_graph6(text) == g
        # cross-check both directions against the networkx codec
        theirs = nx.from_graph6_bytes(text.encode())
        assert set(theirs.nodes) == set(range(n))
        assert {tuple(sorted(e)) for e in theirs.edges} == set(g.edges)
        their_text = nx.to_graph6_bytes(theirs, header=False).decode().strip()
        assert their_text == text


def test_graph6_large_n_size_field():
    g = smallgraphs.path(80)
    assert parse_graph6(emit_graph6(g)) == g


def pair_by_pair_graph6(graph: Graph) -> str:
    """Reference graph6 encoder: one bit per pair, in pair-index order."""
    out = bytearray(_graph6_encode_n(graph.n))
    acc = 0
    nbits = 0
    for u, v in all_pairs(graph.n):
        acc = (acc << 1) | ((graph.adjacency[u] >> v) & 1)
        nbits += 1
        if nbits == 6:
            out.append(63 + acc)
            acc = 0
            nbits = 0
    if nbits:
        out.append(63 + (acc << (6 - nbits)))
    return out.decode("ascii")


def test_graph6_encoder_matches_the_pair_by_pair_encoder():
    rng = random.Random(20261019)
    for n in range(71):
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            g = Graph(n, frozenset(p for p in all_pairs(n) if rng.random() < density))
            text = emit_graph6(g)
            assert text == pair_by_pair_graph6(g), n
            assert parse_graph6(text) == g


def test_vertex_cap_is_checked_before_the_body():
    assert MAX_VERTICES >= 1100  # the search's depth cap must stay reachable
    at_cap = emit_graph6(Graph(MAX_VERTICES, frozenset()))
    assert parse_graph6(at_cap).n == parse_edge_list(f"{MAX_VERTICES} 0").n == MAX_VERTICES
    over = emit_graph6(Graph(MAX_VERTICES + 1, frozenset()))
    huge = _graph6_encode_n(10**9).decode()
    for text in (over, over[:4], huge, f"{MAX_VERTICES + 1} 0", "99999 5\n0 1"):
        with pytest.raises(CapExceededError):
            (parse_edge_list if " " in text else parse_graph6)(text)


def test_edge_list_roundtrip(twin_hubs):
    text = emit_edge_list(twin_hubs)
    assert text.splitlines()[0] == "7 6"
    assert parse_edge_list(text) == twin_hubs
    with pytest.raises(VertexRangeError):
        parse_edge_list("2 1\n")  # promised edge missing


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_labeled_graphs(2)) == 2
    assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8
    assert sum(1 for _ in enumerate_labeled_graphs(4)) == 64


def test_enumeration_is_mask_ordered_and_unique():
    seen = set()
    for i, g in enumerate(enumerate_labeled_graphs(3)):
        assert g.mask == i
        assert g not in seen
        seen.add(g)


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        enumerate_labeled_graphs(7)
    # an explicit cap override lifts the guard
    stream = enumerate_labeled_graphs(7, cap=7)
    assert next(stream).m == 0


def test_adjacency_bitsets(twin_hubs):
    assert twin_hubs.has_edge(4, 0)
    assert not twin_hubs.has_edge(0, 1)
    assert twin_hubs.degrees() == (1, 1, 1, 1, 3, 2, 3)
    assert twin_hubs.degree_sequence == (1, 1, 1, 1, 2, 3, 3)
