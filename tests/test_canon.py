import math
import random

import pytest

import smallgraphs
from oracles import brute_isomorphic, labeled_copy_census
from autorbit import canon
from autorbit.canon import (
    automorphism_group,
    canonical_form,
    color_refine,
    is_isomorphic,
    unit_partition,
)
from autorbit.ermodel import _neighbour_degrees
from autorbit.errors import CapExceededError
from autorbit.graphs import Graph, from_edge_mask, new_graph
from autorbit.perms import apply_graph, brute_force_aut, is_automorphism, make_perm


def cells_as_sets(cells):
    return {frozenset(c) for c in cells}


def test_refine_splits_path_by_degree():
    cells = color_refine(smallgraphs.path(3))
    assert cells_as_sets(cells) == {frozenset({0, 2}), frozenset({1})}


def test_refine_cannot_split_vertex_transitive_cycle():
    assert cells_as_sets(color_refine(smallgraphs.cycle(5))) == {frozenset(range(5))}


def test_refine_twin_hubs(twin_hubs):
    # leaves split from hubs split from the bridge, and refinement stops there
    assert cells_as_sets(color_refine(twin_hubs)) == {
        frozenset({0, 1, 2, 3}),
        frozenset({4, 6}),
        frozenset({5}),
    }


def test_refine_is_stable(twin_hubs):
    once = color_refine(twin_hubs)
    again = color_refine(twin_hubs, once)
    assert once == again


def test_refine_respects_initial_partition():
    g = smallgraphs.cycle(4)
    cells = color_refine(g, [[0], [1, 2, 3]])
    # individualizing 0 separates its neighbors {1, 3} from the antipode {2}
    assert cells_as_sets(cells) == {frozenset({0}), frozenset({1, 3}), frozenset({2})}


def test_refine_validates_partition():
    with pytest.raises(ValueError):
        color_refine(smallgraphs.wedge(), [[0, 1]])
    with pytest.raises(ValueError):
        color_refine(smallgraphs.wedge(), [[0, 1, 2], [2]])


def test_unit_partition_edge_cases():
    assert unit_partition(0) == []
    assert unit_partition(1) == [[0]]


def test_automorphism_group_twin_hubs(twin_hubs):
    group = automorphism_group(twin_hubs)
    assert group.order == 8
    assert all(is_automorphism(g, twin_hubs) for g in group.generators)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_complete_graph_has_full_symmetry(n):
    assert automorphism_group(smallgraphs.complete(n)).order == math.factorial(n)


def test_smallest_asymmetric_graphs_have_six_vertices():
    # the oracle sweep finds rigid graphs at n=6 and none smaller
    found = None
    for mask in range(1 << 15):
        g = from_edge_mask(6, mask)
        if brute_force_aut(g).order == 1:
            found = g
            break
    assert found is not None
    assert automorphism_group(found).order == 1
    for n in range(2, 6):
        for mask in range(1 << math.comb(n, 2)):
            assert automorphism_group(from_edge_mask(n, mask)).order > 1


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_order_matches_brute_force_exhaustively(n):
    for mask in range(1 << math.comb(n, 2)):
        g = from_edge_mask(n, mask)
        assert automorphism_group(g).order == brute_force_aut(g).order


def test_certificate_invariant_under_relabeling():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 8)
        g = from_edge_mask(n, rng.randrange(1 << math.comb(n, 2)))
        cert = canonical_form(g)
        for _ in range(5):
            f = make_perm(rng.sample(range(n), n))
            assert canonical_form(apply_graph(f, g)) == cert


def test_wedge_vs_triangle_not_isomorphic():
    assert not is_isomorphic(smallgraphs.wedge(), smallgraphs.triangle())


def test_the_two_wedges_sharing_an_edge_are_isomorphic():
    a = new_graph(3, [(0, 1), (1, 2)])
    b = new_graph(3, [(0, 1), (0, 2)])
    assert is_isomorphic(a, b)


def test_different_sizes_never_isomorphic():
    assert not is_isomorphic(smallgraphs.empty(2), smallgraphs.empty(3))
    assert canonical_form(smallgraphs.empty(2)) != canonical_form(smallgraphs.empty(3))


# pairs that share degrees and neighbour degrees, so only the search tells them apart
SCREENED_PAIRS = {
    "C6 vs 2C3": (smallgraphs.cycle(6), new_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
    "P7+K1 vs C3+P4+K1": (
        new_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
        new_graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)]),
    ),
}


@pytest.mark.parametrize("name", sorted(SCREENED_PAIRS))
def test_pairs_passing_both_screens_are_told_apart(name):
    g, h = SCREENED_PAIRS[name]
    assert sorted(g.degrees()) == sorted(h.degrees())
    assert sorted(_neighbour_degrees(g.degrees(), g.edges)) == sorted(_neighbour_degrees(h.degrees(), h.edges))
    assert not brute_isomorphic(g, h)
    assert not is_isomorphic(g, h)
    assert not is_isomorphic(h, g)


def test_isomorphism_search_stops_at_the_certificate_leaf(monkeypatch):
    outcomes = []
    real = canon._search
    monkeypatch.setattr(canon, "_search", lambda *a, **k: outcomes.append(real(*a, **k)) or outcomes[-1])
    # twin-free, so its full search reaches several leaves; the first is its certificate
    g = smallgraphs.petersen()
    assert is_isomorphic(g, smallgraphs.petersen())
    full, stopped = outcomes
    assert full.leaves > 1 and stopped.leaves == 1


def test_isomorphism_test_reads_each_graphs_degrees_once(monkeypatch):
    seen = []
    real = Graph.degrees
    monkeypatch.setattr(Graph, "degrees", lambda self: seen.append(self) or real(self))
    g = smallgraphs.petersen()
    rng = random.Random(5)
    draws = [apply_graph(make_perm(rng.sample(range(10), 10)), g) for _ in range(4)]
    assert all(is_isomorphic(g, h) for h in draws)
    assert [sum(x is h for x in seen) for h in [g] + draws] == [1] * 5
    assert g.degree_sequence == (3,) * 10


@pytest.mark.parametrize(
    "g",
    [smallgraphs.empty(5), smallgraphs.complete(5), smallgraphs.petersen(), smallgraphs.hypercube(3),
     smallgraphs.twin_hubs(), smallgraphs.cycle(6), SCREENED_PAIRS["P7+K1 vs C3+P4+K1"][0]],
    ids=["E5", "K5", "Petersen", "Q3", "twin-hubs", "C6", "P7+K1"],
)
def test_isomorphism_test_leaves_the_second_graph_searchable(g):
    # a stopped search has not seen the whole group, so it must not stand in for the full one
    rng = random.Random(g.mask)
    for _ in range(3):
        f = make_perm(rng.sample(range(g.n), g.n))
        h, fresh = apply_graph(f, g), apply_graph(f, g)
        assert is_isomorphic(g, h)
        assert canonical_form(h) == canonical_form(fresh)
        assert automorphism_group(h).order == automorphism_group(fresh).order


@pytest.mark.parametrize("name", sorted(SCREENED_PAIRS))
def test_isomorphism_test_without_a_match_keeps_a_complete_search(name):
    g, other = SCREENED_PAIRS[name]
    h, fresh = Graph(other.n, other.edges), Graph(other.n, other.edges)
    assert not is_isomorphic(g, h)
    assert "_search_outcome" in h.__dict__
    assert canonical_form(h) == canonical_form(fresh)
    assert automorphism_group(h).order == automorphism_group(fresh).order


@pytest.mark.parametrize("n", [2, 3, 4])
def test_certificates_agree_with_brute_isomorphism_exhaustively(n):
    census = labeled_copy_census(n)
    # members share their representative's certificate (soundness)
    for rep_mask, members in census.items():
        rep_cert = canonical_form(from_edge_mask(n, rep_mask))
        for mask in members:
            assert canonical_form(from_edge_mask(n, mask)) == rep_cert
    # distinct classes get distinct certificates (completeness)
    reps = [from_edge_mask(n, mask) for mask in census]
    certs = [canonical_form(g) for g in reps]
    assert len(set(certs)) == len(certs)
    for i, g in enumerate(reps):
        for h in reps[i + 1:]:
            assert not brute_isomorphic(g, h)


def test_certificate_class_counts_match_known_sequence():
    # number of isomorphism classes of graphs on n vertices: 1, 2, 4, 11, 34
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    for n, want in expected.items():
        certs = {canonical_form(from_edge_mask(n, mask)) for mask in range(1 << math.comb(n, 2))}
        assert len(certs) == want


def test_empty_and_tiny_graphs():
    g0 = smallgraphs.empty(0)
    assert automorphism_group(g0).order == 1
    assert canonical_form(g0) == (0).to_bytes(4, "big")
    g1 = smallgraphs.empty(1)
    assert automorphism_group(g1).order == 1


def test_search_depth_is_capped_below_the_recursion_limit():
    # an edgeless graph's first path individualizes n - 1 vertices, one stack frame each
    with pytest.raises(CapExceededError):
        automorphism_group(Graph(1100, frozenset()))


def test_search_depth_cap_counts_levels(monkeypatch):
    monkeypatch.setattr(canon, "MAX_SEARCH_DEPTH", 5)
    assert automorphism_group(smallgraphs.empty(5)).order == 120  # leaves at depth 4
    with pytest.raises(CapExceededError):
        automorphism_group(smallgraphs.empty(6))
