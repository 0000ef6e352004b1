import math
import random

import pytest

import smallgraphs
from oracles import enumerated_orbit, stabilizer_order
from autorbit import perms
from autorbit.canon import automorphism_group
from autorbit.errors import DegreeMismatchError
from autorbit.graphs import Graph, all_pairs, from_edge_mask, new_graph
from autorbit.orbits import Orbit, edge_set_orbit, pair_orbit, vertex_orbit
from autorbit.perms import PermGroup, brute_force_aut, perm_group


def test_vertex_orbits_of_twin_hubs(twin_hubs):
    group = automorphism_group(twin_hubs)
    assert vertex_orbit(group, 0).elements == frozenset({0, 1, 2, 3})
    assert vertex_orbit(group, 5).elements == frozenset({5})
    assert vertex_orbit(group, 4).elements == frozenset({4, 6})


def test_trivial_group_fixes_everything():
    group = perm_group([], degree=5)
    assert vertex_orbit(group, 3).elements == frozenset({3})
    assert pair_orbit(group, (1, 4)).elements == frozenset({(1, 4)})


def test_pair_orbit_normalizes_seed():
    group = automorphism_group(smallgraphs.wedge())
    assert pair_orbit(group, (2, 1)).elements == frozenset({(0, 1), (1, 2)})


def test_golden_edge_set_orbit(twin_hubs):
    group = automorphism_group(twin_hubs)
    orbit = edge_set_orbit(group, {(0, 4), (4, 5)})
    assert orbit.size == 4
    assert orbit.elements == frozenset(
        {
            frozenset({(0, 4), (4, 5)}),
            frozenset({(5, 6), (2, 6)}),
            frozenset({(1, 4), (4, 5)}),
            frozenset({(5, 6), (3, 6)}),
        }
    )
    # the lookalike pairing of the two bridge-adjacent edges is not in the orbit
    assert frozenset({(0, 4), (5, 6)}) not in orbit.elements


def test_non_edge_orbit_in_reduced_twin_hubs(twin_hubs):
    reduced = twin_hubs.delete_edges([(0, 4), (4, 5)])
    group = automorphism_group(reduced)
    assert group.order == 12
    orbit = edge_set_orbit(group, {(0, 4), (4, 5)})
    assert orbit.size == 6
    # cross-check against the brute-force group and full enumeration
    assert orbit.elements == enumerated_orbit(brute_force_aut(reduced), frozenset({(0, 4), (4, 5)})).elements


def test_whole_edge_set_orbit_is_a_fixed_point(twin_hubs):
    group = automorphism_group(twin_hubs)
    assert edge_set_orbit(group, twin_hubs.edges).size == 1


def test_mixed_edge_and_non_edge_sets_are_allowed(twin_hubs):
    group = automorphism_group(twin_hubs)
    orbit = edge_set_orbit(group, {(0, 4), (0, 1)})  # one edge, one non-edge
    assert frozenset({(0, 4), (0, 1)}) in orbit.elements


def test_empty_set_orbit():
    group = automorphism_group(smallgraphs.triangle())
    assert edge_set_orbit(group, frozenset()).elements == frozenset({frozenset()})


def test_seed_is_always_a_member(twin_hubs):
    group = automorphism_group(twin_hubs)
    rng = random.Random(2)
    for _ in range(50):
        k = rng.randint(1, 6)
        seed = frozenset(rng.sample(all_pairs(7), k))
        assert seed in edge_set_orbit(group, seed).elements


def test_bfs_matches_full_enumeration_randomized():
    rng = random.Random(9)
    for _ in range(400):
        n = rng.randint(1, 6)
        g = from_edge_mask(n, rng.randrange(1 << math.comb(n, 2)))
        group = brute_force_aut(g)
        v = rng.randrange(n)
        assert vertex_orbit(group, v).elements == enumerated_orbit(group, v).elements
        if n >= 2:
            npairs = math.comb(n, 2)
            pair = all_pairs(n)[rng.randrange(npairs)]
            assert pair_orbit(group, pair).elements == enumerated_orbit(group, pair).elements
            seed = frozenset(rng.sample(all_pairs(n), rng.randint(1, npairs)))
            assert edge_set_orbit(group, seed).elements == enumerated_orbit(group, seed).elements


def test_orbit_walks_read_no_pair_tables(monkeypatch):
    def no_tables(*_):
        raise AssertionError("an orbit walk built a pair-index table")

    monkeypatch.setattr(perms, "pair_action_table", no_tables)
    monkeypatch.setattr(PermGroup, "pair_action_bytes", property(no_tables))
    # two edges on 200 vertices: about 200 generators, each a C(200, 2) table if built
    group = automorphism_group(Graph(200, frozenset({(0, 1), (2, 3)})))
    assert pair_orbit(group, (1, 0)).elements == frozenset({(0, 1), (2, 3)})
    assert pair_orbit(group, (0, 4)).size == 4 * 196
    assert edge_set_orbit(group, {(0, 4)}).size == 4 * 196
    assert edge_set_orbit(group, {(0, 4), (0, 1)}).size == 4 * 196
    assert edge_set_orbit(group, {(0, 1), (2, 3)}).elements == {frozenset({(0, 1), (2, 3)})}
    rng, seeds = random.Random(12), random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 6)
        group = brute_force_aut(from_edge_mask(n, rng.randrange(1 << math.comb(n, 2))))
        pair = rng.choice(all_pairs(n))
        assert pair_orbit(group, pair).elements == enumerated_orbit(group, pair).elements
        seed = frozenset(seeds.sample(all_pairs(n), seeds.randint(1, math.comb(n, 2))))
        assert edge_set_orbit(group, seed).elements == enumerated_orbit(group, seed).elements


def test_orbit_stabilizer_relation(twin_hubs):
    group = brute_force_aut(twin_hubs)
    for seed in [frozenset({(0, 4), (4, 5)}), frozenset({(4, 5)}), twin_hubs.edges]:
        orbit = edge_set_orbit(group, seed)
        assert orbit.size * stabilizer_order(group, seed) == group.order
    for v in range(7):
        assert vertex_orbit(group, v).size * stabilizer_order(group, v) == group.order


def test_orbit_sizes_divide_group_order():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 6)
        g = from_edge_mask(n, rng.randrange(1 << math.comb(n, 2)))
        group = brute_force_aut(g)
        seed = frozenset(rng.sample(all_pairs(n), rng.randint(1, math.comb(n, 2))))
        assert group.order % edge_set_orbit(group, seed).size == 0


def test_sorted_elements_rendering(twin_hubs):
    group = automorphism_group(twin_hubs)
    listed = edge_set_orbit(group, {(0, 4), (4, 5)}).sorted_elements()
    assert listed == sorted(listed)
    assert listed[0] == ((0, 4), (4, 5))
    assert vertex_orbit(group, 0).sorted_elements() == [0, 1, 2, 3]


def test_degree_guards(twin_hubs):
    group = automorphism_group(smallgraphs.wedge())
    with pytest.raises(DegreeMismatchError):
        vertex_orbit(group, 3)
    with pytest.raises(DegreeMismatchError):
        pair_orbit(group, (0, 3))
    with pytest.raises(DegreeMismatchError):
        edge_set_orbit(group, {(0, 3)})
    # a negative end is out of range too, not an index from the end
    p4 = automorphism_group(new_graph(4, [(0, 1), (1, 2), (2, 3)]))
    with pytest.raises(DegreeMismatchError):
        vertex_orbit(p4, -1)
    with pytest.raises(DegreeMismatchError):
        pair_orbit(p4, (-1, 3))
    with pytest.raises(DegreeMismatchError):
        edge_set_orbit(p4, {(-1, 3)})
    with pytest.raises(DegreeMismatchError):
        edge_set_orbit(p4, {(0, 1), (3, -1)})


def test_orbit_equality_semantics():
    a = Orbit("vertex", {1, 2})
    b = Orbit("vertex", {2, 1})
    assert a == b and hash(a) == hash(b)
    assert a != Orbit("pair", {(1, 2)})
