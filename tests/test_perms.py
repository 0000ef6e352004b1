import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smallgraphs
from autorbit.errors import CapExceededError, DegreeMismatchError
from autorbit.graphs import from_edge_mask, pair_index
from autorbit.perms import (
    PermGroup,
    apply_edge_set,
    apply_graph,
    apply_pair,
    brute_force_aut,
    compose,
    group_order,
    identity,
    inverse,
    is_automorphism,
    make_perm,
    pair_action_table,
    perm_group,
    reduce_generators,
)


def test_compose_involution_is_identity():
    swap = (1, 0)
    assert compose(swap, swap) == identity(2)


def test_inverse_of_three_cycle():
    cyc = (1, 2, 0)  # 0->1, 1->2, 2->0
    assert inverse(cyc) == (2, 0, 1)
    assert compose(inverse(cyc), cyc) == identity(3)


def test_compose_with_identity():
    f = (2, 0, 1, 3)
    assert compose(f, identity(4)) == f
    assert compose(identity(4), f) == f


def test_compose_applies_right_argument_first():
    f = (1, 2, 0)
    g = (0, 2, 1)
    assert compose(f, g) == tuple(f[g[x]] for x in range(3))


def test_make_perm_rejects_non_bijections():
    with pytest.raises(ValueError):
        make_perm([0, 0, 1])


def test_degree_mismatch_errors():
    with pytest.raises(DegreeMismatchError):
        compose((0, 1), (0, 1, 2))
    with pytest.raises(DegreeMismatchError):
        apply_pair((0, 1), (0, 2))
    with pytest.raises(DegreeMismatchError):
        apply_graph((0, 1), smallgraphs.wedge())


def test_apply_pair_renormalizes():
    f = (2, 1, 0)
    assert apply_pair(f, (0, 1)) == (1, 2)


def test_apply_edge_set_on_twin_hubs(twin_hubs):
    swap_leaves = make_perm([1, 0, 2, 3, 4, 5, 6])
    assert apply_edge_set(swap_leaves, {(0, 4), (4, 5)}) == frozenset({(1, 4), (4, 5)})


def test_apply_graph_identity(twin_hubs):
    assert apply_graph(identity(7), twin_hubs) == twin_hubs


def test_wedge_end_swap_fixes_edge_set():
    g = smallgraphs.wedge()
    assert apply_graph((2, 1, 0), g) == g


def test_is_automorphism_on_twin_hubs(twin_hubs):
    assert is_automorphism(make_perm([1, 0, 2, 3, 4, 5, 6]), twin_hubs)
    assert is_automorphism(identity(7), twin_hubs)
    # swapping one leaf across hubs maps edge (0,4) to the non-edge (2,4)
    bad = make_perm([2, 1, 0, 3, 4, 5, 6])
    assert apply_pair(bad, (0, 4)) not in twin_hubs.edges
    assert not is_automorphism(bad, twin_hubs)


def test_brute_force_aut_orders(twin_hubs):
    assert brute_force_aut(smallgraphs.wedge()).order == 2
    assert brute_force_aut(twin_hubs).order == 8
    assert brute_force_aut(smallgraphs.empty(4)).order == 24


def test_brute_force_cap():
    with pytest.raises(CapExceededError):
        brute_force_aut(smallgraphs.empty(9))


def test_brute_force_elements_are_all_automorphisms(twin_hubs):
    group = brute_force_aut(twin_hubs)
    for f in group.elements:
        assert is_automorphism(f, twin_hubs)
    assert identity(7) in group.elements


def test_group_order_examples():
    assert group_order([]) == 1
    assert group_order([(1, 0)]) == 2
    assert group_order([(1, 0, 2), (1, 2, 0)]) == 6  # S3 from a swap and a cycle


def test_perm_group_normalizes_generators():
    grp = perm_group([(1, 0, 2), (0, 1, 2), (1, 0, 2)])
    assert grp.generators == ((1, 0, 2),)
    assert grp.order == 2


def test_perm_group_empty_needs_degree():
    with pytest.raises(DegreeMismatchError):
        perm_group([])
    assert perm_group([], degree=5).order == 1


def test_enumeration_is_deterministic():
    grp = perm_group([(1, 0, 2), (1, 2, 0)])
    assert grp.elements == perm_group(grp.generators).elements


def test_closure_cap():
    grp = PermGroup(6, perm_group([(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]).generators)
    with pytest.raises(CapExceededError):
        from autorbit.perms import _closure

        _closure(grp.degree, grp.generators, cap=100)


def test_reduce_generators_preserves_closure():
    gens = list(itertools.permutations(range(3)))  # all of S3 as generators
    reduced, _ = reduce_generators(gens, range(3))
    assert len(reduced) <= 2
    assert group_order(reduced, degree=3) == 6


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closure_matches_brute_count_exhaustively(n):
    for mask in range(1 << math.comb(n, 2)):
        g = from_edge_mask(n, mask)
        group = brute_force_aut(g)
        assert group_order(group.generators, degree=n) == group.order


def test_closure_matches_brute_count_sampled():
    rng = random.Random(5)
    for n in (5, 6):
        for _ in range(40):
            g = from_edge_mask(n, rng.randrange(1 << math.comb(n, 2)))
            group = brute_force_aut(g)
            assert group_order(group.generators, degree=n) == group.order
            assert math.factorial(n) % group.order == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_automorphisms_closed_under_compose_and_inverse(n):
    for mask in range(1 << math.comb(n, 2)):
        g = from_edge_mask(n, mask)
        elements = set(brute_force_aut(g).elements)
        for f in elements:
            assert inverse(f) in elements
        for f in list(elements)[:6]:
            for h in list(elements)[:6]:
                assert compose(f, h) in elements


@given(st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_edge_set_action_is_a_group_action(rng):
    n = rng.randint(2, 8)
    f = make_perm(rng.sample(range(n), n))
    g = make_perm(rng.sample(range(n), n))
    npairs = math.comb(n, 2)
    pairs = from_edge_mask(n, rng.randrange(1 << npairs)).edges
    assert apply_edge_set(f, apply_edge_set(g, pairs)) == apply_edge_set(compose(f, g), pairs)


def test_pair_action_table_matches_apply_pair():
    rng = random.Random(11)
    from autorbit.graphs import all_pairs, pair_index

    for _ in range(50):
        n = rng.randint(2, 9)
        f = make_perm(rng.sample(range(n), n))
        table = pair_action_table(f)
        for p in all_pairs(n):
            assert table[pair_index(*p)] == pair_index(*apply_pair(f, p))


def pair_action_by_pair_index(f):
    """The reference: each image pair's index from ``pair_index``, in pair-index order."""
    return tuple(pair_index(f[u], f[v]) for v in range(len(f)) for u in range(v))


def test_pair_action_table_matches_pair_index():
    rng = random.Random("pair-action")
    perms = [p for n in range(7) for p in itertools.permutations(range(n))]
    perms += [tuple(rng.sample(range(n), n)) for n in range(7, 13) for _ in range(200)]
    for f in perms:
        assert pair_action_table(f) == pair_action_by_pair_index(f), f
