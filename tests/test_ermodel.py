import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import smallgraphs
from oracles import labeled_copy_census, randrange_floyd
from autorbit import ermodel
from autorbit.canon import canonical_form, is_isomorphic
from autorbit.errors import CapExceededError, EdgeCountRangeError, EmptyEdgeSetError, ParameterRangeError
from autorbit.ermodel import (
    count_labeled_copies,
    er_prob_isomorphic,
    estimate_prob_isomorphic,
    sample_er,
    verify_binomial_cancellation,
    verify_proof_chain,
)
from autorbit.cli import main
from autorbit.graphs import MAX_VERTICES, Graph, edge_set, from_edge_mask, pair_unrank
from autorbit.perms import brute_force_aut


def test_wedge_probability_is_one():
    assert er_prob_isomorphic(smallgraphs.wedge()) == Fraction(1)


def test_triangle_plus_isolated_probability():
    assert er_prob_isomorphic(smallgraphs.triangle_plus_isolated()) == Fraction(1, 5)


def test_path4_probability():
    assert er_prob_isomorphic(smallgraphs.path(4)) == Fraction(3, 5)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_complete_graph_probability_is_one(n):
    assert er_prob_isomorphic(smallgraphs.complete(n)) == Fraction(1)


def test_labeled_copies(twin_hubs):
    assert count_labeled_copies(smallgraphs.wedge()) == 3
    assert count_labeled_copies(smallgraphs.triangle()) == 1
    assert count_labeled_copies(twin_hubs) == math.factorial(7) // 8 == 630


@pytest.mark.parametrize("aut_order", [0, -1, -2])
def test_labeled_copies_reject_a_non_positive_group_order(aut_order):
    with pytest.raises(ParameterRangeError):
        count_labeled_copies(smallgraphs.path(4), aut_order)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_labeled_copies_match_brute_census(n):
    # oracle first: group all edge masks by brute-force isomorphism and
    # compare class sizes with n!/|Aut|
    census = labeled_copy_census(n)
    for rep_mask, members in census.items():
        rep = from_edge_mask(n, rep_mask)
        assert count_labeled_copies(rep) == len(members)
        assert count_labeled_copies(rep, brute_force_aut(rep).order) == len(members)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_class_probabilities_sum_to_one_for_each_edge_count(n):
    census = labeled_copy_census(n)
    by_m: dict[int, Fraction] = {}
    for rep_mask in census:
        rep = from_edge_mask(n, rep_mask)
        by_m[rep.m] = by_m.get(rep.m, Fraction(0)) + er_prob_isomorphic(rep)
    for m in range(math.comb(n, 2) + 1):
        assert by_m[m] == Fraction(1)


def test_sample_er_extremes():
    assert sample_er(4, 0, seed=1).m == 0
    full = sample_er(4, 6, seed=1)
    assert full == smallgraphs.complete(4)


def test_sample_er_is_seed_deterministic():
    a = sample_er(6, 7, seed=42)
    b = sample_er(6, 7, seed=42)
    assert a == b
    assert a.m == 7


def test_sample_er_draws_are_pinned():
    # masks recorded before the sampler's loop moved into a shared helper
    assert [sample_er(n, m, s).mask for n, m, s in ((6, 7, 42), (8, 14, 1), (5, 10, 3), (9, 1, 7))] == [
        6175, 120901965, 1023, 1048576
    ]
    rng = random.Random(5)
    assert [sample_er(7, 9, rng).mask for _ in range(3)] == [1165969, 170127, 1061737]


@pytest.mark.parametrize(
    "n, m", [(1, 0), (2, 0), (2, 1), (6, 0), (6, 15), (6, 7), (7, 6), (8, 6), (2000, 5)]
)
def test_draws_follow_the_randrange_stream(n, m):
    # each step's getrandbits draws are those randrange makes, so the generators stay in step
    for seed in range(5):
        reference, lazy, precomputed, sampled = (random.Random(seed) for _ in range(4))
        steps = tuple(ermodel._floyd_steps(n, m))
        for _ in range(4):
            expected = randrange_floyd(n, m, reference)
            assert ermodel._draw_pairs(lazy, ermodel._floyd_steps(n, m)) == expected
            assert ermodel._draw_pairs(precomputed, steps) == expected
            assert sample_er(n, m, sampled).edges == {pair_unrank(i) for i in expected}
        assert lazy.getstate() == precomputed.getstate() == sampled.getstate() == reference.getstate()


def test_sample_er_range_checks():
    with pytest.raises(EdgeCountRangeError):
        sample_er(3, 4, seed=0)
    with pytest.raises(EdgeCountRangeError):
        sample_er(3, -1, seed=0)
    with pytest.raises(EdgeCountRangeError):
        sample_er(0, 0, seed=0)


def test_sampler_uniformity_over_labeled_wedges():
    # three labeled two-edge graphs on 3 vertices, each expected 1/3
    rng = random.Random(2026)
    counts = Counter(sample_er(3, 2, rng).mask for _ in range(30000))
    assert len(counts) == 3
    for mask, count in counts.items():
        assert abs(count / 30000 - 1 / 3) < 0.02


def test_sampler_uniformity_over_all_subsets():
    # m=2 of C(4,2)=6 pairs: 15 equally likely edge sets
    rng = random.Random(7)
    trials = 45000
    counts = Counter(sample_er(4, 2, rng).mask for _ in range(trials))
    assert len(counts) == 15
    for count in counts.values():
        assert abs(count / trials - 1 / 15) < 0.01


def test_estimate_wedge_is_exactly_one():
    est = estimate_prob_isomorphic(smallgraphs.wedge(), trials=2000, seed=5)
    assert est.hits == est.trials
    assert est.estimate == 1.0
    assert est.ci95_halfwidth == 0.0


def test_estimate_matches_exact_value_within_noise():
    target = smallgraphs.triangle_plus_isolated()
    est = estimate_prob_isomorphic(target, trials=20000, seed=11)
    exact = float(er_prob_isomorphic(target))
    sigma = est.ci95_halfwidth / 1.96
    assert abs(est.estimate - exact) < 6 * sigma
    assert 0.0 <= est.estimate <= 1.0
    assert est.hits <= est.trials


K33 = Graph(6, edge_set((a, b) for a in range(3) for b in range(3, 6)))
SCREEN_TARGETS = {
    "C6": smallgraphs.cycle(6),  # regular: every degree-matching draw passes both screens
    "2K3": Graph(6, edge_set([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),  # C6's neighbour degrees
    "K3,3": K33,
    "wedge": smallgraphs.wedge(),
    "triangle+isolated": smallgraphs.triangle_plus_isolated(),
    "K4": smallgraphs.complete(4),  # m = C(n, 2)
    "E5": smallgraphs.empty(5),  # m = 0
    "K1": smallgraphs.empty(1),
    # er-estimate's shapes, drawn by the sampler
    "G(6,7)#1": sample_er(6, 7, seed=1),
    "G(6,7)#5": sample_er(6, 7, seed=5),  # some draws share its neighbour degrees, not its class
    "G(7,6)#1": sample_er(7, 6, seed=1),  # P7: C3 + P4 has the same neighbour degrees
    "G(8,6)#1": sample_er(8, 6, seed=1),
    "G(8,6)#3": sample_er(8, 6, seed=3),
}
# P7 plus an isolated vertex; C3 + P4 + K1 has the same neighbour degrees
P7_K1 = sample_er(8, 6, seed=26)


@pytest.mark.parametrize("name", sorted(SCREEN_TARGETS))
def test_degree_screened_estimate_matches_searching_every_draw(name):
    target = SCREEN_TARGETS[name]
    cert = canonical_form(target)
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        reference = sum(canonical_form(sample_er(target.n, target.m, rng)) == cert for _ in range(1000))
        assert estimate_prob_isomorphic(target, 1000, seed).hits == reference, seed


@pytest.mark.parametrize(
    "target, trials, seed, hits",
    [
        # recorded before the degree screen, when every draw was searched
        (smallgraphs.cycle(6), 3000, 17, 46),
        (smallgraphs.triangle_plus_isolated(), 2000, 3, 395),
        (K33, 20000, 4, 37),
    ],
)
def test_estimate_hits_are_pinned(target, trials, seed, hits):
    assert estimate_prob_isomorphic(target, trials, seed).hits == hits


def test_screened_draws_are_searched_once_per_labelled_graph(monkeypatch):
    # every wedge draw passes the degree screen, but there are only 3 labelled wedges
    calls = []
    monkeypatch.setattr(ermodel, "is_isomorphic", lambda g, h: calls.append(h) or is_isomorphic(g, h))
    assert estimate_prob_isomorphic(smallgraphs.wedge(), 2000, seed=1).hits == 2000
    assert len(calls) <= 1 + 3  # the target, searched in the first confirmation, then each labelled wedge once


def test_search_rejects_draws_that_share_the_neighbour_degrees_of_another_class(monkeypatch):
    assert is_isomorphic(P7_K1, Graph(8, edge_set([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])))
    verdicts = []
    monkeypatch.setattr(ermodel, "is_isomorphic", lambda g, h: verdicts.append(is_isomorphic(g, h)) or verdicts[-1])
    assert estimate_prob_isomorphic(P7_K1, 1000, seed=1).hits == 57  # as when every draw was searched
    assert 0 < verdicts.count(False)


def test_neighbour_degree_screen_searches_almost_only_hits(monkeypatch):
    # without the screen, 206 of the 2,000 draws (distinct degree matches) are searched
    calls = []
    monkeypatch.setattr(ermodel, "is_isomorphic", lambda g, h: calls.append(h) or is_isomorphic(g, h))
    estimate = estimate_prob_isomorphic(SCREEN_TARGETS["G(8,6)#3"], 2000, seed=1)
    assert estimate.hits == 32
    assert len(calls) <= 1 + estimate.hits  # only draws in the target's class are confirmed


@pytest.mark.parametrize("name, hits", [("G(6,7)#1", 219), ("G(8,6)#1", 36), ("G(8,6)#3", 32)])
def test_form_memo_searches_each_class_at_most_once(monkeypatch, name, hits):
    # every hit shares the target's form, which is known without a search
    calls = []
    monkeypatch.setattr(ermodel, "is_isomorphic", lambda g, h: calls.append(h) or is_isomorphic(g, h))
    assert estimate_prob_isomorphic(SCREEN_TARGETS[name], 2000, seed=1).hits == hits
    assert len(calls) <= 1


def _form(graph):
    return ermodel._relabelled(ermodel._neighbour_degrees(graph.degrees(), graph.edges), graph.edges)


def _assert_forms_keep_classes_apart(graphs):
    classes_by_form = {}
    for graph in graphs:
        classes_by_form.setdefault((graph.n, _form(graph)), set()).add(canonical_form(graph))
    for (n, form), classes in classes_by_form.items():
        assert classes == {canonical_form(Graph(n, form))}, (n, sorted(form))
    return len(classes_by_form)


def test_forms_never_join_two_classes_of_small_graphs():
    graphs = [from_edge_mask(n, mask) for n in range(1, 6) for mask in range(1 << math.comb(n, 2))]
    assert len(graphs) == 1099
    assert _assert_forms_keep_classes_apart(graphs) < len(graphs)


@pytest.mark.parametrize("n, m", [(6, 7), (7, 6), (8, 6), (8, 10), (9, 12)])
def test_forms_never_join_two_classes_of_seeded_draws(n, m):
    rng = random.Random(n * 100 + m)
    graphs = [sample_er(n, m, rng) for _ in range(3000)]
    assert _assert_forms_keep_classes_apart(graphs) < len(graphs)


def test_estimate_rejects_a_target_without_vertices(capsys, tmp_path):
    with pytest.raises(EdgeCountRangeError):
        estimate_prob_isomorphic(Graph(0, frozenset()), trials=5, seed=1)
    path = tmp_path / "empty.el"
    path.write_text("0 0\n")
    assert main(["er-sample", "--trials", "5", "--seed", "1", "--graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == "error: the model needs at least one vertex\n"


def test_sampler_and_estimator_check_the_vertex_cap():
    over = MAX_VERTICES + 1
    with pytest.raises(CapExceededError):
        sample_er(over, 1, seed=1)
    with pytest.raises(CapExceededError):
        estimate_prob_isomorphic(Graph(over, frozenset()), trials=1, seed=1)
    assert sample_er(MAX_VERTICES, 1, seed=1).n == MAX_VERTICES


def test_estimate_needs_positive_trials():
    with pytest.raises(ParameterRangeError):
        estimate_prob_isomorphic(smallgraphs.wedge(), trials=0, seed=1)


def test_cancellation_smallest_case_by_hand():
    # n=3: N=3, m=2, k=1: C(3,2)*C(2,1) = 6 and C(3,1)*C(2,1) = 6
    assert math.comb(3, 2) * math.comb(2, 1) == 6
    assert math.comb(3, 1) * math.comb(2, 1) == 6
    assert verify_binomial_cancellation(3, 2, 1)


def test_cancellation_k_equals_m():
    assert verify_binomial_cancellation(4, 3, 3)
    assert verify_binomial_cancellation(5, 10, 10)


def test_cancellation_exhaustive_small():
    for n in range(2, 9):
        big_n = math.comb(n, 2)
        for m in range(1, big_n + 1):
            for k in range(1, m + 1):
                assert verify_binomial_cancellation(n, m, k)


def test_cancellation_range_errors():
    with pytest.raises(ParameterRangeError):
        verify_binomial_cancellation(3, 4, 1)  # m > C(3,2)
    with pytest.raises(ParameterRangeError):
        verify_binomial_cancellation(4, 2, 3)  # k > m
    with pytest.raises(ParameterRangeError):
        verify_binomial_cancellation(4, 2, 0)  # k < 1


def test_proof_chain_triangle_single_edge():
    report = verify_proof_chain(smallgraphs.triangle(), {(0, 1)})
    assert not report.trivial_case
    assert (report.n, report.m, report.k) == (3, 3, 1)
    assert report.all_hold
    # frozen by hand: P(class of K3) = (1/C(3,3)) * (3!/6) = 1, so the split
    # equation is (1/C(3,1)) * 1 = (1/3) * (1/C(2,1)) * P(class of wedge),
    # and P(class of wedge) = (1/C(3,2)) * (3!/2) = 1; both sides are 1/3
    split = report.checks[0]
    assert split.lhs == Fraction(1, 3)
    assert split.rhs == Fraction(1, 3)


def test_proof_chain_sides_rebuilt_independently(twin_hubs):
    from oracles import brute_aut_order, enumerated_orbit

    dset = frozenset({(0, 4), (4, 5)})
    report = verify_proof_chain(twin_hubs, dset)
    assert report.all_hold

    n, m, k = 7, 6, 2
    big_n = math.comb(n, 2)
    aut_g = brute_aut_order(twin_hubs)
    reduced = twin_hubs.delete_edges(dset)
    aut_r = brute_aut_order(reduced)
    ao_g = enumerated_orbit(brute_force_aut(twin_hubs), dset).size
    ao_r = enumerated_orbit(brute_force_aut(reduced), dset).size
    prob_g = Fraction(1, math.comb(big_n, m)) * Fraction(math.factorial(n), aut_g)
    prob_r = Fraction(1, math.comb(big_n, m - k)) * Fraction(math.factorial(n), aut_r)
    lhs = Fraction(1, math.comb(m, k)) * prob_g
    rhs = Fraction(1, ao_g) * Fraction(ao_r, math.comb(big_n - (m - k), k)) * prob_r
    assert report.checks[0].lhs == lhs
    assert report.checks[0].rhs == rhs
    assert lhs == rhs


def test_proof_chain_trivial_case_when_everything_is_deleted():
    g = smallgraphs.wedge()
    report = verify_proof_chain(g, g.edges)
    assert report.trivial_case
    assert report.all_hold
    names = [c.name for c in report.checks]
    assert len(names) == 3


def test_proof_chain_validation(twin_hubs):
    with pytest.raises(EmptyEdgeSetError):
        verify_proof_chain(twin_hubs, frozenset())
    from autorbit.errors import NotASubsetError

    with pytest.raises(NotASubsetError):
        verify_proof_chain(twin_hubs, {(0, 1)})


def test_proof_chain_mini_sweep():
    for n in (2, 3, 4):
        for mask in range(1 << math.comb(n, 2)):
            g = from_edge_mask(n, mask)
            if g.m == 0:
                continue
            for sub in range(1, 1 << g.m):
                edges = sorted(g.edges)
                dset = frozenset(e for i, e in enumerate(edges) if (sub >> i) & 1)
                assert verify_proof_chain(g, dset).all_hold
