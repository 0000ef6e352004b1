import concurrent.futures
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import smallgraphs
from oracles import brute_aut_order, enumerated_orbit
from autorbit import ratio
from autorbit.errors import CapExceededError, EmptyEdgeSetError, NotASubsetError
from autorbit.graphs import from_edge_mask
from autorbit.perms import apply_edge_set, apply_graph, brute_force_aut, make_perm
from autorbit.ratio import subsets_for_graph, sweep_verify, verify_ratio_identity


def test_twin_hubs_report(twin_hubs):
    report = verify_ratio_identity(twin_hubs, {(0, 4), (4, 5)})
    assert report.aut_g == 8
    assert report.ao_g == 4
    assert report.aut_minus == 12
    assert report.ao_minus == 6
    assert report.lhs_cross == 48 and report.rhs_cross == 48
    assert report.holds
    assert report.ratio == Fraction(2)
    # every counted quantity re-derived from the brute-force definitions
    assert report.aut_g == brute_aut_order(twin_hubs)
    reduced = twin_hubs.delete_edges({(0, 4), (4, 5)})
    assert report.aut_minus == brute_aut_order(reduced)
    dset = frozenset({(0, 4), (4, 5)})
    assert report.ao_g == enumerated_orbit(brute_force_aut(twin_hubs), dset).size
    assert report.ao_minus == enumerated_orbit(brute_force_aut(reduced), dset).size


def test_triangle_single_edge():
    report = verify_ratio_identity(smallgraphs.triangle(), {(0, 1)})
    assert (report.aut_g, report.ao_g, report.aut_minus, report.ao_minus) == (6, 3, 2, 1)
    assert report.holds
    assert report.ratio == Fraction(2)


def test_deleting_every_edge(twin_hubs):
    for g in (smallgraphs.wedge(), smallgraphs.triangle(), twin_hubs):
        report = verify_ratio_identity(g, g.edges)
        assert report.aut_minus == math.factorial(g.n)
        assert report.ao_g == 1
        assert report.ao_minus == math.factorial(g.n) // report.aut_g
        assert report.holds


def test_single_edge_is_just_a_small_set(twin_hubs):
    # no separate code path: a one-edge set goes through the same verifier
    report = verify_ratio_identity(twin_hubs, {(4, 5)})
    assert report.holds
    # the hub swap carries (4,5) to (5,6), so the edge orbit has two members
    assert report.ao_g == 2
    assert (report.aut_g, report.aut_minus, report.ao_minus) == (8, 12, 3)


def test_input_validation(twin_hubs):
    with pytest.raises(EmptyEdgeSetError):
        verify_ratio_identity(twin_hubs, frozenset())
    with pytest.raises(NotASubsetError):
        verify_ratio_identity(twin_hubs, {(0, 1)})


def test_relabeling_invariance(twin_hubs):
    rng = random.Random(17)
    dset = frozenset({(0, 4), (4, 5)})
    base = verify_ratio_identity(twin_hubs, dset)
    for _ in range(10):
        f = make_perm(rng.sample(range(7), 7))
        moved = verify_ratio_identity(apply_graph(f, twin_hubs), apply_edge_set(f, dset))
        assert (moved.aut_g, moved.ao_g, moved.aut_minus, moved.ao_minus) == (
            base.aut_g,
            base.ao_g,
            base.aut_minus,
            base.ao_minus,
        )


def test_sweep_n3_single_edges():
    summary = sweep_verify(3, ["single-edges"])
    assert summary.graphs == 8
    assert summary.holds
    assert not summary.violations


def test_sweep_n4_all_subsets():
    summary = sweep_verify(4, ["all-subsets"])
    # sum over all graphs of (2^m - 1) nonempty subsets: 3^6 - 2^6
    assert summary.checks == 3 ** 6 - 2 ** 6
    assert summary.holds


def test_sweep_policies_combine_and_dedupe():
    g = smallgraphs.triangle()
    subsets = subsets_for_graph(g, ["single-edges", "all-subsets"], 0, None)
    assert len(subsets) == 2 ** 3 - 1
    only_single = subsets_for_graph(g, ["single-edges"], 0, None)
    assert all(len(s) == 1 for s in only_single)
    assert len(only_single) == 3


def test_sweep_random_policy_is_seed_deterministic():
    a = sweep_verify(4, ["random"], samples=5, seed=99)
    b = sweep_verify(4, ["random"], samples=5, seed=99)
    assert a == b
    assert a.checks > 0


def test_sweep_random_requires_seed():
    with pytest.raises(ValueError):
        sweep_verify(3, ["random"])


def test_sweep_caps():
    with pytest.raises(CapExceededError):
        sweep_verify(6, ["all-subsets"])
    with pytest.raises(CapExceededError):
        sweep_verify(7, ["single-edges"])


def test_sweep_unknown_policy():
    with pytest.raises(ValueError):
        sweep_verify(3, ["everything"])


def test_parallel_sweep_matches_serial():
    serial = sweep_verify(4, ["single-edges", "random"], samples=4, seed=7)
    parallel = sweep_verify(4, ["single-edges", "random"], samples=4, seed=7, threads=2)
    assert serial == parallel


class PoolStarted(Exception):
    pass


def test_sweep_starts_no_more_workers_than_chunks(monkeypatch):
    sizes = []

    def no_pool(max_workers):  # records the request and raises, so nothing forks
        sizes.append(max_workers)
        raise PoolStarted

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(PoolStarted):
        sweep_verify(2, threads=8)  # 2 graphs, so 2 chunks
    assert sizes == [2]


def test_import_leaves_multiprocessing_unloaded():
    # the pool module is imported only by a sweep that forks
    env = {**os.environ, "PYTHONPATH": str(Path(ratio.__file__).parents[1])}
    check = "import sys, autorbit; assert 'multiprocessing' not in sys.modules"
    subprocess.run([sys.executable, "-c", check], env=env, check=True)


def test_sweep_rows_collection():
    summary, rows = sweep_verify(3, ["single-edges"], collect_rows=True)
    assert summary.checks == len(rows)
    masks = [row[0] for row in rows]
    assert masks == sorted(masks)
    assert all(row[6] for row in rows)


def test_spot_check_against_pure_brute_force():
    # independent end-to-end oracle on random cases: both groups and both
    # orbits recomputed from definitions only
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 6)
        g = from_edge_mask(n, rng.randrange(1 << math.comb(n, 2)))
        if g.m == 0:
            continue
        edges = sorted(g.edges)
        dset = frozenset(rng.sample(edges, rng.randint(1, g.m)))
        report = verify_ratio_identity(g, dset)
        reduced = g.delete_edges(dset)
        bg, br = brute_force_aut(g), brute_force_aut(reduced)
        assert report.aut_g == bg.order
        assert report.aut_minus == br.order
        assert report.ao_g == enumerated_orbit(bg, dset).size
        assert report.ao_minus == enumerated_orbit(br, dset).size
        assert bg.order * report.ao_minus == br.order * report.ao_g
