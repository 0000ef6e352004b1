"""The edge-coloured stabilizer search and the one-walk ratio check built on it.

Stabilizer orders are compared with a count over every automorphism found by
brute force; orbit sizes reported by the ratio check are compared with
orbits enumerated from the brute-force group. Faults injected into the
coloured search or into the orbit walk must surface as failed checks.
"""

import itertools
import json
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest

import smallgraphs
from oracles import enumerated_orbit, stabilizer_order
from autorbit import ratio
from autorbit.canon import edge_set_stabilizer_order
from autorbit.cli import main
from autorbit.errors import VertexRangeError
from autorbit.ermodel import sample_er, verify_proof_chain
from autorbit.graphs import all_pairs, emit_graph6, from_edge_mask
from autorbit.perms import brute_force_aut
from autorbit.ratio import sweep_verify, verify_ratio_identity


def test_coloured_stabilizer_order_every_edge_subset_up_to_n5():
    for n in range(1, 6):
        for mask in range(1 << math.comb(n, 2)):
            graph = from_edge_mask(n, mask)
            brute = brute_force_aut(graph)
            edges = sorted(graph.edges)
            for k in range(1, len(edges) + 1):
                for combo in itertools.combinations(edges, k):
                    dset = frozenset(combo)
                    expected = stabilizer_order(brute, dset)
                    assert edge_set_stabilizer_order(graph.delete_edges(dset), dset) == expected


def test_coloured_stabilizer_order_seeded_subsets_n6_n7():
    rng = random.Random(31)
    for n in (6, 7):
        for _ in range(25):
            graph = sample_er(n, rng.randint(1, math.comb(n, 2)), rng)
            brute = brute_force_aut(graph)
            edges = sorted(graph.edges)
            for _ in range(3):
                dset = frozenset(rng.sample(edges, rng.randint(1, len(edges))))
                expected = stabilizer_order(brute, dset)
                assert edge_set_stabilizer_order(graph.delete_edges(dset), dset) == expected


def test_coloured_stabilizer_order_mixed_pair_sets():
    # the colour may hold edges and non-edges at once
    for n in range(1, 5):
        pairs = all_pairs(n)
        for mask in range(1 << len(pairs)):
            graph = from_edge_mask(n, mask)
            brute = brute_force_aut(graph)
            for pmask in range(1, 1 << len(pairs)):
                chosen = frozenset(p for i, p in enumerate(pairs) if pmask >> i & 1)
                assert edge_set_stabilizer_order(graph, chosen) == stabilizer_order(brute, chosen)


def test_coloured_stabilizer_rejects_pairs_out_of_range():
    with pytest.raises(VertexRangeError):
        edge_set_stabilizer_order(smallgraphs.triangle(), {(1, 3)})


@pytest.fixture
def branch_calls(monkeypatch):
    """Count the orbit walks and stabilizer searches the ratio check makes."""
    calls = Counter()
    real_walk, real_search = ratio.edge_set_orbit, ratio.edge_set_stabilizer_order

    def walk(group, pairs):
        calls["walks"] += 1
        return real_walk(group, pairs)

    def search(graph, pairs):
        calls["searches"] += 1
        return real_search(graph, pairs)

    monkeypatch.setattr(ratio, "edge_set_orbit", walk)
    monkeypatch.setattr(ratio, "edge_set_stabilizer_order", search)
    return calls


def _branch(calls, graph, dset):
    """Run one check and name how the larger group's orbit was found."""
    calls.clear()
    report = verify_ratio_identity(graph, dset)
    return {(2, 0): "walk", (1, 1): "search"}[(calls["walks"], calls["searches"])], report


def test_each_branch_agrees_with_enumerated_orbits_at_n7_n8(branch_calls):
    rng = random.Random(20261018)
    found = {}
    for _ in range(500):
        n = rng.choice((7, 8))
        graph = sample_er(n, rng.randint(1, math.comb(n, 2)), rng)
        dset = frozenset(rng.sample(sorted(graph.edges), rng.randint(1, graph.m)))
        branch, report = _branch(branch_calls, graph, dset)
        found.setdefault(branch, (graph, dset, report))
        if len(found) == 2:
            break
    assert set(found) == {"walk", "search"}
    for graph, dset, report in found.values():
        reduced = graph.delete_edges(dset)
        brute_g, brute_minus = brute_force_aut(graph), brute_force_aut(reduced)
        assert (report.aut_g, report.aut_minus) == (brute_g.order, brute_minus.order)
        assert report.ao_g == enumerated_orbit(brute_g, dset).size
        assert report.ao_minus == enumerated_orbit(brute_minus, dset).size
        assert report.holds


def _matched_k7():
    # K7 less a 3-edge matching: the law predicts 5040 / 48 = 105 states on
    # the side of Aut(K7), so that orbit comes from the stabilizer search.
    return smallgraphs.complete(7), frozenset({(0, 1), (2, 3), (4, 5)})


def test_walk_or_search_branch_is_named_by_the_prediction(branch_calls):
    graph, dset = _matched_k7()
    assert _branch(branch_calls, graph, dset)[0] == "search"
    # |Aut(G)| = 8 is walked to 4 states; 12 * 4 / 8 = 6 predicted states are walked too
    assert _branch(branch_calls, smallgraphs.twin_hubs(), {(0, 4), (4, 5)})[0] == "walk"


def _assert_replayable_violations(summary, n):
    assert not summary.holds
    for entry in summary.violations:
        graph = from_edge_mask(n, entry["mask"])
        replay = verify_ratio_identity(graph, entry["deleted"])
        assert (entry["aut_g"], entry["ao_g"], entry["aut_minus"], entry["ao_minus"]) == (
            replay.aut_g,
            replay.ao_g,
            replay.aut_minus,
            replay.ao_minus,
        )
        assert not replay.holds


def test_doubled_stabilizer_order_fails_the_check(monkeypatch):
    real = ratio.edge_set_stabilizer_order
    monkeypatch.setattr(ratio, "edge_set_stabilizer_order", lambda g, p: 2 * real(g, p))
    graph, dset = _matched_k7()
    report = verify_ratio_identity(graph, dset)
    assert not report.holds
    assert report.lhs_cross != report.rhs_cross
    # with the cut-off at 0 every check of the sweep takes the stabilizer branch
    monkeypatch.setattr(ratio, "WALK_CUTOFF", 0)
    _assert_replayable_violations(sweep_verify(4, ["all-subsets"]), 4)


def test_stabilizer_order_that_does_not_divide_fails_the_check(monkeypatch):
    monkeypatch.setattr(ratio, "edge_set_stabilizer_order", lambda g, p: 10**6)
    graph, dset = _matched_k7()
    report = verify_ratio_identity(graph, dset)
    assert (report.ao_g, report.ratio, report.holds) == (0, None, False)


def test_proof_chain_reports_failed_checks_when_the_orbit_is_unsized(monkeypatch, capsys):
    monkeypatch.setattr(ratio, "edge_set_stabilizer_order", lambda g, p: 10**6)
    graph, dset = _matched_k7()
    report = verify_proof_chain(graph, dset)
    assert not report.all_hold
    assert any(not check.holds for check in report.checks)
    edges = ",".join(f"{u}-{v}" for u, v in sorted(dset))
    assert main(["proof-chain", "--graph", emit_graph6(graph), "--edges", edges]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["all_hold"] is False
    assert [check["holds"] for check in results["checks"]] == [False] * 3


def test_orbit_walk_off_by_one_fails_the_check(monkeypatch):
    real = ratio.edge_set_orbit
    monkeypatch.setattr(
        ratio, "edge_set_orbit", lambda group, pairs: SimpleNamespace(size=real(group, pairs).size + 1)
    )
    report = verify_ratio_identity(smallgraphs.twin_hubs(), {(0, 4), (4, 5)})
    assert not report.holds
    graph, dset = _matched_k7()
    assert not verify_ratio_identity(graph, dset).holds
    _assert_replayable_violations(sweep_verify(4, ["single-edges"]), 4)
