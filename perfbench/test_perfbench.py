"""Tiny-scale tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import tracing
from workloads import WORKLOADS

ROOT = Path(run.__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", NAMES)
def test_every_workload_runs_and_reports_every_metric(workload, trace):
    report, result = run.run_workload(workload, seed=3, seconds=0.1, trace=trace, tiny=True)
    assert result["correct"], report["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert report["traced_outputs_match"]


@pytest.mark.parametrize("workload", NAMES)
def test_traced_self_times_fit_in_traced_wall_time(workload):
    _, result = run.run_workload(workload, seed=5, seconds=0.1, trace=True, tiny=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert 0 < layer_self <= metrics["trace.wall_s"]


@pytest.mark.parametrize("workload", ["ratio-random-n8", "aut-structured", "er-estimate"])
def test_wrong_group_order_is_caught(workload, monkeypatch):
    api = run.import_program()
    real = api.perms.PermGroup.order
    monkeypatch.setattr(api.perms.PermGroup, "order", property(lambda g: real.fget(g) + 1))
    _, result = run.run_workload(workload, seed=3, seconds=0.1, trace=False, tiny=True)
    assert result["failed"] > 0 and not result["correct"]


def test_failed_command_is_caught(monkeypatch):
    api = run.import_program()
    monkeypatch.setattr(api.cli, "recover_aut_order", lambda *a, **k: 0)
    _, result = run.run_workload("deck-recon", seed=3, seconds=0.1, trace=False, tiny=True)
    assert result["failed"] == result["attempted"]


def test_tracing_restores_every_binding():
    api = run.import_program()
    modules = [api] + [getattr(api, layer) for layer in tracing.LAYERS]
    before = [dict(vars(m)) for m in modules]
    classes = [getattr(getattr(api, mod), cls) for mod, cls, _ in tracing.SPANNED_ATTRS]
    class_attrs = [dict(vars(c)) for c in classes]
    tracer = tracing.Tracer()
    tracer.install(api)
    assert api.canon.automorphism_group is not before[3]["automorphism_group"]
    assert api.ratio.automorphism_group is not before[5]["automorphism_group"]
    tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert [dict(vars(c)) for c in classes] == class_attrs


def test_traced_brute_force_group_keeps_its_written_elements():
    api = run.import_program()
    graph = api.graphs.Graph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    tracer = tracing.Tracer()
    tracer.install(api)
    try:
        group = api.perms.brute_force_aut(graph)
        assert group.order == 2
        assert "elements" in vars(group)
    finally:
        tracer.uninstall()
    assert tracer.counters["perms.closure_elements"] == 0


def test_command_line_prints_the_result_last():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "er-estimate", "--seed", "1",
         "--seconds", "0.1", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    report = json.loads(done.stdout.strip().splitlines()[-2])["report"]
    assert {"python", "nproc", "cpu_model", "loadavg_at_start", "git_commit", "seed"} <= set(
        report["environment"]
    )


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deck-recon", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_declarations_match_the_code():
    assert NAMES == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.metric_units())
    described = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    assert list(described) == NAMES
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for entry in described.values():
        assert set(entry["moves"]) <= per_layer
        for targets in entry["moves"].values():
            assert set(targets) <= set(run.END_TO_END_UNITS)


def test_nothing_is_kept_in_dot_benchmarks():
    # The benchmark is plain Python; pytest-benchmark may leave an empty
    # .benchmarks/ behind when tests run, but nothing of ours lives there.
    assert not [p for p in (ROOT / ".benchmarks").rglob("*") if p.is_file()]


def test_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    faster = [v * 1.3 for v in parent]
    pairs = list(zip(parent, faster))
    assert compare.verdict(parent, faster, pairs, 0.1, "higher")[0] == "improved"
    assert compare.verdict(faster, parent, list(zip(faster, parent)), 0.1, "higher")[0] == "regressed"
    assert compare.verdict(parent, parent, list(zip(parent, parent)), 0.1, "higher")[0] == "unchanged"
    noisy = [50.0, 100.0, 150.0, 200.0, 250.0]
    assert compare.verdict(noisy, parent, list(zip(noisy, parent)), 0.1, "lower")[0] == "unresolved"


def test_change_with_more_failed_ops_is_failing(tmp_path):
    def save(side, seed, value, failed):
        folder = tmp_path / side / "er-estimate"
        folder.mkdir(parents=True, exist_ok=True)
        metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        saved = {"report": {"environment": {"seed": seed}},
                 "result": {"correct": not failed, "attempted": 10, "failed": failed,
                            "metrics": metrics}}
        (folder / f"seed{seed}-trace0.json").write_text(json.dumps(saved))

    for seed in range(1, 6):
        save("parent", seed, 100.0 + seed, 0)
        save("change", seed, 10.0 + seed, 1)
    parent = list(compare.load_series(tmp_path / "parent")["er-estimate"].values())
    change = list(compare.load_series(tmp_path / "change")["er-estimate"].values())
    assert compare.failing(parent, change) and not compare.failing(parent, parent)
    assert compare.compare_report(tmp_path / "parent", tmp_path / "change", SPEC) == 1
    assert compare.compare_report(tmp_path / "parent", tmp_path / "parent", SPEC) == 0
