"""Read saved series of runs and judge them against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py spread DIR
    python3 perfbench/compare.py compare PARENT_DIR CHANGE_DIR

Directories are laid out as ``series.py`` writes them, one per side.
``spread`` gives, per workload and end-to-end metric, the median and
quartiles of one set of runs and the distance between the quartiles as a
share of the median, and fails a metric whose spread exceeds its bound.
Two sets of runs of the same code are checked against each other with
``compare``.

``compare`` pairs parent and change runs by seed and reports, per workload,
each side's failed and attempted ops, and per end-to-end metric each side's
median and quartiles, the share of pairs the change won (ties count for
neither), and a verdict:

- failing: the change failed more ops than the parent, or a change run was
  not correct; no metric of that workload counts as improved or unchanged;
- unresolved: a side's spread is wider than the bound, and not every change
  run reads better than every parent run;
- regressed: the change's median is worse than the parent's by more than
  the bound;
- improved: the change won at least nine tenths of the pairs, and the
  medians differ, in its favour, by more than the parent's quartile spread;
- unchanged: anything else.

The exit code is 1 when a verdict is failing or regressed (``compare``) or a
spread exceeds its bound (``spread``), else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Run:
    metrics: dict[str, float]
    correct: bool
    attempted: int
    failed: int


def load_series(folder: Path) -> dict[str, dict[int, Run]]:
    """{workload: {seed: run}} from the untraced runs under ``folder``."""
    series: dict[str, dict[int, Run]] = {}
    for path in sorted(folder.glob("*/seed*-trace0.json")):
        saved = json.loads(path.read_text())
        result = saved["result"]
        seed = saved["report"]["environment"]["seed"]
        series.setdefault(path.parent.name, {})[seed] = Run(
            {k: v["value"] for k, v in result["metrics"].items()},
            bool(result["correct"]), int(result["attempted"]), int(result["failed"]),
        )
    return series


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``."""
    delta = change - parent if better == "lower" else parent - change
    return delta / parent if parent else 0.0


def is_better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def failing(parent: list[Run], change: list[Run]) -> bool:
    """The change fails more ops than the parent, or any change run is not correct."""
    return (sum(r.failed for r in change) > sum(r.failed for r in parent)
            or not all(r.correct for r in change))


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, better: str) -> tuple[str, float]:
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    wins = sum(1 for p, c in pairs if is_better(c, p, better))
    share = wins / len(pairs) if pairs else 0.0
    all_better = all(is_better(c, p, better) for c in change for p in parent)
    spread = max(relative_spread(parent), relative_spread(change))
    if spread > bound and not all_better:
        return "unresolved", share
    if worse_by(p_med, c_med, better) > bound:
        return "regressed", share
    if is_better(c_med, p_med, better) and share >= 0.9 and abs(c_med - p_med) > p_q3 - p_q1:
        return "improved", share
    return "unchanged", share


def spread_report(folder: Path, spec: dict) -> int:
    bad = 0
    series = load_series(folder)
    print(f"{'workload':18} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  check")
    for workload in sorted(series):
        runs = list(series[workload].values())
        if not all(r.correct for r in runs):
            bad += 1
            print(f"{workload:18} FAILED ops {sum(r.failed for r in runs)} of "
                  f"{sum(r.attempted for r in runs)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r.metrics[name] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = relative_spread(values)
            if spread > bound:
                note = "SPREAD>BOUND"
                bad += 1
            else:
                note = "spread>bound/3" if spread > bound / 3 else "ok"
            print(f"{workload:18} {name:12} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:7.3f} {bound:6.2f}  {note}")
    return 1 if bad else 0


def compare_report(parent_dir: Path, change_dir: Path, spec: dict) -> int:
    parent, change = load_series(parent_dir), load_series(change_dir)
    bad = 0
    print(f"{'workload':18} {'metric':12} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'won':>5}  verdict")
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        p_runs, c_runs = list(parent[workload].values()), list(change[workload].values())
        broken = failing(p_runs, c_runs)
        print(f"{workload:18} failed ops: parent {sum(r.failed for r in p_runs)} of "
              f"{sum(r.attempted for r in p_runs)}, change {sum(r.failed for r in c_runs)} of "
              f"{sum(r.attempted for r in c_runs)}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = [r.metrics[name] for r in p_runs]
            c_vals = [r.metrics[name] for r in c_runs]
            pairs = [(parent[workload][s].metrics[name], change[workload][s].metrics[name])
                     for s in seeds]
            outcome, share = verdict(p_vals, c_vals, pairs, metric["bound"], metric["better"])
            if broken:
                outcome = "failing"
            bad += outcome in ("failing", "regressed")
            p_q1, p_med, p_q3 = quartiles(p_vals)
            c_q1, c_med, c_q3 = quartiles(c_vals)
            print(f"{workload:18} {name:12} {p_med:12.5g} [{p_q1:9.5g}, {p_q3:9.5g}] "
                  f"{c_med:12.5g} [{c_q1:9.5g}, {c_q3:9.5g}] {share:5.2f}  {outcome}")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if len(argv) == 2 and argv[0] == "spread":
        return spread_report(Path(argv[1]), spec)
    if len(argv) == 3 and argv[0] == "compare":
        return compare_report(Path(argv[1]), Path(argv[2]), spec)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
