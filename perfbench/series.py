"""Run a series of benchmark runs, one after another, and keep every result.

    python3 perfbench/series.py --out DIR [--side NAME=CHECKOUT ...]
                                [--workloads a,b] [--seeds 1-10] [--trace 0|1]

Each ``--side`` names a checkout (default: ``this=`` the checkout holding
this file). Each run is a fresh process of the side's own
``perfbench/run.py``, with the run length from BENCHMARK.json. With two
sides, every seed runs on both, and the side that goes first alternates
from seed to seed (A1 B1 B2 A2 A3 B3 ...), so that a drift in the speed of
the machine does not favour either side. Results go to
DIR/<side>/<workload>/seed<N>-trace<T>.json as
``{"report": ..., "result": ..., "wall_s": ...}``; ``compare.py`` reads
DIR/<side>. Runs never overlap, so they do not compete for the machine's
cores.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_side(text: str) -> tuple[str, Path]:
    name, sep, checkout = text.partition("=")
    if not sep or not name or not checkout:
        raise argparse.ArgumentTypeError(f"expected NAME=CHECKOUT, got {text!r}")
    return name, Path(checkout).resolve()


def run_one(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1]),
            "wall_s": wall}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--side", action="append", type=parse_side, dest="sides")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sides = args.sides or [("this", ROOT)]
    if len({name for name, _ in sides}) != len(sides):
        parser.error("side names must differ")
    for workload in args.workloads.split(","):
        for pair, seed in enumerate(parse_seeds(args.seeds)):
            for name, checkout in sides if pair % 2 == 0 else sides[::-1]:
                saved = run_one(checkout, workload, seed, spec["run_seconds"], args.trace)
                folder = args.out / name / workload
                folder.mkdir(parents=True, exist_ok=True)
                (folder / f"seed{seed}-trace{args.trace}.json").write_text(
                    json.dumps(saved, indent=1))
                result = saved["result"]
                figures = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                                   if not k.endswith(".calls"))
                print(f"{name} {workload} seed={seed} wall={saved['wall_s']:.1f}s "
                      f"correct={result['correct']} failed={result['failed']}/"
                      f"{result['attempted']} {figures[:400]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
