"""Run one benchmark workload against the autorbit source tree beside this directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run imports ``src/autorbit`` from the checkout, builds its inputs from the
seed, warms up, and then runs rounds of operations one at a time in a closed
loop (one process, no threads). ``--seconds`` fixes the amount of work: a run
does round(S / nominal round time) rounds, the nominal time being what one
round took on a 2-core Xeon VM at the commit that added the benchmark, so
that two commits are always measured on identical work. After the measured phase every output is
checked by the workload's oracles.

With ``--trace 0`` the end-to-end metrics are reported. With ``--trace 1``
half the rounds run untraced, then the same rounds run again with spans
around every layer entry point (see tracing.py), and the per-layer metrics
plus the tracing overhead are reported; span files go to perfbench/out/.

The last line of stdout is the result object; the line before it is a report
with the environment stamp, digests and details. The exit code is 0 whenever
a result was printed, and 2 when the program or an input could not be set up.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, Record, digest_of  # noqa: E402

SETUP_REPEATS = 9  # the measuring process plus eight fresh processes
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout has no usable program, or a workload could not be built."""


def import_program():
    init = SRC / "autorbit" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no autorbit sources at {init.parent}")
    sys.path.insert(0, str(SRC))
    import autorbit

    if Path(autorbit.__file__).resolve() != init.resolve():
        raise SetupError(f"imported autorbit from {autorbit.__file__}, not from {init}")
    for layer in tracing.LAYERS:
        importlib.import_module(f"autorbit.{layer}")
    return autorbit


def set_up(name: str, seed: int, tiny: bool):
    """Import, build round 0 and warm up; returns (workload, round 0, seconds taken)."""
    started = time.perf_counter()
    api = import_program()
    workload = WORKLOADS[name](api, tiny)
    first_round = workload.make_round(seed, 0)
    warm_state = workload.new_state()
    for inp in workload.warmup_round():
        workload.run_op(warm_state, inp)
    return workload, first_round, time.perf_counter() - started


def run_rounds(workload, seed: int, rounds: int, first_round=None, after_round=None):
    """Closed loop over ``rounds`` rounds; the clock stops while a round is built.

    ``after_round(index)``, if given, runs after each round, off the clock.
    """
    state = workload.new_state()
    records: list[Record] = []
    busy = 0.0
    items = 0
    clock = time.perf_counter
    for index in range(rounds):
        ops = first_round if index == 0 and first_round is not None else workload.make_round(seed, index)
        round_start = clock()
        for inp in ops:
            t0 = clock()
            try:
                out, done = workload.run_op(state, inp)
                error = None
            except Exception as exc:  # a failed op is counted, and the loop goes on
                out, done, error = None, 0, f"{type(exc).__name__}: {exc}"
            records.append(Record(inp, out, clock() - t0, error))
            items += done
        busy += clock() - round_start
        if after_round is not None:
            after_round(index)
    return records, state, busy, items


def latency_summary(records: list[Record]) -> dict:
    times = sorted(rec.seconds for rec in records)
    rank = len(times) - 1 - TAIL_BEYOND if len(times) > TAIL_BEYOND else len(times) - 1
    return {
        "op_ms_p50": statistics.median(times) * 1000.0,
        "op_ms_tail": times[rank] * 1000.0,
        "op_ms_tail_percentile": 100.0 * (rank + 1) / len(times),
        "op_ms_tail_beyond": len(times) - 1 - rank,
        "ops": len(times),
    }


def oracle_failures(workload, records: list[Record], state) -> dict[int, str]:
    failures = {i: rec.error for i, rec in enumerate(records) if rec.error is not None}
    try:
        checked = workload.check(records, state)
    except Exception as exc:  # an oracle that cannot read the outputs fails them all
        checked = {i: f"oracle raised {type(exc).__name__}: {exc}" for i in range(len(records))}
    for i, reason in checked.items():
        failures.setdefault(i, reason)
    return failures


def environment(name: str, seed: int) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_at_start": load,
        "git_commit": git_commit(),
        "workload": name,
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fresh_setup_seconds(name: str, seed: int, tiny: bool) -> float:
    """Set-up time measured in a new interpreter, so the import is paid again."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only",
            "--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise SetupError(f"set-up process failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (report, result) as printed by ``main``."""
    env = environment(name, seed)
    workload, first_round, setup_here = set_up(name, seed, tiny)
    rounds = max(1, round(seconds / workload.nominal_round_s))
    if trace:
        rounds = max(1, rounds // 2)
    # Untraced, the fresh set-ups are spread over the run, between rounds, so
    # that their median is not taken from one short stretch of the machine's
    # speed.
    fresh_setups: list[float] = []
    slots = [k * rounds // (SETUP_REPEATS - 1) for k in range(SETUP_REPEATS - 1)]

    def after_round(index):
        for _ in range(slots.count(index)):
            fresh_setups.append(fresh_setup_seconds(name, seed, tiny))

    records, state, busy, items = run_rounds(
        workload, seed, rounds, first_round, None if trace else after_round
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digests = [workload.digest(rec.out) for rec in records]
    report = {
        "environment": env,
        "workload": name,
        "op": workload.op,
        "item": workload.item,
        "rounds": rounds,
        "measured_s": busy,
        "items": items,
        "digest": digest_of(digests),
    }

    if trace:
        tracer = tracing.Tracer()
        tracer.install(workload.api)
        try:
            traced, _, traced_busy, traced_items = run_rounds(workload, seed, rounds)
        finally:
            tracer.uninstall()
        traced_digests = [workload.digest(rec.out) for rec in traced]
        overhead = (items / busy) / (traced_items / traced_busy) if traced_items else 0.0
        metrics = tracer.metrics(traced_busy, len(traced), traced_items, overhead)
        units = tracing.metric_units()
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{name}-seed{seed}.tsv.gz"
        tracer.write_spans(spans_path)
        report.update(
            traced_digest=digest_of(traced_digests),
            traced_items_per_s=traced_items / traced_busy,
            untraced_items_per_s=items / busy,
            spans_file=str(spans_path.relative_to(ROOT)),
        )
        same_outputs = traced_digests == digests
    else:
        latency = latency_summary(records)
        setups = [setup_here] + fresh_setups
        metrics = {
            "setup_s": statistics.median(setups),
            "items_per_s": items / busy,
            "op_ms_p50": latency["op_ms_p50"],
            "op_ms_tail": latency["op_ms_tail"],
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        report.update(latency, setup_samples_s=setups)
        same_outputs = True

    failures = oracle_failures(workload, records, state)
    report["fail_ratio"] = len(failures) / len(records)
    report["failures"] = [
        {"op": i, "reason": reason} for i, reason in sorted(failures.items())[:20]
    ]
    report["traced_outputs_match"] = same_outputs
    result = {
        "correct": not failures and same_outputs,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="only time import, round-0 inputs and warm-up")
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            *_, seconds = set_up(args.workload, args.seed, args.tiny)
            print(json.dumps({"setup_s": seconds}))
            return 0
        report, result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny
        )
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
