"""hlsdse benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch-default --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of that checkout, never from an
installed copy. The workload's inputs are made from ``--seed``. The run
measures for ``--seconds`` seconds of op time (at least 100 ops),
checks every answer, prints a readable summary and, as its last line, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off; with ``--trace 1`` they are the per-layer ones. A failed check gives
``"correct": false`` and exit code 0; exit code 2 means the package sources
are missing, and no result is printed.

Only ``batch-external`` starts other processes: one child per run, through
``hlsdse.agent.ExternalPolicy``, which also starts one reader thread.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("batch-default", "ladder-tree", "ladder-dag-lagrangian", "batch-external")
SETUP_TRIALS = 5
# Modules re-imported by every set-up trial: the package and the benchmark's
# own modules that import it.
PURGED = ("hlsdse", "workloads", "designs")


def _purge() -> None:
    for name in list(sys.modules):
        if name.split(".")[0] in PURGED:
            del sys.modules[name]


def _setup(workload: str, seed: int, trace: bool):
    """Import plus input generation plus JSON round-trip, ``SETUP_TRIALS``
    times from a fresh import of the package; returns the last trial's
    module and inputs, every trial's time, and the set-up tracer."""
    times, fingerprints = [], []
    tracer = Tracer(enabled=False)
    for trial in range(SETUP_TRIALS):
        _purge()
        if trace and trial == SETUP_TRIALS - 1:
            tracer = Tracer()
        started = time.perf_counter()
        workloads = importlib.import_module("workloads")
        inputs = workloads.make_inputs(workload, seed, tracer)
        times.append(time.perf_counter() - started)
        fingerprints.append(inputs.fingerprint)
    package = Path(sys.modules["hlsdse"].__file__).resolve()
    if SRC.resolve() not in package.parents:
        raise SystemExit(f"error: hlsdse was imported from {package}, not from {SRC}")
    if len(set(fingerprints)) != 1:
        inputs.problems.append("the same seed gave different input JSON across set-ups")
    return workloads, inputs, times, tracer


def _quantile(values: list, q: int) -> float:
    """The q-th percentile (inclusive method) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(result, setup_times: list) -> dict:
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (result.attempted / result.busy_s, "1/s"),
        "op_ms.p50": (statistics.median(result.op_ms), "ms"),
        "op_ms.p90": (_quantile(result.op_ms, 90), "ms"),
        "solved_frac": (1 - result.timeouts / result.attempted, "fraction"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hlsdse" / "__init__.py").is_file():
        print(f"error: no hlsdse package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workloads, inputs, setup_times, setup_tracer = _setup(
        args.workload, args.seed, bool(args.trace)
    )
    # The inputs live for the whole run; keep the collector from rescanning
    # them during measurement, which a program solving one design would not do.
    gc.collect()
    gc.freeze()
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        result = workloads.measure(
            args.workload, inputs, args.seed, args.seconds, bool(args.trace), work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"workload {args.workload}, seed {args.seed}: {result.attempted} ops "
          f"({result.shape}), {result.failed} failed, {result.timeouts} timed out")
    for problem in result.problems[:20]:
        print(f"  check failed: {problem}")
    if args.trace:
        metrics = dict(result.layers)
        metrics["design.parse.ms"] = setup_tracer.ms("design.parse")
        units = {name: _unit(name) for name in metrics}
        for name in sorted(metrics):
            print(f"  {name:42s} {metrics[name]:14.4f} {units[name]}")
        share = (metrics["latency.brute_force_optimum.ms"] + metrics["agent.step.solve_ilp.ms"])
        if metrics["agent.ms"]:
            print(f"  brute_force_optimum + step.solve_ilp = "
                  f"{100 * share / metrics['agent.ms']:.1f}% of agent time")
        values = {name: {"value": metrics[name], "unit": units[name]} for name in metrics}
    else:
        measured = _end_to_end(result, setup_times)
        n = len(result.op_ms)
        print(f"  {'setup_s':12s} {measured['setup_s'][0]:12.4f} s   "
              f"(median of {len(setup_times)} set-ups)")
        for name in ("ops_per_s", "op_ms.p50", "op_ms.p90"):
            value, unit = measured[name]
            print(f"  {name:12s} {value:12.4f} {unit:4s} (n={n})")
        print(f"  {'timeout_frac':12s} {result.timeouts / n:12.4f}      "
              f"({result.timeouts}/{n}, cap {workloads.CASE_CAP_S} s per ladder case)")
        if result.rungs:
            print("  timeouts by kernel count: " + ", ".join(
                f"{k}: {t}/{c}" for k, (c, t) in sorted(result.rungs.items())))
        print(f"  {'failed_frac':12s} {result.failed / result.attempted:12.4f}      "
              f"({result.failed}/{result.attempted})")
        print(f"  {'peak_rss_mb':12s} {measured['peak_rss_mb'][0]:12.4f} MB")
        values = {name: {"value": v, "unit": u} for name, (v, u) in measured.items()}
    correct = result.failed == 0 and not result.problems
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": values,
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
