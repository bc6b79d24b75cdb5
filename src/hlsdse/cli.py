"""Command-line surface: benchmark listing/export, batch runs, one-shot
solves, and scoring of previously written run files.

Exit code 0 on completed work (even when individual runs failed and were
recorded as failures), 2 on configuration errors such as unknown benchmarks,
malformed policy tokens, or out-of-range fractions.
"""

from __future__ import annotations

import argparse
import math
import shlex
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import bench as benchmod
from .agent import (
    Budget,
    ExternalPolicy,
    IlpFirstPolicy,
    OraclePolicy,
    TrialAndErrorPolicy,
)
from .bench import Benchmark, builtin, builtin_names, call_count, kernel_count
from .design import tenths_to_area
from .errors import CapExceeded, EmptyInput, HlsDseError, UnknownBenchmark
from .experiment import (
    PolicySpec,
    load_records,
    report,
    run_experiment,
    score,
)
from .ilp import ConstrainedArea, Lagrangian, build_model, solve
from .latency import LatencyModelKind, brute_force_optimum, evaluate
from .variantgen import derive_area_target, optimize_bottom_up

SCRIPTED_POLICIES = ("oracle", "ilp-first", "trial-error")
MODEL_CHOICES = tuple(kind.value for kind in LatencyModelKind)


class ConfigError(Exception):
    """A bad command line; reported on stderr with exit code 2."""


def _resolve_benchmarks(tokens: Sequence[str]) -> list[Benchmark]:
    out = []
    for token in tokens:
        if token in builtin_names():
            out.append(builtin(token))
        elif Path(token).exists():
            out.append(benchmod.load(token))
        else:
            raise UnknownBenchmark(token, builtin_names())
    return out


def _policy_specs(args: argparse.Namespace) -> list[PolicySpec]:
    specs = []
    for token in args.policy:
        if token == "oracle":
            specs.append(PolicySpec("oracle", OraclePolicy))
        elif token == "trial-error":
            specs.append(PolicySpec("trial-error", TrialAndErrorPolicy))
        elif token == "ilp-first":
            model = LatencyModelKind(args.latency_model)
            mode = args.objective
            alpha = args.alpha

            def make(model=model, mode=mode, alpha=alpha):
                return IlpFirstPolicy(
                    latency_model=model, objective_mode=mode, alpha=alpha
                )

            specs.append(PolicySpec(make().policy_id, make))
        elif token.startswith("external:"):
            command = shlex.split(token[len("external:") :])
            if not command:
                raise ConfigError(f"empty command in policy token {token!r}")

            def make_external(command=command):
                return ExternalPolicy(command)

            specs.append(PolicySpec(make_external().policy_id, make_external))
        else:
            raise ConfigError(
                f"unknown policy {token!r}; expected one of "
                f"{', '.join(SCRIPTED_POLICIES)} or external:CMD"
            )
    return specs


def _check_common(args: argparse.Namespace) -> None:
    if not 0 < args.area_target_frac <= 1:
        raise ConfigError(
            f"--area-target-frac must be in (0, 1], got {args.area_target_frac}"
        )
    if args.objective == "lagrangian" and not (math.isfinite(args.alpha) and args.alpha > 0):
        raise ConfigError(f"--alpha must be a positive finite number, got {args.alpha}")


def _cmd_bench_list(args: argparse.Namespace) -> int:
    for name in builtin_names():
        benchmark = builtin(name)
        print(
            f"{name:9s} kernels={kernel_count(benchmark.skeleton)} "
            f"calls={call_count(benchmark.skeleton)} "
            f"latency={benchmark.latency_formula}"
        )
    return 0


def _cmd_bench_export(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in builtin_names():
        path = out / f"{name}.json"
        benchmod.save(builtin(name), path)
        print(f"wrote {path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    _check_common(args)
    if args.reps < 1:
        raise ConfigError(f"--reps must be positive, got {args.reps}")
    if not 0 <= args.fault_rate <= 1:
        raise ConfigError(f"--fault-rate must be in [0, 1], got {args.fault_rate}")
    try:
        budget = Budget(args.max_actions, args.max_transcript_chars)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    benchmarks = _resolve_benchmarks(args.benchmark or list(builtin_names()))
    policies = _policy_specs(args)
    records = run_experiment(
        benchmarks,
        policies,
        repetitions=args.reps,
        budget=budget,
        master_seed=args.seed,
        fault_rate=args.fault_rate,
        area_target_fraction=args.area_target_frac,
    )
    table = score(records)
    paths = report(records, table, args.out)
    for row in table.rows:
        successes = sum(
            1
            for r in records
            if r.benchmark == row.benchmark
            and r.policy == row.policy
            and r.final_area_tenths is not None
        )
        print(
            f"{row.benchmark} {row.policy}: success {successes}/{row.runs}, "
            f"met-target {row.runs_meeting_target}, "
            f"points s1={row.scenario1_points} s2={row.scenario2_points}"
        )
    kept = sum(1 for r in records if r.transcript is not None)
    if kept:
        print(f"wrote {paths[0]} and {paths[1]} plus {paths[2]} ({kept} run transcripts)")
    else:
        print(f"wrote {paths[0]} and {paths[1]} (no run has a transcript)")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    _check_common(args)
    benchmarks = _resolve_benchmarks([args.benchmark])
    benchmark = benchmarks[0]
    result = optimize_bottom_up(benchmark.skeleton, seed=args.seed)
    target = derive_area_target(result.baseline.area_tenths, args.area_target_frac)
    if args.objective == "lagrangian":
        objective = Lagrangian(target, args.alpha)
    else:
        objective = ConstrainedArea(target)
    model = build_model(result.design, objective, LatencyModelKind(args.latency_model))
    solution = solve(model)

    def show(config) -> str:
        return " ".join(f"{kid}={idx}" for kid, idx in config.items)

    print(f"benchmark: {benchmark.name}")
    print(f"area target: {tenths_to_area(target)}")
    if solution.configuration is None:
        print("ilp: infeasible")
    else:
        true_eval = evaluate(result.design, solution.configuration)
        print(f"ilp: {show(solution.configuration)}")
        print(
            f"ilp predicted: latency={solution.predicted_latency} "
            f"area={tenths_to_area(solution.predicted_area_tenths)}"
        )
        print(f"ilp evaluated: latency={true_eval.latency} area={true_eval.area}")
    try:
        oracle = brute_force_optimum(result.design, target)
    except CapExceeded as exc:
        print(f"oracle: skipped ({exc})")
        return 0
    if oracle.best_feasible is None:
        config, evaluation = oracle.min_area
        print("oracle: no feasible configuration")
        print(
            f"oracle min-area: {show(config)} "
            f"latency={evaluation.latency} area={evaluation.area}"
        )
    else:
        config, evaluation = oracle.best_feasible
        print(
            f"oracle best: {show(config)} "
            f"latency={evaluation.latency} area={evaluation.area}"
        )
        if solution.configuration is not None:
            match = "yes" if solution.configuration == config else "no"
            print(f"match: {match}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    records = load_records(args.runs)
    table = score(records)
    print("benchmark,policy,runs,runs_meeting_target,scenario1_points,scenario2_points")
    for row in table.rows:
        print(
            f"{row.benchmark},{row.policy},{row.runs},{row.runs_meeting_target},"
            f"{row.scenario1_points},{row.scenario2_points}"
        )
    return 0


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--latency-model",
        choices=MODEL_CHOICES,
        default="correct",
        help="latency model used by ILP solves (default: correct)",
    )
    parser.add_argument(
        "--objective",
        choices=("constrained", "lagrangian"),
        default="constrained",
        help="ILP objective (default: constrained)",
    )
    parser.add_argument(
        "--alpha",
        type=float,
        default=1.0,
        help="latency weight for the lagrangian objective (default: 1)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master seed (default: 0)"
    )
    parser.add_argument(
        "--area-target-frac",
        type=float,
        default=0.9,
        help="area target as a fraction of the greedy baseline (default: 0.9)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlsdse",
        description="Design-space exploration over kernel variants: benchmarks, "
        "policies, ILP solving, and seeded batch experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench_parser = sub.add_parser("bench", help="inspect or export builtin benchmarks")
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)
    list_parser = bench_sub.add_parser("list", help="list builtin benchmarks")
    list_parser.set_defaults(func=_cmd_bench_list)
    export_parser = bench_sub.add_parser(
        "export", help="write builtin benchmarks as JSON files"
    )
    export_parser.add_argument("--out", required=True, help="output directory")
    export_parser.set_defaults(func=_cmd_bench_export)

    run_parser = sub.add_parser("run", help="run a batch experiment")
    run_parser.add_argument(
        "--benchmark",
        action="append",
        default=None,
        help="builtin name or benchmark file; repeatable (default: all builtins)",
    )
    run_parser.add_argument(
        "--policy",
        action="append",
        default=None,
        help="oracle | ilp-first | trial-error | external:CMD; repeatable "
        "(default: the three scripted policies)",
    )
    _add_shared_flags(run_parser)
    run_parser.add_argument(
        "--reps", type=int, default=10, help="repetitions per pair (default: 10)"
    )
    run_parser.add_argument(
        "--max-actions", type=int, default=40, help="action budget (default: 40)"
    )
    run_parser.add_argument(
        "--max-transcript-chars",
        type=int,
        default=200_000,
        help="transcript size budget (default: 200000)",
    )
    run_parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="per-kernel variant generation fault probability (default: 0)",
    )
    run_parser.add_argument("--out", required=True, help="report directory")
    run_parser.set_defaults(func=_cmd_run)

    solve_parser = sub.add_parser(
        "solve", help="one-shot ILP solve compared against the enumeration oracle"
    )
    solve_parser.add_argument(
        "--benchmark", required=True, help="builtin name or benchmark file"
    )
    _add_shared_flags(solve_parser)
    solve_parser.set_defaults(func=_cmd_solve)

    score_parser = sub.add_parser("score", help="score a previously written runs file")
    score_parser.add_argument("--runs", required=True, help="path to runs.jsonl")
    score_parser.set_defaults(func=_cmd_score)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if hasattr(args, "policy") and args.policy is None:
        args.policy = list(SCRIPTED_POLICIES)
    try:
        return args.func(args)
    except (ConfigError, EmptyInput, UnknownBenchmark) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HlsDseError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
