"""Batch experiment runner: repeated seeded runs, scoring, and file reports.

One run = the benchmark's task (variants and greedy baseline, built once per
benchmark) with the run's seeded fault draws, an area target at a fixed
fraction of the greedy baseline, and one policy-driven session. A batch
sweeps (benchmark x policy x repetition) with per-run seeds derived from a
master seed, so reruns are byte-identical. Scoring follows a two-scenario
rule: when any run of a benchmark meets the target, points go to the runs
achieving the lowest latency among the target-meeting ones; only when no run
meets it do points go to the runs achieving the lowest area.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .agent import (
    COMPACT_JSON,
    Budget,
    Failure,
    FailureReason,
    Outcome,
    Policy,
    Success,
    Transcript,
    action_kind,
    run,
)
from .bench import Benchmark
from .design import Configuration, area_to_tenths, tenths_to_area
from .errors import EmptyInput, FunctionalityBroken, HlsDseError, ParseError
from .latency import EvalResult
from .synth import DEFAULT_MAX_VARIANTS
from .variantgen import (
    DEFAULT_AREA_TARGET_FRACTION,
    BottomUpResult,
    FaultEvent,
    derive_area_target,
    draw_faults,
    prepare_task,
)

ACTION_KINDS = ("inspect", "solve_ilp", "synthesize", "select")


@dataclass(frozen=True)
class PolicySpec:
    """Named policy factory; a fresh instance is made for every run."""

    id: str
    make: Callable[[], Policy]


def derive_seed(master_seed: int, benchmark: str, policy_id: str, rep: int) -> int:
    """Stable per-run seed: hash of the run coordinates, independent of order."""
    key = f"{master_seed}:{benchmark}:{policy_id}:{rep}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


@dataclass(frozen=True)
class RunRecord:
    """Everything one run produced.

    ``wall_time_s`` is measured but never serialized, so reports stay
    byte-identical across reruns. ``transcript`` is carried in memory for the
    report writer and likewise stays out of the record's JSON form.
    """

    benchmark: str
    policy: str
    rep: int
    seed: int
    outcome: Outcome
    actions_by_kind: Mapping[str, int]
    final_latency: Optional[int]
    final_area_tenths: Optional[int]
    area_target_tenths: Optional[int]
    met_target: bool
    fault_log: tuple[FaultEvent, ...] = ()
    transcript: Optional[Transcript] = None
    wall_time_s: float = 0.0


def _outcome_to_dict(outcome: Outcome) -> dict[str, object]:
    if isinstance(outcome, Success):
        return {
            "success": {
                "configuration": {kid: idx for kid, idx in outcome.configuration.items},
                "latency": outcome.result.latency,
                "area": outcome.result.area,
                "met_target": outcome.met_target,
            }
        }
    return {"failure": {"reason": outcome.reason.value, "detail": outcome.detail}}


def _outcome_from_dict(data: dict[str, object]) -> Outcome:
    if "success" in data:
        body = data["success"]
        result = EvalResult(
            latency=body["latency"], area_tenths=area_to_tenths(body["area"])
        )
        return Success(
            configuration=Configuration.from_mapping(body["configuration"]),
            result=result,
            met_target=body["met_target"],
        )
    body = data["failure"]
    return Failure(FailureReason(body["reason"]), body.get("detail", ""))


def record_to_dict(record: RunRecord) -> dict[str, object]:
    return {
        "benchmark": record.benchmark,
        "policy": record.policy,
        "rep": record.rep,
        "seed": record.seed,
        "outcome": _outcome_to_dict(record.outcome),
        "actions_by_kind": dict(record.actions_by_kind),
        "final_latency": record.final_latency,
        "final_area": (
            tenths_to_area(record.final_area_tenths)
            if record.final_area_tenths is not None
            else None
        ),
        "area_target": (
            tenths_to_area(record.area_target_tenths)
            if record.area_target_tenths is not None
            else None
        ),
        "met_target": record.met_target,
        "fault_log": [
            {"kernel": e.kernel, "attempt": e.attempt, "repaired": e.repaired}
            for e in record.fault_log
        ],
    }


def record_from_dict(data: dict[str, object]) -> RunRecord:
    return RunRecord(
        benchmark=data["benchmark"],
        policy=data["policy"],
        rep=data["rep"],
        seed=data["seed"],
        outcome=_outcome_from_dict(data["outcome"]),
        actions_by_kind=dict(data["actions_by_kind"]),
        final_latency=data["final_latency"],
        final_area_tenths=(
            area_to_tenths(data["final_area"]) if data["final_area"] is not None else None
        ),
        area_target_tenths=(
            area_to_tenths(data["area_target"]) if data["area_target"] is not None else None
        ),
        met_target=data["met_target"],
        fault_log=tuple(
            FaultEvent(e["kernel"], e["attempt"], e["repaired"])
            for e in data.get("fault_log", [])
        ),
    )


def load_records(path: Union[str, Path]) -> list[RunRecord]:
    """Read a runs.jsonl file back into records (without transcripts)."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                records.append(record_from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad run record: {exc}", f"{path}:{lineno}") from None
    return records


def _one_run(
    benchmark: Benchmark,
    task: Union[BottomUpResult, HlsDseError],
    spec: PolicySpec,
    rep: int,
    seed: int,
    budget: Budget,
    fault_rate: float,
    area_target_fraction: Union[float, Fraction],
) -> RunRecord:
    """One run on the benchmark's shared task, or on the error preparing it."""
    started = time.perf_counter()
    actions = {kind: 0 for kind in ACTION_KINDS}
    transcript, fault_log = None, ()
    try:
        if isinstance(task, HlsDseError):
            raise task.with_traceback(None)
        task1 = draw_faults(task, fault_rate, seed)
        target = derive_area_target(task1.baseline.area_tenths, area_target_fraction)
        outcome, transcript = run(
            spec.make(),
            task1.design,
            target,
            budget=budget,
            seed=seed,
            design_id=benchmark.name,
            policy_id=spec.id,
        )
        fault_log = task1.fault_log
    except HlsDseError as exc:
        if isinstance(exc, FunctionalityBroken):
            outcome = Failure(FailureReason.FUNCTIONALITY_BROKEN, str(exc))
        else:
            outcome = Failure(FailureReason.POLICY_ERROR, f"{type(exc).__name__}: {exc}")
        target = None
    for entry in transcript.entries if transcript is not None else ():
        actions[action_kind(entry.action)] += 1
    success = isinstance(outcome, Success)
    return RunRecord(
        benchmark=benchmark.name,
        policy=spec.id,
        rep=rep,
        seed=seed,
        outcome=outcome,
        actions_by_kind=actions,
        final_latency=outcome.result.latency if success else None,
        final_area_tenths=outcome.result.area_tenths if success else None,
        area_target_tenths=target,
        met_target=outcome.met_target if success else False,
        fault_log=fault_log,
        transcript=transcript,
        wall_time_s=time.perf_counter() - started,
    )


def run_experiment(
    benchmarks: Sequence[Benchmark],
    policies: Sequence[PolicySpec],
    repetitions: int = 10,
    budget: Budget = Budget(),
    master_seed: int = 0,
    fault_rate: float = 0.0,
    area_target_fraction: Union[float, Fraction] = DEFAULT_AREA_TARGET_FRACTION,
    max_variants: int = DEFAULT_MAX_VARIANTS,
) -> list[RunRecord]:
    """Run every (benchmark, policy, repetition) combination to a record.

    Per-run failures (broken variant generation, misbehaving policies) become
    Failure records; the batch itself never aborts. Runs are independent, so
    executing them sequentially here is an implementation choice, not an
    ordering contract — records are sorted before reporting anyway.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be positive, got {repetitions}")
    records = []
    for benchmark in benchmarks:
        # Variants and baseline do not depend on the run: one task serves all.
        try:
            task: Union[BottomUpResult, HlsDseError] = prepare_task(
                benchmark.skeleton, max_variants
            )
        except HlsDseError as exc:
            task = exc
        for spec in policies:
            for rep in range(repetitions):
                seed = derive_seed(master_seed, benchmark.name, spec.id, rep)
                records.append(
                    _one_run(
                        benchmark, task, spec, rep, seed, budget, fault_rate, area_target_fraction
                    )
                )
    return records


# ---------------------------------------------------------------------------
# Scoring


@dataclass(frozen=True)
class ScoreRow:
    benchmark: str
    policy: str
    runs: int
    runs_meeting_target: int
    scenario1_points: int
    scenario2_points: int


@dataclass(frozen=True)
class ScoreTable:
    rows: tuple[ScoreRow, ...]

    def by_pair(self) -> dict[tuple[str, str], ScoreRow]:
        return {(row.benchmark, row.policy): row for row in self.rows}


def score(records: Sequence[RunRecord]) -> ScoreTable:
    """Apply the two-scenario rule per benchmark.

    Scenario 1 (some run meets the target): one point per run that meets it
    with latency equal to the minimum among the target-meeting runs. Scenario
    2 (no run meets it): one point per run whose area equals the global
    minimum. The scenarios are mutually exclusive per benchmark, judged
    across all policies jointly.
    """
    if not records:
        raise EmptyInput("no run records to score")
    pairs = sorted({(r.benchmark, r.policy) for r in records})
    s1: dict[tuple[str, str], int] = {pair: 0 for pair in pairs}
    s2: dict[tuple[str, str], int] = {pair: 0 for pair in pairs}
    for benchmark in sorted({r.benchmark for r in records}):
        finished = [
            r
            for r in records
            if r.benchmark == benchmark and r.final_area_tenths is not None
        ]
        meeting = [r for r in finished if r.met_target]
        if meeting:
            best_latency = min(r.final_latency for r in meeting)
            for record in meeting:
                if record.final_latency == best_latency:
                    s1[(benchmark, record.policy)] += 1
        elif finished:
            best_area = min(r.final_area_tenths for r in finished)
            for record in finished:
                if record.final_area_tenths == best_area:
                    s2[(benchmark, record.policy)] += 1
    rows = []
    for benchmark, policy in pairs:
        mine = [r for r in records if r.benchmark == benchmark and r.policy == policy]
        rows.append(
            ScoreRow(
                benchmark=benchmark,
                policy=policy,
                runs=len(mine),
                runs_meeting_target=sum(1 for r in mine if r.met_target),
                scenario1_points=s1[(benchmark, policy)],
                scenario2_points=s2[(benchmark, policy)],
            )
        )
    return ScoreTable(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Reports


def _mean(values: Iterable[float]) -> Optional[float]:
    values = list(values)
    if not values:
        return None
    return sum(values) / len(values)


def _fmt(value: Optional[float], pattern: str) -> str:
    return "" if value is None else pattern.format(value)


SUMMARY_COLUMNS = (
    "benchmark",
    "policy",
    "runs",
    "success_rate",
    "mean_inspect",
    "mean_solve_ilp",
    "mean_synthesize",
    "mean_select",
    "mean_area",
    "min_area",
    "max_area",
    "mean_latency",
    "min_latency",
    "max_latency",
    "runs_meeting_target",
    "scenario1_points",
    "scenario2_points",
)


def summary_rows(
    records: Sequence[RunRecord], table: ScoreTable
) -> list[dict[str, str]]:
    """One formatted summary row per (benchmark, policy), sorted."""
    scores = table.by_pair()
    rows = []
    for benchmark, policy in sorted({(r.benchmark, r.policy) for r in records}):
        mine = [r for r in records if r.benchmark == benchmark and r.policy == policy]
        done = [r for r in mine if r.final_area_tenths is not None]
        areas = [tenths_to_area(r.final_area_tenths) for r in done]
        latencies = [r.final_latency for r in done]
        score_row = scores[(benchmark, policy)]
        rows.append(
            {
                "benchmark": benchmark,
                "policy": policy,
                "runs": str(len(mine)),
                "success_rate": "{:.3f}".format(len(done) / len(mine)),
                "mean_inspect": "{:.2f}".format(
                    _mean(r.actions_by_kind.get("inspect", 0) for r in mine)
                ),
                "mean_solve_ilp": "{:.2f}".format(
                    _mean(r.actions_by_kind.get("solve_ilp", 0) for r in mine)
                ),
                "mean_synthesize": "{:.2f}".format(
                    _mean(r.actions_by_kind.get("synthesize", 0) for r in mine)
                ),
                "mean_select": "{:.2f}".format(
                    _mean(r.actions_by_kind.get("select", 0) for r in mine)
                ),
                "mean_area": _fmt(_mean(areas), "{:.2f}"),
                "min_area": _fmt(min(areas) if areas else None, "{:.1f}"),
                "max_area": _fmt(max(areas) if areas else None, "{:.1f}"),
                "mean_latency": _fmt(_mean(latencies), "{:.2f}"),
                "min_latency": "" if not latencies else str(min(latencies)),
                "max_latency": "" if not latencies else str(max(latencies)),
                "runs_meeting_target": str(score_row.runs_meeting_target),
                "scenario1_points": str(score_row.scenario1_points),
                "scenario2_points": str(score_row.scenario2_points),
            }
        )
    return rows


def report(
    records: Sequence[RunRecord],
    table: ScoreTable,
    out_dir: Union[str, Path],
) -> list[Path]:
    """Write ``summary.csv``, ``runs.jsonl`` and ``transcripts.jsonl``.

    ``runs.jsonl`` holds one line per run, in ``(benchmark, policy, seed)``
    order. ``transcripts.jsonl`` holds the runs that have a transcript, in
    the same order, each as two kinds of line: first a header line
    ``{"benchmark","policy","rep","seed"}``, then one entry line
    ``{"action","chars","observation","step"}`` per transcript entry, in step
    order, spliced from the JSON texts the entry kept when its step was taken
    (``TranscriptEntry``), so nothing is encoded twice. It is written only
    when some run has a transcript, and removed otherwise so that it never
    describes another batch.

    Output is deterministic for identical inputs: records are sorted, JSON
    keys sorted, floats formatted with fixed precision, and wall-clock times
    omitted.
    """
    if not records:
        raise EmptyInput("no run records to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    summary_path = out / "summary.csv"
    try:
        with open(summary_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(
                handle, fieldnames=SUMMARY_COLUMNS, lineterminator="\n"
            )
            writer.writeheader()
            writer.writerows(summary_rows(records, table))
    except OSError as exc:
        raise OSError(f"cannot write {summary_path}: {exc}") from exc
    written.append(summary_path)

    encode = COMPACT_JSON.encode
    ordered = sorted(records, key=lambda r: (r.benchmark, r.policy, r.seed))
    runs_path = out / "runs.jsonl"
    with open(runs_path, "w", encoding="utf-8") as handle:
        for record in ordered:
            handle.write(encode(record_to_dict(record)) + "\n")
    written.append(runs_path)

    transcripts_path = out / "transcripts.jsonl"
    with_transcript = [r for r in ordered if r.transcript is not None]
    if not with_transcript:
        transcripts_path.unlink(missing_ok=True)
        return written
    with open(transcripts_path, "w", encoding="utf-8") as handle:
        for record in with_transcript:
            header = {
                "benchmark": record.benchmark,
                "policy": record.policy,
                "rep": record.rep,
                "seed": record.seed,
            }
            handle.write(encode(header) + "\n")
            for entry in record.transcript.entries:
                # COMPACT_JSON of the line, spliced in sorted-key order.
                handle.write(
                    f'{{"action":{entry.action_json},"chars":{entry.cumulative_chars},'
                    f'"observation":{entry.observation_json},"step":{entry.step}}}\n'
                )
    written.append(transcripts_path)
    return written
