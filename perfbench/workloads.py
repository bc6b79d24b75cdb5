"""The hlsdse benchmark's workloads: inputs, measured loops and checks.

Everything here reaches hlsdse through its public functions. ``run.py``
imports this module inside its timed set-up, so the set-up time includes the
package import.

Batch workloads run the default ``hlsdse run`` batch shape (8 builtins x
policies x 10 reps, then ``score`` and ``report``) in passes; one op is one
run. Ladder workloads solve seeded random designs one case at a time under
a per-case cap; one op is one case. A traced run first measures untraced
ops for half its time, then repeats the same ops with spans on, so the two
halves give the tracing overhead on identical work.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import signal
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import designs
from hlsdse import agent, bench, experiment, latency, variantgen
from hlsdse.agent import (
    INVALID_ACTION_LIMIT,
    Budget,
    ExternalPolicy,
    FailureReason,
    IlpFirstPolicy,
    OraclePolicy,
    Session,
    Success,
    TaskContext,
    TrialAndErrorPolicy,
    action_kind,
)
from hlsdse.design import (
    check_configuration,
    configuration_count,
    dumps_design,
    enumerate_configurations,
    loads_design,
)
from hlsdse.errors import InvalidAction
from hlsdse.experiment import PolicySpec, RunRecord
from hlsdse.ilp import ConstrainedArea, Lagrangian, SolveStatus, build_model, solve
from hlsdse.latency import brute_force_optimum, eval_latency, evaluate
from tracer import Tracer

BATCH_REPS = 10
MIN_OPS = 100  # so that p90 has ten samples beyond it
# One ladder round, as the kernel count of each case. Most cases sit below the
# branch-and-bound wall, and the median lands inside the dense group of
# 7-kernel cases, so that it tracks solver speed. 9-12 kernels reach the
# wall; the last five cases are beyond it, so that more than a tenth of all
# cases hit the cap and p90 records it.
LADDER_RUNGS = (6,) * 6 + (7,) * 28 + (8,) * 3 + (9, 10, 12, 16, 20, 24, 32, 64)
ENUMERATED_KERNELS = 6  # rung checked against full enumeration
SETUP_ROUNDS = 18  # ladder rounds generated during set-up; later ones lazily
CASE_CAP_S = 0.1  # ROADMAP item 3 asks for every rung in under 100 ms
LAGRANGIAN_ALPHA = 1
CHILD = Path(__file__).with_name("child_policy.py")
REFERENCE = Path(__file__).with_name("reference_default.json")


@dataclass
class Case:
    label: str
    kernels: int
    design: Any
    objective: Any


@dataclass
class Inputs:
    benchmarks: list = field(default_factory=list)  # batch workloads
    rounds: list = field(default_factory=list)  # ladder workloads: lists of Case
    fingerprint: str = ""
    problems: list = field(default_factory=list)


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    timeouts: int = 0
    busy_s: float = 0.0  # summed op time
    op_ms: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    shape: str = ""
    run_failed: bool = False
    rungs: dict = field(default_factory=dict)  # ladder kernels -> [cases, timeouts]

    def fail_op(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def fail_run(self, problem: str) -> None:
        """A run-level check failed: no op of the run is trusted."""
        self.run_failed = True
        self.problems.append(problem)


# ---------------------------------------------------------------------------
# Inputs


def make_inputs(workload: str, seed: int, tracer: Tracer) -> Inputs:
    """Generate the workload's inputs and round-trip them through JSON."""
    inputs = Inputs()
    digest = hashlib.sha256()
    if workload.startswith("batch-"):
        for name in bench.builtin_names():
            text = json.dumps(bench.benchmark_to_dict(bench.builtin(name)), sort_keys=True)
            with tracer.span("design.parse"):
                loaded = bench.benchmark_from_dict(json.loads(text))
            if json.dumps(bench.benchmark_to_dict(loaded), sort_keys=True) != text:
                inputs.problems.append(f"{name}: benchmark JSON does not round-trip")
            inputs.benchmarks.append(loaded)
            digest.update(text.encode())
    else:
        for index in range(SETUP_ROUNDS):
            inputs.rounds.append(
                ladder_round(workload, seed, index, tracer, inputs.problems, digest)
            )
    inputs.fingerprint = digest.hexdigest()
    return inputs


def ladder_round(workload, seed, index, tracer, problems, digest=None) -> list:
    """One round of cases, one per entry of ``LADDER_RUNGS``."""
    dag = workload == "ladder-dag-lagrangian"
    cases = []
    for slot, kernels in enumerate(LADDER_RUNGS):
        label = f"{workload}:{seed}:{index}:{slot}"
        text = dumps_design(designs.random_design(label, kernels, dag))
        with tracer.span("design.parse"):
            design = loads_design(text)
        if dumps_design(design) != text:
            problems.append(f"{label}: design JSON does not round-trip")
        if digest is not None:
            digest.update(text.encode())
        target = designs.area_target(design)
        objective = (
            Lagrangian(target, LAGRANGIAN_ALPHA) if dag else ConstrainedArea(target)
        )
        cases.append(Case(label, kernels, design, objective))
    return cases


def measure(workload: str, inputs: Inputs, seed: int, seconds: float, trace: bool,
            work_dir: Path) -> Result:
    result = Result()
    for problem in inputs.problems:
        result.fail_run(problem)
    if workload.startswith("batch-"):
        _measure_batch(workload, inputs, seed, seconds, trace, work_dir, result)
    else:
        _measure_ladder(workload, inputs, seed, seconds, trace, result)
    if result.run_failed:
        result.failed = result.attempted
    return result


# ---------------------------------------------------------------------------
# Batch workloads


def policy_specs(workload: str) -> list:
    if workload == "batch-default":
        return [
            PolicySpec("oracle", OraclePolicy),
            PolicySpec("ilp-first[correct]", IlpFirstPolicy),
            PolicySpec("trial-error", TrialAndErrorPolicy),
        ]
    command = [sys.executable, "-I", "-S", str(CHILD)]
    return [PolicySpec("external", lambda: ExternalPolicy(command))]


def _label(policy_id: str) -> str:
    return policy_id.split("[")[0]


def _answer(record: RunRecord) -> list:
    """The semantic fields of a run: outcome, configuration, latency, area,
    met_target. Counters and timings are left out on purpose."""
    outcome = record.outcome
    if isinstance(outcome, Success):
        return ["success", dict(outcome.configuration.items), record.final_latency,
                record.final_area_tenths, record.met_target]
    return [outcome.reason.value, None, record.final_latency,
            record.final_area_tenths, record.met_target]


def _key(record: RunRecord) -> str:
    return f"{record.benchmark}/{record.policy}/{record.rep}"


def answers(records) -> dict:
    return {_key(r): _answer(r) for r in records}


class _BatchChecks:
    """Per-run checks of one batch workload; each failing run counts once."""

    def __init__(self, workload: str, inputs: Inputs, result: Result) -> None:
        self.workload = workload
        self.result = result
        self.first: Optional[dict] = None
        self.reference = None
        self.designs = {
            b.name: variantgen.optimize_bottom_up(b.skeleton).design for b in inputs.benchmarks
        }
        if workload == "batch-default":
            self.reference = json.loads(REFERENCE.read_text())["answers"]
            for benchmark in inputs.benchmarks:
                self._check_formula(benchmark)

    def _check_formula(self, benchmark) -> None:
        design = self.designs[benchmark.name]
        for config in enumerate_configurations(design):
            own = {kid: design.kernels[kid].variants[idx].latency for kid, idx in config.items}
            if bench.formula_latency(benchmark, own) != eval_latency(design, config):
                self.result.fail_run(
                    f"{benchmark.name}: formula_latency differs from eval_latency"
                )
                return

    def _problem(self, record: RunRecord, answer: list) -> Optional[str]:
        key = _key(record)
        if self.first is not None and self.first.get(key) != answer:
            return f"{key}: answer differs from the first pass"
        if self.reference is not None and self.reference.get(key) != answer:
            return f"{key}: answer differs from the recorded reference"
        if self.workload == "batch-external" and answer[0] != "success":
            return f"{key}: external run ended in {answer[0]}"
        if isinstance(record.outcome, Success):
            design = self.designs[record.benchmark]
            config = record.outcome.configuration
            try:
                check_configuration(design, config)
            except ValueError as exc:
                return f"{key}: invalid configuration: {exc}"
            true = evaluate(design, config)
            if (true.latency, true.area_tenths) != (record.final_latency, record.final_area_tenths):
                return f"{key}: reported latency/area differ from evaluate"
        return None

    def check_pass(self, records, table, report_dir: Path) -> None:
        found = answers(records)
        for record in records:
            problem = self._problem(record, found[_key(record)])
            if problem is not None:
                self.result.fail_op(problem)
        if self.first is None:
            self.first = found
        reread = experiment.score(experiment.load_records(report_dir / "runs.jsonl"))
        if reread != table:
            self.result.fail_run("score(load_records(runs.jsonl)) != in-memory score")


def _batch_pass(inputs: Inputs, specs, seed: int, report_dir: Path):
    started = time.perf_counter()
    records = experiment.run_experiment(
        inputs.benchmarks, specs, repetitions=BATCH_REPS, master_seed=seed
    )
    table = experiment.score(records)
    experiment.report(records, table, report_dir)
    return records, table, time.perf_counter() - started


def _measure_batch(workload, inputs, seed, seconds, trace, work_dir, result) -> None:
    specs = policy_specs(workload)
    checks = _BatchChecks(workload, inputs, result)
    budget_s = seconds / 2 if trace else seconds
    passes = 0
    report_dir = None
    while result.busy_s < budget_s or result.attempted < MIN_OPS:
        # Every pass reports into a new directory: rewriting existing files
        # can wait on writeback of the old ones, which is file-system noise.
        if report_dir is not None:
            shutil.rmtree(report_dir)
        report_dir = work_dir / f"pass-{passes}"
        records, table, elapsed = _batch_pass(inputs, specs, seed, report_dir)
        result.attempted += len(records)
        result.busy_s += elapsed
        result.op_ms.extend(r.wall_time_s * 1000 for r in records)
        checks.check_pass(records, table, report_dir)
        passes += 1
    result.shape = f"{passes} passes x {len(records)} runs" + (", then traced" if trace else "")
    if trace:
        untraced_s = result.busy_s
        untraced_files = _report_bytes(report_dir)
        shutil.rmtree(report_dir)
        tracer = Tracer()
        traced_s = 0.0
        ops = 0
        with ExitStack() as stack:
            _patch_batch_layers(tracer, stack)
            for replay in range(passes):
                report_dir = work_dir / f"replay-{replay}"
                records, elapsed = _replay_pass(inputs, specs, seed, report_dir, tracer)
                traced_s += elapsed
                ops += len(records)
                result.attempted += len(records)
                if answers(records) != checks.first:
                    result.fail_run("traced replay answers differ from the untraced run")
                if _report_bytes(report_dir) != untraced_files:
                    result.fail_run("traced replay wrote different report files")
                shutil.rmtree(report_dir)
        result.layers = _layers(tracer, ops, untraced_s, traced_s)


def _report_bytes(report_dir: Path) -> dict:
    return {
        str(p.relative_to(report_dir)): p.read_bytes()
        for p in sorted(report_dir.rglob("*"))
        if p.is_file()
    }


def _count_configs(tracer, args, result) -> None:
    tracer.count("latency.brute_force_optimum.configs", configuration_count(args[0]))


def _count_model(tracer, args, model) -> None:
    tracer.count("ilp.build_model.vars", len(model.variables))
    tracer.count("ilp.build_model.constraints", len(model.constraints))


def _count_solution(tracer, args, solution) -> None:
    if solution.status is SolveStatus.INFEASIBLE:
        tracer.count("ilp.solve.infeasible")


def _patch_batch_layers(tracer: Tracer, stack: ExitStack) -> None:
    """Trace the calls hlsdse's own modules make into the latency and ilp
    layers, by rebinding the names those modules imported."""
    tracer.patch(stack, agent, "brute_force_optimum", "latency.brute_force_optimum",
                 _count_configs)
    for module in (agent, latency, variantgen):
        tracer.patch(stack, module, "evaluate", "latency.evaluate")
    tracer.patch(stack, agent, "build_model", "ilp.build_model", _count_model)
    tracer.patch(stack, agent, "solve", "ilp.solve", _count_solution)


def _replay_run(benchmark, spec, rep, run_seed, tracer: Tracer) -> RunRecord:
    """One run of ``run_experiment``, step by step through the public API."""
    started = time.perf_counter()
    label = _label(spec.id)
    with tracer.span("variantgen.optimize_bottom_up"):
        task1 = variantgen.optimize_bottom_up(benchmark.skeleton, seed=run_seed)
    tracer.count("synth.variants", sum(len(k.variants) for k in task1.design.kernels.values()))
    with tracer.span("variantgen.derive_area_target"):
        target = variantgen.derive_area_target(task1.baseline.area_tenths)
    budget = Budget()
    policy = spec.make()
    with tracer.span("agent.session"):
        session = Session(task1.design, target, budget, benchmark.name, run_seed, spec.id)
    task = TaskContext(task1.design, benchmark.name, target, budget, run_seed)
    try:
        with tracer.span("agent.external.start" if label == "external" else "agent.start"):
            policy.start(task)
        invalid_streak = 0
        while session.outcome is None:
            transcript = session.transcript()
            try:
                with tracer.span(f"agent.next_action.{label}"):
                    action = policy.next_action(transcript)
                with tracer.span(f"agent.step.{action_kind(action)}"):
                    session.step(action)
            except InvalidAction as exc:
                invalid_streak += 1
                if invalid_streak >= INVALID_ACTION_LIMIT:
                    session.abort(FailureReason.POLICY_ERROR, str(exc))
                else:
                    policy.notify_invalid(str(exc))
            else:
                invalid_streak = 0
    finally:
        with tracer.span("agent.close"):
            policy.close()
    transcript = session.transcript()
    if transcript.entries:
        tracer.count("agent.transcript_chars", transcript.entries[-1].cumulative_chars)
    actions = {kind: 0 for kind in experiment.ACTION_KINDS}
    for entry in transcript.entries:
        actions[action_kind(entry.action)] += 1
    outcome = session.outcome
    success = isinstance(outcome, Success)
    return RunRecord(
        benchmark=benchmark.name,
        policy=spec.id,
        rep=rep,
        seed=run_seed,
        outcome=outcome,
        actions_by_kind=actions,
        final_latency=outcome.result.latency if success else None,
        final_area_tenths=outcome.result.area_tenths if success else None,
        area_target_tenths=target,
        met_target=outcome.met_target if success else False,
        fault_log=task1.fault_log,
        transcript=transcript,
        wall_time_s=time.perf_counter() - started,
    )


def _replay_pass(inputs, specs, seed, report_dir, tracer):
    started = time.perf_counter()
    records = []
    for benchmark in inputs.benchmarks:
        for spec in specs:
            for rep in range(BATCH_REPS):
                run_seed = experiment.derive_seed(seed, benchmark.name, spec.id, rep)
                records.append(_replay_run(benchmark, spec, rep, run_seed, tracer))
    with tracer.span("experiment.score"):
        table = experiment.score(records)
    with tracer.span("experiment.report"):
        paths = experiment.report(records, table, report_dir)
    elapsed = time.perf_counter() - started
    tracer.count("experiment.report.bytes", sum(p.stat().st_size for p in paths))
    return records, elapsed


# ---------------------------------------------------------------------------
# Ladder workloads


class _Timeout(Exception):
    pass


class _Cap:
    """Per-case time cap from ``signal.setitimer`` in the main thread.

    The alarm handler raises only while a case is armed, so an alarm that
    lands after the case finished is ignored instead of escaping.
    """

    def __init__(self) -> None:
        self.armed = False
        self._previous = signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame) -> None:
        if self.armed:
            self.armed = False
            raise _Timeout()

    def solve(self, case: Case, tracer: Tracer):
        """(seconds, solution or None on timeout) for one capped case."""
        depth = tracer.depth
        model = solution = None
        started = time.perf_counter()
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, CASE_CAP_S)
        try:
            with tracer.span("ilp.build_model"):
                model = build_model(case.design, case.objective)
            with tracer.span("ilp.solve"):
                solution = solve(model)
            self.armed = False
        except _Timeout:
            pass
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - started
        tracer.unwind(depth)
        if model is not None:
            _count_model(tracer, (), model)
        if solution is None:
            tracer.count("ilp.solve.timeouts")
        else:
            _count_solution(tracer, (), solution)
        return elapsed, solution

    def close(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _case_problem(case: Case, solution) -> Optional[str]:
    if solution.status is not SolveStatus.OPTIMAL:
        return f"{case.label}: solver reports {solution.status.value}"
    design, objective = case.design, case.objective
    config = solution.configuration
    try:
        check_configuration(design, config)
    except ValueError as exc:
        return f"{case.label}: invalid configuration: {exc}"
    true = evaluate(design, config)
    if (true.latency, true.area_tenths) != (
        solution.predicted_latency, solution.predicted_area_tenths
    ):
        return f"{case.label}: predicted latency/area differ from evaluate"
    target = objective.area_target_tenths
    if isinstance(objective, ConstrainedArea):
        if true.area_tenths > target:
            return f"{case.label}: area {true.area_tenths} over target {target}"
        if case.kernels == ENUMERATED_KERNELS:
            best = brute_force_optimum(design, target).best_feasible
            if best is None or best[0] != config:
                return f"{case.label}: differs from brute_force_optimum"
    else:
        if solution.objective != LAGRANGIAN_ALPHA * true.latency + abs(true.area_tenths - target):
            return f"{case.label}: objective differs from alpha*latency + |area - target|"
        if case.kernels == ENUMERATED_KERNELS:
            best, _, _ = designs.lagrangian_optimum(design, target, LAGRANGIAN_ALPHA)
            if best != config:
                return f"{case.label}: differs from full enumeration"
    return None


def _same_solution(a, b) -> bool:
    return (a.status, a.configuration, a.objective) == (b.status, b.configuration, b.objective)


def _measure_ladder(workload, inputs, seed, seconds, trace, result) -> None:
    rounds = inputs.rounds
    off = Tracer(enabled=False)
    cap = _Cap()
    try:
        canary = rounds[0][0]
        _, canary_solution = cap.solve(canary, off)
        if canary_solution is None:
            result.fail_run(f"{canary.label}: first case timed out")
            return

        def run_case(case, tracer):
            elapsed, solution = cap.solve(case, tracer)
            result.attempted += 1
            result.busy_s += elapsed
            result.op_ms.append(elapsed * 1000)
            rung = result.rungs.setdefault(case.kernels, [0, 0])
            rung[0] += 1
            if solution is None:
                rung[1] += 1
                result.timeouts += 1
                # A timed-out case must leave no state behind for the next. The
                # re-solve is uncapped: a collector pause must not fail it.
                disarmed = signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
                again = solve(build_model(canary.design, canary.objective))
                if not disarmed or not _same_solution(again, canary_solution):
                    result.fail_op(f"{case.label}: timeout left state behind")
                return
            problem = _case_problem(case, solution)
            if problem is not None:
                result.fail_op(problem)

        budget_s = seconds / 2 if trace else seconds
        played = 0
        while result.busy_s < budget_s or result.attempted < MIN_OPS:
            if played == len(rounds):
                problems = []
                rounds.append(ladder_round(workload, seed, played, off, problems))
                for problem in problems:
                    result.fail_run(problem)
            for case in rounds[played]:
                run_case(case, off)
            played += 1
        result.shape = f"{played} rounds x {len(LADDER_RUNGS)} cases" + (
            ", then traced" if trace else "")
        if trace:
            untraced_s = result.busy_s
            tracer = Tracer()
            for case in (c for r in rounds[:played] for c in r):
                run_case(case, tracer)
            ops = played * len(LADDER_RUNGS)
            result.layers = _layers(tracer, ops, untraced_s, result.busy_s - untraced_s)
    finally:
        cap.close()


# ---------------------------------------------------------------------------
# Per-layer metrics

SPANS = (
    "variantgen.optimize_bottom_up",
    "latency.brute_force_optimum",
    "latency.evaluate",
    "ilp.build_model",
    "ilp.solve",
    "agent.step.inspect",
    "agent.step.solve_ilp",
    "agent.step.synthesize",
    "agent.step.select",
)
SELF_TIMED = (
    "variantgen.optimize_bottom_up",
    "latency.brute_force_optimum",
    "agent.step.solve_ilp",
    "agent.step.synthesize",
    "agent.step.select",
    "agent.next_action.oracle",
)
TIMED = (
    "agent.next_action.oracle",
    "agent.next_action.ilp-first",
    "agent.next_action.trial-error",
    "agent.next_action.external",
    "agent.external.start",
    "agent.close",
    "experiment.score",
    "experiment.report",
)
AGENT_SPANS = ("agent.session", "agent.start", "agent.external.start", "agent.close")
COUNTS = (
    "synth.variants",
    "latency.brute_force_optimum.configs",
    "ilp.build_model.vars",
    "ilp.build_model.constraints",
    "ilp.solve.timeouts",
    "ilp.solve.infeasible",
    "agent.transcript_chars",
    "experiment.report.bytes",
)


def _layers(tracer: Tracer, ops: int, untraced_s: float, traced_s: float) -> dict:
    """Per-op figures of the traced half, plus the tracing overhead."""
    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls"] = tracer.calls(name) / ops
        out[f"{name}.ms"] = tracer.ms(name) / ops
    for name in TIMED:
        out[f"{name}.ms"] = tracer.ms(name) / ops
    for name in SELF_TIMED:
        out[f"{name}.self_ms"] = tracer.self_ms(name) / ops
    for name in COUNTS:
        out[name] = tracer.counts.get(name, 0) / ops
    agent_names = [n for n in tracer.spans if n in AGENT_SPANS
                   or n.startswith(("agent.next_action.", "agent.step."))]
    solves = tracer.calls("ilp.solve")
    useless = tracer.counts.get("ilp.solve.infeasible", 0) + tracer.counts.get("ilp.solve.timeouts", 0)
    out["ilp.solve.optimal_frac"] = 1 - useless / solves if solves else 0.0
    out["agent.ms"] = sum(tracer.ms(n) for n in agent_names) / ops
    out["trace.overhead_pct"] = 100 * (traced_s - untraced_s) / untraced_s
    return out
