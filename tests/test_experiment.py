"""Batch runner, two-scenario scoring, and report files."""

from __future__ import annotations

import functools
import json
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlsdse import agent, front
from hlsdse.agent import (
    Budget,
    ExternalPolicy,
    Failure,
    FailureReason,
    IlpFirstPolicy,
    Inspect,
    OraclePolicy,
    Policy,
    Select,
    Session,
    SolveIlp,
    Success,
    Synthesize,
    TrialAndErrorPolicy,
)
from hlsdse.bench import Benchmark, builtin, builtin_names
from hlsdse.design import (
    Configuration,
    Design,
    Kernel,
    KernelSource,
    KernelVariant,
    area_to_tenths,
    call,
    par,
)
from hlsdse.errors import CyclicDesign, EmptyInput, FunctionalityBroken, ParseError
from hlsdse.experiment import (
    ACTION_KINDS,
    SUMMARY_COLUMNS,
    PolicySpec,
    RunRecord,
    ScoreTable,
    derive_seed,
    load_records,
    record_from_dict,
    record_to_dict,
    report,
    run_experiment,
    score,
    summary_rows,
)
from hlsdse.ilp import ConstrainedArea, Lagrangian
from hlsdse.latency import EvalResult, LatencyModelKind
from hlsdse.variantgen import derive_area_target, optimize_bottom_up

ORACLE = PolicySpec("oracle", OraclePolicy)
ILP = PolicySpec("ilp-first[correct]", IlpFirstPolicy)
TRIAL = PolicySpec("trial-error", TrialAndErrorPolicy)


def small_batch() -> list[RunRecord]:
    return run_experiment([builtin("SYN1")], [ORACLE, ILP], repetitions=2)


# ---------------------------------------------------------------------------
# Seeds


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(0, "SYN1", "oracle", 0) == 9043657470298741296
    assert derive_seed(0, "SYN1", "oracle", 1) == 17421464095948436962
    assert derive_seed(7, "SYN2", "trial-error", 3) == 440224868653402457
    seeds = {
        derive_seed(m, b, p, r)
        for m in (0, 1)
        for b in ("SYN1", "SYN2")
        for p in ("oracle", "trial-error")
        for r in (0, 1, 2)
    }
    assert len(seeds) == 24


# ---------------------------------------------------------------------------
# Running batches


def test_batch_produces_one_record_per_combination():
    records = small_batch()
    assert [(r.policy, r.rep) for r in records] == [
        ("oracle", 0),
        ("oracle", 1),
        ("ilp-first[correct]", 0),
        ("ilp-first[correct]", 1),
    ]
    for record in records:
        assert record.benchmark == "SYN1"
        assert record.seed == derive_seed(0, "SYN1", record.policy, record.rep)
        assert isinstance(record.outcome, Success)
        assert record.met_target
        assert record.area_target_tenths == 4635
        assert record.final_latency == record.outcome.result.latency
        assert record.final_area_tenths == record.outcome.result.area_tenths
        assert set(record.actions_by_kind) == set(ACTION_KINDS)
        assert record.transcript is not None
        assert record.wall_time_s > 0
        assert record.fault_log == ()


def test_oracle_runs_spend_exactly_one_action():
    records = run_experiment([builtin("SYN1")], [ORACLE], repetitions=1)
    assert records[0].actions_by_kind == {
        "inspect": 0,
        "solve_ilp": 0,
        "synthesize": 0,
        "select": 1,
    }
    assert records[0].final_latency == 10
    assert records[0].final_area_tenths == 3710


def test_broken_variant_generation_becomes_a_failure_record():
    records = run_experiment(
        [builtin("SYN1")], [ORACLE], repetitions=2, fault_rate=1.0
    )
    for record in records:
        assert record.outcome.reason is FailureReason.FUNCTIONALITY_BROKEN
        assert record.final_latency is None
        assert record.final_area_tenths is None
        assert record.area_target_tenths is None
        assert not record.met_target
        assert record.actions_by_kind == {kind: 0 for kind in ACTION_KINDS}
        assert record.transcript is None


def test_runs_share_one_task_but_draw_their_own_faults():
    # Each record must be what one run of optimize_bottom_up would give.
    benchmark = builtin("SYN3")
    records = run_experiment([benchmark], [ORACLE], repetitions=12, fault_rate=0.4)
    assert {type(r.outcome) for r in records} == {Success, Failure}
    for record in records:
        try:
            task = optimize_bottom_up(benchmark.skeleton, fault_rate=0.4, seed=record.seed)
        except FunctionalityBroken as exc:
            assert record.outcome == Failure(FailureReason.FUNCTIONALITY_BROKEN, str(exc))
            assert record.fault_log == ()
        else:
            assert record.fault_log == task.fault_log
            assert record.area_target_tenths == derive_area_target(task.baseline.area_tenths)


def test_an_invalid_skeleton_gives_every_run_the_same_failure_record():
    skeleton = builtin("SYN1").skeleton
    kernels = dict(skeleton.kernels)
    kernels["A"] = replace(kernels["A"], body=call("top"))  # a cycle
    cyclic = Benchmark("CYCLIC", Design(kernels=kernels, top="top"), "")
    ilp_first = PolicySpec("ilp-first[correct]", IlpFirstPolicy)
    records = run_experiment([cyclic], [ORACLE, ilp_first], repetitions=2)
    with pytest.raises(CyclicDesign) as raised:
        optimize_bottom_up(cyclic.skeleton)
    expected = Failure(FailureReason.POLICY_ERROR, f"CyclicDesign: {raised.value}")
    assert [r.outcome for r in records] == [expected] * 4
    assert all(r.transcript is None and r.area_target_tenths is None for r in records)


def test_missing_external_command_becomes_a_failure_record(tmp_path):
    spec = PolicySpec("external", lambda: ExternalPolicy([str(tmp_path / "missing")]))
    records = run_experiment([builtin("SYN1")], [spec], repetitions=1)
    assert [type(r.outcome) for r in records] == [Failure]
    assert records[0].outcome.reason is FailureReason.POLICY_ERROR
    assert "cannot start external policy" in records[0].outcome.detail


INFINITE_TARGET_CHILD = """
import sys

while sys.stdin.readline():
    line = '{"type": "action", "action": {"solve_ilp": {"area_target": Infinity}}}'
    print(line, flush=True)
"""


def test_non_finite_external_area_target_becomes_a_failure_record(tmp_path):
    child = tmp_path / "infinite.py"
    child.write_text(INFINITE_TARGET_CHILD)
    started: list[ExternalPolicy] = []
    spec = PolicySpec(
        "external",
        lambda: started.append(ExternalPolicy([sys.executable, str(child)])) or started[-1],
    )
    records = run_experiment([builtin("SYN1")], [spec, ORACLE], repetitions=1)
    assert [p._proc.returncode is not None for p in started] == [True]  # reaped
    assert [type(r.outcome) for r in records] == [Failure, Success]
    assert records[0].outcome.reason is FailureReason.POLICY_ERROR
    assert "not a finite number" in records[0].outcome.detail


def test_the_default_batch_asks_each_distinct_solve_once(monkeypatch):
    # 240 runs share 8 prepared designs and one answer memo: 120 solve_ilp
    # steps ask 10 distinct questions. The oracle asks the same question as
    # ilp-first on each design, plus the least-area one on SYN2 and SYN4,
    # where the target is infeasible: 12 in all, one best_within each.
    calls = {"build_model": 0, "solve": 0, "best_within": 0}
    for module, name in ((agent, "build_model"), (agent, "solve"), (front, "best_within")):
        def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    records = run_experiment([builtin(n) for n in builtin_names()], [ORACLE, ILP, TRIAL])
    assert len(records) == 240
    assert sum(r.actions_by_kind["solve_ilp"] for r in records) == 120
    assert calls == {"build_model": 12, "solve": 12, "best_within": 12}


class _FloatIndexPolicy(Policy):
    """Synthesizes every kernel at variant ``1.0``, which equals 1 but is no int."""

    policy_id = "float-index"

    def start(self, task) -> None:
        self._kernels = sorted(task.design.kernels)

    def next_action(self, transcript):
        return Synthesize(Configuration.from_mapping({kid: 1.0 for kid in self._kernels}))


def test_a_non_int_variant_index_fails_its_run_and_the_batch_goes_on():
    spec = PolicySpec("float-index", _FloatIndexPolicy)
    records = run_experiment([builtin("SYN1")], [spec, ORACLE], repetitions=2)
    failed = [r for r in records if isinstance(r.outcome, Failure)]
    assert [(r.policy, r.rep) for r in failed] == [("float-index", 0), ("float-index", 1)]
    for record in failed:
        assert record.outcome.reason is FailureReason.POLICY_ERROR
        assert "is not an int" in record.outcome.detail
        assert record.transcript.entries == ()
    assert all(isinstance(r.outcome, Success) for r in records if r.policy == "oracle")


def test_repetitions_must_be_positive():
    with pytest.raises(ValueError):
        run_experiment([builtin("SYN1")], [ORACLE], repetitions=0)


def test_reruns_are_identical():
    first = [record_to_dict(r) for r in small_batch()]
    second = [record_to_dict(r) for r in small_batch()]
    assert first == second


# ---------------------------------------------------------------------------
# Record serialization


def test_record_round_trip():
    for record in small_batch():
        data = record_to_dict(record)
        assert set(data) == {
            "benchmark",
            "policy",
            "rep",
            "seed",
            "outcome",
            "actions_by_kind",
            "final_latency",
            "final_area",
            "area_target",
            "met_target",
            "fault_log",
        }
        assert data["final_area"] == record.outcome.result.area
        clone = record_from_dict(json.loads(json.dumps(data)))
        assert clone.transcript is None
        assert clone.wall_time_s == 0.0
        assert record_to_dict(clone) == data


def test_failure_record_round_trip():
    record = run_experiment(
        [builtin("SYN1")], [ORACLE], repetitions=1, fault_rate=1.0
    )[0]
    clone = record_from_dict(record_to_dict(record))
    assert clone.outcome == record.outcome
    assert clone.final_area_tenths is None


def test_load_records_reports_the_offending_line(tmp_path):
    records = small_batch()
    path = tmp_path / "runs.jsonl"
    lines = [json.dumps(record_to_dict(r), sort_keys=True) for r in records]
    path.write_text("\n".join(lines) + "\n")
    loaded = load_records(path)
    assert [record_to_dict(r) for r in loaded] == [record_to_dict(r) for r in records]

    path.write_text(lines[0] + "\n\nnot json\n")
    with pytest.raises(ParseError) as exc_info:
        load_records(path)
    assert exc_info.value.where == f"{path}:3"

    path.write_text(lines[0] + "\n{}\n")
    with pytest.raises(ParseError) as exc_info:
        load_records(path)
    assert exc_info.value.where == f"{path}:2"


def test_load_records_rejects_a_non_finite_area(tmp_path):
    data = record_to_dict(small_batch()[0])
    data["final_area"] = float("inf")
    path = tmp_path / "runs.jsonl"
    path.write_text(json.dumps(data) + "\n")  # written as Infinity
    with pytest.raises(ParseError, match="not a finite number") as exc_info:
        load_records(path)
    assert exc_info.value.where == f"{path}:1"


# ---------------------------------------------------------------------------
# Scoring


def synthetic_record(
    benchmark: str,
    policy: str,
    area_units: float,
    latency: int,
    target_units: float = 100.0,
    rep: int = 0,
) -> RunRecord:
    area_tenths = area_to_tenths(area_units)
    target_tenths = area_to_tenths(target_units)
    met = area_tenths <= target_tenths
    return RunRecord(
        benchmark=benchmark,
        policy=policy,
        rep=rep,
        seed=rep,
        outcome=Success(
            configuration=Configuration.from_mapping({"top": 0}),
            result=EvalResult(latency=latency, area_tenths=area_tenths),
            met_target=met,
        ),
        actions_by_kind={kind: 0 for kind in ACTION_KINDS},
        final_latency=latency,
        final_area_tenths=area_tenths,
        area_target_tenths=target_tenths,
        met_target=met,
    )


def test_scenario1_rewards_the_fastest_target_meeting_run():
    records = [
        synthetic_record("B1", "p1", 95.0, 50),
        synthetic_record("B1", "p2", 98.0, 45),
        synthetic_record("B1", "p3", 110.0, 40),
    ]
    rows = score(records).by_pair()
    assert rows[("B1", "p1")].scenario1_points == 0
    assert rows[("B1", "p2")].scenario1_points == 1
    assert rows[("B1", "p3")].scenario1_points == 0
    assert all(row.scenario2_points == 0 for row in rows.values())
    assert rows[("B1", "p1")].runs_meeting_target == 1
    assert rows[("B1", "p3")].runs_meeting_target == 0


def test_scenario2_rewards_every_minimum_area_run():
    records = [
        synthetic_record("B2", "p1", 120.0, 50),
        synthetic_record("B2", "p2", 115.0, 45),
        synthetic_record("B2", "p3", 115.0, 40),
    ]
    rows = score(records).by_pair()
    assert all(row.scenario1_points == 0 for row in rows.values())
    assert rows[("B2", "p1")].scenario2_points == 0
    assert rows[("B2", "p2")].scenario2_points == 1
    assert rows[("B2", "p3")].scenario2_points == 1


def test_one_meeting_run_suppresses_the_area_scenario():
    records = [
        synthetic_record("B3", "p1", 90.0, 50),
        synthetic_record("B3", "p2", 120.0, 30),
        synthetic_record("B3", "p3", 130.0, 35),
    ]
    rows = score(records).by_pair()
    assert rows[("B3", "p1")].scenario1_points == 1
    assert rows[("B3", "p2")].scenario1_points == 0
    assert all(row.scenario2_points == 0 for row in rows.values())


def test_benchmarks_are_judged_independently():
    records = [
        synthetic_record("B1", "p1", 95.0, 50),
        synthetic_record("B1", "p2", 98.0, 45),
        synthetic_record("B1", "p3", 110.0, 40),
        synthetic_record("B2", "p1", 120.0, 50),
        synthetic_record("B2", "p2", 115.0, 45),
        synthetic_record("B2", "p3", 115.0, 40),
    ]
    rows = score(records).by_pair()
    assert rows[("B1", "p2")].scenario1_points == 1
    assert rows[("B2", "p2")].scenario2_points == 1
    assert rows[("B2", "p3")].scenario2_points == 1
    assert rows[("B1", "p2")].runs == 1


def test_failed_runs_never_score():
    broken = RunRecord(
        benchmark="B2",
        policy="p1",
        rep=1,
        seed=1,
        outcome=run_experiment(
            [builtin("SYN1")], [ORACLE], repetitions=1, fault_rate=1.0
        )[0].outcome,
        actions_by_kind={kind: 0 for kind in ACTION_KINDS},
        final_latency=None,
        final_area_tenths=None,
        area_target_tenths=None,
        met_target=False,
    )
    records = [
        synthetic_record("B2", "p1", 120.0, 50),
        synthetic_record("B2", "p2", 115.0, 45),
        broken,
    ]
    rows = score(records).by_pair()
    assert rows[("B2", "p2")].scenario2_points == 1
    assert rows[("B2", "p1")].scenario2_points == 0
    assert rows[("B2", "p1")].runs == 2


def test_scoring_rejects_an_empty_batch():
    with pytest.raises(EmptyInput):
        score([])


# ---------------------------------------------------------------------------
# Reports


HEADER_KEYS = {"benchmark", "policy", "rep", "seed"}
ENTRY_KEYS = {"step", "action", "observation", "chars"}


def test_report_writes_the_full_file_set(tmp_path):
    records = small_batch()
    table = score(records)
    written = report(records, table, tmp_path / "out")
    names = [p.relative_to(tmp_path / "out").as_posix() for p in written]
    assert names == ["summary.csv", "runs.jsonl", "transcripts.jsonl"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(names)

    header = (tmp_path / "out" / "summary.csv").read_text().splitlines()[0]
    assert header == ",".join(SUMMARY_COLUMNS)

    lines = (tmp_path / "out" / "runs.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    keys = [(r["benchmark"], r["policy"], r["seed"]) for r in rows]
    assert keys == sorted(keys)
    assert len(rows) == 4
    assert all("wall_time_s" not in r and "transcript" not in r for r in rows)

    # Each run is a header line followed by its entry lines, in runs.jsonl order.
    transcript_rows = [
        json.loads(line)
        for line in (tmp_path / "out" / "transcripts.jsonl").read_text().splitlines()
    ]
    assert all(set(row) in (HEADER_KEYS, ENTRY_KEYS) for row in transcript_rows)
    starts = [i for i, row in enumerate(transcript_rows) if set(row) == HEADER_KEYS]
    assert starts[0] == 0
    heads = [transcript_rows[i] for i in starts]
    assert [{k: r[k] for k in HEADER_KEYS} for r in rows] == heads
    assert {
        "benchmark": "SYN1",
        "policy": "oracle",
        "rep": 0,
        "seed": derive_seed(0, "SYN1", "oracle", 0),
    } in heads
    for begin, end in zip(starts, starts[1:] + [len(transcript_rows)]):
        steps = transcript_rows[begin + 1 : end]
        assert [s["step"] for s in steps] == list(range(len(steps)))
        assert "select" in steps[-1]["action"]


@pytest.mark.parametrize("fault_rate", [0.0, 0.4])
def test_transcripts_jsonl_is_the_per_run_files_concatenated(tmp_path, fault_rate):
    """The one file holds the bytes one file per run used to hold, in
    runs.jsonl order; runs without a transcript add nothing."""
    records = run_experiment(
        [builtin("SYN1"), builtin("SYN2")], [ORACLE, ILP, TRIAL], repetitions=3,
        fault_rate=fault_rate,
    )
    assert any(r.transcript is None for r in records) == (fault_rate > 0)
    report(records, score(records), tmp_path)

    def line(payload) -> str:
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    by_run = {(r.benchmark, r.policy, r.rep): r for r in records}
    per_run_files = []
    for row in (tmp_path / "runs.jsonl").read_text().splitlines():
        row = json.loads(row)
        record = by_run[(row["benchmark"], row["policy"], row["rep"])]
        if record.transcript is None:
            continue
        text = line({k: row[k] for k in HEADER_KEYS})
        for entry in record.transcript.entries:
            text += line(
                {
                    "step": entry.step,
                    "action": agent.action_to_payload(entry.action),
                    "observation": agent.observation_to_payload(entry.observation),
                    "chars": entry.cumulative_chars,
                }
            )
        per_run_files.append(text)
    assert len(per_run_files) == sum(1 for r in records if r.transcript is not None)
    assert (tmp_path / "transcripts.jsonl").read_text() == "".join(per_run_files)


SOURCE = KernelSource(0, 1, 1, 0, 0)

# Kernel ids that COMPACT_JSON escapes, so their text is not the raw id.
SPLICE_DESIGN_KERNELS = {
    "top": Kernel(
        "top", SOURCE, (KernelVariant(0, 1000, 10),), par(call("ké"), call("中"))
    ),
    "ké": Kernel("ké", SOURCE, (KernelVariant(0, 500, 20), KernelVariant(1, 800, 12))),
    "中": Kernel("中", SOURCE, (KernelVariant(0, 600, 15), KernelVariant(1, 300, 25))),
}


def splice_actions():
    kernels = SPLICE_DESIGN_KERNELS
    choice = st.fixed_dictionaries(
        {kid: st.integers(0, len(k.variants) - 1) for kid, k in kernels.items()}
    ).map(Configuration.from_mapping)
    target = st.sampled_from([1500, 2200, 3000])  # 1500 is under the least area
    alpha = st.sampled_from([1, 0.1, Fraction(1, 10)])
    objective = st.one_of(target.map(ConstrainedArea), st.builds(Lagrangian, target, alpha))
    return st.one_of(
        st.sampled_from(sorted(kernels)).map(Inspect),
        st.builds(SolveIlp, objective, st.sampled_from(list(LatencyModelKind))),
        choice.map(Synthesize),
        choice.map(Select),
    )


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(splice_actions(), min_size=1, max_size=10))
def test_entry_lines_are_spliced_from_the_kept_texts(actions):
    design = Design(kernels=dict(SPLICE_DESIGN_KERNELS), top="top")
    session = Session(design, area_target_tenths=2200, budget=Budget(max_actions=100))
    for action in actions:
        if session.terminated:
            break
        session.step(action)
    encode = agent.COMPACT_JSON.encode
    transcript = session.transcript()
    expected, chars = [], 0
    for entry in transcript.entries:
        action = agent.action_to_payload(entry.action)
        observation = agent.observation_to_payload(entry.observation)
        assert (entry.action_json, entry.observation_json) == (
            encode(action),
            encode(observation),
        )
        size = len(encode({"action": action, "observation": observation}))
        assert agent.entry_chars(entry.action, entry.observation) == size
        chars += size
        assert entry.cumulative_chars == chars
        line = {"step": entry.step, "action": action, "observation": observation}
        expected.append(encode(dict(line, chars=chars)))
    record = RunRecord(
        benchmark="中",
        policy="scripted",
        rep=0,
        seed=0,
        outcome=session.outcome or Failure(FailureReason.POLICY_ERROR),
        actions_by_kind={},
        final_latency=None,
        final_area_tenths=None,
        area_target_tenths=2200,
        met_target=False,
        transcript=transcript,
    )
    with tempfile.TemporaryDirectory() as out:
        report([record], score([record]), out)
        lines = (Path(out) / "transcripts.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines[1:] == expected


@functools.cache
def mixed_batch() -> tuple[RunRecord, ...]:
    """Every builtin and policy at fault rate 0.4: runs with and without transcripts."""
    records = run_experiment(
        [builtin(name) for name in builtin_names()],
        [ORACLE, ILP, TRIAL],
        repetitions=2,
        fault_rate=0.4,
    )
    return tuple(records)


@settings(max_examples=25, deadline=None, database=None)
@given(st.data())
def test_report_writes_at_most_three_files(data):
    pool = mixed_batch()
    picks = data.draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4 * len(pool))
    )
    records = [pool[i] for i in picks]
    with tempfile.TemporaryDirectory() as out:
        written = report(records, score(records), out)
        assert sorted(Path(out).rglob("*")) == sorted(written)
    assert len(written) == (3 if any(r.transcript is not None for r in records) else 2)


def test_a_batch_without_transcripts_removes_a_stale_transcripts_file(tmp_path):
    records = small_batch()
    report(records, score(records), tmp_path)
    broken = run_experiment([builtin("SYN1")], [ORACLE], repetitions=1, fault_rate=1.0)
    report(broken, score(broken), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.jsonl", "summary.csv"]


def test_reports_are_byte_identical_across_reruns(tmp_path):
    for name in ("a", "b"):
        records = small_batch()
        report(records, score(records), tmp_path / name)
    for filename in ("summary.csv", "runs.jsonl", "transcripts.jsonl"):
        assert (tmp_path / "a" / filename).read_bytes() == (
            tmp_path / "b" / filename
        ).read_bytes()


def test_broken_runs_write_no_transcript_file(tmp_path):
    records = run_experiment(
        [builtin("SYN1")], [ORACLE], repetitions=1, fault_rate=1.0
    )
    written = report(records, score(records), tmp_path)
    assert [p.name for p in written] == ["summary.csv", "runs.jsonl"]


def test_report_rejects_an_empty_batch(tmp_path):
    with pytest.raises(EmptyInput):
        report([], ScoreTable(rows=()), tmp_path)


def test_summary_rows_blank_out_all_failure_pairs():
    records = run_experiment(
        [builtin("SYN1")], [ORACLE], repetitions=2, fault_rate=1.0
    )
    rows = summary_rows(records, score(records))
    assert len(rows) == 1
    row = rows[0]
    assert row["success_rate"] == "0.000"
    assert row["mean_area"] == ""
    assert row["min_area"] == ""
    assert row["max_latency"] == ""
    assert row["runs"] == "2"


def test_summary_rows_format_successful_pairs():
    records = small_batch()
    rows = summary_rows(records, score(records))
    oracle_row = next(r for r in rows if r["policy"] == "oracle")
    assert oracle_row["runs"] == "2"
    assert oracle_row["success_rate"] == "1.000"
    assert oracle_row["mean_select"] == "1.00"
    assert oracle_row["mean_inspect"] == "0.00"
    assert oracle_row["mean_area"] == "371.00"
    assert oracle_row["min_area"] == "371.0"
    assert oracle_row["min_latency"] == "10"
    assert oracle_row["runs_meeting_target"] == "2"
    assert list(oracle_row) == list(SUMMARY_COLUMNS)