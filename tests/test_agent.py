"""Session, policy, and wire-protocol tests."""

from __future__ import annotations

import json
import os
import random
import sys
import textwrap
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_design
from hlsdse import agent
from hlsdse.agent import (
    MAX_ACTION_LINE_BYTES,
    Ack,
    Budget,
    ExternalPolicy,
    Failure,
    FailureReason,
    IlpFirstPolicy,
    IlpOutcome,
    Inspect,
    KernelView,
    OraclePolicy,
    Policy,
    Select,
    Session,
    SolveIlp,
    Success,
    SynthResult,
    Synthesize,
    TrialAndErrorPolicy,
    action_from_payload,
    action_kind,
    action_to_payload,
    design_summary,
    entry_chars,
    observation_to_payload,
    run,
)
from hlsdse.bench import builtin
from hlsdse.design import (
    Configuration,
    Design,
    Kernel,
    KernelSource,
    KernelVariant,
    call,
    par,
)
from hlsdse.errors import InvalidAction, SessionTerminated
from hlsdse.ilp import ConstrainedArea, Lagrangian, build_model, solve
from hlsdse.latency import LatencyModelKind, brute_force_optimum
from hlsdse.variantgen import (
    derive_area_target,
    greedy_configuration,
    optimize_bottom_up,
)

SOURCE = KernelSource(0, 1, 1, 0, 0)


def parallel_pair_design() -> Design:
    kernels = {
        "top": Kernel(
            "top",
            SOURCE,
            (KernelVariant(index=0, area_tenths=1000, latency=10),),
            par(call("A"), call("B")),
        ),
        "A": Kernel(
            "A",
            SOURCE,
            (
                KernelVariant(index=0, area_tenths=500, latency=20),
                KernelVariant(index=1, area_tenths=800, latency=12),
            ),
        ),
        "B": Kernel("B", SOURCE, (KernelVariant(index=0, area_tenths=600, latency=15),)),
    }
    return Design(kernels=kernels, top="top")


def all_zero(design: Design) -> Configuration:
    return Configuration.from_mapping({kid: 0 for kid in design.kernels})


def kinds(transcript) -> list[str]:
    return [action_kind(e.action) for e in transcript.entries]


# ---------------------------------------------------------------------------
# Session mechanics


def test_synthesize_reports_ground_truth_costs():
    session = Session(parallel_pair_design(), area_target_tenths=2200)
    observation = session.step(Synthesize(all_zero(session.design)))
    assert isinstance(observation, SynthResult)
    assert (observation.result.latency, observation.result.area_tenths) == (30, 2100)
    assert not session.terminated


def test_inspect_reveals_the_kernel():
    design = parallel_pair_design()
    session = Session(design, area_target_tenths=2200)
    view = session.step(Inspect("top"))
    assert isinstance(view, KernelView)
    assert view.kernel == "top"
    assert view.body_summary == "par(A, B)"
    assert view.children == ("A", "B")
    assert view.variants == design.kernels["top"].variants
    leaf = session.step(Inspect("A"))
    assert leaf.body_summary is None
    assert leaf.children == ()


def test_solve_ilp_runs_inside_the_session():
    session = Session(parallel_pair_design(), area_target_tenths=2200)
    outcome = session.step(
        SolveIlp(ConstrainedArea(2200), LatencyModelKind.CORRECT)
    )
    assert isinstance(outcome, IlpOutcome)
    assert outcome.solution.configuration == Configuration.from_mapping(
        {"top": 0, "A": 0, "B": 0}
    )
    assert outcome.latency_model is LatencyModelKind.CORRECT


def test_select_terminates_with_evaluated_success():
    design = parallel_pair_design()
    session = Session(design, area_target_tenths=2200)
    observation = session.step(Select(all_zero(design)))
    assert isinstance(observation, Ack)
    assert isinstance(session.outcome, Success)
    assert session.outcome.met_target
    assert session.outcome.result.area_tenths == 2100
    with pytest.raises(SessionTerminated):
        session.step(Inspect("top"))


def test_select_over_target_still_succeeds_but_misses():
    design = parallel_pair_design()
    session = Session(design, area_target_tenths=1000)
    session.step(Select(all_zero(design)))
    assert isinstance(session.outcome, Success)
    assert not session.outcome.met_target


def test_action_budget_exhaustion():
    design = parallel_pair_design()
    session = Session(design, area_target_tenths=2200, budget=Budget(max_actions=1))
    session.step(Inspect("top"))
    assert isinstance(session.outcome, Failure)
    assert session.outcome.reason is FailureReason.BUDGET_EXHAUSTED
    with pytest.raises(SessionTerminated):
        session.step(Select(all_zero(design)))


def test_select_on_the_last_action_still_wins():
    design = parallel_pair_design()
    session = Session(design, area_target_tenths=2200, budget=Budget(max_actions=1))
    session.step(Select(all_zero(design)))
    assert isinstance(session.outcome, Success)


def test_transcript_char_cap():
    design = parallel_pair_design()
    session = Session(
        design, area_target_tenths=2200, budget=Budget(max_transcript_chars=10)
    )
    session.step(Inspect("top"))
    assert isinstance(session.outcome, Failure)
    assert session.outcome.reason is FailureReason.CONTEXT_EXCEEDED


def test_select_beats_the_char_cap():
    design = parallel_pair_design()
    session = Session(
        design, area_target_tenths=2200, budget=Budget(max_transcript_chars=10)
    )
    session.step(Select(all_zero(design)))
    assert isinstance(session.outcome, Success)


def test_invalid_actions_raise_and_leave_no_trace():
    design = parallel_pair_design()
    session = Session(design, area_target_tenths=2200)
    with pytest.raises(InvalidAction):
        session.step(Inspect("ghost"))
    with pytest.raises(InvalidAction):
        session.step(Synthesize(Configuration.from_mapping({"top": 0})))
    with pytest.raises(InvalidAction):
        session.step(Select(Configuration.from_mapping({"top": 0, "A": 9, "B": 0})))
    with pytest.raises(InvalidAction):
        session.step(SolveIlp(Lagrangian(1000, alpha=0)))
    assert session.transcript().entries == ()
    assert not session.terminated


@pytest.mark.parametrize("alpha", [None, True, False, "1/2", [1]])
def test_a_lagrangian_alpha_of_another_type_is_an_invalid_action(alpha):
    # As on the wire: int, float or Fraction, and never a bool.
    design = optimize_bottom_up(builtin("SYN1").skeleton).design
    session = Session(design, area_target_tenths=1000)
    with pytest.raises(InvalidAction, match="alpha must be an int, float or Fraction"):
        session.step(SolveIlp(Lagrangian(1000, alpha)))
    assert session.transcript().entries == ()
    assert design._answers == {}


@pytest.mark.parametrize("index", [1.0, True])
@pytest.mark.parametrize("kind", [Synthesize, Select])
def test_a_variant_index_that_is_not_an_int_is_an_invalid_action(kind, index):
    # 1.0 and True equal 1 and hash alike; neither may stand for it.
    design = optimize_bottom_up(builtin("SYN1").skeleton).design
    session = Session(design, area_target_tenths=1000)
    choice = Configuration.from_mapping({kid: index for kid in design.kernels})
    with pytest.raises(InvalidAction, match="is not an int"):
        session.step(kind(choice))
    assert session.transcript().entries == ()
    assert not session.terminated
    assert design._replies == {}


# ---------------------------------------------------------------------------
# Solve answers, kept once per design and question


def fresh_solution(design: Design, action: SolveIlp):
    return solve(build_model(design, action.objective, action.latency_model))


def test_equal_objectives_with_different_alphas_get_their_own_answers():
    # Lagrangian(t, 0.1) == Lagrangian(t, Fraction(0.1)), and they hash alike,
    # yet their alpha_fractions differ: 1/10 against the float's exact value.
    design = parallel_pair_design()
    session = Session(design, area_target_tenths=2200)
    actions = [
        action_from_payload({"solve_ilp": {"mode": "lagrangian", "alpha": alpha}}, 2200)
        for alpha in (0.1, "3602879701896397/36028797018963968")
    ]
    assert actions[0] == actions[1]
    outcomes = [session.step(action) for action in actions]
    for action, outcome in zip(actions, outcomes):
        assert outcome.solution == fresh_solution(parallel_pair_design(), action)
    assert outcomes[0].solution.objective != outcomes[1].solution.objective
    assert len(design._answers) == 2


def test_alphas_of_one_value_share_one_answer():
    design = parallel_pair_design()
    session = Session(design, area_target_tenths=2200)
    outcomes = [
        session.step(SolveIlp(Lagrangian(2200, alpha))) for alpha in (1, 1.0, Fraction(1))
    ]
    assert outcomes[1].solution is outcomes[0].solution
    assert outcomes[2].solution is outcomes[0].solution
    assert len(design._answers) == 1


def test_a_rejected_solve_is_asked_again_and_never_kept():
    design = parallel_pair_design()
    session = Session(design, area_target_tenths=2200, budget=Budget(max_actions=100))
    bad = SolveIlp(Lagrangian(2200, alpha=0))
    with pytest.raises(InvalidAction, match="alpha must be positive"):
        session.step(bad)
    session.step(SolveIlp(ConstrainedArea(2200)))
    kept = dict(design._answers)
    for _ in range(2):
        with pytest.raises(InvalidAction, match="alpha must be positive"):
            session.step(bad)
    assert design._answers == kept and len(kept) == 1
    assert len(session.transcript().entries) == 1


@pytest.mark.parametrize("objective", [ConstrainedArea(2200), Lagrangian(2200)])
def test_a_kernel_without_variants_is_rejected_on_every_ask(objective):
    design = parallel_pair_design()
    kernels = dict(design.kernels)
    kernels["B"] = Kernel("B", SOURCE)
    design = Design(kernels=kernels, top="top")
    session = Session(design, area_target_tenths=2200)
    for _ in range(2):
        with pytest.raises(InvalidAction):
            session.step(SolveIlp(objective))
    assert design._answers == {}


@settings(max_examples=50, deadline=None, database=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.0, 0.4]),
    st.sampled_from([1, 0.1, Fraction(5, 2)]),
)
def test_a_kept_answer_is_the_fresh_answer(seed, second_caller, alpha):
    def draw() -> Design:
        return random_design(random.Random(seed), max_kernels=6, second_caller=second_caller)

    design, copy = draw(), draw()
    areas = [sorted(v.area_tenths for v in k.variants) for k in design.kernels.values()]
    low, high = sum(a[0] for a in areas), sum(a[-1] for a in areas)
    target = random.Random(seed).randint(low - 10, high)  # infeasible ones too
    for kind in LatencyModelKind:
        for objective in (ConstrainedArea(target), Lagrangian(target, alpha)):
            action = SolveIlp(objective, kind)
            first, second = (Session(design, target).step(action) for _ in range(2))
            assert second.solution is first.solution
            fresh = IlpOutcome(fresh_solution(copy, action), kind)
            assert second == fresh
            assert entry_chars(action, second) == entry_chars(action, fresh)
    assert copy._answers == {}


def test_the_oracle_and_ilp_first_share_one_answer(monkeypatch):
    result = optimize_bottom_up(builtin("SYN1").skeleton)
    design, target = result.design, derive_area_target(result.baseline.area_tenths)
    run(OraclePolicy(), design, area_target_tenths=target)
    assert list(design._answers) == [(LatencyModelKind.CORRECT, "constrained", target, None)]
    kept = dict(design._answers)

    def no_solve(model):
        raise AssertionError("ilp-first solved a question the oracle had asked")

    monkeypatch.setattr(agent, "solve", no_solve)
    outcome, transcript = run(IlpFirstPolicy(), design, area_target_tenths=target)
    assert kinds(transcript) == ["synthesize", "solve_ilp", "select"]
    assert outcome.configuration == kept[next(iter(kept))].configuration
    assert design._answers == kept


# ---------------------------------------------------------------------------
# Session replies, kept once per design and reply key


def every_kind_of_reply(design: Design) -> list:
    return [
        Inspect("A"),
        SolveIlp(ConstrainedArea(2200)),
        SolveIlp(Lagrangian(2200, Fraction(1, 10)), LatencyModelKind.SUM_ALL),
        Synthesize(all_zero(design)),
    ]


def test_sessions_on_one_design_share_each_reply():
    design = parallel_pair_design()
    first, second = (Session(design, area_target_tenths=2200) for _ in range(2))
    for action in every_kind_of_reply(design):
        assert second.step(action) is first.step(action)
    entries = zip(first.transcript().entries, second.transcript().entries)
    assert all(a.observation_json is b.observation_json for a, b in entries)
    assert len(design._replies) == 4
    assert first.step(Select(all_zero(design))) is second.step(Select(all_zero(design)))


def test_two_preparations_of_one_skeleton_share_no_reply():
    skeleton = builtin("SYN1").skeleton
    designs = [optimize_bottom_up(skeleton).design for _ in range(2)]
    actions = [
        Inspect(designs[0].top),
        SolveIlp(ConstrainedArea(1000)),
        Synthesize(greedy_configuration(designs[0])),
    ]
    replies = [[Session(d, 1000).step(a) for a in actions] for d in designs]
    assert designs[0]._replies is not designs[1]._replies
    for mine, theirs in zip(*replies):
        assert mine == theirs and mine is not theirs


def test_a_rejected_action_keeps_no_reply():
    design = parallel_pair_design()
    session = Session(design, area_target_tenths=2200, budget=Budget(max_actions=100))
    for action in every_kind_of_reply(design):
        session.step(action)
    kept = dict(design._replies)
    rejected = [
        Inspect("ghost"),
        SolveIlp(Lagrangian(2200, alpha=0)),
        SolveIlp(Lagrangian(2200, alpha=float("nan"))),
        Synthesize(Configuration.from_mapping({"top": 0, "A": 9, "B": 0})),
        Synthesize(Configuration.from_mapping({"top": 0, "A": 1.0, "B": 0})),
        Select(Configuration.from_mapping({"top": 0})),
    ]
    for action in rejected:
        with pytest.raises(InvalidAction):
            session.step(action)
    assert design._replies == kept
    assert all(design._replies[key] is reply for key, reply in kept.items())


def test_transcript_accumulates_serialized_sizes():
    design = parallel_pair_design()
    session = Session(design, area_target_tenths=2200)
    session.step(Inspect("A"))
    session.step(Synthesize(all_zero(design)))
    entries = session.transcript().entries
    assert [e.step for e in entries] == [0, 1]
    total = 0
    for entry in entries:
        total += entry_chars(entry.action, entry.observation)
        assert entry.cumulative_chars == total
        assert entry.action_json == agent.COMPACT_JSON.encode(action_to_payload(entry.action))
        assert entry.observation_json == agent.COMPACT_JSON.encode(
            observation_to_payload(entry.observation)
        )


def test_abort_records_a_failure():
    session = Session(parallel_pair_design(), area_target_tenths=2200)
    session.abort(FailureReason.POLICY_ERROR, "gave up")
    assert session.outcome == Failure(FailureReason.POLICY_ERROR, "gave up")


def test_budget_rejects_nonpositive_limits():
    with pytest.raises(ValueError):
        Budget(max_actions=0)
    with pytest.raises(ValueError):
        Budget(max_transcript_chars=0)


# ---------------------------------------------------------------------------
# Wire serialization


def test_action_payload_round_trips():
    design = parallel_pair_design()
    actions = [
        Inspect("A"),
        Synthesize(all_zero(design)),
        Select(all_zero(design)),
        SolveIlp(ConstrainedArea(2200)),
        SolveIlp(Lagrangian(2200, alpha=2), LatencyModelKind.SUM_ALL),
        SolveIlp(Lagrangian(2200, alpha=Fraction(3, 2))),
    ]
    for action in actions:
        payload = action_to_payload(action)
        assert action_from_payload(payload, default_area_target_tenths=999) == action


def test_solve_ilp_payload_defaults():
    action = action_from_payload({"solve_ilp": {}}, default_area_target_tenths=2200)
    assert action == SolveIlp(ConstrainedArea(2200), LatencyModelKind.CORRECT)
    action = action_from_payload(
        {"solve_ilp": {"mode": "lagrangian"}}, default_area_target_tenths=500
    )
    assert action == SolveIlp(Lagrangian(500, alpha=1), LatencyModelKind.CORRECT)
    action = action_from_payload(
        {"solve_ilp": {"area_target": 310.5, "latency_model": "sum-all"}},
        default_area_target_tenths=500,
    )
    assert action == SolveIlp(ConstrainedArea(3105), LatencyModelKind.SUM_ALL)


@pytest.mark.parametrize(
    "payload",
    [
        "inspect",
        {},
        {"inspect": {"kernel": "A"}, "select": {"choice": {"A": 0}}},
        {"warp": {}},
        {"inspect": {"kernel": 7}},
        {"inspect": {"kernel": "A", "depth": 2}},
        {"select": {}},
        {"select": {"choice": {}}},
        {"select": {"choice": {"A": "zero"}}},
        {"select": {"choice": {"A": True}}},
        {"synthesize": {"choice": {"A": 0}, "extra": 1}},
        {"solve_ilp": {"mode": "quantum"}},
        {"solve_ilp": {"latency_model": "psychic"}},
        {"solve_ilp": {"tighten": True}},
        {"solve_ilp": {"area_target": "big"}},
        {"solve_ilp": {"area_target": True}},
        {"solve_ilp": {"area_target": 10.05}},
        {"solve_ilp": {"mode": "lagrangian", "alpha": "3/0"}},
        {"solve_ilp": {"mode": "lagrangian", "alpha": [1]}},
    ],
)
def test_malformed_action_payloads_are_rejected(payload):
    with pytest.raises(InvalidAction):
        action_from_payload(payload, default_area_target_tenths=100)


def test_observation_payloads_use_unit_areas():
    design = parallel_pair_design()
    session = Session(design, area_target_tenths=2200)
    synth = observation_to_payload(session.step(Synthesize(all_zero(design))))
    assert synth == {"synth_result": {"latency": 30, "area": 210.0}}

    outcome = session.step(SolveIlp(ConstrainedArea(2200)))
    payload = observation_to_payload(outcome)["ilp_outcome"]
    assert payload["status"] == "optimal"
    assert payload["configuration"] == {"top": 0, "A": 0, "B": 0}
    assert payload["predicted_area"] == 210.0
    assert payload["objective"] == "30"
    assert payload["latency_model"] == "correct"

    infeasible = session.step(SolveIlp(ConstrainedArea(100)))
    payload = observation_to_payload(infeasible)["ilp_outcome"]
    assert payload["status"] == "infeasible"
    assert payload["configuration"] is None

    view = observation_to_payload(session.step(Inspect("A")))["kernel_view"]
    assert view["variants"][1] == {
        "index": 1,
        "area": 80.0,
        "latency": 12,
        "unroll": 1,
        "ii": None,
    }
    assert observation_to_payload(Ack()) == {"ack": {}}


def test_entry_chars_counts_compact_json():
    action = Select(Configuration.from_mapping({"top": 0}))
    pair = {
        "action": action_to_payload(action),
        "observation": observation_to_payload(Ack()),
    }
    expected = len(json.dumps(pair, sort_keys=True, separators=(",", ":")))
    assert entry_chars(action, Ack()) == expected


def test_design_summary_shape():
    summary = design_summary(parallel_pair_design(), "pair")
    assert summary["design_id"] == "pair"
    assert summary["top"] == "top"
    assert [k["id"] for k in summary["kernels"]] == ["A", "B", "top"]
    top = summary["kernels"][2]
    assert top == {
        "id": "top",
        "variant_count": 1,
        "body": "par(A, B)",
        "children": ["A", "B"],
    }
    assert summary["kernels"][0]["body"] is None


# ---------------------------------------------------------------------------
# Scripted policies


def test_oracle_policy_selects_the_enumeration_optimum():
    design = parallel_pair_design()
    outcome, transcript = run(OraclePolicy(), design, area_target_tenths=2200)
    assert kinds(transcript) == ["select"]
    assert isinstance(outcome, Success)
    assert outcome.met_target
    best = brute_force_optimum(design, 2200).best_feasible
    assert outcome.configuration == best[0]
    assert transcript.policy_id == "oracle"


def test_oracle_policy_falls_back_to_min_area():
    design = parallel_pair_design()
    outcome, transcript = run(OraclePolicy(), design, area_target_tenths=1000)
    assert isinstance(outcome, Success)
    assert not outcome.met_target
    assert outcome.configuration == brute_force_optimum(design, 1000).min_area[0]


def test_ilp_first_solves_once_when_feasible():
    result = optimize_bottom_up(builtin("SYN1").skeleton)
    target = derive_area_target(result.baseline.area_tenths)
    outcome, transcript = run(IlpFirstPolicy(), result.design, area_target_tenths=target)
    assert kinds(transcript) == ["synthesize", "solve_ilp", "select"]
    assert isinstance(outcome, Success)
    assert outcome.met_target
    best = brute_force_optimum(result.design, target).best_feasible
    assert best is not None
    assert outcome.configuration == best[0]


def test_ilp_first_relaxes_until_feasible():
    outcome, transcript = run(
        IlpFirstPolicy(), parallel_pair_design(), area_target_tenths=1000
    )
    # 1000 and 1500 are infeasible; 2250 admits the only fitting point.
    assert kinds(transcript) == [
        "synthesize",
        "solve_ilp",
        "solve_ilp",
        "solve_ilp",
        "select",
    ]
    assert isinstance(outcome, Success)
    assert outcome.configuration == Configuration.from_mapping(
        {"top": 0, "A": 0, "B": 0}
    )
    assert not outcome.met_target


def test_ilp_first_gives_up_on_the_greedy_baseline(monkeypatch):
    monkeypatch.setattr(agent, "MAX_RELAX_RETRIES", 0)
    design = parallel_pair_design()
    outcome, transcript = run(IlpFirstPolicy(), design, area_target_tenths=1000)
    assert kinds(transcript) == ["synthesize", "solve_ilp", "select"]
    assert outcome.configuration == greedy_configuration(design)


def test_ilp_first_lagrangian_mode_always_gets_an_answer():
    outcome, transcript = run(
        IlpFirstPolicy(objective_mode="lagrangian"),
        parallel_pair_design(),
        area_target_tenths=1000,
    )
    assert kinds(transcript) == ["synthesize", "solve_ilp", "select"]
    assert outcome.configuration == Configuration.from_mapping(
        {"top": 0, "A": 0, "B": 0}
    )


def test_policy_id_formats():
    assert OraclePolicy().policy_id == "oracle"
    assert TrialAndErrorPolicy().policy_id == "trial-error"
    assert IlpFirstPolicy().policy_id == "ilp-first[correct]"
    assert (
        IlpFirstPolicy(latency_model=LatencyModelKind.SUM_ALL).policy_id
        == "ilp-first[sum-all]"
    )
    assert (
        IlpFirstPolicy(objective_mode="lagrangian").policy_id
        == "ilp-first[correct,lagrangian]"
    )
    assert ExternalPolicy(["/usr/bin/childish.py"]).policy_id == "external[childish.py]"
    with pytest.raises(ValueError):
        IlpFirstPolicy(objective_mode="sideways")
    with pytest.raises(ValueError):
        ExternalPolicy([])


def test_trial_and_error_downsizes_to_the_target():
    design = parallel_pair_design()
    outcome, transcript = run(TrialAndErrorPolicy(), design, area_target_tenths=2200)
    # Greedy start misses at 240.0; moving A (the largest swappable kernel)
    # down one variant lands on 210.0 and meets the target.
    assert kinds(transcript) == [
        "synthesize",
        "inspect",
        "inspect",
        "inspect",
        "synthesize",
        "select",
    ]
    inspected = [e.action.kernel for e in transcript.entries[1:4]]
    assert inspected == ["top", "A", "B"]
    assert isinstance(outcome, Success)
    assert outcome.met_target
    assert outcome.configuration == Configuration.from_mapping(
        {"top": 0, "A": 0, "B": 0}
    )


def test_trial_and_error_asks_the_solver_when_swaps_run_out():
    design = parallel_pair_design()
    outcome, transcript = run(TrialAndErrorPolicy(), design, area_target_tenths=1000)
    assert kinds(transcript) == [
        "synthesize",
        "inspect",
        "inspect",
        "inspect",
        "synthesize",
        "solve_ilp",
        "select",
    ]
    assert isinstance(outcome, Success)
    assert not outcome.met_target
    # Nothing fits, so the smallest-area candidate wins.
    assert outcome.configuration == Configuration.from_mapping(
        {"top": 0, "A": 0, "B": 0}
    )


class _StubbornPolicy(Policy):
    policy_id = "stubborn"

    def __init__(self) -> None:
        self.rejections: list[str] = []

    def start(self, task) -> None:
        pass

    def next_action(self, transcript):
        return Inspect("ghost")

    def notify_invalid(self, message: str) -> None:
        self.rejections.append(message)


def test_repeated_invalid_actions_abandon_the_run():
    policy = _StubbornPolicy()
    outcome, transcript = run(policy, parallel_pair_design(), area_target_tenths=2200)
    assert outcome == Failure(FailureReason.POLICY_ERROR, "unknown kernel 'ghost'")
    assert transcript.entries == ()
    # Two rejections are relayed; the third strike ends the run.
    assert len(policy.rejections) == 2


class _RecoveringPolicy(Policy):
    policy_id = "recovering"

    def __init__(self) -> None:
        self.bad_first = 2

    def start(self, task) -> None:
        self._design = task.design

    def next_action(self, transcript):
        if self.bad_first:
            self.bad_first -= 1
            return Inspect("ghost")
        return Select(all_zero(self._design))


def test_invalid_streak_resets_on_a_valid_action():
    outcome, transcript = run(
        _RecoveringPolicy(), parallel_pair_design(), area_target_tenths=2200
    )
    assert isinstance(outcome, Success)
    assert kinds(transcript) == ["select"]


# ---------------------------------------------------------------------------
# External policies


def write_child(tmp_path, name: str, body: str) -> list[str]:
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return [sys.executable, str(path)]


def run_external(policy: ExternalPolicy, design, area_target_tenths: int):
    """``run`` with an external policy; closing it must have reaped the child
    (a child left running only warns, so the leak check alone misses it)."""
    outcome, transcript = run(policy, design, area_target_tenths=area_target_tenths)
    assert policy._proc.returncode is not None
    return outcome, transcript


GOOD_CHILD = """
    import json
    import sys

    def send(action):
        sys.stdout.write(json.dumps({"type": "action", "action": action}) + "\\n")
        sys.stdout.flush()

    task = json.loads(sys.stdin.readline())
    kernels = [k["id"] for k in task["design_summary"]["kernels"]]
    for kid in kernels:
        send({"inspect": {"kernel": kid}})
        json.loads(sys.stdin.readline())
    send({"solve_ilp": {}})
    outcome = json.loads(sys.stdin.readline())["payload"]["ilp_outcome"]
    if outcome["status"] == "optimal":
        choice = outcome["configuration"]
    else:
        choice = {kid: 0 for kid in kernels}
    send({"select": {"choice": choice}})
    sys.stdin.readline()
"""


def test_external_policy_drives_a_full_run(tmp_path):
    command = write_child(tmp_path, "child.py", GOOD_CHILD)
    result = optimize_bottom_up(builtin("SYN1").skeleton)
    target = derive_area_target(result.baseline.area_tenths)
    policy = ExternalPolicy(command)
    threads = threading.active_count()
    outcome, transcript = run(policy, result.design, area_target_tenths=target)
    # Closing releases both pipes and reaps the child; no thread outlives it.
    assert policy._proc.stdin.closed and policy._proc.stdout.closed
    assert policy._proc.returncode is not None
    assert threading.active_count() == threads
    assert isinstance(outcome, Success)
    assert kinds(transcript) == ["inspect"] * 3 + ["solve_ilp", "select"]
    best = brute_force_optimum(result.design, target).best_feasible
    assert outcome.configuration == best[0]
    assert transcript.policy_id == f"external[{os.path.basename(sys.executable)}]"


LOGGING_CHILD = """
    import json
    import sys

    log = open(sys.argv[1], "w")

    def send(action):
        sys.stdout.write(json.dumps({"type": "action", "action": action}) + "\\n")
        sys.stdout.flush()

    task = json.loads(sys.stdin.readline())
    log.write(json.dumps(task) + "\\n")
    kernels = [k["id"] for k in task["design_summary"]["kernels"]]
    send({"inspect": {"kernel": kernels[0]}})
    observation = json.loads(sys.stdin.readline())
    log.write(json.dumps(observation) + "\\n")
    log.flush()
    send({"select": {"choice": {kid: 0 for kid in kernels}}})
    sys.stdin.readline()
"""


def test_external_wire_protocol_framing(tmp_path):
    log_path = tmp_path / "wire.log"
    command = write_child(tmp_path, "logger.py", LOGGING_CHILD) + [str(log_path)]
    design = parallel_pair_design()
    outcome, _ = run_external(ExternalPolicy(command), design, 2200)
    assert isinstance(outcome, Success)
    lines = [json.loads(l) for l in log_path.read_text().splitlines()]
    task, observation = lines
    assert task["type"] == "task"
    assert task["area_target"] == 220.0
    assert task["design_summary"] == json.loads(
        json.dumps(design_summary(design, "design"))
    )
    assert observation["type"] == "observation"
    assert observation["step"] == 0
    assert "kernel_view" in observation["payload"]


RAW_LOGGING_CHILD = """
    import json
    import sys

    log = open(sys.argv[1], "wb")

    def receive():
        line = sys.stdin.buffer.readline()
        log.write(line)
        log.flush()
        return json.loads(line)

    def send(action):
        sys.stdout.write(json.dumps({"type": "action", "action": action}) + "\\n")
        sys.stdout.flush()

    kernels = [k["id"] for k in receive()["design_summary"]["kernels"]]
    for kid in kernels:
        send({"inspect": {"kernel": kid}})
        receive()
    send({"solve_ilp": {"mode": "lagrangian", "alpha": 0.1}})
    receive()
    send({"select": {"choice": {kid: 0 for kid in kernels}}})
    sys.stdin.readline()
"""


def test_relayed_lines_are_sorted_key_json(tmp_path):
    log_path = tmp_path / "wire.bin"
    command = write_child(tmp_path, "raw.py", RAW_LOGGING_CHILD) + [str(log_path)]
    design = parallel_pair_design()
    outcome, transcript = run_external(ExternalPolicy(command), design, 2200)
    assert isinstance(outcome, Success)
    messages = [
        {
            "type": "task",
            "design_summary": design_summary(design, "design"),
            "area_target": 220.0,
        }
    ] + [
        {"type": "observation", "step": e.step, "payload": observation_to_payload(e.observation)}
        for e in transcript.entries[:-1]  # the Select's Ack ends the run unrelayed
    ]
    expected = [(json.dumps(m, sort_keys=True) + "\n").encode() for m in messages]
    assert log_path.read_bytes().splitlines(keepends=True) == expected


BAD_CHILD = """
    import sys

    sys.stdin.readline()
    for _ in range(3):
        sys.stdout.buffer.write(b"\\xff\\xfe is not UTF-8\\n")
        sys.stdout.buffer.write(b"this is not json\\n")
        sys.stdout.flush()
    sys.stdin.read()
"""


def test_external_garbage_becomes_policy_error(tmp_path):
    command = write_child(tmp_path, "garbage.py", BAD_CHILD)
    outcome, transcript = run_external(ExternalPolicy(command), parallel_pair_design(), 2200)
    assert isinstance(outcome, Failure)
    assert outcome.reason is FailureReason.POLICY_ERROR
    assert transcript.entries == ()


QUITTER_CHILD = """
    import sys

    sys.stdin.readline()
"""


def test_external_early_exit_becomes_policy_error(tmp_path):
    command = write_child(tmp_path, "quitter.py", QUITTER_CHILD)
    started = time.monotonic()
    outcome, _ = run_external(ExternalPolicy(command), parallel_pair_design(), 2200)
    assert time.monotonic() - started < 5  # no wait for the reply timeout
    assert isinstance(outcome, Failure)
    assert outcome.reason is FailureReason.POLICY_ERROR
    assert "closed its output" in outcome.detail


RETRYING_CHILD = """
    import json
    import sys

    log = open(sys.argv[1], "w")

    def send(action):
        sys.stdout.write(json.dumps({"type": "action", "action": action}) + "\\n")
        sys.stdout.flush()

    task = json.loads(sys.stdin.readline())
    kernels = [k["id"] for k in task["design_summary"]["kernels"]]
    send({"inspect": {"kernel": "ghost"}})
    rejection = json.loads(sys.stdin.readline())
    log.write(json.dumps(rejection) + "\\n")
    log.flush()
    send({"select": {"choice": {kid: 0 for kid in kernels}}})
    sys.stdin.readline()
"""


def test_external_rejection_feedback_lets_the_child_recover(tmp_path):
    log_path = tmp_path / "rejections.log"
    command = write_child(tmp_path, "retrying.py", RETRYING_CHILD) + [str(log_path)]
    outcome, transcript = run_external(ExternalPolicy(command), parallel_pair_design(), 2200)
    assert isinstance(outcome, Success)
    assert kinds(transcript) == ["select"]
    rejection = json.loads(log_path.read_text())
    assert rejection["type"] == "observation"
    assert "ghost" in rejection["payload"]["error"]


SLOW_CHILD = """
    import sys
    import time

    sys.stdin.readline()
    time.sleep(30)
"""


def test_external_timeout_becomes_policy_error(tmp_path):
    command = write_child(tmp_path, "slow.py", SLOW_CHILD)
    policy = ExternalPolicy(command, timeout_s=0.2)
    outcome, _ = run_external(policy, parallel_pair_design(), 2200)
    assert policy._proc.stdout.closed  # the terminated child's pipe as well
    assert isinstance(outcome, Failure)
    assert outcome.reason is FailureReason.POLICY_ERROR
    assert "no action within" in outcome.detail


FLOODING_CHILD = """
    import sys
    import time

    sys.stdin.readline()
    sys.stdout.write("x" * 10_000_000)
    sys.stdout.flush()
    time.sleep(30)
"""


def test_external_line_without_end_is_cut_off(tmp_path):
    command = write_child(tmp_path, "flood.py", FLOODING_CHILD)
    policy = ExternalPolicy(command)
    started = time.monotonic()
    outcome, transcript = run_external(policy, parallel_pair_design(), 2200)
    assert time.monotonic() - started < 1  # no reply timeout, no 10 MB buffered
    assert len(policy._unread) <= MAX_ACTION_LINE_BYTES + (1 << 16)
    assert isinstance(outcome, Failure)
    assert outcome.reason is FailureReason.POLICY_ERROR
    assert f"over {MAX_ACTION_LINE_BYTES} bytes" in outcome.detail
    assert transcript.entries == ()


FRAMING_CHILD = """
    import json
    import sys
    import time

    def line(action):
        return json.dumps({"type": "action", "action": action}) + "\\n"

    task = json.loads(sys.stdin.readline())
    kernels = [k["id"] for k in task["design_summary"]["kernels"]]
    inspect = line({"inspect": {"kernel": kernels[0]}})
    select = line({"select": {"choice": {kid: 0 for kid in kernels}}})
    if sys.argv[1] == "two-lines-in-one-write":
        sys.stdout.write(inspect + select)
    elif sys.argv[1] == "one-line-in-three-writes":
        third = len(select) // 3
        for piece in (select[:third], select[third : 2 * third], select[2 * third :]):
            sys.stdout.write(piece)
            sys.stdout.flush()
            time.sleep(0.05)
    else:  # a last line without its newline, then end-of-file
        sys.stdout.write(select.rstrip("\\n"))
        sys.exit()
    sys.stdout.flush()
    sys.stdin.read()
"""


@pytest.mark.parametrize(
    "mode, expected",
    [
        ("two-lines-in-one-write", ["inspect", "select"]),
        ("one-line-in-three-writes", ["select"]),
        ("last-line-at-eof", ["select"]),
    ],
)
def test_external_lines_are_framed_across_writes(tmp_path, mode, expected):
    command = write_child(tmp_path, "framing.py", FRAMING_CHILD) + [mode]
    outcome, transcript = run_external(ExternalPolicy(command), parallel_pair_design(), 2200)
    assert isinstance(outcome, Success)
    assert kinds(transcript) == expected
