"""Interactive exploration sessions: actions, transcripts, budgets, policies.

A session wraps one design (variants installed) and an area target. A policy
drives it through four actions — inspect a kernel, solve an ILP, synthesize a
candidate configuration, or select the final one — and every (action,
observation) pair is appended to a transcript whose serialized size doubles
as the context budget. Scripted policies reproduce common exploration styles;
ExternalPolicy adapts any line-delimited-JSON child process to the same
interface.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import prod
from typing import Mapping, Optional, Sequence, Union

from .design import (
    ENUMERATION_CAP,
    Configuration,
    Design,
    Kernel,
    KernelSource,
    KernelVariant,
    area_to_tenths,
    check_configuration,
    direct_callees,
    node_summary,
    tenths_to_area,
)
from .errors import CapExceeded, InvalidAction, SessionTerminated
from .ilp import (
    ConstrainedArea,
    IlpSolution,
    Lagrangian,
    ObjectiveSpec,
    SolveStatus,
    build_model,
    relax_target,
    solve,
)
from .latency import EvalResult, LatencyModelKind, brute_force_optimum, evaluate  # noqa: F401
from .variantgen import greedy_configuration

# Consecutive invalid actions tolerated before the run is abandoned.
INVALID_ACTION_LIMIT = 3

# Fraction by which IlpFirstPolicy widens an infeasible area target, and how
# many times it does so before falling back to the greedy baseline.
RELAX_STEP = 0.5
MAX_RELAX_RETRIES = 10

# Longest line read from an external policy; a longer one ends its output.
MAX_ACTION_LINE_BYTES = 1 << 20

DEFAULT_MAX_ACTIONS = 40
DEFAULT_MAX_TRANSCRIPT_CHARS = 200_000


# ---------------------------------------------------------------------------
# Actions


@dataclass(frozen=True)
class Inspect:
    kernel: str


@dataclass(frozen=True)
class SolveIlp:
    objective: ObjectiveSpec
    latency_model: LatencyModelKind = LatencyModelKind.CORRECT


@dataclass(frozen=True)
class Synthesize:
    choice: Configuration


@dataclass(frozen=True)
class Select:
    choice: Configuration


Action = Union[Inspect, SolveIlp, Synthesize, Select]


def action_kind(action: Action) -> str:
    """Stable lowercase kind tag, also the key used on the wire."""
    return {
        Inspect: "inspect",
        SolveIlp: "solve_ilp",
        Synthesize: "synthesize",
        Select: "select",
    }[type(action)]


# ---------------------------------------------------------------------------
# Observations


@dataclass(frozen=True)
class KernelView:
    """What inspecting a kernel reveals: its cost descriptor, composition
    body, callees, and the synthesized option menu."""

    kernel: str
    source: KernelSource
    body_summary: Optional[str]
    children: tuple[str, ...]
    variants: tuple[KernelVariant, ...]


@dataclass(frozen=True)
class IlpOutcome:
    solution: IlpSolution
    latency_model: LatencyModelKind


@dataclass(frozen=True)
class SynthResult:
    """Ground-truth evaluation of a synthesized configuration."""

    result: EvalResult


@dataclass(frozen=True)
class Ack:
    pass


Observation = Union[KernelView, IlpOutcome, SynthResult, Ack]


# ---------------------------------------------------------------------------
# Budgets, transcripts, outcomes


@dataclass(frozen=True)
class Budget:
    max_actions: int = DEFAULT_MAX_ACTIONS
    max_transcript_chars: int = DEFAULT_MAX_TRANSCRIPT_CHARS

    def __post_init__(self) -> None:
        if self.max_actions < 1:
            raise ValueError(f"max_actions must be positive, got {self.max_actions}")
        if self.max_transcript_chars < 1:
            raise ValueError(
                f"max_transcript_chars must be positive, got {self.max_transcript_chars}"
            )


@dataclass(frozen=True)
class TranscriptEntry:
    """One accepted action, its observation, and their compact JSON texts.

    ``action_json`` and ``observation_json`` are the ``COMPACT_JSON`` texts of
    the two payloads, made when the step is taken: the entry's size
    (``entry_chars``) is counted from them, and the report writes the entry's
    line from them. ``cumulative_chars`` is the transcript's size up to and
    including this entry.
    """

    step: int
    action: Action
    observation: Observation
    cumulative_chars: int
    action_json: str
    observation_json: str


@dataclass(frozen=True)
class Transcript:
    design_id: str
    seed: int
    policy_id: str
    entries: tuple[TranscriptEntry, ...] = ()


class FailureReason(Enum):
    CONTEXT_EXCEEDED = "context-exceeded"
    BUDGET_EXHAUSTED = "budget-exhausted"
    POLICY_ERROR = "policy-error"
    # Produced by the experiment layer when variant generation aborts before
    # a session even starts; a session itself never emits it.
    FUNCTIONALITY_BROKEN = "functionality-broken"


@dataclass(frozen=True)
class Success:
    configuration: Configuration
    result: EvalResult
    met_target: bool


@dataclass(frozen=True)
class Failure:
    reason: FailureReason
    detail: str = ""


Outcome = Union[Success, Failure]


# ---------------------------------------------------------------------------
# Serialization (the transcript file and the external wire protocol share it)

# Built once: ``json.dumps`` with any non-default option builds a new encoder
# on every call. ``COMPACT_JSON`` writes transcripts, ``runs.jsonl`` and the
# sizes the context cap counts; ``_WIRE_JSON`` writes the external protocol.
COMPACT_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_WIRE_JSON = json.JSONEncoder(sort_keys=True)


def _alpha_to_json(alpha: Union[int, float, Fraction]) -> Union[int, float, str]:
    if isinstance(alpha, Fraction):
        return str(alpha)
    return alpha


def _alpha_from_json(value: object) -> Union[int, float, Fraction]:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise InvalidAction(f"alpha must be a number or fraction string, got {value!r}")
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidAction(f"bad alpha {value!r}: {exc}") from None
    return value


def _choice_to_json(choice: Configuration) -> dict[str, int]:
    return {kid: idx for kid, idx in choice.items}


def _choice_from_json(value: object) -> Configuration:
    if not isinstance(value, dict) or not value:
        raise InvalidAction("choice must be a non-empty object of kernel: index")
    out: dict[str, int] = {}
    for kid, idx in value.items():
        if not isinstance(kid, str) or isinstance(idx, bool) or not isinstance(idx, int):
            raise InvalidAction(f"bad choice entry {kid!r}: {idx!r}")
        out[kid] = idx
    return Configuration.from_mapping(out)


def action_to_payload(action: Action) -> dict[str, object]:
    """The wire/transcript form of an action: one kind key, explicit fields."""
    if isinstance(action, Inspect):
        return {"inspect": {"kernel": action.kernel}}
    if isinstance(action, SolveIlp):
        spec = action.objective
        body: dict[str, object] = {
            "mode": "lagrangian" if isinstance(spec, Lagrangian) else "constrained",
            "area_target": tenths_to_area(spec.area_target_tenths),
            "latency_model": action.latency_model.value,
        }
        if isinstance(spec, Lagrangian):
            body["alpha"] = _alpha_to_json(spec.alpha)
        return {"solve_ilp": body}
    if isinstance(action, Synthesize):
        return {"synthesize": {"choice": _choice_to_json(action.choice)}}
    if isinstance(action, Select):
        return {"select": {"choice": _choice_to_json(action.choice)}}
    raise TypeError(f"not an action: {action!r}")


def action_from_payload(
    payload: object, default_area_target_tenths: int
) -> Action:
    """Parse a wire action; raises InvalidAction with a reason on any defect.

    ``solve_ilp`` accepts optional mode (default constrained), alpha (default
    1), latency_model (default correct) and area_target (default: the
    session's target).
    """
    if not isinstance(payload, dict) or len(payload) != 1:
        raise InvalidAction("action must be an object with exactly one kind key")
    kind, body = next(iter(payload.items()))
    if not isinstance(body, dict):
        raise InvalidAction(f"action body for {kind!r} must be an object")
    if kind == "inspect":
        kernel = body.get("kernel")
        if set(body) != {"kernel"} or not isinstance(kernel, str):
            raise InvalidAction("inspect needs exactly {'kernel': <id>}")
        return Inspect(kernel)
    if kind in ("synthesize", "select"):
        if set(body) != {"choice"}:
            raise InvalidAction(f"{kind} needs exactly {{'choice': {{...}}}}")
        choice = _choice_from_json(body["choice"])
        return Synthesize(choice) if kind == "synthesize" else Select(choice)
    if kind == "solve_ilp":
        extra = set(body) - {"mode", "alpha", "latency_model", "area_target"}
        if extra:
            raise InvalidAction(f"solve_ilp has unknown fields {sorted(extra)}")
        mode = body.get("mode", "constrained")
        if mode not in ("constrained", "lagrangian"):
            raise InvalidAction(f"unknown solve_ilp mode {mode!r}")
        try:
            model = LatencyModelKind(body.get("latency_model", "correct"))
        except ValueError:
            raise InvalidAction(
                f"unknown latency_model {body.get('latency_model')!r}"
            ) from None
        if "area_target" in body:
            raw = body["area_target"]
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise InvalidAction(f"area_target must be a number, got {raw!r}")
            try:
                target = area_to_tenths(raw)
            except ValueError as exc:
                raise InvalidAction(str(exc)) from None
        else:
            target = default_area_target_tenths
        if mode == "lagrangian":
            objective: ObjectiveSpec = Lagrangian(
                target, _alpha_from_json(body.get("alpha", 1))
            )
        else:
            objective = ConstrainedArea(target)
        return SolveIlp(objective, model)
    raise InvalidAction(f"unknown action kind {kind!r}")


def _solution_to_payload(solution: IlpSolution) -> dict[str, object]:
    feasible = solution.status is SolveStatus.OPTIMAL
    return {
        "status": "optimal" if feasible else "infeasible",
        "configuration": _choice_to_json(solution.configuration) if feasible else None,
        "objective": str(solution.objective) if feasible else None,
        "predicted_latency": solution.predicted_latency if feasible else None,
        "predicted_area": (
            tenths_to_area(solution.predicted_area_tenths) if feasible else None
        ),
    }


def observation_to_payload(observation: Observation) -> dict[str, object]:
    """The wire/transcript form of an observation, keyed by its kind."""
    if isinstance(observation, KernelView):
        src = observation.source
        return {
            "kernel_view": {
                "kernel": observation.kernel,
                "source": {
                    "trip_count": src.trip_count,
                    "body_latency": src.body_latency,
                    "op_count": src.op_count,
                    "base_area": tenths_to_area(src.base_area_tenths),
                    "op_area": tenths_to_area(src.op_area_tenths),
                },
                "body": observation.body_summary,
                "children": list(observation.children),
                "variants": [
                    {
                        "index": v.index,
                        "area": v.area,
                        "latency": v.latency,
                        "unroll": v.pragma.unroll,
                        "ii": v.pragma.ii,
                    }
                    for v in observation.variants
                ],
            }
        }
    if isinstance(observation, IlpOutcome):
        body = _solution_to_payload(observation.solution)
        body["latency_model"] = observation.latency_model.value
        return {"ilp_outcome": body}
    if isinstance(observation, SynthResult):
        return {
            "synth_result": {
                "latency": observation.result.latency,
                "area": observation.result.area,
            }
        }
    if isinstance(observation, Ack):
        return {"ack": {}}
    raise TypeError(f"not an observation: {observation!r}")


# The frame of an entry's two texts.
_ENTRY_FRAME_CHARS = len('{"action":,"observation":}')


def entry_chars(action: Action, observation: Observation) -> int:
    """Serialized size of one transcript entry, the unit of the context cap:
    the length of ``{"action": ..., "observation": ...}`` in ``COMPACT_JSON``.

    Counted, as ``Session.step`` counts it, from the two payloads' own texts.
    """
    return _entry_size(
        COMPACT_JSON.encode(action_to_payload(action)),
        COMPACT_JSON.encode(observation_to_payload(observation)),
    )


def _entry_size(action_json: str, observation_json: str) -> int:
    return _ENTRY_FRAME_CHARS + len(action_json) + len(observation_json)


# A Select's reply, the same on every design.
_ACK_REPLY = (Ack(), COMPACT_JSON.encode(observation_to_payload(Ack())))


def design_summary(design: Design, design_id: str) -> dict[str, object]:
    """Compact overview handed to external policies in the task message."""
    return {
        "design_id": design_id,
        "top": design.top,
        "kernels": [
            {
                "id": kid,
                "variant_count": len(kernel.variants),
                "body": node_summary(kernel.body) if kernel.body is not None else None,
                "children": list(direct_callees(kernel)),
            }
            for kid, kernel in sorted(design.kernels.items())
        ],
    }


# ---------------------------------------------------------------------------
# Session


def _question(action: SolveIlp) -> tuple:
    """The key of a ``SolveIlp``'s answer on the design: equal keys, equal
    solutions.

    Not the raw objective: ``Lagrangian(t, 0.1) == Lagrangian(t, Fraction(0.1))``,
    yet their ``alpha_fraction``s, and so their objectives, differ. Raises
    ValueError for an alpha that is not a finite number.
    """
    spec = action.objective
    if isinstance(spec, Lagrangian):
        return (action.latency_model, "lagrangian", spec.area_target_tenths, spec.alpha_fraction)
    return (action.latency_model, "constrained", spec.area_target_tenths, None)


def _answer(design: Design, action: SolveIlp) -> IlpSolution:
    """The solver's answer to ``action``, computed once per design and
    question (``_question``) and kept in ``design._answers``: the sessions
    of a batch share one prepared design, so its reps ask the solver
    nothing new. Raises ValueError for a question the solver rejects, which
    is not kept.
    """
    key = _question(action)
    solution = design._answers.get(key)
    if solution is None:
        model = build_model(design, action.objective, action.latency_model)
        solution = design._answers[key] = solve(model)
    return solution


class Session:
    """One strictly sequential exploration run over a fixed design.

    The transcript is the whole state: every accepted action appends an
    entry, and termination is decided right after the append — Select wins
    immediately, then the character cap, then the action cap. Invalid actions
    raise without being recorded. A ``SolveIlp`` is answered by ``_answer``.

    An accepted action's observation and its text come from ``_reply``, once
    per design and reply key, so the sessions of a batch share them. The
    action's text is encoded on every step.
    """

    def __init__(
        self,
        design: Design,
        area_target_tenths: int,
        budget: Budget = Budget(),
        design_id: str = "design",
        seed: int = 0,
        policy_id: str = "policy",
    ) -> None:
        self.design = design
        self.area_target_tenths = area_target_tenths
        self.budget = budget
        self.design_id = design_id
        self.seed = seed
        self.policy_id = policy_id
        self._entries: list[TranscriptEntry] = []
        self._chars = 0
        self._outcome: Optional[Outcome] = None

    @property
    def outcome(self) -> Optional[Outcome]:
        return self._outcome

    @property
    def terminated(self) -> bool:
        return self._outcome is not None

    def transcript(self) -> Transcript:
        return Transcript(
            design_id=self.design_id,
            seed=self.seed,
            policy_id=self.policy_id,
            entries=tuple(self._entries),
        )

    def abort(self, reason: FailureReason, detail: str = "") -> None:
        """Force-terminate a live session (used for policy breakdowns)."""
        if self._outcome is None:
            self._outcome = Failure(reason, detail)

    def step(self, action: Action) -> Observation:
        if self._outcome is not None:
            raise SessionTerminated()
        self._validate(action)
        observation, observation_json = self._reply(action)
        action_json = COMPACT_JSON.encode(action_to_payload(action))
        self._chars += _entry_size(action_json, observation_json)
        self._entries.append(
            TranscriptEntry(
                step=len(self._entries),
                action=action,
                observation=observation,
                cumulative_chars=self._chars,
                action_json=action_json,
                observation_json=observation_json,
            )
        )
        if isinstance(action, Select):
            result = evaluate(self.design, action.choice)
            self._outcome = Success(
                configuration=action.choice,
                result=result,
                met_target=result.area_tenths <= self.area_target_tenths,
            )
        elif self._chars > self.budget.max_transcript_chars:
            self._outcome = Failure(
                FailureReason.CONTEXT_EXCEEDED,
                f"transcript grew to {self._chars} chars "
                f"(cap {self.budget.max_transcript_chars})",
            )
        elif len(self._entries) >= self.budget.max_actions:
            self._outcome = Failure(
                FailureReason.BUDGET_EXHAUSTED,
                f"action budget of {self.budget.max_actions} consumed without a selection",
            )
        return observation

    def _validate(self, action: Action) -> None:
        if isinstance(action, Inspect):
            if action.kernel not in self.design.kernels:
                raise InvalidAction(f"unknown kernel {action.kernel!r}")
        elif isinstance(action, (Synthesize, Select)):
            try:
                check_configuration(self.design, action.choice)
            except (ValueError, TypeError) as exc:
                raise InvalidAction(str(exc)) from None
        elif isinstance(action, SolveIlp):
            if not isinstance(action.objective, (ConstrainedArea, Lagrangian)):
                raise InvalidAction(f"bad objective {action.objective!r}")
            if isinstance(action.objective, Lagrangian):
                alpha = action.objective.alpha
                if isinstance(alpha, bool) or not isinstance(alpha, (int, float, Fraction)):
                    raise InvalidAction(f"alpha must be an int, float or Fraction, got {alpha!r}")
            if not isinstance(action.latency_model, LatencyModelKind):
                raise InvalidAction(f"bad latency model {action.latency_model!r}")
        else:
            raise InvalidAction(f"unrecognized action {action!r}")

    def _reply(self, action: Action) -> tuple[Observation, str]:
        """A validated action's observation and its ``COMPACT_JSON`` text,
        kept in ``design._replies`` under what the observation depends on.

        Not under the action: equal actions may serialize differently (see
        ``_question``), so only the observation's text is kept. A question
        the solver rejects raises InvalidAction and keeps nothing.
        """
        if isinstance(action, Select):
            return _ACK_REPLY
        if isinstance(action, Inspect):
            key: object = ("inspect", action.kernel)
        elif isinstance(action, SolveIlp):
            try:
                key = _question(action)
            except ValueError as exc:
                raise InvalidAction(str(exc)) from None
        else:
            key = action.choice
        reply = self.design._replies.get(key)
        if reply is None:
            observation = self._dispatch(action)
            reply = self.design._replies[key] = (
                observation,
                COMPACT_JSON.encode(observation_to_payload(observation)),
            )
        return reply

    def _dispatch(self, action: Action) -> Observation:
        if isinstance(action, Inspect):
            kernel: Kernel = self.design.kernels[action.kernel]
            return KernelView(
                kernel=kernel.id,
                source=kernel.source,
                body_summary=(
                    node_summary(kernel.body) if kernel.body is not None else None
                ),
                children=direct_callees(kernel),
                variants=kernel.variants,
            )
        if isinstance(action, SolveIlp):
            try:
                solution = _answer(self.design, action)
            except ValueError as exc:
                raise InvalidAction(str(exc)) from None
            return IlpOutcome(solution=solution, latency_model=action.latency_model)
        assert isinstance(action, Synthesize)
        return SynthResult(evaluate(self.design, action.choice))


# ---------------------------------------------------------------------------
# Policies


@dataclass(frozen=True)
class TaskContext:
    """Out-of-band context handed to a policy when its run starts."""

    design: Design
    design_id: str
    area_target_tenths: int
    budget: Budget
    seed: int


class Policy:
    """Decision procedure driving a session; instances are single-use."""

    policy_id = "policy"

    def start(self, task: TaskContext) -> None:
        raise NotImplementedError

    def next_action(self, transcript: Transcript) -> Action:
        raise NotImplementedError

    def notify_invalid(self, message: str) -> None:
        """Called when the proposed action was rejected; default: ignore."""

    def close(self) -> None:
        """Release external resources; default: nothing to release."""


def run(
    policy: Policy,
    design: Design,
    area_target_tenths: int,
    budget: Budget = Budget(),
    seed: int = 0,
    design_id: str = "design",
    policy_id: Optional[str] = None,
) -> tuple[Outcome, Transcript]:
    """Drive ``policy`` through a fresh session until it terminates.

    Invalid actions are reported back to the policy and retried;
    INVALID_ACTION_LIMIT consecutive rejections abandon the run with a
    PolicyError failure. Deterministic for fixed inputs.
    """
    session = Session(
        design=design,
        area_target_tenths=area_target_tenths,
        budget=budget,
        design_id=design_id,
        seed=seed,
        policy_id=policy_id if policy_id is not None else policy.policy_id,
    )
    task = TaskContext(
        design=design,
        design_id=design_id,
        area_target_tenths=area_target_tenths,
        budget=budget,
        seed=seed,
    )
    try:
        policy.start(task)
        invalid_streak = 0
        while session.outcome is None:
            try:
                action = policy.next_action(session.transcript())
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
        policy.close()
    assert session.outcome is not None
    return session.outcome, session.transcript()


class OraclePolicy(Policy):
    """Selects ``brute_force_optimum``'s pick in one action: the best
    configuration within the target under the correct model, else the best
    within the least total area, both asked of ``_answer``.

    Raises CapExceeded before any solve when the shared kernels have more
    than ``ENUMERATION_CAP`` variant combinations.
    """

    policy_id = "oracle"

    def start(self, task: TaskContext) -> None:
        self._task = task

    def next_action(self, transcript: Transcript) -> Action:
        from .front import _shared  # compiled on first use, not at package import

        design, correct = self._task.design, LatencyModelKind.CORRECT
        count = prod(len(design.kernels[kid].variants) for kid in _shared(design, correct))
        if count > ENUMERATION_CAP:
            raise CapExceeded(count, ENUMERATION_CAP)
        solution = _answer(design, SolveIlp(ConstrainedArea(self._task.area_target_tenths)))
        if solution.status is SolveStatus.INFEASIBLE:
            least = sum(min(v.area_tenths for v in k.variants) for k in design.kernels.values())
            solution = _answer(design, SolveIlp(ConstrainedArea(least)))
        return Select(solution.configuration)


class IlpFirstPolicy(Policy):
    """Synthesize the greedy baseline, then trust the ILP.

    One Synthesize of the per-kernel lowest-latency configuration, one
    SolveIlp at the session target, then Select the solver's answer. An
    infeasible outcome widens the target by ``RELAX_STEP`` (half), up to
    ``MAX_RELAX_RETRIES`` (10) times; if every attempt stays infeasible the
    greedy baseline is selected.
    The latency model is injectable so that a deliberately wrong internal
    model can drive the same script.
    """

    def __init__(
        self,
        latency_model: LatencyModelKind = LatencyModelKind.CORRECT,
        objective_mode: str = "constrained",
        alpha: Union[int, float, Fraction] = 1,
    ) -> None:
        if objective_mode not in ("constrained", "lagrangian"):
            raise ValueError(f"unknown objective mode {objective_mode!r}")
        self.latency_model = latency_model
        self.objective_mode = objective_mode
        self.alpha = alpha
        self._synthesized = False
        self._retries = 0

    @property
    def policy_id(self) -> str:  # type: ignore[override]
        parts = [self.latency_model.value]
        if self.objective_mode != "constrained":
            parts.append(self.objective_mode)
        return f"ilp-first[{','.join(parts)}]"

    def start(self, task: TaskContext) -> None:
        self._task = task
        self._greedy = greedy_configuration(task.design)
        self._target = task.area_target_tenths

    def _objective(self) -> ObjectiveSpec:
        if self.objective_mode == "lagrangian":
            return Lagrangian(self._target, self.alpha)
        return ConstrainedArea(self._target)

    def next_action(self, transcript: Transcript) -> Action:
        if not self._synthesized:
            self._synthesized = True
            return Synthesize(self._greedy)
        last = transcript.entries[-1].observation if transcript.entries else None
        if isinstance(last, IlpOutcome):
            solution = last.solution
            if solution.status is SolveStatus.OPTIMAL:
                assert solution.configuration is not None
                return Select(solution.configuration)
            if self._retries >= MAX_RELAX_RETRIES:
                return Select(self._greedy)
            self._retries += 1
            self._target = relax_target(self._target, RELAX_STEP)
        return SolveIlp(self._objective(), self.latency_model)


class TrialAndErrorPolicy(Policy):
    """Iterative downsizing: synthesize, inspect, swap the fattest kernel.

    Starts from the greedy baseline, inspects every kernel (largest selected
    area first), then repeatedly moves the largest-area kernel one variant
    down and re-synthesizes until the target is met or every kernel sits at
    its smallest option. Only when that fails does it pose one ILP, and
    finally selects the best candidate seen: lowest latency among
    target-meeting candidates, otherwise lowest area.
    """

    policy_id = "trial-error"

    def start(self, task: TaskContext) -> None:
        self._design = task.design
        self._target = task.area_target_tenths
        self._current = dict(greedy_configuration(task.design).items)
        self._to_inspect = sorted(
            self._design.kernels,
            key=lambda kid: (-self._chosen_area(kid), kid),
        )
        self._candidates: list[tuple[EvalResult, Configuration]] = []
        self._last_synth: Optional[EvalResult] = None
        self._phase = "synthesize"
        self._seen = 0

    def _chosen_area(self, kid: str) -> int:
        return self._design.kernels[kid].variants[self._current[kid]].area_tenths

    def _ingest(self, transcript: Transcript) -> None:
        for entry in transcript.entries[self._seen :]:
            if isinstance(entry.observation, SynthResult):
                assert isinstance(entry.action, Synthesize)
                self._last_synth = entry.observation.result
                self._candidates.append((entry.observation.result, entry.action.choice))
            elif isinstance(entry.observation, IlpOutcome):
                solution = entry.observation.solution
                if solution.status is SolveStatus.OPTIMAL:
                    assert solution.configuration is not None
                    predicted = EvalResult(
                        latency=solution.predicted_latency,
                        area_tenths=solution.predicted_area_tenths,
                    )
                    self._candidates.append((predicted, solution.configuration))
        self._seen = len(transcript.entries)

    def _pick_swap(self) -> Optional[str]:
        eligible = [kid for kid, idx in self._current.items() if idx > 0]
        if not eligible:
            return None
        return min(eligible, key=lambda kid: (-self._chosen_area(kid), kid))

    def _best(self) -> Configuration:
        feasible = [
            (r.latency, r.area_tenths, c)
            for r, c in self._candidates
            if r.area_tenths <= self._target
        ]
        if feasible:
            return min(feasible)[2]
        return min((r.area_tenths, r.latency, c) for r, c in self._candidates)[2]

    def next_action(self, transcript: Transcript) -> Action:
        self._ingest(transcript)
        if self._phase == "synthesize":
            self._phase = "inspect"
            return Synthesize(Configuration.from_mapping(self._current))
        if self._phase == "inspect":
            if self._to_inspect:
                return Inspect(self._to_inspect.pop(0))
            self._phase = "swap"
        if self._phase == "swap":
            assert self._last_synth is not None
            if self._last_synth.area_tenths <= self._target:
                self._phase = "done"
                return Select(self._best())
            kid = self._pick_swap()
            if kid is None:
                self._phase = "after-ilp"
                return SolveIlp(ConstrainedArea(self._target), LatencyModelKind.CORRECT)
            self._current[kid] -= 1
            return Synthesize(Configuration.from_mapping(self._current))
        assert self._phase == "after-ilp"
        self._phase = "done"
        return Select(self._best())


class ExternalPolicy(Policy):
    """Bridge to a child process speaking line-delimited JSON.

    Engine to child: one ``{"type": "task", "design_summary": {...},
    "area_target": <units>}`` line, then one ``{"type": "observation",
    "step": n, "payload": {...}}`` line per recorded observation (rejected
    actions get an ``{"error": ...}`` payload instead). Child to engine:
    ``{"type": "action", "action": {...}}`` lines, one JSON object per line;
    anything else counts as an invalid action. Replies are read on the
    calling thread through ``selectors``, so this needs a POSIX host.
    """

    def __init__(self, command: Sequence[str], timeout_s: float = 30.0) -> None:
        if not command:
            raise ValueError("external policy needs a non-empty command")
        self.command = list(command)
        self.timeout_s = timeout_s
        self._proc: Optional[subprocess.Popen[bytes]] = None
        self._unread = bytearray()
        self._dead: Optional[str] = None  # why the output stream is unusable
        self._relayed = 0

    @property
    def policy_id(self) -> str:  # type: ignore[override]
        return f"external[{os.path.basename(self.command[0])}]"

    def start(self, task: TaskContext) -> None:
        self._task = task
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        except OSError as exc:
            raise InvalidAction(f"cannot start external policy: {exc}") from None
        self._send(
            {
                "type": "task",
                "design_summary": design_summary(task.design, task.design_id),
                "area_target": tenths_to_area(task.area_target_tenths),
            }
        )

    def _send(self, message: dict[str, object]) -> None:
        assert self._proc is not None
        if self._proc.stdin is None or self._proc.poll() is not None:
            raise InvalidAction("external policy process is gone")
        try:
            self._proc.stdin.write(_WIRE_JSON.encode(message).encode() + b"\n")
            self._proc.stdin.flush()
        except (OSError, ValueError) as exc:
            raise InvalidAction(f"cannot write to external policy: {exc}") from None

    def next_action(self, transcript: Transcript) -> Action:
        for entry in transcript.entries[self._relayed :]:
            self._send(
                {
                    "type": "observation",
                    "step": entry.step,
                    "payload": observation_to_payload(entry.observation),
                }
            )
            self._relayed = entry.step + 1
        try:
            message = json.loads(self._read_line())
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise InvalidAction(f"malformed action line: {exc}") from None
        if (
            not isinstance(message, dict)
            or message.get("type") != "action"
            or "action" not in message
        ):
            raise InvalidAction("expected {'type': 'action', 'action': {...}}")
        return action_from_payload(message["action"], self._task.area_target_tenths)

    def _read_line(self) -> bytes:
        """The child's next line, waiting at most ``timeout_s`` for it."""
        assert self._proc is not None and self._proc.stdout is not None
        fd = self._proc.stdout.fileno()
        deadline = time.monotonic() + self.timeout_s
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while True:
                end = self._unread.find(b"\n", 0, MAX_ACTION_LINE_BYTES + 1)
                if end >= 0:
                    line = bytes(self._unread[:end])
                    del self._unread[: end + 1]
                    return line
                if len(self._unread) > MAX_ACTION_LINE_BYTES:
                    self._dead = f"external policy line over {MAX_ACTION_LINE_BYTES} bytes"
                if self._dead is not None:
                    raise InvalidAction(self._dead)
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise InvalidAction(
                        f"external policy produced no action within {self.timeout_s}s"
                    )
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    self._dead = "external policy closed its output"
                    chunk = b"\n" if self._unread else b""  # ends a last, unterminated line
                self._unread += chunk

    def notify_invalid(self, message: str) -> None:
        try:
            self._send(
                {
                    "type": "observation",
                    "step": self._relayed,
                    "payload": {"error": message},
                }
            )
        except InvalidAction:
            pass  # the child is already gone; let the strike counter finish it

    def close(self) -> None:
        if self._proc is None:
            return
        try:
            if self._proc.stdin is not None:
                self._proc.stdin.close()
        except OSError:
            pass
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        if self._proc.stdout is not None:
            self._proc.stdout.close()
