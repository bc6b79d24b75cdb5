"""System-level latency and area evaluation, plus approximate latency models.

The correct latency of a kernel is its own variant latency plus the latency
of its composition body, where sequential children add, parallel children
take the maximum, loops multiply by trip count, and a call contributes
multiplicity times the callee's total.

Area is accounted per *kernel*: hardware is instantiated once per kernel and
shared by all call sites, so a configuration's area is the sum of the chosen
variant areas over distinct kernels, regardless of call multiplicity.

Besides the correct model, a catalog of systematically wrong latency
formulations is provided. Each mirrors a plausible misreading of the
composition semantics (ignoring everything but the top, ignoring structure,
serializing parallel sections, or keeping only the slowest child), so
optimizers can be driven with a wrong objective on purpose and their choices
compared against ground truth. Every model, the correct one included, is
lowered into a ``LatencyPlan`` and run by one interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .design import (
    ENUMERATION_CAP,
    Call,
    CompositionNode,
    Configuration,
    Design,
    Loop,
    Par,
    Seq,
    configuration_space,
    direct_callees,
    tenths_to_area,
)
from .errors import UnsupportedModel


class LatencyModelKind(Enum):
    CORRECT = "correct"
    TOP_ONLY = "top-only"
    SUM_ALL = "sum-all"
    SUM_WITH_MULTIPLIERS = "sum-mult"
    TOP_PLUS_MAX_CHILDREN = "top-plus-max"


@dataclass(frozen=True)
class EvalResult:
    latency: int
    area_tenths: int

    @property
    def area(self) -> float:
        return tenths_to_area(self.area_tenths)


SelfLatency = Callable[[str], int]


LinearForm = tuple[tuple[int, int], ...]
"""``(slot, coef)`` pairs; the form's value is the sum of ``coef * value[slot]``."""


@dataclass(frozen=True)
class LatencyPlan:
    """One latency model of a design lowered once into slot arithmetic.

    Slots ``0..n-1`` hold the kernels of ``Design.order``, each starting at
    the kernel's own latency; max steps get one more slot each. The steps
    run in order, callees and inner nodes first. A step ``(slot, None,
    (form,))`` adds a form to its slot; a step ``(slot, path, forms)`` sets
    its slot to the max of its forms, ``path`` naming the max node
    ("<kid>/body/0/child" for a ``Par``, "<kid>/children" for a caller's
    peak). ``top`` is the top kernel's slot.
    """

    size: int
    steps: tuple[tuple[int, str | None, tuple[LinearForm, ...]], ...]
    top: int


def lower_latency_plan(
    design: Design, kind: LatencyModelKind = LatencyModelKind.CORRECT
) -> LatencyPlan:
    """Lower one latency model of the design into a plan.

    ``correct`` lowers every body: ``Seq`` adds forms, ``Loop`` and ``Call``
    scale them, and each ``Par`` becomes a max step. ``sum-mult`` lowers
    ``Par`` like ``Seq``. ``sum-all`` is one step adding every other kernel
    to the top, ``top-only`` has no steps, and ``top-plus-max`` gives each
    caller a max step over its callees, added to the caller.
    """
    slot_of = {kid: i for i, kid in enumerate(design.order)}
    steps: list[tuple[int, str | None, tuple[LinearForm, ...]]] = []
    size = len(slot_of)
    top = slot_of[design.top]
    par_is_max = kind is LatencyModelKind.CORRECT

    def add(form: dict[int, int], other: dict[int, int], scale: int = 1) -> None:
        for slot, coef in other.items():
            form[slot] = form.get(slot, 0) + scale * coef

    def lower(node: CompositionNode, path: str) -> dict[int, int]:
        nonlocal size
        if isinstance(node, Call):
            return {slot_of[node.kernel]: node.multiplicity}
        if isinstance(node, Loop):
            form: dict[int, int] = {}
            add(form, lower(node.child, f"{path}/child"), node.trip_count)
            return form
        if isinstance(node, Par) and par_is_max:
            forms = tuple(
                tuple(lower(child, f"{path}/{i}").items())
                for i, child in enumerate(node.children)
            )
            slot, size = size, size + 1
            steps.append((slot, path, forms))
            return {slot: 1}
        if isinstance(node, (Seq, Par)):
            form = {}
            for i, child in enumerate(node.children):
                add(form, lower(child, f"{path}/{i}"))
            return form
        raise TypeError(f"not a composition node: {node!r}")

    if kind in (LatencyModelKind.CORRECT, LatencyModelKind.SUM_WITH_MULTIPLIERS):
        for kid in design.order:
            body = design.kernels[kid].body
            if body is not None:
                steps.append((slot_of[kid], None, (tuple(lower(body, f"{kid}/body").items()),)))
    elif kind is LatencyModelKind.SUM_ALL:
        steps.append((top, None, (tuple((s, 1) for s in range(size) if s != top),)))
    elif kind is LatencyModelKind.TOP_PLUS_MAX_CHILDREN:
        # One "slowest child" chain per level: every other callee is dropped.
        for kid in design.order:
            callees = direct_callees(design.kernels[kid])
            if callees:
                steps.append((size, f"{kid}/children", tuple(((slot_of[c], 1),) for c in callees)))
                steps.append((slot_of[kid], None, (((size, 1),),)))
                size += 1
    elif kind is not LatencyModelKind.TOP_ONLY:
        raise UnsupportedModel(f"unknown latency model {kind!r}")
    return LatencyPlan(size=size, steps=tuple(steps), top=top)


def _run_plan(
    plan: LatencyPlan, own: list[int], max_values: dict[str, int] | None = None
) -> int:
    """The top kernel's total, given every kernel's own latency in slot order.

    When ``max_values`` is given it receives each max step's value under its
    path.
    """
    values = own + [0] * (plan.size - len(own))
    # Plain loops: the forms are a few terms long, and a comprehension per
    # form costs more than the arithmetic (this loop is the oracle's hot path).
    for slot, path, forms in plan.steps:
        parts = []
        for form in forms:
            acc = 0
            for s, coef in form:
                acc += values[s] * coef
            parts.append(acc)
        if path is None:
            values[slot] += parts[0]
            continue
        value = max(parts)
        values[slot] = value
        if max_values is not None:
            max_values[path] = value
    return values[plan.top]


def _own_latencies(design: Design, index: dict[str, int]) -> list[int]:
    kernels = design.kernels
    return [kernels[kid].variants[index[kid]].latency for kid in design.order]


def _area_given(design: Design, index: dict[str, int]) -> int:
    return sum(k.variants[index[kid]].area_tenths for kid, k in design.kernels.items())


def eval_latency_given(design: Design, self_latency: SelfLatency) -> int:
    """Correct latency with per-kernel self-latencies supplied by a callable."""
    return eval_faulty_latency_given(LatencyModelKind.CORRECT, design, self_latency)


def eval_faulty_latency_given(
    kind: LatencyModelKind, design: Design, self_latency: SelfLatency
) -> int:
    """Latency under one model, with self-latencies supplied by a callable."""
    return _run_plan(design.plan(kind), [self_latency(kid) for kid in design.order])


def eval_latency(design: Design, configuration: Configuration) -> int:
    """Correct system latency of the design under the given configuration."""
    return eval_faulty_latency(LatencyModelKind.CORRECT, design, configuration)


def eval_faulty_latency(
    kind: LatencyModelKind, design: Design, configuration: Configuration
) -> int:
    """Latency as predicted by one of the models."""
    return _run_plan(design.plan(kind), _own_latencies(design, configuration.as_dict()))


def eval_area(design: Design, configuration: Configuration) -> int:
    """Total area in tenths: one instance per kernel, shared across call sites."""
    return _area_given(design, configuration.as_dict())


def evaluate(design: Design, configuration: Configuration) -> EvalResult:
    index = configuration.as_dict()
    return EvalResult(
        latency=_run_plan(design.plan(LatencyModelKind.CORRECT), _own_latencies(design, index)),
        area_tenths=_area_given(design, index),
    )


def par_node_values(
    design: Design,
    configuration: Configuration,
    kind: LatencyModelKind = LatencyModelKind.CORRECT,
) -> dict[str, int]:
    """Value of every max step of the model's plan, keyed by path.

    These are each ``Par`` node's realized max under ``correct`` and each
    caller's "<kid>/children" peak under ``top-plus-max``; the other models
    have none.
    """
    values: dict[str, int] = {}
    _run_plan(design.plan(kind), _own_latencies(design, configuration.as_dict()), values)
    return values


@dataclass(frozen=True)
class OracleReport:
    """Exhaustive-enumeration optimum under the correct model.

    ``best_feasible`` is the latency-optimal configuration whose area fits the
    target (None when nothing fits); ``min_area`` is the configuration with
    the smallest area outright. Ties break toward smaller area (respectively
    latency), then lexicographically smaller configuration.
    """

    best_feasible: tuple[Configuration, EvalResult] | None
    min_area: tuple[Configuration, EvalResult]


def brute_force_optimum(
    design: Design, area_target_tenths: int, cap: int | None = None
) -> OracleReport:
    """Enumerate every configuration, in ``enumerate_configurations`` order."""
    ids, combos = configuration_space(design, ENUMERATION_CAP if cap is None else cap)
    kernels = design.kernels
    areas = [[v.area_tenths for v in kernels[kid].variants] for kid in ids]
    if not all(areas):
        raise ValueError("design has a kernel with no variants; nothing to enumerate")
    position = {kid: i for i, kid in enumerate(ids)}
    # Per slot: where its kernel sits in a combo, and that kernel's latencies.
    slots = [
        (position[kid], [v.latency for v in kernels[kid].variants]) for kid in design.order
    ]
    plan = design.plan(LatencyModelKind.CORRECT)

    best_feasible_key: tuple[int, int] | None = None
    best_feasible_combo: tuple[int, ...] | None = None
    min_area_key: tuple[int, int] | None = None
    min_area_combo: tuple[int, ...] = ()
    for combo in combos:
        area = sum([table[i] for table, i in zip(areas, combo)])
        latency = _run_plan(plan, [table[combo[p]] for p, table in slots])
        area_key = (area, latency)
        if min_area_key is None or area_key < min_area_key:
            min_area_key, min_area_combo = area_key, combo
        if area <= area_target_tenths:
            lat_key = (latency, area)
            if best_feasible_key is None or lat_key < best_feasible_key:
                best_feasible_key, best_feasible_combo = lat_key, combo

    def scored(combo: tuple[int, ...]) -> tuple[Configuration, EvalResult]:
        config = Configuration(tuple(zip(ids, combo)))
        return config, evaluate(design, config)

    return OracleReport(
        best_feasible=None if best_feasible_combo is None else scored(best_feasible_combo),
        min_area=scored(min_area_combo),
    )
