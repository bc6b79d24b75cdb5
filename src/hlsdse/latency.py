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
compared against ground truth.
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
    """A design's composition trees lowered once into slot arithmetic.

    Slots ``0..n-1`` hold the kernels of ``Design.order``; every ``Par`` node
    has one more slot. A kernel slot starts at the kernel's own latency. The
    steps run in order, callees and inner ``Par`` nodes first. A step
    ``(slot, None, (form,))`` adds a kernel's body form to its slot; a step
    ``(slot, path, forms)`` sets a ``Par`` slot to the combine of its
    children's forms, ``path`` being the node path ("<kid>/body/0/child").
    Kernels without a body have no step. ``top`` is the top kernel's slot.
    """

    size: int
    steps: tuple[tuple[int, str | None, tuple[LinearForm, ...]], ...]
    top: int


def lower_latency_plan(design: Design) -> LatencyPlan:
    """Lower every body: ``Seq`` adds forms, ``Loop`` and ``Call`` scale them."""
    slot_of = {kid: i for i, kid in enumerate(design.order)}
    steps: list[tuple[int, str | None, tuple[LinearForm, ...]]] = []
    size = len(slot_of)

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
        if isinstance(node, Seq):
            form = {}
            for i, child in enumerate(node.children):
                add(form, lower(child, f"{path}/{i}"))
            return form
        if isinstance(node, Par):
            forms = tuple(
                tuple(lower(child, f"{path}/{i}").items())
                for i, child in enumerate(node.children)
            )
            slot, size = size, size + 1
            steps.append((slot, path, forms))
            return {slot: 1}
        raise TypeError(f"not a composition node: {node!r}")

    for kid in design.order:
        body = design.kernels[kid].body
        if body is not None:
            steps.append((slot_of[kid], None, (tuple(lower(body, f"{kid}/body").items()),)))
    return LatencyPlan(size=size, steps=tuple(steps), top=slot_of[design.top])


def _run_plan(
    plan: LatencyPlan,
    own: list[int],
    par_combine: Callable[[list[int]], int],
    par_values: dict[str, int] | None = None,
) -> int:
    """The top kernel's total, given every kernel's own latency in slot order.

    ``Par`` slots take ``par_combine`` of their children's forms; when
    ``par_values`` is given it receives each ``Par`` value under its path.
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
        value = par_combine(parts)
        values[slot] = value
        if par_values is not None:
            par_values[path] = value
    return values[plan.top]


def _fold(
    design: Design,
    self_latency: SelfLatency,
    par_combine: Callable[[list[int]], int],
    par_values: dict[str, int] | None = None,
) -> int:
    """Self-latency plus body for every kernel; returns the top kernel's.

    ``Seq`` adds, ``Par`` applies ``par_combine``, ``Loop`` and ``Call`` scale.
    """
    own = [self_latency(kid) for kid in design.order]
    return _run_plan(design.plan, own, par_combine, par_values)


def _top_plus_max(
    design: Design,
    self_latency: SelfLatency,
    include_top: bool,
    peaks: dict[str, int] | None = None,
) -> int:
    # Keeps only one level-by-level "slowest child" chain over the call graph;
    # every sibling's contribution except the largest is dropped. ``peaks``
    # receives each caller's max under "<kid>/children".
    totals: dict[str, int] = {}
    for kid in design.order:
        own = self_latency(kid)
        children = direct_callees(design.kernels[kid])
        peak = max((totals[c] for c in children), default=0)
        if include_top:
            peak = max(peak, own)
        totals[kid] = peak if include_top else own + peak
        if peaks is not None and children:
            peaks[f"{kid}/children"] = peak
    return totals[design.top]


def _variant_latency(design: Design, index: dict[str, int]) -> SelfLatency:
    kernels = design.kernels
    return lambda kid: kernels[kid].variants[index[kid]].latency


def _area_given(design: Design, index: dict[str, int]) -> int:
    return sum(k.variants[index[kid]].area_tenths for kid, k in design.kernels.items())


def eval_latency_given(design: Design, self_latency: SelfLatency) -> int:
    """Correct latency with per-kernel self-latencies supplied by a callable."""
    return _fold(design, self_latency, max)


def eval_faulty_latency_given(
    kind: LatencyModelKind,
    design: Design,
    self_latency: SelfLatency,
    include_top_in_max: bool = False,
) -> int:
    if kind is LatencyModelKind.CORRECT:
        return _fold(design, self_latency, max)
    if kind is LatencyModelKind.TOP_ONLY:
        return self_latency(design.top)
    if kind is LatencyModelKind.SUM_ALL:
        return sum(self_latency(kid) for kid in sorted(design.kernels))
    if kind is LatencyModelKind.SUM_WITH_MULTIPLIERS:
        # Parallel children summed: the composition run as sequential software.
        return _fold(design, self_latency, sum)
    if kind is LatencyModelKind.TOP_PLUS_MAX_CHILDREN:
        return _top_plus_max(design, self_latency, include_top_in_max)
    raise UnsupportedModel(f"unknown latency model {kind!r}")


def eval_latency(design: Design, configuration: Configuration) -> int:
    """Correct system latency of the design under the given configuration."""
    return _fold(design, _variant_latency(design, configuration.as_dict()), max)


def eval_faulty_latency(
    kind: LatencyModelKind,
    design: Design,
    configuration: Configuration,
    include_top_in_max: bool = False,
) -> int:
    """Latency as predicted by one of the approximate models."""
    return eval_faulty_latency_given(
        kind, design, _variant_latency(design, configuration.as_dict()), include_top_in_max
    )


def eval_area(design: Design, configuration: Configuration) -> int:
    """Total area in tenths: one instance per kernel, shared across call sites."""
    return _area_given(design, configuration.as_dict())


def evaluate(design: Design, configuration: Configuration) -> EvalResult:
    index = configuration.as_dict()
    return EvalResult(
        latency=_fold(design, _variant_latency(design, index), max),
        area_tenths=_area_given(design, index),
    )


def par_node_values(design: Design, configuration: Configuration) -> dict[str, int]:
    """Realized value (max over children) of every Par node, keyed by node path."""
    values: dict[str, int] = {}
    _fold(design, _variant_latency(design, configuration.as_dict()), max, values)
    return values


def top_plus_max_peaks(
    design: Design, configuration: Configuration, include_top: bool
) -> dict[str, int]:
    """The top-plus-max model's per-caller maxima, keyed "<kid>/children"."""
    peaks: dict[str, int] = {}
    _top_plus_max(
        design, _variant_latency(design, configuration.as_dict()), include_top, peaks
    )
    return peaks


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
    plan = design.plan

    best_feasible_key: tuple[int, int] | None = None
    best_feasible_combo: tuple[int, ...] | None = None
    min_area_key: tuple[int, int] | None = None
    min_area_combo: tuple[int, ...] = ()
    for combo in combos:
        area = sum([table[i] for table, i in zip(areas, combo)])
        latency = _run_plan(plan, [table[combo[p]] for p, table in slots], max)
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
