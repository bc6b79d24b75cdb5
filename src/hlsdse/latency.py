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
    Call,
    CompositionNode,
    Configuration,
    Design,
    Loop,
    Par,
    Seq,
    direct_callees,
    enumerate_configurations,
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


def _fold(
    design: Design,
    self_latency: SelfLatency,
    par_combine: Callable[[list[int]], int],
    par_values: dict[str, int] | None = None,
) -> int:
    """Every kernel's total, callees first; returns the top kernel's.

    Self-latency plus body: ``Seq`` adds, ``Par`` applies ``par_combine``,
    ``Loop`` and ``Call`` scale. Node paths are built only when ``par_values``
    is given; it receives every ``Par`` node's value under its path.
    """
    totals: dict[str, int] = {}

    def node_latency(node: CompositionNode, path: str | None) -> int:
        if isinstance(node, Call):
            return node.multiplicity * totals[node.kernel]
        if isinstance(node, (Seq, Par)):
            if path is None:
                values = [node_latency(child, None) for child in node.children]
            else:
                values = [
                    node_latency(child, f"{path}/{i}") for i, child in enumerate(node.children)
                ]
            if isinstance(node, Seq):
                return sum(values)
            value = par_combine(values)
            if par_values is not None:
                par_values[path] = value
            return value
        if isinstance(node, Loop):
            return node.trip_count * node_latency(node.child, path and f"{path}/child")
        raise TypeError(f"not a composition node: {node!r}")

    for kid in design.order:
        body = design.kernels[kid].body
        total = self_latency(kid)
        if body is not None:
            total += node_latency(body, None if par_values is None else f"{kid}/body")
        totals[kid] = total
    return totals[design.top]


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
    best_feasible: tuple[Configuration, EvalResult] | None = None
    best_feasible_key: tuple[int, int] | None = None
    min_area: tuple[Configuration, EvalResult] | None = None
    min_area_key: tuple[int, int] | None = None

    kwargs = {} if cap is None else {"cap": cap}
    for config in enumerate_configurations(design, **kwargs):
        result = evaluate(design, config)
        area_key = (result.area_tenths, result.latency)
        if min_area_key is None or area_key < min_area_key:
            min_area_key, min_area = area_key, (config, result)
        if result.area_tenths <= area_target_tenths:
            lat_key = (result.latency, result.area_tenths)
            if best_feasible_key is None or lat_key < best_feasible_key:
                best_feasible_key, best_feasible = lat_key, (config, result)

    if min_area is None:
        raise ValueError("design has a kernel with no variants; nothing to enumerate")
    return OracleReport(best_feasible=best_feasible, min_area=min_area)
