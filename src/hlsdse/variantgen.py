"""Variant generation over a design skeleton, and seeded toolchain faults.

Each kernel's variants are its pragma sweep's Pareto front
(``synth.generate_variants``), a pure function of the kernel's source: no
kernel's list depends on its callees or on the run. The greedy baseline picks
every kernel's lowest-latency variant. So ``prepare_task`` builds a
benchmark's task once, and each run only draws its faults (``draw_faults``).

Faults emulate a flaky toolchain: in callee-first order each kernel draws
from its own PRNG stream (split from the run's seed by kernel id) and gets up
to three attempts, the first fully faulty kernel aborting the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Union

from .design import (
    Configuration,
    CycleDetected,
    Design,
    validate,
)
from .errors import FunctionalityBroken, TotalTooLarge, ValidationError
from .latency import EvalResult, eval_latency_given, evaluate
from .synth import DEFAULT_MAX_VARIANTS, generate_variants

MAX_GENERATION_ATTEMPTS = 3
DEFAULT_AREA_TARGET_FRACTION = Fraction(9, 10)
FLOAT_EXACT_LIMIT = 2**53
"""Largest integer a float holds exactly; reports show areas and means as floats."""


@dataclass(frozen=True)
class FaultEvent:
    kernel: str
    attempt: int
    repaired: bool


@dataclass(frozen=True)
class BottomUpResult:
    """Outcome of variant generation across a whole design.

    ``design`` is the skeleton with variants installed; ``greedy_config``
    picks every kernel's latency-minimal option (ties toward smaller area) and
    ``baseline`` is its evaluation, the reference point for deriving an area
    target.
    """

    design: Design
    greedy_config: Configuration
    baseline: EvalResult
    fault_log: tuple[FaultEvent, ...]


def greedy_configuration(design: Design) -> Configuration:
    """Latency-minimal variant per kernel, ties toward smaller area."""
    choice: dict[str, int] = {}
    for kid in sorted(design.kernels):
        best = min(design.kernels[kid].variants, key=lambda v: (v.latency, v.area_tenths))
        choice[kid] = best.index
    return Configuration.from_mapping(choice)


def prepare_task(skeleton: Design, max_variants: int = DEFAULT_MAX_VARIANTS) -> BottomUpResult:
    """Generate every kernel's variants and the greedy baseline; no faults drawn.

    Raises CyclicDesign on call-graph cycles, ValidationError on other
    structural problems with the skeleton, and TotalTooLarge when the total
    area of every kernel's largest variant, or the correct latency with every
    kernel at its slowest, exceeds ``FLOAT_EXACT_LIMIT``.
    """
    violations = [
        v for v in validate(skeleton, require_variants=False)
        if not isinstance(v, CycleDetected)
    ]
    if violations:
        raise ValidationError(violations)
    design = skeleton.with_variants(
        {kid: generate_variants(skeleton.kernels[kid].source, max_variants)
         for kid in skeleton.order}  # raises CyclicDesign on cycles
    )
    kernels = design.kernels
    largest = {
        "area in tenths": sum(max(v.area_tenths for v in k.variants) for k in kernels.values()),
        "latency": eval_latency_given(
            design, lambda kid: max(v.latency for v in kernels[kid].variants)
        ),
    }
    for what, total in largest.items():
        if total > FLOAT_EXACT_LIMIT:
            raise TotalTooLarge(what, total, FLOAT_EXACT_LIMIT)
    greedy = greedy_configuration(design)
    return BottomUpResult(design, greedy, evaluate(design, greedy), fault_log=())


def draw_faults(task: BottomUpResult, fault_rate: float, seed: int) -> BottomUpResult:
    """``task`` with one run's fault log; raises FunctionalityBroken when a
    kernel stays faulty through all attempts."""
    if fault_rate <= 0:
        return task
    fault_log: list[FaultEvent] = []
    for kid in task.design.order:
        rng = random.Random(f"{seed}:{kid}")
        failed = 0
        while failed < MAX_GENERATION_ATTEMPTS and rng.random() < fault_rate:
            failed += 1
        repaired = failed < MAX_GENERATION_ATTEMPTS
        fault_log.extend(FaultEvent(kid, a, repaired) for a in range(1, failed + 1))
        if not repaired:
            raise FunctionalityBroken(kid, MAX_GENERATION_ATTEMPTS)
    return replace(task, fault_log=tuple(fault_log))


def optimize_bottom_up(
    skeleton: Design,
    max_variants: int = DEFAULT_MAX_VARIANTS,
    fault_rate: float = 0.0,
    seed: int = 0,
) -> BottomUpResult:
    """``prepare_task`` and then ``draw_faults`` for one run."""
    return draw_faults(prepare_task(skeleton, max_variants), fault_rate, seed)


def derive_area_target(
    baseline_area_tenths: int,
    fraction: Union[float, Fraction] = DEFAULT_AREA_TARGET_FRACTION,
) -> int:
    """Area target in tenths: floor(fraction * baseline), exact arithmetic."""
    if isinstance(fraction, float):
        fraction = Fraction(str(fraction))
    else:
        fraction = Fraction(fraction)
    if not 0 < fraction <= 1:
        raise ValueError(f"area target fraction must be in (0, 1], got {fraction}")
    return (baseline_area_tenths * fraction.numerator) // fraction.denominator
