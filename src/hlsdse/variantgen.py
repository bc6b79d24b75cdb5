"""Bottom-up variant generation over a design skeleton.

Kernels are processed leaves-first (reverse topological order over the call
graph). Each kernel's pragma sweep yields a Pareto-trimmed variant list;
while a parent is being prepared, already-processed children are considered
bound to their lowest-latency option, which is also how the baseline
configuration is formed once every kernel has options installed.

Generation attempts can be marked faulty at a configurable rate to emulate a
flaky toolchain: each kernel draws from its own PRNG stream (split from the
master seed by kernel id, so results do not depend on processing order) and
gets up to three attempts before the run aborts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .design import (
    Configuration,
    CycleDetected,
    Design,
    KernelVariant,
    validate,
)
from .errors import FunctionalityBroken, ValidationError
from .latency import EvalResult, evaluate
from .synth import DEFAULT_MAX_VARIANTS, generate_variants

MAX_GENERATION_ATTEMPTS = 3
DEFAULT_AREA_TARGET_FRACTION = Fraction(9, 10)


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


def optimize_bottom_up(
    skeleton: Design,
    max_variants: int = DEFAULT_MAX_VARIANTS,
    fault_rate: float = 0.0,
    seed: int = 0,
) -> BottomUpResult:
    """Generate variants for every kernel, leaves first, and pick a baseline.

    Raises FunctionalityBroken when a kernel stays faulty through all
    attempts, CyclicDesign on call-graph cycles, and ValidationError on other
    structural problems with the skeleton.
    """
    violations = [
        v for v in validate(skeleton, require_variants=False)
        if not isinstance(v, CycleDetected)
    ]
    if violations:
        raise ValidationError(violations)

    fault_log: list[FaultEvent] = []
    options: dict[str, tuple[KernelVariant, ...]] = {}
    for kid in skeleton.order:  # raises CyclicDesign on cycles
        rng = random.Random(f"{seed}:{kid}")
        failed_attempts: list[int] = []
        produced = False
        for attempt in range(1, MAX_GENERATION_ATTEMPTS + 1):
            if fault_rate > 0 and rng.random() < fault_rate:
                failed_attempts.append(attempt)
                continue
            produced = True
            break
        repaired = produced
        fault_log.extend(FaultEvent(kid, a, repaired) for a in failed_attempts)
        if not produced:
            raise FunctionalityBroken(kid, MAX_GENERATION_ATTEMPTS)
        options[kid] = generate_variants(skeleton.kernels[kid].source, max_variants)

    design = skeleton.with_variants(options)
    greedy = greedy_configuration(design)
    return BottomUpResult(
        design=design,
        greedy_config=greedy,
        baseline=evaluate(design, greedy),
        fault_log=tuple(fault_log),
    )


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
