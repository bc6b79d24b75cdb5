"""Bottom-up variant generation tests: options, baselines, fault injection."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hlsdse.bench import builtin, builtin_names
from hlsdse.design import (
    Design,
    Kernel,
    KernelSource,
    KernelVariant,
    call,
    loop,
    validate,
)
from hlsdse.errors import CyclicDesign, FunctionalityBroken, TotalTooLarge, ValidationError
from hlsdse.latency import evaluate
from hlsdse.synth import generate_variants
from hlsdse.variantgen import (
    FLOAT_EXACT_LIMIT,
    FaultEvent,
    derive_area_target,
    greedy_configuration,
    optimize_bottom_up,
    prepare_task,
)

SOURCE = KernelSource(0, 1, 1, 0, 0)


def test_bottom_up_installs_options_everywhere():
    skeleton = builtin("SYN1").skeleton
    result = optimize_bottom_up(skeleton)
    assert set(result.design.kernels) == set(skeleton.kernels)
    assert validate(result.design) == []
    for kid, kernel in result.design.kernels.items():
        assert kernel.variants == generate_variants(skeleton.kernels[kid].source)
        assert len(kernel.variants) >= 3


def test_a_500_kernel_call_chain_evaluates():
    ids = [f"k{i:03d}" for i in range(500)]
    kernels = {
        kid: Kernel(kid, SOURCE, body=call(callee) if callee else None)
        for kid, callee in zip(ids, ids[1:] + [None])
    }
    result = optimize_bottom_up(Design(kernels=kernels, top=ids[0]))
    assert result.design.order == tuple(reversed(ids))
    assert evaluate(result.design, result.greedy_config) == result.baseline
    assert result.baseline.latency == sum(
        min(v.latency for v in k.variants) for k in result.design.kernels.values()
    )


def test_a_2000_kernel_call_chain_validates_and_installs_variants():
    ids = [f"k{i:04d}" for i in range(2000)]
    kernels = {
        kid: Kernel(kid, SOURCE, body=call(callee) if callee else None)
        for kid, callee in zip(ids, ids[1:] + [None])
    }
    skeleton = Design(kernels=kernels, top=ids[0])
    assert validate(skeleton, require_variants=False) == []
    result = optimize_bottom_up(skeleton)
    assert validate(result.design) == []
    assert evaluate(result.design, result.greedy_config) == result.baseline


def test_bottom_up_baseline_evaluates_the_greedy_choice():
    result = optimize_bottom_up(builtin("SYN3").skeleton)
    assert result.greedy_config == greedy_configuration(result.design)
    assert result.baseline == evaluate(result.design, result.greedy_config)
    for kid, idx in result.greedy_config.items:
        chosen = result.design.kernels[kid].variants[idx]
        fastest = min(v.latency for v in result.design.kernels[kid].variants)
        assert chosen.latency == fastest


def test_bottom_up_is_deterministic():
    skeleton = builtin("SYN6").skeleton
    first = optimize_bottom_up(skeleton, seed=7)
    second = optimize_bottom_up(skeleton, seed=7)
    assert first.design == second.design
    assert first.baseline == second.baseline
    assert first.fault_log == second.fault_log


def test_greedy_breaks_latency_ties_toward_smaller_area():
    kernels = {
        "top": Kernel(
            "top",
            SOURCE,
            (
                KernelVariant(index=0, area_tenths=100, latency=5),
                KernelVariant(index=1, area_tenths=50, latency=5),
            ),
        )
    }
    config = greedy_configuration(Design(kernels=kernels, top="top"))
    assert config["top"] == 1


def test_bottom_up_rejects_malformed_skeletons():
    dangling = Design(
        kernels={"top": Kernel("top", SOURCE, (), call("ghost"))}, top="top"
    )
    with pytest.raises(ValidationError):
        optimize_bottom_up(dangling)


def test_bottom_up_rejects_cyclic_call_graphs():
    kernels = {
        "top": Kernel("top", SOURCE, (), call("A")),
        "A": Kernel("A", SOURCE, (), call("top")),
    }
    cyclic = Design(kernels=kernels, top="top")
    with pytest.raises(CyclicDesign):
        optimize_bottom_up(cyclic)


# ---------------------------------------------------------------------------
# Fault injection


def _totals_skeleton(area_tenths: int, trip: int) -> Design:
    """Largest total area ``area_tenths``; slowest latency ``1 + trip``."""
    kernels = {
        "top": Kernel("top", SOURCE, (), loop(trip, call("A"))),
        "A": Kernel("A", KernelSource(0, 1, 1, area_tenths, 0), ()),
    }
    return Design(kernels=kernels, top="top")


def test_totals_up_to_the_float_exact_limit_are_accepted():
    task = prepare_task(_totals_skeleton(FLOAT_EXACT_LIMIT, FLOAT_EXACT_LIMIT - 1))
    assert task.baseline.area_tenths == FLOAT_EXACT_LIMIT
    assert task.baseline.latency == FLOAT_EXACT_LIMIT


@pytest.mark.parametrize(
    "area, trip, what",
    [(FLOAT_EXACT_LIMIT + 1, 1, "area"), (10, FLOAT_EXACT_LIMIT, "latency")],
    ids=["area", "latency"],
)
def test_totals_past_the_float_exact_limit_are_rejected(area, trip, what):
    with pytest.raises(TotalTooLarge, match=what):
        prepare_task(_totals_skeleton(area, trip))


def test_certain_faults_break_generation_after_three_attempts():
    with pytest.raises(FunctionalityBroken) as info:
        optimize_bottom_up(builtin("SYN1").skeleton, fault_rate=1.0)
    assert info.value.attempts == 3


def test_repaired_faults_are_logged_and_generation_succeeds():
    result = optimize_bottom_up(builtin("SYN1").skeleton, fault_rate=0.5, seed=1)
    by_kernel: dict[str, list[FaultEvent]] = {}
    for event in result.fault_log:
        by_kernel.setdefault(event.kernel, []).append(event)
        assert event.repaired
        assert 1 <= event.attempt <= 2
    assert {kid: len(ev) for kid, ev in by_kernel.items()} == {
        "A": 2,
        "B": 1,
        "top": 2,
    }
    # Attempts within one kernel are recorded in order.
    for events in by_kernel.values():
        assert [e.attempt for e in events] == list(range(1, len(events) + 1))


def test_fault_streams_split_per_kernel():
    # Kernel A draws from the same stream whether it sits alone in a design
    # or next to other kernels: only (seed, kernel id) feeds its RNG.
    skeleton = builtin("SYN1").skeleton
    alone = Design(kernels={"A": skeleton.kernels["A"]}, top="A")
    full = optimize_bottom_up(skeleton, fault_rate=0.5, seed=1)
    solo = optimize_bottom_up(alone, fault_rate=0.5, seed=1)
    full_a = tuple(e for e in full.fault_log if e.kernel == "A")
    assert solo.fault_log == full_a


def test_zero_fault_rate_never_consults_the_rng():
    result = optimize_bottom_up(builtin("SYN2").skeleton, fault_rate=0.0, seed=123)
    assert result.fault_log == ()


# ---------------------------------------------------------------------------
# Area target derivation


def test_area_target_is_exact_floor():
    assert derive_area_target(4000) == 3600
    assert derive_area_target(12345, Fraction(9, 10)) == 11110
    assert derive_area_target(1, 0.9) == 0
    assert derive_area_target(10007, 0.9) == 9006
    assert derive_area_target(500, 1) == 500


def test_area_target_fraction_must_be_in_unit_interval():
    with pytest.raises(ValueError):
        derive_area_target(1000, 0)
    with pytest.raises(ValueError):
        derive_area_target(1000, 1.1)
    with pytest.raises(ValueError):
        derive_area_target(1000, -0.5)
