"""Latency/area evaluation tests: correct model, approximate models, oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_configuration,
    random_design,
    reference_latency,
    reference_oracle,
)
from hlsdse.design import (
    Configuration,
    Design,
    Kernel,
    KernelSource,
    KernelVariant,
    call,
    configuration_count,
    loop,
    par,
    seq,
)
from hlsdse.errors import CapExceeded, UnsupportedModel
from hlsdse.latency import (
    EvalResult,
    LatencyModelKind,
    brute_force_optimum,
    eval_area,
    eval_faulty_latency,
    eval_faulty_latency_given,
    eval_latency,
    eval_latency_given,
    evaluate,
    lower_latency_plan,
    par_node_values,
)

SOURCE = KernelSource(0, 1, 1, 0, 0)


def single(area_units: int, latency: int) -> tuple[KernelVariant, ...]:
    return (KernelVariant(index=0, area_tenths=area_units * 10, latency=latency),)


def fork_join_design(top=5, left=7, right=9, tail=4) -> Design:
    """top runs two kernels in parallel, then a third one twice."""
    body = seq(par(call("left"), call("right")), call("tail", 2))
    kernels = {
        "top": Kernel("top", SOURCE, single(10, top), body),
        "left": Kernel("left", SOURCE, single(10, left)),
        "right": Kernel("right", SOURCE, single(10, right)),
        "tail": Kernel("tail", SOURCE, single(10, tail)),
    }
    return Design(kernels=kernels, top="top")


def fork_join_config() -> Configuration:
    return Configuration.from_mapping({"top": 0, "left": 0, "right": 0, "tail": 0})


# ---------------------------------------------------------------------------
# Correct model


def test_fork_join_latency():
    design = fork_join_design(top=5, left=7, right=9, tail=4)
    assert eval_latency(design, fork_join_config()) == 5 + max(7, 9) + 2 * 4


def test_parallel_pair_latency():
    kernels = {
        "top": Kernel("top", SOURCE, single(10, 10), par(call("A"), call("B"))),
        "A": Kernel("A", SOURCE, single(10, 20)),
        "B": Kernel("B", SOURCE, single(10, 15)),
    }
    design = Design(kernels=kernels, top="top")
    config = Configuration.from_mapping({"top": 0, "A": 0, "B": 0})
    assert eval_latency(design, config) == 30


def test_loop_multiplies_body_latency():
    kernels = {
        "top": Kernel("top", SOURCE, single(10, 3), loop(4, call("A"))),
        "A": Kernel("A", SOURCE, single(10, 6)),
    }
    design = Design(kernels=kernels, top="top")
    config = Configuration.from_mapping({"top": 0, "A": 0})
    assert eval_latency(design, config) == 3 + 4 * 6


def test_nested_calls_compose():
    # top -> A (x2) -> B: total = top + 2*(A + B)
    kernels = {
        "top": Kernel("top", SOURCE, single(10, 1), call("A", 2)),
        "A": Kernel("A", SOURCE, single(10, 5), call("B")),
        "B": Kernel("B", SOURCE, single(10, 7)),
    }
    design = Design(kernels=kernels, top="top")
    config = Configuration.from_mapping({"top": 0, "A": 0, "B": 0})
    assert eval_latency(design, config) == 1 + 2 * (5 + 7)


def test_diamond_shares_memoized_callee():
    # top calls A and B in sequence; both call C. C's total is counted per
    # call site (time is spent on each call), not deduplicated like area.
    kernels = {
        "top": Kernel("top", SOURCE, single(10, 1), seq(call("A"), call("B"))),
        "A": Kernel("A", SOURCE, single(10, 2), call("C")),
        "B": Kernel("B", SOURCE, single(10, 3), call("C")),
        "C": Kernel("C", SOURCE, single(10, 10)),
    }
    design = Design(kernels=kernels, top="top")
    config = Configuration.from_mapping({kid: 0 for kid in kernels})
    assert eval_latency(design, config) == 1 + (2 + 10) + (3 + 10)


def test_eval_latency_given_accepts_callable():
    design = fork_join_design()
    table = {"top": 5, "left": 7, "right": 9, "tail": 4}
    assert eval_latency_given(design, table.__getitem__) == 22


# ---------------------------------------------------------------------------
# Area


def test_latency_plan_lowers_bodies_to_linear_forms():
    body = seq(call("A", 2), loop(3, par(call("B"), seq(call("A"), call("B")))), call("A"))
    kernels = {
        "top": Kernel("top", SOURCE, single(1, 1), body),
        "A": Kernel("A", SOURCE, single(1, 1)),
        "B": Kernel("B", SOURCE, single(1, 1)),
    }
    design = Design(kernels=kernels, top="top")
    assert design.order == ("A", "B", "top")
    plan = lower_latency_plan(design)
    # Slots 0-2 are A, B, top; the Par gets slot 3. A's coefficients merge.
    assert plan.size == 4 and plan.top == 2
    assert plan.steps == (
        (3, "top/body/1/child", (((1, 1),), ((0, 1), (1, 1)))),
        (2, None, (((0, 3), (3, 3)),)),
    )
    assert design.plan(LatencyModelKind.CORRECT) == plan


def test_each_model_lowers_to_a_plan():
    design = fork_join_design()
    assert design.order == ("left", "right", "tail", "top")

    def steps(kind):
        return lower_latency_plan(design, kind).steps

    assert steps(LatencyModelKind.TOP_ONLY) == ()
    assert steps(LatencyModelKind.SUM_ALL) == ((3, None, (((0, 1), (1, 1), (2, 1)),)),)
    # sum-mult lowers the Par like a Seq, so the body is one form.
    assert steps(LatencyModelKind.SUM_WITH_MULTIPLIERS) == (
        (3, None, (((0, 1), (1, 1), (2, 2)),)),
    )
    # top-plus-max: one max over the callees in slot 4, added to the caller.
    assert steps(LatencyModelKind.TOP_PLUS_MAX_CHILDREN) == (
        (4, "top/children", (((0, 1),), ((1, 1),), ((2, 1),))),
        (3, None, (((4, 1),),)),
    )
    with pytest.raises(UnsupportedModel):
        lower_latency_plan(design, "no-such-model")


def test_plans_are_lowered_once_per_model_on_first_use():
    design = fork_join_design()
    evaluate(design, fork_join_config())
    assert set(design._plans) == {LatencyModelKind.CORRECT}
    plan = design.plan(LatencyModelKind.TOP_ONLY)
    assert design.plan(LatencyModelKind.TOP_ONLY) is plan
    assert set(design._plans) == {LatencyModelKind.CORRECT, LatencyModelKind.TOP_ONLY}


def test_area_counts_each_kernel_once():
    # tail is called twice but instantiated once: area is 10 + 40, not 10 + 80.
    kernels = {
        "top": Kernel("top", SOURCE, single(10, 1), call("A", 2)),
        "A": Kernel("A", SOURCE, single(40, 5)),
    }
    design = Design(kernels=kernels, top="top")
    config = Configuration.from_mapping({"top": 0, "A": 0})
    assert eval_area(design, config) == 500
    assert evaluate(design, config) == EvalResult(latency=11, area_tenths=500)


# ---------------------------------------------------------------------------
# Approximate models


def test_model_catalog_on_fork_join():
    design = fork_join_design(top=5, left=7, right=9, tail=4)
    config = fork_join_config()

    def predicted(kind):
        return eval_faulty_latency(kind, design, config)

    assert predicted(LatencyModelKind.CORRECT) == 22
    assert predicted(LatencyModelKind.TOP_ONLY) == 5
    assert predicted(LatencyModelKind.SUM_ALL) == 25
    assert predicted(LatencyModelKind.SUM_WITH_MULTIPLIERS) == 5 + (7 + 9) + 2 * 4
    assert predicted(LatencyModelKind.TOP_PLUS_MAX_CHILDREN) == 5 + 9


def test_correct_model_matches_eval_latency():
    rng = random.Random(5)
    for _ in range(50):
        design = random_design(rng)
        config = random_configuration(rng, design)
        assert eval_faulty_latency(
            LatencyModelKind.CORRECT, design, config
        ) == eval_latency(design, config)


def test_model_ordering_on_random_designs():
    # Both orderings hold on any design whose kernels are all reachable.
    rng = random.Random(1234)
    for _ in range(200):
        design = random_design(rng)
        config = random_configuration(rng, design)

        def predicted(kind):
            return eval_faulty_latency(kind, design, config)

        correct = predicted(LatencyModelKind.CORRECT)
        assert predicted(LatencyModelKind.TOP_ONLY) <= predicted(
            LatencyModelKind.TOP_PLUS_MAX_CHILDREN
        )
        assert predicted(LatencyModelKind.TOP_PLUS_MAX_CHILDREN) <= correct
        assert correct <= predicted(LatencyModelKind.SUM_WITH_MULTIPLIERS)
        assert predicted(LatencyModelKind.SUM_ALL) <= predicted(
            LatencyModelKind.SUM_WITH_MULTIPLIERS
        )


def test_latency_given_callable_counts_each_kernel_once():
    design = fork_join_design()
    calls: list[str] = []

    def spy(kid: str) -> int:
        calls.append(kid)
        return 1

    eval_faulty_latency_given(LatencyModelKind.SUM_ALL, design, spy)
    assert sorted(calls) == sorted(design.kernels)


# ---------------------------------------------------------------------------
# Par node values


def test_par_node_values_report_realized_maxima():
    design = fork_join_design(top=5, left=7, right=9, tail=4)
    values = par_node_values(design, fork_join_config())
    assert values == {"top/body/0": 9}
    peaks = par_node_values(design, fork_join_config(), LatencyModelKind.TOP_PLUS_MAX_CHILDREN)
    assert peaks == {"top/children": 9}
    assert par_node_values(design, fork_join_config(), LatencyModelKind.SUM_ALL) == {}


# ---------------------------------------------------------------------------
# Brute-force oracle


def oracle_design() -> Design:
    kernels = {
        "top": Kernel("top", SOURCE, single(100, 10), par(call("A"), call("B"))),
        "A": Kernel(
            "A",
            SOURCE,
            (
                KernelVariant(index=0, area_tenths=500, latency=20),
                KernelVariant(index=1, area_tenths=800, latency=12),
            ),
        ),
        "B": Kernel("B", SOURCE, single(60, 15)),
    }
    return Design(kernels=kernels, top="top")


def test_oracle_tight_target_picks_the_only_fit():
    report = brute_force_optimum(oracle_design(), 2200)
    assert report.best_feasible is not None
    config, result = report.best_feasible
    assert config == Configuration.from_mapping({"top": 0, "A": 0, "B": 0})
    assert (result.latency, result.area_tenths) == (30, 2100)


def test_oracle_loose_target_prefers_lower_latency():
    report = brute_force_optimum(oracle_design(), 10000)
    config, result = report.best_feasible
    assert config == Configuration.from_mapping({"top": 0, "A": 1, "B": 0})
    assert (result.latency, result.area_tenths) == (25, 2400)


def test_oracle_impossible_target_reports_min_area():
    report = brute_force_optimum(oracle_design(), 1000)
    assert report.best_feasible is None
    config, result = report.min_area
    assert config == Configuration.from_mapping({"top": 0, "A": 0, "B": 0})
    assert result.area_tenths == 2100


def test_oracle_breaks_latency_ties_by_area_then_lexicographic():
    kernels = {
        "top": Kernel(
            "top",
            SOURCE,
            (
                KernelVariant(index=0, area_tenths=100, latency=5),
                KernelVariant(index=1, area_tenths=90, latency=5),
                KernelVariant(index=2, area_tenths=90, latency=5),
            ),
        )
    }
    report = brute_force_optimum(Design(kernels=kernels, top="top"), 1000)
    config, result = report.best_feasible
    # Same latency everywhere; area prefers 90, then the smaller index wins.
    assert config == Configuration.from_mapping({"top": 1})
    assert result.area_tenths == 90
    assert report.min_area[0] == config


def test_oracle_requires_variants():
    design = Design(kernels={"top": Kernel("top", SOURCE, ())}, top="top")
    with pytest.raises(ValueError):
        brute_force_optimum(design, 100)


def test_oracle_checks_cap_and_variants_before_any_work():
    # The body calls a kernel that does not exist, so any evaluation would
    # raise KeyError; both checks must come first.
    two = (KernelVariant(0, 10, 5), KernelVariant(1, 20, 3))
    design = Design(kernels={"top": Kernel("top", SOURCE, two, call("ghost"))}, top="top")
    with pytest.raises(CapExceeded):
        brute_force_optimum(design, 100, cap=1)
    empty = Design(kernels={"top": Kernel("top", SOURCE, (), call("ghost"))}, top="top")
    with pytest.raises(ValueError, match="no variants"):
        brute_force_optimum(empty, 100)


# ---------------------------------------------------------------------------
# Plan against the plain recursive reference


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_plan_and_oracle_agree_with_the_reference(seed):
    rng = random.Random(seed)
    design = random_design(rng, max_kernels=6, max_variants=3)
    assert configuration_count(design) <= 2000
    for _ in range(3):
        config = random_configuration(rng, design)
        assert evaluate(design, config).latency == reference_latency(design, config)
        for kind in LatencyModelKind:
            expected_maxima: dict[str, int] = {}
            latency = reference_latency(design, config, kind, expected_maxima)
            assert eval_faulty_latency(kind, design, config) == latency
            assert par_node_values(design, config, kind) == expected_maxima

    def areas(pick) -> int:
        return sum(pick(v.area_tenths for v in k.variants) for k in design.kernels.values())

    smallest, largest = areas(min), areas(max)
    for target in (smallest - 1, (smallest + largest) // 2, largest):
        report = brute_force_optimum(design, target)
        best, lowest = reference_oracle(design, target)
        got_best = report.best_feasible and (
            report.best_feasible[0],
            report.best_feasible[1].latency,
            report.best_feasible[1].area_tenths,
        )
        got_lowest = (
            report.min_area[0], report.min_area[1].latency, report.min_area[1].area_tenths
        )
        assert (got_best, got_lowest) == (best, lowest)
