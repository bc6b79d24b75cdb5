"""Selection-model tests: lowering, exact solving, relaxation, tie-breaks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_configuration, random_design
from hlsdse.bench import gap_fixture
from hlsdse.design import (
    Configuration,
    Design,
    Kernel,
    KernelSource,
    KernelVariant,
    call,
    direct_callees,
    enumerate_configurations,
    loop,
    par,
    seq,
)
from hlsdse.errors import CyclicDesign, RetriesExhausted
from hlsdse.ilp import (
    AuxParMax,
    ConstrainedArea,
    Lagrangian,
    SelectionVar,
    SolveStatus,
    VarKind,
    build_model,
    relax_target,
    retry_relax,
    solve,
    to_lp_text,
)
from hlsdse.latency import (
    LatencyModelKind,
    brute_force_optimum,
    eval_area,
    eval_faulty_latency,
    evaluate,
    par_node_values,
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


# ---------------------------------------------------------------------------
# Model structure


def test_model_counts_for_parallel_pair():
    model = build_model(parallel_pair_design(), ConstrainedArea(2200))
    binaries = [v for v in model.variables if v.kind is VarKind.BINARY]
    auxes = [v for v in model.variables if isinstance(v.annotation, AuxParMax)]
    assert len(binaries) == 4
    assert {(v.annotation.kernel, v.annotation.variant) for v in binaries} == {
        ("top", 0),
        ("A", 0),
        ("A", 1),
        ("B", 0),
    }
    assert len(auxes) == 1
    one_hots = [c for c in model.constraints if c.relation == "="]
    lower_bounds = [c for c in model.constraints if c.relation == ">="]
    area_caps = [c for c in model.constraints if c.relation == "<="]
    assert (len(one_hots), len(lower_bounds), len(area_caps)) == (3, 2, 1)
    assert area_caps[0].rhs == 2200


def test_sequential_design_needs_no_aux_variables():
    kernels = {
        "top": Kernel(
            "top",
            SOURCE,
            (KernelVariant(0, 100, 5),),
            seq(call("A"), call("B")),
        ),
        "A": Kernel("A", SOURCE, (KernelVariant(0, 100, 5),)),
        "B": Kernel("B", SOURCE, (KernelVariant(0, 100, 5),)),
    }
    model = build_model(Design(kernels=kernels, top="top"), ConstrainedArea(1000))
    assert not any(isinstance(v.annotation, AuxParMax) for v in model.variables)


def aux_paths(model) -> set[str]:
    return {
        v.annotation.node_path for v in model.variables if isinstance(v.annotation, AuxParMax)
    }


def test_par_node_values_use_the_models_aux_paths():
    # A Par inside a Loop inside a Seq: evaluator and model name it alike.
    body = seq(call("A"), loop(3, par(call("B"), call("C"))))
    kernels = {
        "top": Kernel("top", SOURCE, (KernelVariant(0, 100, 5),), body),
        "A": Kernel("A", SOURCE, (KernelVariant(0, 100, 4),)),
        "B": Kernel("B", SOURCE, (KernelVariant(0, 100, 7),)),
        "C": Kernel("C", SOURCE, (KernelVariant(0, 100, 9),)),
    }
    design = Design(kernels=kernels, top="top")
    config = Configuration.from_mapping({kid: 0 for kid in kernels})
    assert aux_paths(build_model(design, ConstrainedArea(1000))) == {"top/body/1/child"}
    assert par_node_values(design, config) == {"top/body/1/child": 9}


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_order_and_aux_values_agree_with_the_model(seed):
    rng = random.Random(seed)
    design = random_design(rng, max_kernels=8)
    config = random_configuration(rng, design)
    assert sorted(design.order) == sorted(design.kernels)
    position = {kid: i for i, kid in enumerate(design.order)}
    for kid, kernel in design.kernels.items():
        assert all(position[callee] < position[kid] for callee in direct_callees(kernel))
    for kind in LatencyModelKind:
        model = build_model(design, ConstrainedArea(0), kind)
        assert set(par_node_values(design, config, kind)) == aux_paths(model)


def test_lagrangian_model_adds_slack_pair():
    kernels = {
        "top": Kernel(
            "top",
            SOURCE,
            (KernelVariant(0, 100, 5), KernelVariant(1, 200, 3)),
        )
    }
    model = build_model(
        Design(kernels=kernels, top="top"),
        Lagrangian(150),
        LatencyModelKind.TOP_ONLY,
    )
    ids = {v.id for v in model.variables}
    assert {"d_plus", "d_minus"} <= ids
    # One one-hot plus the area-distance equality; no inequality rows.
    assert [c.relation for c in model.constraints] == ["=", "="]


def test_branch_order_descends_by_variant_count():
    model = build_model(parallel_pair_design(), ConstrainedArea(2200))
    assert model.branch_order == ("A", "B", "top")


def test_build_model_rejects_cycles_and_bad_alpha():
    kernels = {
        "top": Kernel("top", SOURCE, (KernelVariant(0, 10, 1),), call("A")),
        "A": Kernel("A", SOURCE, (KernelVariant(0, 10, 1),), call("top")),
    }
    cyclic = Design(kernels=kernels, top="top")
    with pytest.raises(CyclicDesign):
        build_model(cyclic, ConstrainedArea(100))
    with pytest.raises(ValueError):
        build_model(parallel_pair_design(), Lagrangian(100, alpha=0))


def test_to_lp_text_renders_model():
    text = to_lp_text(build_model(parallel_pair_design(), ConstrainedArea(2200)))
    assert text.startswith("min: ")
    assert "binary: x_A_0" in text
    assert "nonneg-int: t_top/body" in text
    assert "<= 2200" in text


# ---------------------------------------------------------------------------
# Exact solving


def test_solve_tight_target():
    solution = solve(build_model(parallel_pair_design(), ConstrainedArea(2200)))
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.configuration == Configuration.from_mapping(
        {"top": 0, "A": 0, "B": 0}
    )
    assert solution.predicted_latency == 30
    assert solution.predicted_area_tenths == 2100
    assert solution.objective == Fraction(30)
    assert solution.aux_values == (("top/body", 20),)


def test_solve_loose_target_takes_the_faster_point():
    solution = solve(build_model(parallel_pair_design(), ConstrainedArea(10000)))
    assert solution.configuration == Configuration.from_mapping(
        {"top": 0, "A": 1, "B": 0}
    )
    assert solution.predicted_latency == 25


def test_solve_reports_infeasible_below_minimum_area():
    solution = solve(build_model(parallel_pair_design(), ConstrainedArea(1000)))
    assert solution.status is SolveStatus.INFEASIBLE
    assert solution.configuration is None
    assert solution.objective is None
    assert solution.predicted_latency is None
    assert solution.predicted_area_tenths is None


def test_lagrangian_balances_latency_against_area_distance():
    solution = solve(build_model(parallel_pair_design(), Lagrangian(1000)))
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.configuration == Configuration.from_mapping(
        {"top": 0, "A": 0, "B": 0}
    )
    # latency 30 plus |2100 - 1000| in tenths.
    assert solution.objective == Fraction(1130)


def test_lagrangian_alpha_scales_the_latency_term():
    solution = solve(
        build_model(parallel_pair_design(), Lagrangian(1000, alpha=Fraction(1, 2)))
    )
    assert solution.objective == Fraction(30, 2) + 1100


def test_solve_breaks_objective_ties_toward_smaller_area_then_config():
    kernels = {
        "top": Kernel(
            "top",
            SOURCE,
            (
                KernelVariant(0, 100, 5),
                KernelVariant(1, 90, 5),
                KernelVariant(2, 90, 5),
            ),
        )
    }
    solution = solve(
        build_model(Design(kernels=kernels, top="top"), ConstrainedArea(1000))
    )
    assert solution.configuration == Configuration.from_mapping({"top": 1})
    assert solution.predicted_area_tenths == 90


# ---------------------------------------------------------------------------
# Deliberately wrong objectives


def test_sum_objective_prefers_the_bigger_drop_and_loses():
    design, target = gap_fixture()
    misled = solve(
        build_model(design, ConstrainedArea(target), LatencyModelKind.SUM_ALL)
    )
    informed = solve(
        build_model(design, ConstrainedArea(target), LatencyModelKind.CORRECT)
    )
    assert misled.configuration == Configuration.from_mapping(
        {"top": 0, "A": 1, "B": 0}
    )
    assert informed.configuration == Configuration.from_mapping(
        {"top": 0, "A": 0, "B": 1}
    )
    assert evaluate(design, misled.configuration).latency == 40
    assert evaluate(design, informed.configuration).latency == 35


def _enumeration_best(design, kind, target):
    best = None
    for config in enumerate_configurations(design):
        area = eval_area(design, config)
        if area > target:
            continue
        latency = eval_faulty_latency(kind, design, config)
        key = (latency, area, config)
        if best is None or key < best:
            best = key
    return best


@pytest.mark.parametrize(
    "kind",
    [
        LatencyModelKind.CORRECT,
        LatencyModelKind.TOP_ONLY,
        LatencyModelKind.SUM_ALL,
        LatencyModelKind.SUM_WITH_MULTIPLIERS,
        LatencyModelKind.TOP_PLUS_MAX_CHILDREN,
    ],
)
def test_every_model_kind_matches_its_own_enumeration_optimum(kind):
    rng = random.Random(hash(kind.value) & 0xFFFF)
    for _ in range(15):
        design = random_design(rng, max_kernels=4, max_variants=3)
        areas = [eval_area(design, c) for c in enumerate_configurations(design)]
        target = sorted(areas)[len(areas) // 2]
        solution = solve(build_model(design, ConstrainedArea(target), kind))
        expected = _enumeration_best(design, kind, target)
        assert expected is not None
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.predicted_latency == expected[0]
        assert solution.configuration == expected[2]


def test_solver_matches_brute_force_on_random_designs():
    rng = random.Random(77)
    for _ in range(30):
        design = random_design(rng)
        areas = sorted(
            eval_area(design, c) for c in enumerate_configurations(design)
        )
        for target in (areas[0] - 1, areas[len(areas) // 2], areas[-1]):
            solution = solve(build_model(design, ConstrainedArea(target)))
            report = brute_force_optimum(design, target)
            if report.best_feasible is None:
                assert solution.status is SolveStatus.INFEASIBLE
            else:
                config, result = report.best_feasible
                assert solution.configuration == config
                assert solution.predicted_latency == result.latency
                assert solution.predicted_area_tenths == result.area_tenths


def test_lagrangian_matches_enumeration_on_random_designs():
    rng = random.Random(78)
    for _ in range(20):
        design = random_design(rng, max_kernels=4, max_variants=3)
        areas = [eval_area(design, c) for c in enumerate_configurations(design)]
        target = sorted(areas)[len(areas) // 3]
        solution = solve(build_model(design, Lagrangian(target)))
        best = min(
            (
                Fraction(evaluate(design, c).latency)
                + abs(eval_area(design, c) - target),
                eval_area(design, c),
                c,
            )
            for c in enumerate_configurations(design)
        )
        assert solution.objective == best[0]
        assert solution.configuration == best[2]


# ---------------------------------------------------------------------------
# Target relaxation


def test_relax_target_uses_exact_floor_arithmetic():
    assert relax_target(1000, 0.5) == 1500
    assert relax_target(999, 0.5) == 1498
    assert relax_target(100, 0.0) == 100
    with pytest.raises(ValueError):
        relax_target(100, -0.1)


def test_retry_relax_widens_until_feasible():
    model = build_model(parallel_pair_design(), ConstrainedArea(1000))
    result = retry_relax(model, step_fraction=0.5)
    # 1000 -> 1500 -> 2250: feasible on the second relaxation.
    assert result.retries == 2
    assert result.area_target_tenths == 2250
    assert result.solution.configuration == Configuration.from_mapping(
        {"top": 0, "A": 0, "B": 0}
    )


def test_retry_relax_zero_step_exhausts():
    model = build_model(parallel_pair_design(), ConstrainedArea(1000))
    with pytest.raises(RetriesExhausted):
        retry_relax(model, step_fraction=0.0, max_retries=3)


def test_retry_relax_requires_area_cap_mode():
    model = build_model(parallel_pair_design(), Lagrangian(1000))
    with pytest.raises(ValueError):
        retry_relax(model, step_fraction=0.5)


def test_retry_relax_feasible_model_needs_no_retries():
    model = build_model(parallel_pair_design(), ConstrainedArea(2200))
    result = retry_relax(model, step_fraction=0.5)
    assert result.retries == 0
    assert result.area_target_tenths == 2200
