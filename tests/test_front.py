"""Front-search oracle tests: equal to enumeration, configurations included.

The oracle policy asks the front search through the session's answer memo
(``agent._answer``); its pick must be ``brute_force_optimum``'s.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import coarsened, random_design
from hlsdse import agent
from hlsdse.agent import OraclePolicy, Success, run
from hlsdse.bench import builtin, builtin_names
from hlsdse.design import (
    ENUMERATION_CAP,
    Configuration,
    Design,
    Kernel,
    KernelSource,
    KernelVariant,
    call,
    configuration_count,
    enumerate_configurations,
    par,
    seq,
)
from hlsdse.errors import CapExceeded
from hlsdse.front import _paths, _shared, best_within
from hlsdse.ilp import ConstrainedArea, build_model, solve
from hlsdse.latency import LatencyModelKind, brute_force_optimum, evaluate
from hlsdse.variantgen import derive_area_target, optimize_bottom_up

SOURCE = KernelSource(0, 1, 1, 0, 0)
CORRECT = LatencyModelKind.CORRECT


def variants(*points: tuple[int, int]) -> tuple[KernelVariant, ...]:
    return tuple(KernelVariant(i, area, lat) for i, (area, lat) in enumerate(points))


def targets(design: Design) -> tuple[int, ...]:
    """Below the minimum area, mid-range and at the maximum."""
    lo = sum(min(v.area_tenths for v in k.variants) for k in design.kernels.values())
    hi = sum(max(v.area_tenths for v in k.variants) for k in design.kernels.values())
    return lo - 1, (lo + hi) // 2, hi


def pareto(design: Design) -> tuple[tuple[int, int], ...]:
    """The non-dominated (area, latency) points of every configuration."""
    points: list[tuple[int, int]] = []
    for area, latency in sorted(
        (r.area_tenths, r.latency)
        for r in (evaluate(design, c) for c in enumerate_configurations(design))
    ):
        if not points or latency < points[-1][1]:
            points.append((area, latency))
    return tuple(points)


def reaches_pareto(design: Design) -> bool:
    """Whether the search answers each Pareto point at its own area."""
    points = pareto(design)
    return tuple(best_within(design, CORRECT, area)[1] for area, _ in points) == points


def shared(design: Design) -> tuple[str, ...]:
    """The kernels the search branches on under the correct model."""
    return _shared(design, CORRECT)


def oracle_pick(design: Design, target: int):
    """The oracle policy's selection at ``target`` and its evaluation."""
    outcome, _ = run(OraclePolicy(), design, area_target_tenths=target)
    assert isinstance(outcome, Success)
    return outcome.configuration, outcome.result


def enumeration_pick(design: Design, target: int):
    """``brute_force_optimum``'s best within the target, else its min-area one."""
    report = brute_force_optimum(design, target)
    return report.best_feasible or report.min_area


@pytest.mark.parametrize("name", builtin_names())
def test_front_oracle_matches_enumeration_on_every_builtin(name):
    task = optimize_bottom_up(builtin(name).skeleton)
    design = task.design
    assert reaches_pareto(design)
    for target in targets(design) + (derive_area_target(task.baseline.area_tenths),):
        assert oracle_pick(design, target) == enumeration_pick(design, target)


@pytest.mark.parametrize("name", builtin_names())
def test_oracle_policy_selects_the_enumeration_optimum_on_every_builtin(name):
    task = optimize_bottom_up(builtin(name).skeleton)
    target = derive_area_target(task.baseline.area_tenths)
    outcome, _ = run(OraclePolicy(), task.design, area_target_tenths=target)
    report = brute_force_optimum(task.design, target)
    pick = report.best_feasible or report.min_area
    assert isinstance(outcome, Success)
    assert (outcome.configuration, outcome.result) == pick


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.0, 0.5]),
    st.booleans(),
)
def test_front_oracle_matches_enumeration_on_trees_and_dags(seed, second_caller, tied):
    rng = random.Random(seed)
    design = random_design(rng, max_kernels=6, max_variants=3, second_caller=second_caller)
    if tied:
        design = coarsened(rng, design)
    assert configuration_count(design) <= 729
    assert reaches_pareto(design)
    for target in targets(design):
        assert oracle_pick(design, target) == enumeration_pick(design, target)


def test_shared_kernels_are_those_reached_by_more_than_one_call_path():
    assert shared(optimize_bottom_up(builtin("SYN5").skeleton).design) == ("A",)
    assert shared(optimize_bottom_up(builtin("SYN4").skeleton).design) == ()
    # B is called once, but from A, which has two call sites; C is called
    # twice from one site (a multiplicity), so it is not shared.
    two = variants((10, 5), (20, 3))
    kernels = {
        "top": Kernel("top", SOURCE, two, par(call("A"), seq(call("A"), call("C", 2)))),
        "A": Kernel("A", SOURCE, two, call("B")),
        "B": Kernel("B", SOURCE, two),
        "C": Kernel("C", SOURCE, two),
    }
    design = Design(kernels=kernels, top="top")
    assert shared(design) == ("A", "B")
    for target in targets(design):
        assert oracle_pick(design, target) == enumeration_pick(design, target)


def test_ties_and_unreached_kernels_follow_the_documented_tie_break():
    kernels = {
        "top": Kernel(
            "top", SOURCE, variants((100, 5), (90, 5), (90, 5)), par(call("A"), call("B"))
        ),
        "A": Kernel("A", SOURCE, variants((30, 4), (20, 7), (20, 4), (30, 2))),
        "B": Kernel("B", SOURCE, variants((20, 4), (20, 4), (10, 9))),
        "unreached": Kernel("unreached", SOURCE, variants((7, 1), (5, 9), (5, 2))),
    }
    design = Design(kernels=kernels, top="top")
    paths = _paths(design.plan(CORRECT))
    assert [kid for kid, n in zip(design.order, paths) if not n] == ["unreached"]
    lo, _, hi = targets(design)
    for target in range(lo - 1, hi + 1):
        assert oracle_pick(design, target) == enumeration_pick(design, target)
    assert oracle_pick(design, hi)[0] == Configuration.from_mapping(
        {"top": 1, "A": 2, "B": 0, "unreached": 1}
    )


def test_oracle_answers_are_kept_per_design_and_target():
    skeleton = builtin("SYN3").skeleton
    design = optimize_bottom_up(skeleton).design
    _, mid, hi = targets(design)
    key = {t: (CORRECT, "constrained", t, None) for t in (mid, hi)}
    oracle_pick(design, mid)
    kept = design._answers[key[mid]]
    oracle_pick(design, mid)
    oracle_pick(design, hi)
    assert list(design._answers) == [key[mid], key[hi]]
    assert design._answers[key[mid]] is kept
    assert kept != design._answers[key[hi]]
    other = optimize_bottom_up(skeleton).design
    oracle_pick(other, mid)
    assert other._answers[key[mid]] == kept
    assert other._answers[key[mid]] is not kept


def test_a_solve_caches_nothing_on_the_design_but_its_plan():
    design = optimize_bottom_up(builtin("SYN3").skeleton).design
    solve(build_model(design, ConstrainedArea(targets(design)[1])))
    assert set(vars(design)) == {"kernels", "top", "order", "_plans"}


def test_trees_no_longer_hit_the_enumeration_cap():
    # 12 leaves of 4 variants each: 4**13 configurations, one branch.
    leaves = [f"k{i:02d}" for i in range(12)]
    four = variants((10, 9), (20, 5), (30, 3), (40, 2))
    kernels = {kid: Kernel(kid, SOURCE, four) for kid in leaves}
    kernels["top"] = Kernel("top", SOURCE, four, seq(*(call(kid) for kid in leaves)))
    design = Design(kernels=kernels, top="top")
    assert configuration_count(design) > ENUMERATION_CAP
    config, result = oracle_pick(design, 325)
    # 19 steps of 10 above the minimum area: every kernel to index 1, then six
    # to index 2. The lexicographically smallest optimum gives those six to
    # the last kernels in id order.
    assert (result.area_tenths, result.latency) == (320, 13 * 9 - 13 * 4 - 6 * 2)
    assert config.as_dict() == {kid: 1 if kid < "k07" else 2 for kid in kernels}
    # Below the least area the oracle falls back to the best within it.
    assert oracle_pick(design, targets(design)[0])[0].as_dict() == {kid: 0 for kid in kernels}


def test_shared_branches_over_the_cap_raise_before_any_work(monkeypatch):
    five = variants(*((10 * (i + 1), 10 - i) for i in range(5)))
    inner = [f"s{i}" for i in range(9)]  # below a twice-called kernel: all shared
    kernels = {kid: Kernel(kid, SOURCE, five) for kid in inner}
    kernels["S"] = Kernel("S", SOURCE, five, seq(*(call(kid) for kid in inner)))
    kernels["top"] = Kernel("top", SOURCE, five, par(call("S"), seq(call("S"))))
    design = Design(kernels=kernels, top="top")

    def no_work(*args):
        raise AssertionError("the oracle built a model past the cap")

    monkeypatch.setattr(agent, "build_model", no_work)
    with pytest.raises(CapExceeded):
        oracle_pick(design, 1000)
    assert design._answers == {}


def test_shared_ties_end_the_search_at_one_branch():
    # The shape above, smaller: 4 leaves and 3 variants, 3**6 configurations.
    # Nearly every branch ties the best point; recovery breaks the ties.
    three = variants(*((10 * (i + 1), 10 - i) for i in range(3)))
    inner = [f"s{i}" for i in range(4)]
    kernels = {kid: Kernel(kid, SOURCE, three) for kid in inner}
    kernels["S"] = Kernel("S", SOURCE, three, seq(*(call(kid) for kid in inner)))
    kernels["top"] = Kernel("top", SOURCE, three, par(call("S"), seq(call("S"))))
    design = Design(kernels=kernels, top="top")
    areas = sorted({evaluate(design, c).area_tenths for c in enumerate_configurations(design)})
    assert areas == list(range(60, 181, 10))
    for area in areas:
        config, point, branches = best_within(design, CORRECT, area)
        best_config, result = brute_force_optimum(design, area).best_feasible
        assert (config, point) == (best_config, (result.area_tenths, result.latency))
        assert branches == 1


def test_front_requires_variants():
    design = Design(kernels={"top": Kernel("top", SOURCE, ())}, top="top")
    with pytest.raises(ValueError, match="no variants"):
        oracle_pick(design, 100)
    assert design._answers == {}


def test_random_design_draws_are_unchanged_without_second_callers():
    digest = hashlib.sha256()
    for seed in range(200):
        digest.update(repr(random_design(random.Random(seed))).encode())
    assert digest.hexdigest() == (
        "ab262efe502ebc607f186d07d5fe04293d0b0e05b4eb3c7a89e56284792f309f"
    )
    drawn = [
        bool(shared(random_design(random.Random(seed), second_caller=0.5)))
        for seed in range(100)
    ]
    assert any(drawn) and not all(drawn)
