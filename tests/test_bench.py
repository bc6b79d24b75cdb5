"""Benchmark suite tests: shapes, formulas, serialization, special fixtures."""

from __future__ import annotations

import json
import random

import pytest

from hlsdse.bench import (
    LOOP_TRIP_COUNT,
    benchmark_from_dict,
    benchmark_to_dict,
    builtin,
    builtin_names,
    call_count,
    formula_latency,
    gap_fixture,
    kernel_count,
    load,
    save,
)
from hlsdse.design import validate
from hlsdse.errors import ParseError, UnknownBenchmark, ValidationError
from hlsdse.latency import brute_force_optimum, eval_latency_given, evaluate
from hlsdse.variantgen import derive_area_target, optimize_bottom_up

EXPECTED_SHAPES = {
    "SYN1": (3, 3),
    "SYN2": (3, 3),
    "SYN3": (4, 5),
    "SYN4": (4, 5),
    "SYN5": (4, 5),
    "SYN6": (4, 5),
    "AES_LIKE": (5, 5),
    "NW_LIKE": (4, 4),
}


def test_builtin_catalog():
    assert builtin_names() == tuple(EXPECTED_SHAPES)
    with pytest.raises(UnknownBenchmark):
        builtin("SYN99")


@pytest.mark.parametrize("name", tuple(EXPECTED_SHAPES))
def test_builtin_shape(name):
    benchmark = builtin(name)
    assert benchmark.name == name
    skeleton = benchmark.skeleton
    assert validate(skeleton, require_variants=False) == []
    assert all(not k.variants for k in skeleton.kernels.values())
    assert (kernel_count(skeleton), call_count(skeleton)) == EXPECTED_SHAPES[name]
    assert skeleton.top == "top"


@pytest.mark.parametrize("name", tuple(EXPECTED_SHAPES))
def test_formula_matches_structural_evaluation(name):
    benchmark = builtin(name)
    rng = random.Random(name)
    for _ in range(20):
        latencies = {kid: rng.randint(0, 50) for kid in benchmark.skeleton.kernels}
        assert formula_latency(benchmark, latencies) == eval_latency_given(
            benchmark.skeleton, latencies.__getitem__
        )


def test_looped_shapes_scale_their_formula():
    assert LOOP_TRIP_COUNT == 4
    assert f"{LOOP_TRIP_COUNT}*" in builtin("SYN5").latency_formula
    assert f"{LOOP_TRIP_COUNT}*" in builtin("SYN6").latency_formula


def test_formula_latency_evaluates_max():
    benchmark = builtin("SYN2")
    assert formula_latency(benchmark, {"top": 1, "A": 2, "B": 3}) == 4


@pytest.mark.parametrize(
    "formula",
    [
        "__import__('os').system('true')",
        "f_A.real",
        "(lambda: 1)()",
        "f_A - f_B",
        "max(f_A, key=f_B)",
        "f_ghost",
        "1.5",
        "f_A +",
    ],
)
def test_formulas_outside_the_whitelist_are_rejected_at_load(formula):
    data = benchmark_to_dict(builtin("SYN1"))
    data["latency_formula"] = formula
    with pytest.raises(ParseError, match="latency formula"):
        benchmark_from_dict(data)


def test_an_empty_formula_is_accepted_and_parsed_once():
    data = benchmark_to_dict(builtin("SYN1"))
    data["latency_formula"] = ""
    assert benchmark_from_dict(data).formula == ()
    benchmark = builtin("SYN4")
    assert benchmark.formula is benchmark.formula
    assert formula_latency(benchmark, {"top": 1, "A": 2, "B": 3, "C": 4}) == 12


@pytest.mark.parametrize("name", ("SYN2", "SYN4"))
def test_tight_spread_shapes_miss_the_default_target(name):
    result = optimize_bottom_up(builtin(name).skeleton)
    target = derive_area_target(result.baseline.area_tenths)
    assert brute_force_optimum(result.design, target).best_feasible is None


def test_syn1_meets_the_default_target():
    result = optimize_bottom_up(builtin("SYN1").skeleton)
    target = derive_area_target(result.baseline.area_tenths)
    assert brute_force_optimum(result.design, target).best_feasible is not None


# ---------------------------------------------------------------------------
# The engineered model-gap fixture


def test_gap_fixture_budget_admits_one_upgrade():
    design, target = gap_fixture()
    assert target == 1500
    report = brute_force_optimum(design, target)
    config, result = report.best_feasible
    # The optimum upgrades the branch that actually governs the maximum.
    assert config.as_dict() == {"top": 0, "A": 0, "B": 1}
    assert result.latency == 35
    # Upgrading the other branch fits the budget too, but helps less.
    other = config.replace("A", 1).replace("B", 0)
    other_eval = evaluate(design, other)
    assert other_eval.area_tenths <= target
    assert other_eval.latency == 40


# ---------------------------------------------------------------------------
# Benchmark files


@pytest.mark.parametrize("name", tuple(EXPECTED_SHAPES))
def test_save_load_round_trip(name, tmp_path):
    benchmark = builtin(name)
    path = tmp_path / f"{name}.json"
    save(benchmark, path)
    loaded = load(path)
    assert loaded.name == benchmark.name
    assert loaded.latency_formula == benchmark.latency_formula
    assert loaded.skeleton == benchmark.skeleton


def test_benchmark_dict_carries_name_and_formula():
    data = benchmark_to_dict(builtin("SYN1"))
    assert data["name"] == "SYN1"
    assert data["latency_formula"] == "f_top + f_A + f_B"
    assert data["top"] == "top"


def test_benchmark_from_dict_requires_a_name():
    data = benchmark_to_dict(builtin("SYN1"))
    del data["name"]
    with pytest.raises(ParseError, match="name"):
        benchmark_from_dict(data)


@pytest.mark.parametrize(
    "data, message",
    [([], "benchmark must be an object"),
     ({**benchmark_to_dict(builtin("SYN1")), "latency_formula": 3}, "must be a string")],
    ids=["not-object", "formula-not-string"],
)
def test_benchmark_from_dict_rejects_a_mutated_document(data, message):
    with pytest.raises(ParseError, match=message) as info:
        benchmark_from_dict(data)
    assert info.value.where is None


def test_benchmark_from_dict_rejects_broken_structure():
    data = benchmark_to_dict(builtin("SYN1"))
    data["kernels"] = [k for k in data["kernels"] if k["id"] != "B"]
    with pytest.raises(ValidationError):
        benchmark_from_dict(data)


def test_load_reports_bad_json_with_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    with pytest.raises(ParseError, match="broken.json"):
        load(path)


def test_load_turns_an_integer_past_the_digit_limit_into_a_parse_error(tmp_path):
    data = benchmark_to_dict(builtin("SYN1"))
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data).replace('"trip_count": 4', '"trip_count": 1' + "0" * 5000, 1))
    with pytest.raises(ParseError, match="long.json: invalid JSON"):
        load(path)


def test_load_turns_deep_nesting_into_a_parse_error_naming_the_file(tmp_path):
    data = benchmark_to_dict(builtin("SYN1"))
    data["kernels"][0]["body"] = "DEEP"
    deep = '{"seq": [' * 2000 + '{"call": {"kernel": "A"}}' + "]}" * 2000
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(data).replace('"DEEP"', deep))
    with pytest.raises(ParseError, match="deep.json: benchmark nested too deeply"):
        load(path)
