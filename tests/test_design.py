"""Data model tests: areas, configurations, validation, enumeration, JSON."""

from __future__ import annotations

import json
import random

import pytest

from helpers import random_design
from hlsdse.design import (
    MAX_BODY_DEPTH,
    BadVariant,
    Call,
    Configuration,
    CycleDetected,
    Design,
    EmptyVariants,
    Kernel,
    KernelSource,
    KernelVariant,
    Loop,
    MalformedNode,
    Par,
    Seq,
    UnreachableKernel,
    UnresolvedCall,
    area_to_tenths,
    call,
    check_configuration,
    configuration_count,
    design_from_dict,
    design_to_dict,
    direct_callees,
    dumps_design,
    enumerate_configurations,
    loads_design,
    loop,
    node_summary,
    par,
    seq,
    tenths_to_area,
    topological_order,
    validate,
    walk_calls,
)
from hlsdse.errors import CapExceeded, CyclicDesign, ParseError

SOURCE = KernelSource(0, 1, 1, 0, 0)


def variants(*points: tuple[int, int]) -> tuple[KernelVariant, ...]:
    return tuple(
        KernelVariant(index=i, area_tenths=a, latency=l)
        for i, (a, l) in enumerate(points)
    )


def two_kernel_design() -> Design:
    kernels = {
        "top": Kernel("top", SOURCE, variants((100, 10)), call("A")),
        "A": Kernel("A", SOURCE, variants((50, 20), (80, 12))),
    }
    return Design(kernels=kernels, top="top")


# ---------------------------------------------------------------------------
# Areas


def test_area_to_tenths_accepts_one_decimal():
    assert area_to_tenths(12.5) == 125
    assert area_to_tenths(12) == 120
    assert area_to_tenths(0.1) == 1
    assert area_to_tenths(0) == 0


def test_area_to_tenths_rejects_second_decimal():
    with pytest.raises(ValueError):
        area_to_tenths(12.55)
    with pytest.raises(ValueError):
        area_to_tenths(0.01)


def test_tenths_round_trip():
    rng = random.Random(7)
    for _ in range(100):
        tenths = rng.randrange(0, 10_000)
        assert area_to_tenths(tenths_to_area(tenths)) == tenths


# ---------------------------------------------------------------------------
# Configurations


def test_configuration_from_mapping_sorts_items():
    config = Configuration.from_mapping({"b": 1, "a": 0, "c": 2})
    assert config.items == (("a", 0), ("b", 1), ("c", 2))
    assert config.as_dict() == {"a": 0, "b": 1, "c": 2}


def test_configuration_lookup_and_membership():
    config = Configuration.from_mapping({"a": 0, "b": 3})
    assert config["b"] == 3
    assert "a" in config and "z" not in config
    with pytest.raises(KeyError):
        config["z"]


def test_configuration_replace():
    config = Configuration.from_mapping({"a": 0, "b": 3})
    assert config.replace("b", 1) == Configuration.from_mapping({"a": 0, "b": 1})
    with pytest.raises(KeyError):
        config.replace("z", 0)


def test_configuration_order_is_lexicographic_on_index_vector():
    low = Configuration.from_mapping({"a": 0, "b": 5})
    high = Configuration.from_mapping({"a": 1, "b": 0})
    assert low < high
    assert sorted([high, low]) == [low, high]


# ---------------------------------------------------------------------------
# Tree helpers


def test_walk_calls_visits_every_call_site():
    body = seq(par(call("A"), call("B")), loop(3, call("A", 2)))
    kernels = [(c.kernel, c.multiplicity) for c in walk_calls(body)]
    assert kernels == [("A", 1), ("B", 1), ("A", 2)]


def test_direct_callees_deduplicates_and_sorts():
    body = seq(call("B"), par(call("A"), call("B")))
    kernel = Kernel("top", SOURCE, variants((10, 1)), body)
    assert direct_callees(kernel) == ("A", "B")
    assert direct_callees(Kernel("leaf", SOURCE, variants((10, 1)))) == ()


def test_topological_order_is_depth_first_from_sorted_roots():
    kernels = {
        "top": Kernel("top", SOURCE, variants((10, 1)), seq(call("B"), call("A"))),
        "A": Kernel("A", SOURCE, variants((10, 1)), call("C")),
        "B": Kernel("B", SOURCE, variants((10, 1)), call("C")),
        "C": Kernel("C", SOURCE, variants((10, 1))),
    }
    design = Design(kernels=kernels, top="top")
    assert topological_order(design) == ("C", "A", "B", "top")
    assert design.order is design.order  # computed once


def test_topological_order_names_the_kernel_that_closes_a_cycle():
    kernels = {
        "top": Kernel("top", SOURCE, variants((10, 1)), call("A")),
        "A": Kernel("A", SOURCE, variants((10, 1)), call("B")),
        "B": Kernel("B", SOURCE, variants((10, 1)), call("A")),
    }
    with pytest.raises(CyclicDesign) as excinfo:
        topological_order(Design(kernels=kernels, top="top"))
    assert excinfo.value.kernel == "A"


def test_node_summary_rendering():
    body = seq(par(call("A"), call("B")), call("C", 2))
    assert node_summary(body) == "seq(par(A, B), C x2)"
    assert node_summary(loop(4, body)) == "loop4(seq(par(A, B), C x2))"


# ---------------------------------------------------------------------------
# Validation


def test_validate_accepts_well_formed_design():
    assert validate(two_kernel_design()) == []


def test_validate_flags_unresolved_call():
    kernels = {"top": Kernel("top", SOURCE, variants((10, 1)), call("ghost"))}
    problems = validate(Design(kernels=kernels, top="top"))
    assert any(isinstance(p, UnresolvedCall) and p.kernel == "ghost" for p in problems)


def test_validate_flags_cycle():
    kernels = {
        "top": Kernel("top", SOURCE, variants((10, 1)), call("A")),
        "A": Kernel("A", SOURCE, variants((10, 1)), call("top")),
    }
    problems = validate(Design(kernels=kernels, top="top"))
    assert any(isinstance(p, CycleDetected) for p in problems)


def test_validate_reports_every_disjoint_cycle():
    kernels = {
        "top": Kernel("top", SOURCE, variants((10, 1)), seq(call("A"), call("C"))),
        "A": Kernel("A", SOURCE, variants((10, 1)), call("B")),
        "B": Kernel("B", SOURCE, variants((10, 1)), call("A")),
        "C": Kernel("C", SOURCE, variants((10, 1)), call("D")),
        "D": Kernel("D", SOURCE, variants((10, 1)), call("C")),
    }
    problems = validate(Design(kernels=kernels, top="top"))
    assert [p for p in problems if isinstance(p, CycleDetected)] == [
        CycleDetected("A"),
        CycleDetected("C"),
    ]


def test_validate_flags_empty_variants_only_when_required():
    kernels = {"top": Kernel("top", SOURCE, ())}
    design = Design(kernels=kernels, top="top")
    assert any(isinstance(p, EmptyVariants) for p in validate(design))
    assert validate(design, require_variants=False) == []


def test_validate_flags_unreachable_kernel():
    kernels = {
        "top": Kernel("top", SOURCE, variants((10, 1))),
        "orphan": Kernel("orphan", SOURCE, variants((10, 1))),
    }
    problems = validate(Design(kernels=kernels, top="top"))
    assert any(
        isinstance(p, UnreachableKernel) and p.kernel == "orphan" for p in problems
    )


def test_validate_flags_malformed_nodes():
    kernels = {
        "top": Kernel(
            "top",
            SOURCE,
            variants((10, 1)),
            seq(Par((call("top"),)), Loop(0, call("top")), Call("top", 0)),
        )
    }
    # The self-call also creates a cycle; only the malformed shapes matter here.
    problems = validate(Design(kernels=kernels, top="top"))
    reasons = [p.reason for p in problems if isinstance(p, MalformedNode)]
    assert any("par with 1 children" in r for r in reasons)
    assert any("trip_count 0" in r for r in reasons)
    assert any("multiplicity 0" in r for r in reasons)


def test_validate_flags_missing_top_and_bad_variants():
    bad_variants = (
        KernelVariant(index=0, area_tenths=10, latency=1),
        KernelVariant(index=0, area_tenths=20, latency=2),
    )
    kernels = {
        "A": Kernel("A", SOURCE, bad_variants),
        "B": Kernel("B", SOURCE, (KernelVariant(index=0, area_tenths=-1, latency=1),)),
    }
    problems = validate(Design(kernels=kernels, top="missing"))
    assert any(isinstance(p, MalformedNode) and p.path == "top" for p in problems)
    assert any(
        isinstance(p, BadVariant) and "duplicate" in p.reason for p in problems
    )
    assert any(
        isinstance(p, BadVariant) and "negative" in p.reason for p in problems
    )


def test_validate_result_is_insertion_order_independent():
    kernels = {
        "top": Kernel("top", SOURCE, (), call("ghost")),
        "A": Kernel("A", SOURCE, ()),
    }
    flipped = {kid: kernels[kid] for kid in reversed(list(kernels))}
    assert validate(Design(kernels, "top")) == validate(Design(flipped, "top"))


def test_random_designs_validate_clean():
    rng = random.Random(42)
    for _ in range(200):
        assert validate(random_design(rng)) == []


# ---------------------------------------------------------------------------
# Configuration checking and enumeration


def test_check_configuration_accepts_complete_choice():
    design = two_kernel_design()
    check_configuration(design, Configuration.from_mapping({"top": 0, "A": 1}))


def test_check_configuration_rejects_missing_extra_and_out_of_range():
    design = two_kernel_design()
    with pytest.raises(ValueError, match="missing"):
        check_configuration(design, Configuration.from_mapping({"top": 0}))
    with pytest.raises(ValueError, match="extra"):
        check_configuration(
            design, Configuration.from_mapping({"top": 0, "A": 0, "z": 0})
        )
    with pytest.raises(ValueError, match="out of range"):
        check_configuration(design, Configuration.from_mapping({"top": 0, "A": 2}))


def test_enumerate_configurations_is_lexicographic_and_complete():
    design = two_kernel_design()
    configs = list(enumerate_configurations(design))
    assert configuration_count(design) == 2
    assert configs == [
        Configuration.from_mapping({"A": 0, "top": 0}),
        Configuration.from_mapping({"A": 1, "top": 0}),
    ]
    assert configs == sorted(configs)


def test_enumerate_configurations_honors_cap():
    kernels = {
        "top": Kernel("top", SOURCE, variants(*[(10 * i, i) for i in range(1, 11)]))
    }
    design = Design(kernels=kernels, top="top")
    with pytest.raises(CapExceeded):
        list(enumerate_configurations(design, cap=9))


def test_enumeration_count_multiplies_per_kernel():
    rng = random.Random(11)
    design = random_design(rng, max_kernels=4, max_variants=4)
    expected = 1
    for kernel in design.kernels.values():
        expected *= len(kernel.variants)
    assert configuration_count(design) == expected
    assert len(list(enumerate_configurations(design))) == expected


# ---------------------------------------------------------------------------
# JSON serialization


def full_featured_design() -> Design:
    body = seq(par(call("A"), call("B", 2)), loop(3, call("A")))
    kernels = {
        "top": Kernel(
            "top",
            KernelSource(4, 2, 2, 305, 15),
            variants((100, 10), (120, 8)),
            body,
        ),
        "A": Kernel("A", KernelSource(8, 3, 2, 200, 10), variants((50, 20))),
        "B": Kernel("B", KernelSource(0, 5, 1, 90, 5), variants((60, 15))),
    }
    return Design(kernels=kernels, top="top")


def test_design_json_round_trip():
    design = full_featured_design()
    assert design_from_dict(design_to_dict(design)) == design
    assert loads_design(dumps_design(design)) == design


def test_design_dict_uses_unit_areas():
    data = design_to_dict(full_featured_design())
    top = next(k for k in data["kernels"] if k["id"] == "top")
    assert top["source"]["base_area"] == 30.5
    assert top["variants"][0]["area"] == 10.0


def test_parse_rejects_unknown_and_missing_fields():
    data = design_to_dict(full_featured_design())
    data["mystery"] = 1
    with pytest.raises(ParseError, match="unknown field"):
        design_from_dict(data)
    del data["mystery"]
    del data["top"]
    with pytest.raises(ParseError, match="missing field"):
        design_from_dict(data)


def test_parse_rejects_duplicate_kernel_ids():
    data = design_to_dict(full_featured_design())
    data["kernels"].append(dict(data["kernels"][0]))
    with pytest.raises(ParseError, match="duplicate kernel id"):
        design_from_dict(data)


def test_parse_rejects_sub_tenth_area():
    data = design_to_dict(full_featured_design())
    data["kernels"][0]["variants"][0]["area"] = 10.05
    with pytest.raises(ParseError, match="decimal"):
        design_from_dict(data)


def test_parse_rejects_bad_node_and_bad_types():
    data = design_to_dict(full_featured_design())
    data["kernels"][0]["body"] = {"seq": [], "par": []}
    with pytest.raises(ParseError, match="exactly one key"):
        design_from_dict(data)
    data["kernels"][0]["body"] = {"spin": {}}
    with pytest.raises(ParseError, match="unknown node kind"):
        design_from_dict(data)
    data["kernels"][0]["body"] = {"call": {"kernel": "A", "multiplicity": True}}
    with pytest.raises(ParseError, match="expected an integer"):
        design_from_dict(data)


@pytest.mark.parametrize("area", [float("inf"), 10**400], ids=["inf", "huge-int"])
def test_loads_design_rejects_a_non_finite_area(area):
    data = design_to_dict(full_featured_design())
    data["kernels"][0]["variants"][0]["area"] = area  # dumped as Infinity / 1000...0
    with pytest.raises(ParseError, match="not a finite number"):
        loads_design(json.dumps(data))


def test_loads_design_reports_invalid_json():
    with pytest.raises(ParseError, match="invalid JSON"):
        loads_design("{not json")


def test_loads_design_turns_deep_nesting_into_a_parse_error():
    data = design_to_dict(full_featured_design())
    data["kernels"][0]["body"] = "DEEP"
    callee = data["kernels"][1]["id"]
    deep = '{"seq": [' * 2000 + json.dumps({"call": {"kernel": callee}}) + "]}" * 2000
    with pytest.raises(ParseError, match="nested too deeply"):
        loads_design(json.dumps(data).replace('"DEEP"', deep))


def test_loads_design_bounds_the_body_depth():
    def nested(depth: int) -> str:
        """two_kernel_design with a body ``depth`` levels deep: ``par`` levels
        around the call to A, each also calling A."""
        data = design_to_dict(two_kernel_design())
        node = {"call": {"kernel": "A"}}
        for _ in range(depth - 1):
            node = {"par": [node, {"call": {"kernel": "A"}}]}
        data["kernels"][0]["body"] = node
        return json.dumps(data)

    design = loads_design(nested(MAX_BODY_DEPTH))
    assert validate(design) == []
    with pytest.raises(ParseError, match="nested deeper than 256 levels") as info:
        loads_design(nested(MAX_BODY_DEPTH + 1))
    assert info.value.where == "top/body" + "/0" * MAX_BODY_DEPTH


def test_random_design_json_round_trip():
    rng = random.Random(99)
    for _ in range(25):
        design = random_design(rng)
        assert loads_design(dumps_design(design)) == design


# ---------------------------------------------------------------------------
# with_variants


def test_with_variants_installs_options():
    skeleton = Design(
        kernels={"top": Kernel("top", SOURCE, ())},
        top="top",
    )
    options = {"top": variants((10, 5), (20, 3))}
    upgraded = skeleton.with_variants(options)
    assert upgraded.kernels["top"].variants == options["top"]
    # Untouched kernels keep their lists; the original is not mutated.
    assert skeleton.kernels["top"].variants == ()
