"""Built-in benchmark suite: fixed composition skeletons with cost sources.

Six synthetic shapes (SYN1..SYN6) cover the series/parallel/loop/multiplicity
space at small scale, plus two application-shaped sequences (AES_LIKE,
NW_LIKE). Each benchmark stores a symbolic correct-latency formula over the
per-kernel variant latencies (``f_<kernel>``); the formula is documentation
and a test oracle, and must match ``eval_latency`` on the benchmark's own
composition tree exactly.

Constants are chosen so that every kernel's variant front has at least three
points, and so that SYN2 and SYN4 have *no* configuration that fits an area
target of 90% of the greedy baseline (their kernels' area spread is under
10%), while every other benchmark's target is attainable.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Collection, Mapping

from .design import (
    Call,
    Design,
    Kernel,
    KernelSource,
    KernelVariant,
    PragmaConfig,
    area_to_tenths,
    call,
    design_from_dict,
    design_to_dict,
    loop,
    par,
    seq,
    validate,
    walk_calls,
)
from .errors import ParseError, UnknownBenchmark, ValidationError

LOOP_TRIP_COUNT = 4  # iteration count for the looped shapes (SYN5, SYN6)


@dataclass(frozen=True)
class Benchmark:
    name: str
    skeleton: Design
    latency_formula: str

    @cached_property
    def formula(self) -> tuple:
        """``latency_formula`` checked and compiled once (``parse_formula``)."""
        return parse_formula(self.latency_formula, self.skeleton.kernels)


def _src(trip: int, body_latency: int, ops: int, base_area: float, op_area: float) -> KernelSource:
    return KernelSource(
        trip_count=trip,
        body_latency=body_latency,
        op_count=ops,
        base_area_tenths=area_to_tenths(base_area),
        op_area_tenths=area_to_tenths(op_area),
    )


def _bench(name: str, top_body, formula: str, kernels: Mapping[str, KernelSource]) -> Benchmark:
    built = {
        kid: Kernel(id=kid, source=source, variants=(), body=top_body if kid == "top" else None)
        for kid, source in kernels.items()
    }
    return Benchmark(
        name=name,
        skeleton=Design(kernels=built, top="top"),
        latency_formula=formula,
    )


def _builtins() -> dict[str, Benchmark]:
    syn3_kernels = {
        "top": _src(4, 2, 2, 24, 3),
        "A": _src(16, 2, 3, 18, 4),
        "B": _src(8, 5, 2, 22, 6),
        "C": _src(4, 3, 5, 15, 2),
    }
    syn3_body = par(seq(call("A"), call("C")), seq(call("B"), call("A")))
    syn4_body = seq(par(call("A"), call("B")), call("C", 2))

    table = [
        _bench(
            "SYN1",
            seq(call("A"), call("B")),
            "f_top + f_A + f_B",
            {
                "top": _src(4, 2, 2, 30, 3),
                "A": _src(16, 3, 4, 20, 5),
                "B": _src(8, 4, 3, 25, 4),
            },
        ),
        # SYN2: parallel pair, area spread < 10% so the derived target is
        # unattainable by any configuration.
        _bench(
            "SYN2",
            par(call("A"), call("B")),
            "f_top + max(f_A, f_B)",
            {
                "top": _src(4, 3, 2, 200, 1),
                "A": _src(8, 4, 2, 240, 1),
                "B": _src(4, 6, 3, 220, 1),
            },
        ),
        _bench("SYN3", syn3_body, "f_top + max(f_A + f_C, f_B + f_A)", syn3_kernels),
        # SYN4: parallel pair then a doubled sequential call; same deliberate
        # sub-10% area spread as SYN2.
        _bench(
            "SYN4",
            syn4_body,
            "f_top + max(f_A, f_B) + 2*f_C",
            {
                "top": _src(4, 2, 3, 150, 1),
                "A": _src(8, 3, 2, 180, 1),
                "B": _src(4, 5, 2, 160, 1),
                "C": _src(8, 2, 3, 250, 1),
            },
        ),
        _bench(
            "SYN5",
            loop(LOOP_TRIP_COUNT, syn3_body),
            f"f_top + {LOOP_TRIP_COUNT}*max(f_A + f_C, f_B + f_A)",
            syn3_kernels,
        ),
        _bench(
            "SYN6",
            loop(LOOP_TRIP_COUNT, syn4_body),
            f"f_top + {LOOP_TRIP_COUNT}*(max(f_A, f_B) + 2*f_C)",
            {
                "top": _src(4, 2, 2, 26, 3),
                "A": _src(16, 3, 2, 20, 4),
                "B": _src(8, 4, 3, 24, 3),
                "C": _src(8, 2, 2, 16, 5),
            },
        ),
        _bench(
            "AES_LIKE",
            seq(call("AK"), call("SB"), call("SR"), call("MC")),
            "f_top + f_AK + f_SB + f_SR + f_MC",
            {
                "top": _src(4, 2, 2, 40, 4),
                "AK": _src(16, 1, 4, 10, 3),
                "SB": _src(16, 4, 3, 30, 2),
                "SR": _src(8, 2, 2, 18, 3),
                "MC": _src(16, 3, 5, 25, 2),
            },
        ),
        _bench(
            "NW_LIKE",
            seq(call("FM"), call("TB"), call("RS")),
            "f_top + f_FM + f_TB + f_RS",
            {
                "top": _src(4, 3, 2, 35, 3),
                "FM": _src(32, 2, 4, 20, 3),
                "TB": _src(8, 6, 2, 28, 4),
                "RS": _src(4, 2, 3, 12, 2),
            },
        ),
    ]
    return {b.name: b for b in table}


_BUILTINS = _builtins()


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def builtin(name: str) -> Benchmark:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise UnknownBenchmark(name, builtin_names()) from None


def kernel_count(design: Design) -> int:
    return len(design.kernels)


def call_count(design: Design) -> int:
    """Static call count: the top-level invocation plus every call site,
    weighted by multiplicity (loop trip counts do not add call sites)."""
    total = 1
    for kernel in design.kernels.values():
        if kernel.body is not None:
            total += sum(c.multiplicity for c in walk_calls(kernel.body))
    return total


def parse_formula(text: str, kernels: Collection[str]) -> tuple:
    """A latency formula as a postfix program; ``()`` for an empty formula.

    Accepts ``f_<kernel>`` names of the given kernels, integer literals, ``+``,
    ``*`` and ``max(...)``, and raises ParseError on anything else. Operators
    become ``(function, operand count)``; no step recurses.
    """
    if not text.strip():
        return ()
    try:
        stack = [ast.parse(text, mode="eval").body]
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ParseError(f"latency formula: {exc}") from None
    program: list = []
    while stack:  # pre-order, right child first: reversed, a post-order
        node = stack.pop()
        if isinstance(node, ast.Constant) and type(node.value) is int:
            program.append(node.value)
        elif isinstance(node, ast.Name) and node.id.startswith("f_") and node.id[2:] in kernels:
            program.append(node.id[2:])
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mult)):
            program.append((sum if isinstance(node.op, ast.Add) else math.prod, 2))
            stack += [node.left, node.right]
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "max"
              and node.args and not node.keywords):
            program.append((max, len(node.args)))
            stack += node.args
        else:
            part = ast.get_source_segment(text, node) or type(node).__name__
            raise ParseError(f"latency formula: {part[:60]!r} is not allowed")
    return tuple(reversed(program))


def formula_latency(benchmark: Benchmark, self_latencies: Mapping[str, int]) -> int:
    """Run the stored symbolic formula with per-kernel variant latencies."""
    if not benchmark.formula:
        raise ValueError(f"benchmark {benchmark.name!r} has no latency formula")
    values: list[int] = []
    for op in benchmark.formula:
        if isinstance(op, tuple):
            values[-op[1]:] = [op[0](values[-op[1]:])]
        else:
            values.append(op if isinstance(op, int) else self_latencies[op])
    return values[0]


def gap_fixture() -> tuple[Design, int]:
    """Parallel design plus area target where a sum-based latency model
    provably picks a slower configuration than the correct model.

    Budget admits speeding up either branch but not both; the sum model
    prefers the branch with the larger latency *drop* (A), while the true
    system latency is governed by the slower branch (B). Returns the design
    and the area target in tenths.
    """

    def variants(points: list[tuple[float, int]]) -> tuple[KernelVariant, ...]:
        return tuple(
            KernelVariant(index=i, area_tenths=area_to_tenths(a), latency=l, pragma=PragmaConfig())
            for i, (a, l) in enumerate(points)
        )

    source = _src(0, 1, 1, 0, 1)
    kernels = {
        "top": Kernel("top", source, variants([(10, 5)]), par(call("A"), call("B"))),
        "A": Kernel("A", source, variants([(50, 30), (60, 10)])),
        "B": Kernel("B", source, variants([(50, 35), (90, 28)])),
    }
    return Design(kernels=kernels, top="top"), area_to_tenths(150)


# --------------------------------------------------------------------------
# Benchmark files: the design schema plus "name" and "latency_formula".
# --------------------------------------------------------------------------

def benchmark_to_dict(benchmark: Benchmark) -> dict[str, Any]:
    data = design_to_dict(benchmark.skeleton)
    data["name"] = benchmark.name
    data["latency_formula"] = benchmark.latency_formula
    return data


def benchmark_from_dict(data: Any) -> Benchmark:
    if not isinstance(data, dict):
        raise ParseError(f"benchmark must be an object, got {type(data).__name__}")
    extra = {k: data[k] for k in ("name", "latency_formula") if k in data}
    name = extra.get("name")
    if not isinstance(name, str) or not name:
        raise ParseError("benchmark requires a non-empty string 'name'")
    formula = extra.get("latency_formula", "")
    if not isinstance(formula, str):
        raise ParseError("latency_formula must be a string")
    rest = {k: v for k, v in data.items() if k not in ("name", "latency_formula")}
    design = design_from_dict(rest, where=name)
    violations = validate(design, require_variants=False)
    if violations:
        raise ValidationError(violations)
    benchmark = Benchmark(name=name, skeleton=design, latency_formula=formula)
    benchmark.formula  # raises ParseError now on a formula outside the whitelist
    return benchmark


def load(path: str | Path) -> Benchmark:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer past the digit limit
        raise ParseError(f"invalid JSON: {exc}", where=str(path)) from None
    except RecursionError:  # the decoder's; the node parser stops at MAX_BODY_DEPTH
        raise ParseError("benchmark nested too deeply", where=str(path)) from None
    try:
        return benchmark_from_dict(data)
    except ParseError as exc:
        raise ParseError(str(exc), where=str(path)) from None


def save(benchmark: Benchmark, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(benchmark_to_dict(benchmark), indent=2, sort_keys=True) + "\n"
    )
