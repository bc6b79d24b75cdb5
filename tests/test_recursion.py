"""Composition bodies of any depth: every layer walks them on its own stack.

``design.fold_body`` is the one traversal of a body. The first test drives a
10 000-level in-memory body through every layer; the guard below keeps new
self-recursive functions out of the package, listing the few that recurse
over something other than body depth.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from hlsdse.agent import IlpFirstPolicy, OraclePolicy, TrialAndErrorPolicy, run
from hlsdse.design import (
    Call,
    Design,
    Kernel,
    KernelSource,
    KernelVariant,
    Loop,
    Par,
    Seq,
    design_to_dict,
    dumps_design,
    node_summary,
    validate,
    walk_calls,
)
from hlsdse.errors import ParseError
from hlsdse.ilp import ConstrainedArea, Lagrangian, build_model, solve
from hlsdse.latency import LatencyModelKind, brute_force_optimum, evaluate

SRC = Path(__file__).resolve().parent.parent / "src" / "hlsdse"
DEPTH = 10_000
SOURCE = KernelSource(0, 1, 1, 0, 0)


def _design(body) -> Design:
    def kernel(kid, points, body=None):
        variants = tuple(KernelVariant(i, a, l) for i, (a, l) in enumerate(points))
        return Kernel(kid, SOURCE, variants, body)

    kernels = {
        "top": kernel("top", [(10, 5), (20, 3)], body),
        "A": kernel("A", [(10, 50), (30, 20)]),
        "B": kernel("B", [(10, 40), (30, 30)]),
    }
    return Design(kernels=kernels, top="top")


def _body(padded: bool):
    """``DEPTH`` levels around a call to A: every 100th level a ``Par`` with a
    call to B, the others ``Loop(1, .)`` and one-child ``Seq`` in turn. Not
    ``padded``, only the ``Par`` levels: the same latency under every model."""
    body = Call("A")
    for level in range(DEPTH - 1):
        if level % 100 == 0:
            body = Par((body, Call("B")))
        elif padded:
            body = Loop(1, body) if level % 2 else Seq((body,))
    return body


def test_a_deep_body_runs_through_every_layer():
    body = _body(padded=True)
    deep, flat = _design(body), _design(_body(padded=False))

    assert validate(deep) == []
    assert deep.order == flat.order
    config = brute_force_optimum(flat, 50).best_feasible[0]
    assert evaluate(deep, config) == evaluate(flat, config)
    assert brute_force_optimum(deep, 50) == brute_force_optimum(flat, 50)
    for kind in LatencyModelKind:
        for objective in (ConstrainedArea(50), Lagrangian(50)):
            mine = solve(build_model(deep, objective, kind))
            theirs = solve(build_model(flat, objective, kind))
            assert (mine.configuration, mine.objective) == (theirs.configuration, theirs.objective)
    summary = node_summary(body)
    assert summary.startswith("seq(loop1(seq(") and summary.count("par(") == DEPTH // 100
    assert len(walk_calls(body)) == 1 + DEPTH // 100
    assert "seq" in design_to_dict(deep)["kernels"][0]["body"]
    for policy in (OraclePolicy, TrialAndErrorPolicy, IlpFirstPolicy):
        assert run(policy(), deep, 50)[0] == run(policy(), flat, 50)[0], policy


def test_dumping_a_body_too_deep_for_the_encoder_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        dumps_design(_design(_body(padded=True)))
    assert dumps_design(_design(_body(padded=False))).startswith("{")


# Self-recursive functions allowed in the package, by qualified name.
ALLOWED = {
    ("design.py", "_node_from_dict"): "walks JSON; MAX_BODY_DEPTH bounds it",
    ("front.py", "_search"): "recurses once per shared kernel, not per body level",
    ("ilp.py", "_lagrangian_search.visit"): "recurses once per kernel, not per body level",
}


def _self_recursive(path: Path) -> set[tuple[str, str]]:
    """(file, qualified name) of every function that calls itself by bare name."""
    found = set()

    def scan(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == child.name
                    for n in ast.walk(child)
                ):
                    found.add((path.name, name))
                scan(child, name + ".")
            else:
                scan(child, prefix)

    scan(ast.parse(path.read_text()), "")
    return found


def test_no_function_recurses_over_a_body():
    found = set().union(*(_self_recursive(p) for p in sorted(SRC.glob("*.py"))))
    assert ("design.py", "_node_from_dict") in found  # the scan sees recursion
    assert found - set(ALLOWED) == set(), "recurse with design.fold_body instead"
