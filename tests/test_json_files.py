"""Design and benchmark files: one indented writer, checked against ``json``.

``dumps_design``, and ``bench.save`` through it, spells out the fixed shape
of a file instead of running ``json``'s pure-Python indent encoder. These
properties pin its bytes to ``json.dumps(..., indent=2, sort_keys=True)``
and check that the parser reads back what it wrote, over generated designs
whose ids need escaping.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hlsdse.bench import Benchmark, benchmark_to_dict, load, save
from hlsdse.design import (
    Call,
    Design,
    Kernel,
    KernelSource,
    KernelVariant,
    Loop,
    Par,
    PragmaConfig,
    Seq,
    design_to_dict,
    dumps_design,
    loads_design,
)

# Characters JSON escapes, or writes only as \u escapes under ensure_ascii.
AWKWARD = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80é漢 \U0001f600'
CHARACTERS = st.one_of(st.sampled_from(AWKWARD), st.characters())
TEXT = st.text(CHARACTERS, max_size=6)
IDS = st.text(CHARACTERS, min_size=1, max_size=6)
AREAS = st.integers(0, 10**15)  # tenths; a tenth past 10**15 is beyond a float's
COUNTS = st.integers(0, 10**6)
PRAGMAS = st.builds(PragmaConfig, st.integers(1, 64), st.none() | st.integers(1, 8))
SOURCES = st.builds(KernelSource, COUNTS, COUNTS, st.integers(1, 64), AREAS, AREAS)
VARIANT_POINTS = st.lists(st.tuples(AREAS, COUNTS, PRAGMAS), max_size=2)
FORMULAS = st.sampled_from(["", "7", "1 + 2*max(3, 4)"])


def bodies(callees: st.SearchStrategy[str], par_children: int = 0) -> st.SearchStrategy:
    """Bodies calling ``callees``, ``seq`` nodes from empty up, ``par`` nodes
    from ``par_children`` children up (``validate`` wants two)."""
    calls = st.builds(Call, callees, st.integers(1, 9))
    return st.recursive(
        calls,
        lambda nodes: st.one_of(
            st.lists(nodes, max_size=3).map(lambda c: Seq(tuple(c))),
            st.lists(nodes, min_size=par_children, max_size=3).map(lambda c: Par(tuple(c))),
            st.builds(Loop, st.integers(1, 9), nodes),
        ),
        max_leaves=6,
    )


def _kernel(draw, kid: str, body) -> Kernel:
    variants = tuple(
        KernelVariant(i, area, latency, pragma)
        for i, (area, latency, pragma) in enumerate(draw(VARIANT_POINTS))
    )
    return Kernel(kid, draw(SOURCES), variants, body)


@st.composite
def designs(draw) -> Design:
    """Any design the parser reads: none of ``validate``'s checks applies."""
    ids = draw(st.lists(IDS, max_size=3, unique=True))
    kernels = {
        kid: _kernel(draw, kid, draw(st.none() | bodies(st.sampled_from(ids)))) for kid in ids
    }
    return Design(kernels=kernels, top=draw(TEXT))


@st.composite
def benchmarks(draw) -> Benchmark:
    """A valid skeleton: a chain of kernels, each body ending in a call to the next."""
    ids = draw(st.lists(IDS, min_size=1, max_size=3, unique=True))
    kernels = {}
    for kid, callee in zip(ids, ids[1:] + [None]):
        body = None
        if callee is not None:
            body = Seq((draw(bodies(st.just(callee), par_children=2)), Call(callee)))
        kernels[kid] = _kernel(draw, kid, body)
    return Benchmark(draw(IDS), Design(kernels=kernels, top=ids[0]), draw(FORMULAS))


@settings(max_examples=60, deadline=None, database=None)
@given(designs())
def test_a_design_file_is_json_dumps_and_reads_back(design):
    text = dumps_design(design)
    assert text == json.dumps(design_to_dict(design), indent=2, sort_keys=True) + "\n"
    assert loads_design(text) == design


@settings(max_examples=30, deadline=None, database=None)
@given(benchmarks())
def test_a_benchmark_file_is_json_dumps_and_reads_back(benchmark):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "bench.json"
        save(benchmark, path)
        text = path.read_text()
        loaded = load(path)
    assert text == json.dumps(benchmark_to_dict(benchmark), indent=2, sort_keys=True) + "\n"
    assert loaded == benchmark
