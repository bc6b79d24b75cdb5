"""Byte-identity of the reports and solve outputs, pinned as SHA-256 digests.

Every case runs in-process. A ``run:`` case digests every file an
``hlsdse run`` batch writes into its ``--out`` directory; a ``solve:`` case
digests the stdout of ``hlsdse solve`` on each builtin under one latency
model and objective; ``export:builtins`` digests the benchmark files that
``hlsdse bench export --out`` writes for the builtins. The digests live in ``golden.json`` next to this file.

A change that moves any of these bytes on purpose re-records the digests with

    PYTHONPATH=src python tests/test_golden.py --record

and names, in CHANGES.md, each case that moved and why. Re-record only for
an intended change of output; a refactor or a speed-up must pass unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Callable

import pytest

from hlsdse import cli
from hlsdse.agent import ExternalPolicy, OraclePolicy
from hlsdse.bench import builtin, builtin_names
from hlsdse.experiment import PolicySpec, report, run_experiment, score
from hlsdse.latency import LatencyModelKind

GOLDEN = Path(__file__).resolve().with_name("golden.json")
CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child_policy.py"

RUN_FLAGS = {
    "run:default": [],
    "run:fault-0.4": ["--fault-rate", "0.4"],
    "run:lagrangian-1": ["--objective", "lagrangian", "--alpha", "1"],
    "run:lagrangian-0.5": ["--objective", "lagrangian", "--alpha", "0.5"],
    **{
        f"run:{kind.value}": ["--latency-model", kind.value]
        for kind in LatencyModelKind
        if kind is not LatencyModelKind.CORRECT
    },
}
SOLVE_FLAGS = {
    f"solve:{kind.value}:{objective}": [
        "--latency-model", kind.value, "--objective", objective
    ]
    for kind in LatencyModelKind
    for objective in ("constrained", "lagrangian")
}


def _digest_dir(out: Path) -> str:
    """One digest over every file's relative path and bytes, paths sorted."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _in_scratch(write: Callable[[Path], None]) -> str:
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out"
        write(out)
        return _digest_dir(out)


def _cli(argv: list[str]) -> str:
    """Run the command line in-process; its stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    assert code == 0, f"hlsdse {' '.join(argv)} exited {code}"
    return stdout.getvalue()


def _run_digest(flags: list[str]) -> str:
    return _in_scratch(lambda out: _cli(["run", "--out", str(out), *flags]))


def _external_digest() -> str:
    # The id is pinned: the CLI's would name the interpreter's file. The child
    # needs only the standard library, so -S skips the site import.
    command = [sys.executable, "-S", str(CHILD)]
    external = PolicySpec("external", lambda: ExternalPolicy(command))
    benchmarks = [builtin(name) for name in builtin_names()]

    def write(out: Path) -> None:
        records = run_experiment(
            benchmarks, [external, PolicySpec("oracle", OraclePolicy)], repetitions=2
        )
        report(records, score(records), out)

    return _in_scratch(write)


def _solve_digest(flags: list[str]) -> str:
    digest = hashlib.sha256()
    for name in builtin_names():
        digest.update(_cli(["solve", "--benchmark", name, *flags]).encode())
    return digest.hexdigest()


def compute(case: str) -> str:
    if case == "run:external":
        return _external_digest()
    if case == "export:builtins":
        return _in_scratch(lambda out: _cli(["bench", "export", "--out", str(out)]))
    if case in RUN_FLAGS:
        return _run_digest(RUN_FLAGS[case])
    return _solve_digest(SOLVE_FLAGS[case])


CASES = [*RUN_FLAGS, "run:external", *SOLVE_FLAGS, "export:builtins"]


def test_every_case_has_a_recorded_digest():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_output_bytes_match_the_recorded_digest(case):
    assert compute(case) == json.loads(GOLDEN.read_text())[case], (
        f"{case} moved; if on purpose, re-record (see this module's docstring)"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    GOLDEN.write_text(json.dumps({case: compute(case) for case in CASES}, indent=2) + "\n")
    print(f"recorded {len(CASES)} digests in {GOLDEN}")
