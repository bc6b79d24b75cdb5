"""Command-line behavior: listing, exporting, running, solving, scoring."""

from __future__ import annotations

import json
import sys
import textwrap

import pytest

from hlsdse import bench, cli
from hlsdse.agent import ExternalPolicy
from hlsdse.bench import benchmark_to_dict, builtin, builtin_names
from hlsdse.cli import main
from hlsdse.design import MAX_BODY_DEPTH
from hlsdse.errors import ParseError


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_bench_list_prints_one_line_per_builtin(capsys):
    assert main(["bench", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert [line.split()[0] for line in lines] == list(builtin_names())
    assert lines[0].startswith("SYN1      kernels=3 calls=")
    assert all("latency=" in line for line in lines)


def test_bench_export_writes_loadable_files(tmp_path, capsys):
    out = tmp_path / "exported"
    assert main(["bench", "export", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert all(line.startswith("wrote ") for line in lines)
    files = sorted(p.name for p in out.iterdir())
    assert files == sorted(f"{name}.json" for name in builtin_names())

    # An exported file is accepted wherever a builtin name is.
    assert main(["solve", "--benchmark", str(out / "SYN1.json")]) == 0
    assert "match: yes" in capsys.readouterr().out


def test_run_writes_reports_and_summarizes(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(
        [
            "run",
            "--benchmark",
            "SYN1",
            "--policy",
            "oracle",
            "--policy",
            "ilp-first",
            "--reps",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out.splitlines()
    assert any(line.startswith("SYN1 oracle: success 2/2") for line in captured)
    assert any(
        line.startswith("SYN1 ilp-first[correct]: success 2/2") for line in captured
    )
    assert captured[-1].endswith("plus 4 transcript files")
    assert (out / "summary.csv").exists()
    assert (out / "runs.jsonl").exists()
    assert len(list((out / "transcripts").iterdir())) == 4


def test_run_defaults_cover_all_builtins_and_policies(tmp_path, capsys):
    out = tmp_path / "full"
    assert main(["run", "--reps", "1", "--out", str(out)]) == 0
    lines = (out / "runs.jsonl").read_text().splitlines()
    assert len(lines) == 8 * 3
    policies = {json.loads(line)["policy"] for line in lines}
    assert policies == {"oracle", "ilp-first[correct]", "trial-error"}
    capsys.readouterr()


def test_run_rejects_bad_flags(tmp_path, capsys):
    out = str(tmp_path / "x")
    cases = [
        ["run", "--policy", "psychic", "--out", out],
        ["run", "--benchmark", "SYN99", "--out", out],
        ["run", "--area-target-frac", "0", "--out", out],
        ["run", "--area-target-frac", "1.5", "--out", out],
        ["run", "--reps", "0", "--out", out],
        ["run", "--fault-rate", "2", "--out", out],
        ["run", "--max-actions", "0", "--out", out],
        ["run", "--policy", "external:", "--out", out],
        ["run", "--objective", "lagrangian", "--alpha", "-1", "--out", out],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")


def nested_syn1(path, depth: int):
    """SYN1 with a top body ``depth`` levels deep: ``par`` levels around the
    call to B, each also calling A (a ``par`` recurses the most per level)."""
    data = benchmark_to_dict(builtin("SYN1"))
    node = {"call": {"kernel": "B"}}
    for _ in range(depth - 1):
        node = {"par": [node, {"call": {"kernel": "A"}}]}
    data["kernels"][0]["body"] = node
    path.write_text(json.dumps(data))
    return path


def test_a_body_at_the_depth_bound_runs_and_solves(tmp_path, capsys):
    deep = nested_syn1(tmp_path / "deep.json", MAX_BODY_DEPTH)
    out = tmp_path / "reports"
    assert main(["run", "--benchmark", str(deep), "--reps", "1", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(": success 1/1," in line for line in lines[:3])
    assert main(["solve", "--benchmark", str(deep)]) == 0
    assert "match: yes" in capsys.readouterr().out


def test_a_body_past_the_depth_bound_is_a_parse_error(tmp_path, capsys):
    deep = nested_syn1(tmp_path / "deep.json", MAX_BODY_DEPTH + 1)
    with pytest.raises(ParseError, match="nested deeper than"):
        bench.load(deep)
    assert main(["run", "--benchmark", str(deep), "--reps", "1", "--out", str(tmp_path)]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_run_drives_an_external_policy(tmp_path, capsys, monkeypatch):
    started: list[ExternalPolicy] = []

    def recorded(command):
        started.append(ExternalPolicy(command))
        return started[-1]

    monkeypatch.setattr(cli, "ExternalPolicy", recorded)
    child = tmp_path / "child.py"
    child.write_text(
        textwrap.dedent(
            """
            import json
            import sys

            task = json.loads(sys.stdin.readline())
            kernels = [k["id"] for k in task["design_summary"]["kernels"]]
            choice = {kid: 0 for kid in kernels}
            line = json.dumps({"type": "action", "action": {"select": {"choice": choice}}})
            sys.stdout.write(line + "\\n")
            sys.stdout.flush()
            sys.stdin.readline()
            """
        )
    )
    out = tmp_path / "ext"
    code = main(
        [
            "run",
            "--benchmark",
            "SYN1",
            "--policy",
            f"external:{sys.executable} {child}",
            "--reps",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    children = [p._proc for p in started if p._proc is not None]  # one made for its id only
    assert [c.returncode is not None for c in children] == [True]  # reaped
    record = json.loads((out / "runs.jsonl").read_text().splitlines()[0])
    assert record["policy"].startswith("external[")
    assert "success" in record["outcome"]
    capsys.readouterr()


def test_solve_agrees_with_the_oracle_on_a_feasible_benchmark(capsys):
    assert main(["solve", "--benchmark", "SYN1"]) == 0
    out = capsys.readouterr().out
    assert "benchmark: SYN1" in out
    assert "area target: 463.5" in out
    assert "ilp predicted:" in out
    assert "ilp evaluated:" in out
    assert "oracle best:" in out
    assert "match: yes" in out


def test_solve_reports_infeasibility(capsys):
    assert main(["solve", "--benchmark", "SYN2"]) == 0
    out = capsys.readouterr().out
    assert "ilp: infeasible" in out
    assert "oracle: no feasible configuration" in out
    assert "oracle min-area:" in out
    assert "match:" not in out


def test_solve_lagrangian_mode_always_answers(capsys):
    assert main(["solve", "--benchmark", "SYN2", "--objective", "lagrangian"]) == 0
    out = capsys.readouterr().out
    assert "ilp: " in out
    assert "ilp: infeasible" not in out
    assert "oracle: no feasible configuration" in out


def test_solve_rejects_unknown_benchmarks(capsys):
    assert main(["solve", "--benchmark", "SYN99"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_score_command_prints_csv(tmp_path, capsys):
    out = tmp_path / "batch"
    assert (
        main(
            [
                "run",
                "--benchmark",
                "SYN1",
                "--policy",
                "oracle",
                "--reps",
                "2",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["score", "--runs", str(out / "runs.jsonl")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "benchmark,policy,runs,runs_meeting_target,scenario1_points,scenario2_points"
    )
    assert lines[1].startswith("SYN1,oracle,2,")


def test_score_rejects_a_missing_file(tmp_path, capsys):
    assert main(["score", "--runs", str(tmp_path / "nope.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_score_rejects_a_corrupt_file(tmp_path, capsys):
    path = tmp_path / "runs.jsonl"
    path.write_text("definitely not json\n")
    assert main(["score", "--runs", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert ":1" in err