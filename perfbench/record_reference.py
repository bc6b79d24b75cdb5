"""Record the default batch's answers into ``reference_default.json``.

    python3 perfbench/record_reference.py

Runs the default ``hlsdse run`` batch (8 builtins x oracle, ilp-first,
trial-error x 10 reps, master seed 0) and stores each run's semantic fields:
outcome, configuration, latency, area in tenths and met_target. The
batch-default workload compares every run against this file, so re-record
only when a change to hlsdse is meant to change these answers.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from hlsdse import bench, experiment  # noqa: E402

records = experiment.run_experiment(
    [bench.builtin(name) for name in bench.builtin_names()],
    workloads.policy_specs("batch-default"),
    repetitions=workloads.BATCH_REPS,
    master_seed=0,
)
found = workloads.answers(records)
lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(found.items()))
workloads.REFERENCE.write_text(
    '{"master_seed": 0, "answers": {\n' + lines + "\n}}\n", encoding="utf-8"
)
print(f"wrote {len(found)} answers to {workloads.REFERENCE}")
