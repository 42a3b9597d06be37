"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_bench.py

Each test starts ``run.py`` as a separate process, the way the benchmark is
meant to be run, with a run length so short that only the minimum of two
loop iterations is measured.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
COUNTS = ("nn.capture_bytes", "distributed.agg_bytes", "fisher.backward_calls",
          "training.steps_per_run")
# Values known from the workload definitions: 4000 training samples at
# batch 128 for 2 epochs (mlp) or 1024 at batch 64 for 1 epoch (cnn); the
# exact oracle makes one backward pass per sample and class (64 x 10);
# aggregation happens only with more than one worker.
KNOWN = {
    "mlp": {"training.steps_per_run": 62, "distributed.agg_bytes": 0},
    "mlp_k4": {"training.steps_per_run": 62},
    "cnn": {"training.steps_per_run": 16, "distributed.agg_bytes": 0},
    "verify": {"fisher.backward_calls": 640, "training.steps_per_run": 0},
}


def run(workload: str, trace: int, cwd: Path = BENCH.parent):
    done = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return done


def result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(KNOWN))
def test_computed_counts_repeat_exactly(workload):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    first, second = result(run(workload, 1)), result(run(workload, 1))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    for name, value in KNOWN[workload].items():
        assert first["metrics"][name]["value"] == value, name
    if workload == "mlp_k4":
        assert first["metrics"]["distributed.agg_bytes"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    out = result(run("mlp", 0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = run("mlp", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
