"""Checks of the benchmark itself.

    python3 -m pytest benchmark/test_bench.py

Each traced run's exact op counts must repeat for the same seed and change
for another seed (which proves the seed reaches the input generator); the
last output line must carry exactly the metrics BENCHMARK.json names; and
without the package beside it the benchmark must fail without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )
    return out


def last_line(out) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def traced(workload: str, seed: int) -> tuple[dict, str]:
    """Exact counts of a traced run, and the digest of its inputs."""
    line = last_line(bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                           "--trace", "1"))
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
    counts = {k: v["value"] for k, v in line["metrics"].items() if v["unit"] == "count"}
    return counts, record["inputs_sha256"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_repeat_for_a_seed_and_follow_the_seed(workload):
    counts, inputs = traced(workload, 1)
    assert counts["trace.spans"] > 0
    assert traced(workload, 1) == (counts, inputs)
    other_counts, other_inputs = traced(workload, 2)
    assert other_inputs != inputs
    # interp_large has one fixed shape, and generic points all take the
    # same path through the solver, so only its inputs tell the seeds apart
    if workload != "interp_large":
        assert other_counts != counts


def test_end_to_end_line_names_every_metric():
    line = last_line(bench("--workload", "interp_small", "--seconds", "0"))
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    metrics = line["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in metrics.values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", "decode", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
