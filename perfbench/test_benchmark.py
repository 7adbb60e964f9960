"""Checks of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest perfbench -q

Each traced run takes about ten seconds, so the module takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

# Work counts fixed by the job lists, whatever the seed.
EXPECTED = {
    "sample": {
        # sign_jl + osnap_block + the stream-demo's sign_jl matrix
        "constructions.columns_sampled": 3 * 10000,
        # one stream per column, the stream-demo's update stream, and two
        # streams per ose_failure trial (3 grid points x 300 trials)
        "rng.substream.calls": 3 * 10000 + 1 + 2 * 900,
        "rng.derive_seed.calls": 1 + 3 + 2 * 900,
    },
    "measure": {
        "measures.rip.supports": math.comb(60, 3) + 5000,
        "measures.coherence.gram_flops": 256 * 10000 * 9999,
    },
    "witness": {
        "witnesses.ttype_of.calls": 10000,
        "witnesses.pattern_at_scale.calls": 3 * 10000,
        "witnesses.searches": 5,
    },
}


def traced_layers(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    with open(ROOT / ".perfbench-out" / f"{workload}-seed{seed}-trace1.json") as fh:
        return json.load(fh)["layers"]


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_exact_counters_repeat_for_a_seed(workload):
    first, second = traced_layers(workload, 7), traced_layers(workload, 7)
    exact = {k for k in first if run.unit_of(k) not in ("s", "1/s")}
    assert set(run.EXACT_COUNTERS) <= exact
    assert {k: first[k] for k in exact} == {k: second.get(k) for k in exact}
    assert {k: first[k] for k in EXPECTED[workload]} == EXPECTED[workload]


def test_misnested_spans_are_counted():
    # (name, start, end, parent, job): the third span ends after its parent,
    # the fourth belongs to another job than its parent.
    spans = [(0, 0.0, 10.0, -1, 0), (1, 1.0, 4.0, 0, 0), (1, 5.0, 11.0, 0, 0), (1, 6.0, 7.0, 0, 1)]
    assert tracer.misnested(spans, 0, 4, tracer.self_times(spans, 0, 4)) == 2
    # Overlapping children outlast their parent: its self time is negative.
    spans = [(0, 0.0, 2.0, -1, 0), (1, 0.0, 1.5, 0, 0), (1, 0.5, 2.0, 0, 0)]
    assert tracer.misnested(spans, 0, 3, tracer.self_times(spans, 0, 3)) == 1


def test_metric_lists_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.workloads.SETUPS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sample", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
