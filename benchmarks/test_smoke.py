"""Smoke tests of the benchmark at tiny sizes.

Run from the root of a checkout with
``python -m pytest benchmarks/test_smoke.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def bench(workload, seed, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    result = result_of(bench(workload, 1, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert np.isfinite(emitted["value"])
    assert result["correct"]
    assert result["attempted"] > 0 and result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_keeps_error_rate_zero(workload):
    result = result_of(bench(workload, 2, 0))
    assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 1, 0, cwd=tmp_path,
                 script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_target_that_never_fires_reads_zero():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import tracing
        import wextrap
    finally:
        del sys.path[:2]
    targets = tracing.TARGETS + (("qr", "no_such_function", "qr.gone"),)
    original = wextrap.extrapolate.orthogonalize_column
    tracer = tracing.Tracer(targets)
    tracer.install()
    try:
        assert wextrap.extrapolate.orthogonalize_column is not original
        x = np.random.default_rng(0).standard_normal((5, 4))
        with tracer.job("run") as root:
            wextrap.run(x, wextrap.WeightOperator.identity(4))
    finally:
        tracer.uninstall()
    assert wextrap.extrapolate.orthogonalize_column is original
    stats = tracing.layer_stats(tracer, root, len(tracer.start))
    assert stats["qr.gone.calls"] == 0
    assert stats["qr.orthogonalize_column.calls"] > 0
    assert stats["spans.self_s"] <= stats["job.s"]
