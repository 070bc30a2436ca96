"""Smoke test of the benchmark: a short run of every workload.

Each workload runs once untraced and once traced (one second of
measuring; fit-sweep still makes whole passes).  The untraced run must
print every end-to-end metric of ``BENCHMARK.json`` with its unit and
fail nothing; the traced run must print every per-layer metric, with
the layers the workload exercises non-zero.  Marked ``slow`` (several
minutes):

    PYTHONPATH=src python -m pytest perfbench/tests --runslow -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

pytestmark = pytest.mark.slow

#: Layers each workload must exercise (non-zero in its traced run).
EXERCISED = {
    "fit-sweep": [
        "core.fit.polish_ms", "core.fit.polish_calls",
        "core.fit.polish_share_8", "core.fit.polish_share_16",
        "core.loss.scalar_evals", "core.lanefit.adam_ms",
        "core.lanefit.adam_steps", "core.fit.refine_rounds",
        "core.loss.removal_scan_ms", "core.loss.grid_build_ms",
        "core.batchfit.cache_get_ms", "core.batchfit.cache_put_ms",
        "core.batchfit.cache_nearest_ms", "core.batchfit.cache_misses",
        "api.session.self_ms", "api.engine.self_ms",
        "api.session.warm_fits"],
    "zoo-batch": [
        "api.session.rewrite_ms", "core.batchfit.cache_get_ms",
        "core.batchfit.cache_hits", "analysis.verify_ms",
        "graph.opt.fold-constants_ms", "graph.opt.eliminate-dead-nodes_ms",
        "graph.opt.fuse-kernels_ms", "graph.opt.schedule-regions_ms",
        "graph.program.compile_self_ms", "graph.program.records",
        "graph.exec.fused_ms", "graph.exec.macs",
        "graph.exec.bytes_computed"]
    + [m["name"] for m in SPEC["per_layer"]
       if m["name"].startswith("graph.program.run_ms.")],
    "serve-vit": [
        "core.batchfit.cache_get_ms", "analysis.verify_ms",
        "graph.program.compile_self_ms", "graph.program.records",
        "serving.client.encode_ms", "serving.client.decode_ms",
        "serving.client.json_ms", "serving.client.roundtrip_ms",
        "serving.server.decode_ms", "serving.server.encode_ms",
        "serving.server.json_ms", "serving.infer.queue_wait_ms",
        "serving.infer.wait_ms", "serving.infer.batch_size",
        "serving.infer.occupancy", "serving.infer.run_many_ms",
        "serving.http.server_self_ms"],
}


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    assert any(line.startswith("machine ") for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    metrics = _run(workload, 0)
    assert {k: v["unit"] for k, v in metrics.items()} == \
        _declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_breaks_down_every_layer(workload):
    metrics = _run(workload, 1)
    assert {k: v["unit"] for k, v in metrics.items()} == \
        _declared("per_layer")
    silent = [name for name in EXERCISED[workload]
              if not metrics[name]["value"] > 0]
    assert not silent, f"{workload} traced no time/work in {silent}"
