"""SIGKILL a real daemon mid-batch; the system heals end to end.

The satellite acceptance scenario: a ``repro serve`` subprocess claims
a job whose worker is stalled by an injected fault (``REPRO_FAULTS``
reaches the daemon *and* its spawned pool workers through the
environment), then dies by SIGKILL — no cleanup, no heartbeat
retirement, exactly like an OOM kill.  Afterwards:

* the heartbeat goes stale within the liveness bound (never refreshed
  again);
* the orphaned claim is returned to ``pending`` by ``requeue_stale``
  with its attempt count preserved;
* an ``auto`` Session fails over to a local engine, records the dead
  daemon in ``provenance["degraded_from"]``, and produces a correct
  artifact;
* no result marker is ever double-published for the job.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.api import EngineConfig, FitRequest, Session
from repro.core.batchfit import fit_cache_key, job_to_dict, make_job
from repro.core.fit import FitConfig
from repro.faults import FaultPlan, FaultRule
from repro.service import JobQueue
from repro.service.queue import CLAIMED, DONE, PENDING

_TINY = FitConfig(n_breakpoints=4, max_steps=40, refine_steps=20,
                  max_refine_rounds=1, polish_maxiter=60, grid_points=256)

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _spawn_stalled_daemon(root: Path, cache_dir: Path, plan_path: Path
                          ) -> subprocess.Popen:
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_FAULTS"] = str(plan_path)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "repro", "serve", "--dir", str(root),
           "--cache-dir", str(cache_dir / "fits"), "--poll", "0.05",
           "--workers", "1", "--idle-exit", "120"]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)


def _wait_for(predicate, proc, what, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited early:\n{proc.stdout.read()}")
        if time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError(f"timed out waiting for {what}")
        time.sleep(0.05)


@pytest.mark.slow
def test_sigkill_mid_batch_requeue_and_local_failover(tmp_path):
    root = tmp_path / "queue"
    cache_dir = tmp_path / "cache"
    # The injected stall freezes the first fit inside the pool worker,
    # pinning the claim while we murder the daemon.
    plan = FaultPlan(rules=(
        FaultRule(site="fit.worker", kind="stall", stall_s=30.0,
                  at=(0,)),), name="sigkill-mid-batch")
    plan_path = tmp_path / "faults.json"
    plan_path.write_text(plan.to_json())

    job = make_job("tanh", 4, config=_TINY)
    key = fit_cache_key(job)
    queue = JobQueue(root)

    proc = _spawn_stalled_daemon(root, cache_dir, plan_path)
    try:
        _wait_for(lambda: queue.daemon_alive(max_age_s=30.0), proc,
                  "heartbeat")
        queue.submit(key, {"job": job_to_dict(job)})
        claim_path = root / CLAIMED / f"{key}.json"
        _wait_for(claim_path.exists, proc, "claim")
        # Mid-batch now: the worker is inside the injected stall.
        proc.kill()                              # SIGKILL: no cleanup
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - failure path
            proc.kill()

    # 1. The heartbeat is never refreshed again: it goes stale within
    #    the refresher's own cadence bound (2s beat + slack).
    beat_mtime = queue.heartbeat_path.stat().st_mtime
    time.sleep(2.5)
    assert queue.heartbeat_path.stat().st_mtime == beat_mtime
    assert not queue.daemon_alive(max_age_s=2.0)
    assert queue.heartbeat() is not None         # stale, not absent

    # 2. The orphaned claim requeues with its attempt count preserved.
    doc = json.loads(claim_path.read_text())
    assert doc["attempts"] == 1
    fresh = JobQueue(root)                       # a new daemon's view
    assert fresh.requeue_stale(max_age_s=1.0) == 1
    pending_doc = json.loads((root / PENDING / f"{key}.json").read_text())
    assert pending_doc["attempts"] == 1          # survives the requeue
    assert pending_doc["job"] == job_to_dict(job)

    # 3. An auto Session sees the stale heartbeat, degrades to a local
    #    engine, and still produces the fit.
    beat = queue.heartbeat_path
    old = time.time() - 60.0
    os.utime(beat, (old, old))                   # age past the default bound
    cfg = EngineConfig(service_root=root)
    with Session(cfg, cache=cache_dir / "fits") as s:
        art = s.fit_one(FitRequest.from_job(job))
    assert not art.from_cache
    assert art.provenance["degraded_from"] == ["remote"]
    assert art.grid_mse < 1.0

    # 4. Nothing was ever double-published for the key.
    done_dir = root / DONE
    done = list(done_dir.glob("*.json")) if done_dir.is_dir() else []
    assert done == []
    # The job itself is not lost: still exactly one queue record.
    states = [st for st in (PENDING, CLAIMED)
              if (root / st / f"{key}.json").exists()]
    assert states == [PENDING]
