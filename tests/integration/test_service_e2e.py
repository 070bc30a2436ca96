"""End-to-end fit service: one daemon, many client processes.

The acceptance scenario for the service subsystem: a real ``repro
serve`` daemon (separate interpreter), two concurrent client processes
submitting overlapping job sets with ``fallback="error"`` (so nothing
may fit locally), deduplicated execution in the daemon,
and a ``FunctionSpec``-only (unregistered) activation round-tripping
through the queue, the daemon, and the shared cache.
"""

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import EngineConfig, Session
from repro.core.batchfit import FitCache, fit_cache_key, make_job
from repro.core.fit import FitConfig
from repro.errors import ServiceError
from repro.functions import make_custom
from repro.service import JobQueue
from repro.service.queue import DONE

_TINY = FitConfig(n_breakpoints=4, max_steps=40, refine_steps=20,
                  max_refine_rounds=1, polish_maxiter=60, grid_points=256)

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _daemon_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    # A queue daemon: no address from the environment (``--once``
    # refuses to listen at all).
    env.pop("REPRO_SERVE_ADDR", None)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_daemon(root: Path, cache_dir: Path, *extra: str
                  ) -> subprocess.Popen:
    cmd = [sys.executable, "-m", "repro", "serve", "--dir", str(root),
           "--cache-dir", str(cache_dir / "fits"), "--poll", "0.05",
           "--workers", "2", "--idle-exit", "120", *extra]
    return subprocess.Popen(cmd, env=_daemon_env(cache_dir),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)


def _wait_for_heartbeat(root: Path, proc: subprocess.Popen,
                        timeout_s: float = 60.0) -> None:
    queue = JobQueue(root)
    deadline = time.monotonic() + timeout_s
    while not queue.daemon_alive(max_age_s=30.0):
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited early:\n{proc.stdout.read()}")
        if time.monotonic() > deadline:
            proc.terminate()
            raise RuntimeError("daemon never heartbeated")
        time.sleep(0.05)


def _fit(jobs, root, cache, **engine):
    """An auto Session on the shared queue (the daemon when one serves)."""
    config = EngineConfig(service_root=root, warm_quality_factor=None,
                          **engine)
    with Session(config, cache=cache) as session:
        return session.fit(jobs)


def _client(root, cache_dir, requests, conn):
    """Client-process body: fit through the daemon only, report back."""
    try:
        jobs = [make_job(name, n, config=_TINY) for name, n in requests]
        results = _fit(jobs, root, FitCache(cache_dir), fallback="error",
                       timeout_s=90.0)
        conn.send([(r.key, r.engine, float(r.grid_mse)) for r in results])
    except BaseException as exc:  # surface the failure to the test
        conn.send(ServiceError(f"client failed: {exc!r}"))
    finally:
        conn.close()


@pytest.fixture
def service_dirs(tmp_path):
    return tmp_path / "queue", tmp_path / "cachehome"


class TestDaemonEndToEnd:
    def test_two_clients_share_one_daemon(self, service_dirs):
        root, cache_home = service_dirs
        fits = cache_home / "fits"
        proc = _spawn_daemon(root, cache_home)
        try:
            _wait_for_heartbeat(root, proc)
            # Overlapping job sets: sigmoid@4 is requested by both
            # clients, tanh@4 / tanh@5 only by one each.
            plans = [
                [("tanh", 4), ("sigmoid", 4)],
                [("sigmoid", 4), ("tanh", 5)],
            ]
            ctx = multiprocessing.get_context("fork")
            pipes, procs = [], []
            for plan in plans:
                recv, send = ctx.Pipe(duplex=False)
                p = ctx.Process(target=_client,
                                args=(root, fits, plan, send))
                p.start()
                pipes.append(recv)
                procs.append(p)
            payloads = []
            for pipe in pipes:
                assert pipe.poll(120), "client sent no result in time"
                payloads.append(pipe.recv())
            for p in procs:
                p.join(timeout=60)
                assert p.exitcode == 0
            for payload in payloads:
                if isinstance(payload, Exception):
                    raise payload
                assert len(payload) == 2
                for _, source, mse in payload:
                    assert source in ("remote", "cache")
                    assert mse < 1e-2

            # Deduplication: 3 unique keys -> exactly 3 cache entries
            # and at most 3 jobs ever executed by the daemon.
            unique_keys = {key for payload in payloads
                           for key, _, _ in payload}
            assert len(unique_keys) == 3
            assert len(FitCache(fits)) == 3
            # Each executed fit is logged once, by the daemon that wrote
            # it: the clients share its cache and write nothing.
            assert len(FitCache(fits).iter_provenance()) == 3
            beat = JobQueue(root).heartbeat()
            assert beat is not None
            assert beat["failed"] == 0
            assert beat["processed"] <= 3
        finally:
            proc.terminate()
            out, _ = proc.communicate(timeout=30)
            # SIGTERM must take the daemon down *cleanly* — through
            # FitService.close(), so the pool workers die with it
            # instead of living on as orphans.
            assert "exiting after" in out, out

    def test_function_spec_roundtrips_through_daemon(self, service_dirs):
        root, cache_home = service_dirs
        fits = cache_home / "fits"
        # Deliberately unregistered: the daemon interpreter can only fit
        # this through the sampled FunctionSpec riding in the job.
        bump = make_custom(
            "e2e-bump",
            lambda x: np.tanh(x) + 0.1 * np.exp(-x * x),
            register_fn=False)
        job = make_job(bump, 5, config=_TINY)
        assert job.spec is not None
        proc = _spawn_daemon(root, cache_home)
        try:
            _wait_for_heartbeat(root, proc)
            cache = FitCache(fits)
            [res] = _fit([job], root, cache, fallback="error",
                         timeout_s=90.0)
            assert res.engine == "remote"
            # The fitted PWL approximates the *original* closure even
            # though only samples ever crossed the process boundary.
            xs = np.linspace(-6.0, 6.0, 501)
            err = np.sqrt(np.mean((res.pwl(xs) - bump(xs)) ** 2))
            assert err < 0.05
            # ...and the entry is durably in the shared cache.
            entry = FitCache(fits).get(fit_cache_key(job))
            assert entry is not None
            assert entry.spec_digest == job.spec.digest
        finally:
            proc.terminate()
            out, _ = proc.communicate(timeout=30)
            assert "exiting after" in out, out

    def test_serve_once_drains_pre_submitted_queue(self, service_dirs):
        root, cache_home = service_dirs
        from repro.service import submit
        jobs = [make_job("tanh", 4, config=_TINY),
                make_job("sigmoid", 4, config=_TINY)]
        for job in jobs:
            submit(job, root=root)
        proc = _spawn_daemon(root, cache_home, "--once")
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, out
        assert "exiting after 2 jobs" in out
        queue = JobQueue(root)
        for job in jobs:
            state, doc = queue.result(fit_cache_key(job))
            assert state == DONE
            assert doc["entry"]["function"] == job.function


class TestNoDaemonBehaviour:
    def test_fallback_local(self, tmp_path):
        jobs = [make_job("tanh", 4, config=_TINY)]
        [res] = _fit(jobs, tmp_path / "queue", FitCache(tmp_path / "fits"))
        assert res.engine not in ("remote", "cache")
        assert not res.from_cache
        [again] = _fit(jobs, tmp_path / "queue", FitCache(tmp_path / "fits"))
        assert again.engine == "cache"

    def test_fallback_error_raises(self, tmp_path):
        with pytest.raises(ServiceError, match="no fit daemon"):
            _fit([make_job("tanh", 4, config=_TINY)], tmp_path / "queue",
                 FitCache(tmp_path / "fits"), fallback="error")

    def test_stale_failure_marker_does_not_veto_resubmission(self, tmp_path):
        # A failed/ marker from an earlier broken-daemon episode must
        # not permanently poison the key: the next fit drops it
        # and enqueues a fresh attempt.
        root = tmp_path / "queue"
        job = make_job("tanh", 4, config=_TINY)
        key = fit_cache_key(job)
        queue = JobQueue(root)
        queue.submit(key, {"job": {"bogus": True}})
        queue.claim()
        queue.fail(key, "pool died")
        queue.write_heartbeat({"pid": 0})  # daemon "alive"
        try:
            _fit([job], root, FitCache(tmp_path / "fits"), fallback="error",
                 timeout_s=0.3, poll_s=0.05)
        except ServiceError as exc:
            # Nothing serves the fresh submission in this test, so the
            # wait times out — but with the *timeout* path, not with a
            # replay of the stale "pool died" failure.
            assert "pool died" not in str(exc)
        assert queue.result(key) is None  # old marker really gone
        assert queue.counts()["pending"] == 1  # fresh attempt enqueued
