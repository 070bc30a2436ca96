"""The fit daemon in-process: failure isolation and fit telemetry.

:class:`FitService` fits every claimed batch through one Session on the
``pool`` engine.  A job whose fit raises must fail alone, whether the
batch came from the queue (``run_once``) or over HTTP (the
``POST /v1/fit`` tests live in ``test_serving_http.py``), and every
executed fit must land in the cache's provenance log exactly once, even
when the client Session and the daemon share one cache directory.
"""

import socket
import threading
import time

import numpy as np

from repro.api import EngineConfig, Session
from repro.core.batchfit import FitCache, fit_cache_key, make_job
from repro.core.fit import FitConfig
from repro.service import submit
from repro.service.daemon import FitService, ServiceConfig
from repro.service.queue import DONE, FAILED

_TINY = FitConfig(n_breakpoints=4, max_steps=40, refine_steps=20,
                  max_refine_rounds=1, polish_maxiter=60, grid_points=256)

#: tanh fits; exp over (0, 800) overflows the loss grid and raises.
GOOD = make_job("tanh", 4, config=_TINY)
BAD = make_job("exp", 4, interval=(0.0, 800.0), config=_TINY)


def _service(tmp_path, cache_dir=None, **cfg):
    return FitService(ServiceConfig(root=tmp_path / "queue", **cfg),
                      cache=FitCache(cache_dir or tmp_path / "fits"))


class TestFailedFitFailsAlone:
    def test_run_once_publishes_the_batchmate_and_fails_the_bad_job(
            self, tmp_path):
        with _service(tmp_path) as svc:
            for job in (GOOD, BAD):
                submit(job, root=svc.queue.root)
            with np.errstate(over="ignore"):
                assert svc.run_once() == 2
            assert svc.failed == 1 and svc.processed == 1
            state, doc = svc.queue.result(fit_cache_key(GOOD))
            assert state == DONE and doc["entry"]["function"] == "tanh"
            state, doc = svc.queue.result(fit_cache_key(BAD))
            assert state == FAILED
            assert "fit jobs failed" in doc["error"]  # the FitError text
            assert "exp" in doc["error"]

            # The batch persisted tanh before it raised: resubmitted, it
            # is served from the cache.
            svc.queue.forget(fit_cache_key(GOOD))
            submit(GOOD, root=svc.queue.root)
            assert svc.run_once() == 1
            state, doc = svc.queue.result(fit_cache_key(GOOD))
            assert state == DONE and doc["from_cache"] is True
            assert svc.failed == 1 and svc.processed == 2


def _fit_through_daemon(fit_daemon, tmp_path, cache_dir, jobs,
                        daemon_cache=None, **engine):
    """A daemon serving the queue, and an auto client Session (no
    address: the remote engine's queue transport); one ``Session.fit``
    per job."""
    config = EngineConfig(service_root=tmp_path / "queue",
                          fallback="error", timeout_s=60.0, **engine)
    with fit_daemon(ServiceConfig(root=tmp_path / "queue",
                                  poll_interval_s=0.02),
                    cache=FitCache(daemon_cache or cache_dir)):
        with Session(config, cache=FitCache(cache_dir)) as session:
            return [art for job in jobs for art in session.fit([job])]


class TestEachFitLoggedOnce:
    JOBS = [make_job("tanh", 4, config=_TINY),
            make_job("sigmoid", 4, config=_TINY)]

    def test_shared_cache_directory_logs_each_fit_once(self, tmp_path,
                                                       fit_daemon):
        fits = tmp_path / "fits"
        arts = _fit_through_daemon(fit_daemon, tmp_path, fits, self.JOBS)
        assert [a.engine for a in arts] == ["remote", "remote"]
        logged = [rec["key"] for rec in FitCache(fits).iter_provenance()]
        assert sorted(logged) == sorted(a.key for a in arts)
        # The daemon wrote and logged them; the client wrote nothing.
        assert {rec["engine"] for rec in
                FitCache(fits).iter_provenance()} == {"pool"}

    def test_separate_cache_directories_each_log_the_fit(self, tmp_path,
                                                         fit_daemon):
        # A client whose daemon keeps another cache writes the entry
        # itself, so its own log records the fit too.
        arts = _fit_through_daemon(fit_daemon, tmp_path,
                                   tmp_path / "client-fits", self.JOBS,
                                   daemon_cache=tmp_path / "daemon-fits")
        keys = sorted(a.key for a in arts)
        for where, engine in (("daemon-fits", "pool"),
                              ("client-fits", "remote")):
            records = FitCache(tmp_path / where).iter_provenance()
            assert sorted(r["key"] for r in records) == keys
            assert {r["engine"] for r in records} == {engine}

    def test_guard_discarding_a_daemon_fit_does_not_log_it_again(
            self, tmp_path, fit_daemon):
        # A vanishing quality factor makes the client's guard refit every
        # warm artifact the daemon returns cold.  Where the cold refit
        # wins, the daemon's discarded fit was already logged by the
        # daemon: the log keeps one line per executed fit.
        jobs = [make_job(name, n, config=_TINY)
                for name in ("sigmoid", "silu") for n in (4, 5, 6)]
        fits = tmp_path / "fits"
        arts = _fit_through_daemon(fit_daemon, tmp_path, fits, jobs,
                                   warm_quality_factor=1e-30)
        verdicts = [a.provenance.get("warm_fallback", {}).get("kept")
                    for a in arts]
        assert "cold" in verdicts  # the path under test ran
        records = FitCache(fits).iter_provenance()
        # The daemon logged every fit it ran (one per job); the client
        # logged only the refits it ran itself, one per guard verdict.
        assert sum(r["engine"] == "pool" for r in records) == len(jobs)
        assert sum(r["engine"] != "pool" for r in records) == \
            sum(v is not None for v in verdicts)
        assert not any(r["engine"] == "remote" for r in records)


class TestLifecycle:
    def test_idle_exit_waits_out_a_fit_in_progress(self, tmp_path):
        # An HTTP fit holds fit_lock for as long as it runs; the queue
        # loop must not exit idle under it (and close the listener on a
        # request in flight).
        with _service(tmp_path, idle_timeout_s=0.2,
                      poll_interval_s=0.02) as svc:
            loop = threading.Thread(target=svc.serve_forever, daemon=True)
            with svc.fit_lock:
                loop.start()
                time.sleep(0.6)
                assert loop.is_alive()
            loop.join(timeout=10.0)
            assert not loop.is_alive()

    def test_close_without_serving_releases_the_listener(self, tmp_path):
        # Bound at construction, never started (a `drain()`-only or
        # failed start-up): close() must not wait on a server loop that
        # never ran, and must free the port.
        svc = _service(tmp_path, addr="127.0.0.1:0")
        host, port = svc.serve_addr.rsplit(":", 1)
        closer = threading.Thread(target=svc.close, daemon=True)
        closer.start()
        closer.join(timeout=10.0)
        assert not closer.is_alive(), "close() hung on an unstarted listener"
        with socket.socket() as sock:
            assert sock.connect_ex((host, int(port))) != 0
