"""The fit daemon in-process: failure isolation and fit telemetry.

:class:`FitService` fits every claimed batch through one Session on the
``pool`` engine.  A job whose fit raises must fail alone, whether the
batch came from the queue (``run_once``) or over HTTP (the
``POST /v1/fit`` tests live in ``test_serving_http.py``), and every
executed fit must land in the cache's provenance log exactly once, even
when the client Session and the daemon share one cache directory.
"""

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


def _serve_in_background(svc):
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30.0
    while not svc.queue.daemon_alive():  # first heartbeat written
        assert time.monotonic() < deadline, "daemon never heartbeated"
        time.sleep(0.01)
    return thread


def _fit_through_daemon(svc, cache_dir, jobs, **engine):
    """An auto client Session, which resolves to the daemon engine; one
    ``Session.fit`` per job."""
    config = EngineConfig(service_root=svc.queue.root, fallback="error",
                          timeout_s=60.0, **engine)
    thread = _serve_in_background(svc)
    try:
        with Session(config, cache=FitCache(cache_dir)) as session:
            return [art for job in jobs for art in session.fit([job])]
    finally:
        svc.stop()
        thread.join(timeout=30.0)


class TestEachFitLoggedOnce:
    JOBS = [make_job("tanh", 4, config=_TINY),
            make_job("sigmoid", 4, config=_TINY)]

    def test_shared_cache_directory_logs_each_fit_once(self, tmp_path):
        fits = tmp_path / "fits"
        with _service(tmp_path, poll_interval_s=0.02) as svc:
            arts = _fit_through_daemon(svc, fits, self.JOBS)
        assert [a.engine for a in arts] == ["daemon", "daemon"]
        logged = [rec["key"] for rec in FitCache(fits).iter_provenance()]
        assert sorted(logged) == sorted(a.key for a in arts)
        # The daemon wrote and logged them; the client wrote nothing.
        assert {rec["engine"] for rec in
                FitCache(fits).iter_provenance()} == {"pool"}

    def test_separate_cache_directories_each_log_the_fit(self, tmp_path):
        # A client whose daemon keeps another cache writes the entry
        # itself, so its own log records the fit too.
        with _service(tmp_path, cache_dir=tmp_path / "daemon-fits",
                      poll_interval_s=0.02) as svc:
            arts = _fit_through_daemon(svc, tmp_path / "client-fits",
                                       self.JOBS)
        keys = sorted(a.key for a in arts)
        for where, engine in (("daemon-fits", "pool"),
                              ("client-fits", "daemon")):
            records = FitCache(tmp_path / where).iter_provenance()
            assert sorted(r["key"] for r in records) == keys
            assert {r["engine"] for r in records} == {engine}

    def test_guard_discarding_a_daemon_fit_does_not_log_it_again(
            self, tmp_path):
        # A vanishing quality factor makes the client's guard refit every
        # warm artifact the daemon returns cold.  Where the cold refit
        # wins, the daemon's discarded fit was already logged by the
        # daemon: the log keeps one line per executed fit.
        jobs = [make_job(name, n, config=_TINY)
                for name in ("sigmoid", "silu") for n in (4, 5, 6)]
        fits = tmp_path / "fits"
        with _service(tmp_path, poll_interval_s=0.02) as svc:
            arts = _fit_through_daemon(svc, fits, jobs,
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
        assert not any(r["engine"] == "daemon" for r in records)

