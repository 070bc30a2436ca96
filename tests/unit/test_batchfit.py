"""Unit tests for fit jobs, batch fitting on the pool engine, and the
persistent fit cache."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.api import EngineConfig, Session
from repro.core.batchfit import (
    CachedFit,
    FitCache,
    FitJob,
    default_cache_dir,
    fit_cache_key,
    make_job,
)
from repro.core.fit import FitConfig, FlexSfuFitter
from repro.core.pwl import PiecewiseLinear
from repro.errors import FitError
from repro.functions import SIGMOID, TANH

#: Deliberately tiny: these tests exercise wiring, not fit quality.
_TINY = FitConfig(n_breakpoints=4, max_steps=40, refine_steps=20,
                  max_refine_rounds=1, polish_maxiter=60, grid_points=256)


class TestJobsAndKeys:
    def test_make_job_resolves_default_interval(self):
        implicit = make_job(TANH, 4, config=_TINY)
        explicit = make_job(TANH, 4, interval=TANH.default_interval,
                            config=_TINY)
        assert implicit == explicit
        assert fit_cache_key(implicit) == fit_cache_key(explicit)

    def test_make_job_accepts_registry_names(self):
        assert make_job("tanh", 4, config=_TINY) == make_job(TANH, 4,
                                                             config=_TINY)

    def test_key_changes_with_any_config_field(self):
        base = make_job(TANH, 4, config=_TINY)
        for other in [
            make_job(TANH, 5, config=_TINY),
            make_job(SIGMOID, 4, config=_TINY),
            make_job(TANH, 4, interval=(-2.0, 2.0), config=_TINY),
            make_job(TANH, 4, config=replace(_TINY, lr=0.05)),
            make_job(TANH, 4, config=_TINY, boundary=("free", "free")),
        ]:
            assert fit_cache_key(other) != fit_cache_key(base)

    def test_key_is_stable_across_calls(self):
        job = make_job(TANH, 4, config=_TINY)
        assert fit_cache_key(job) == fit_cache_key(
            FitJob(function=job.function, config=replace(job.config)))

    def test_default_cache_dir_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == tmp_path / "fits"


class TestFitCache:
    def _entry(self):
        pwl = PiecewiseLinear.create(np.array([-1.0, 0.0, 1.0]),
                                     np.array([0.0, 0.5, 1.0]), 0.0, 0.0)
        return CachedFit(function="tanh", pwl=pwl, grid_mse=1e-4, rounds=2,
                         total_steps=100, init_used="uniform")

    def test_roundtrip_and_identity(self, tmp_path):
        cache = FitCache(tmp_path)
        assert cache.get("k") is None
        cache.put("k", self._entry())
        first = cache.get("k")
        assert first is cache.get("k")  # memory layer keeps identity
        assert np.array_equal(first.pwl.breakpoints, [-1.0, 0.0, 1.0])

    def test_survives_a_new_cache_instance(self, tmp_path):
        FitCache(tmp_path).put("k", self._entry())
        fresh = FitCache(tmp_path).get("k")
        assert fresh is not None
        assert fresh.grid_mse == 1e-4

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = FitCache(tmp_path)
        cache.put("k", self._entry())
        cache.path("k").write_text("{not json")
        assert FitCache(tmp_path).get("k") is None

    def test_wrong_schema_is_a_miss(self, tmp_path):
        cache = FitCache(tmp_path)
        cache.put("k", self._entry())
        doc = json.loads(cache.path("k").read_text())
        doc["schema"] = -1
        cache.path("k").write_text(json.dumps(doc))
        assert FitCache(tmp_path).get("k") is None

    def test_clear(self, tmp_path):
        cache = FitCache(tmp_path)
        cache.put("k", self._entry())
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.get("k") is None


class TestBatchFitter:
    """Batch fitting as the daemon runs it: one Session on the pool
    engine (cache pass, native shortcut, dedup, pooled misses)."""

    @staticmethod
    def _session(tmp_path, **engine):
        return Session(EngineConfig(engine="pool", **engine),
                       cache=FitCache(tmp_path))

    def test_results_byte_identical_to_sequential_fit_activation(self, tmp_path):
        # The sequential baseline is the scalar fitter on the job's own
        # config; the batch runs both jobs as one lane group.
        jobs = [make_job(TANH, 4, config=_TINY),
                make_job(SIGMOID, 4, config=_TINY)]
        with self._session(tmp_path, max_workers=2) as s:
            results = s.fit(jobs)
        assert {res.provenance["kernel"] for res in results} == {"lane"}
        for job, res in zip(jobs, results):
            seq = FlexSfuFitter(job.config).fit(
                TANH if job.function == "tanh" else SIGMOID)
            assert res.pwl.to_json() == seq.pwl.to_json()
            assert res.grid_mse == seq.grid_mse
            assert not res.from_cache

    def test_cache_hits_on_second_run(self, tmp_path):
        jobs = [make_job(TANH, 4, config=_TINY)]
        with self._session(tmp_path, max_workers=1) as s:
            assert not s.fit(jobs)[0].from_cache
            again = s.fit(jobs)[0]
        assert again.from_cache
        assert again.wall_time_s == 0.0

    def test_duplicate_jobs_fit_once(self, tmp_path):
        job = make_job(TANH, 4, config=_TINY)
        with self._session(tmp_path, max_workers=1) as s:
            a, b = s.fit([job, job])
        assert a.pwl is b.pwl  # deduplicated to one execution
        assert a.key == b.key

    def test_serial_and_pooled_agree(self, tmp_path):
        # Scalar units (no lane batching) so the two misses really fan
        # out over a 2-worker pool.
        jobs = [make_job(TANH, 4, config=_TINY),
                make_job(SIGMOID, 4, config=_TINY)]
        with self._session(tmp_path / "a", max_workers=2,
                           lane_batch=False) as s:
            pooled = s.fit(jobs)
        with Session(engine="inline", cache=FitCache(tmp_path / "b")) as s:
            serial = s.fit(jobs)
        for x, y in zip(pooled, serial):
            assert x.pwl.to_json() == y.pwl.to_json()
            assert x.grid_mse == y.grid_mse

    def test_rejects_bad_worker_count(self):
        with pytest.raises(FitError):
            EngineConfig(engine="pool", max_workers=0)

    def test_failed_job_does_not_discard_batchmates(self, tmp_path):
        # exp over (0, 800) overflows the loss grid and the fit raises;
        # the tanh batchmate must still land in the cache so a retry
        # serves it without refitting.
        good = make_job(TANH, 4, config=_TINY)
        bad = make_job("exp", 4, interval=(0.0, 800.0), config=_TINY)
        with self._session(tmp_path, max_workers=1) as s:
            with np.errstate(over="ignore"), \
                    pytest.raises(FitError, match="1 of 2 fit jobs failed"):
                s.fit([good, bad])
            [retry] = s.fit([good])
        assert retry.from_cache

    def test_native_functions_short_circuit(self, tmp_path):
        from repro.functions import RELU
        job = make_job(RELU, 8, config=_TINY)
        with self._session(tmp_path, max_workers=1) as s:
            [res] = s.fit([job])
            # Exactly-representable functions never burn an optimizer
            # run: the batch returns the 2-breakpoint native PWL, same
            # as pwl_for would for this key.
            assert res.engine == "native" and res.init_used == "native"
            assert res.total_steps == 0
            assert res.pwl.n_breakpoints == 2
            assert res.grid_mse < 1e-20
            [warm] = s.fit([job])
        assert warm.from_cache
        assert warm.pwl.to_json() == res.pwl.to_json()


class TestPoolWorkerInit:
    def test_workers_exit_when_their_parent_is_killed(self):
        # A process opens a pool the way PoolEngine does, then dies by
        # SIGKILL without shutting it down.  Its worker must not live on
        # as an orphan: the shared stdout pipe reaching EOF shows that
        # every process holding it has exited.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        code = (
            "import concurrent.futures, os, time\n"
            "from repro.core.batchfit import _pool_worker_init\n"
            "pool = concurrent.futures.ProcessPoolExecutor(\n"
            "    1, initializer=_pool_worker_init)\n"
            "print(pool.submit(os.getpid).result(), flush=True)\n"
            "time.sleep(120)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            assert int(proc.stdout.readline()) != proc.pid
        finally:
            proc.kill()
        out, _ = proc.communicate(timeout=20)  # EOF: the worker is gone
        assert out == ""
