"""Warm-started refits: near-miss cache lookup + seeded optimizer."""

import pytest

from repro.api import EngineConfig, Session
from repro.core.batchfit import FitCache, fit_cache_key, make_job
from repro.core.fit import FitConfig, FlexSfuFitter
from repro.errors import FitError
from repro.functions import SIGMOID, TANH
from repro.service.daemon import FitService, ServiceConfig

_TINY = FitConfig(n_breakpoints=6, max_steps=200, refine_steps=60,
                  max_refine_rounds=2, polish_maxiter=120, grid_points=512)


class TestFitterWarmStart:
    def test_warm_start_reported_and_quality_kept(self):
        cold = FlexSfuFitter(_TINY).fit(TANH)
        warm = FlexSfuFitter(_TINY).fit(TANH, warm_start=cold.pwl)
        assert cold.init_used in ("uniform", "curvature")
        assert warm.init_used == "warm"
        # Seeded from the cold optimum: quality must not regress much...
        assert warm.grid_mse <= cold.grid_mse * 2.0
        # ...and phase A converges in fewer optimizer steps.
        assert warm.total_steps < cold.total_steps

    def test_warm_start_adapts_across_budgets(self):
        cold = FlexSfuFitter(_TINY).fit(TANH)
        import dataclasses
        bigger = dataclasses.replace(_TINY, n_breakpoints=8)
        warm = FlexSfuFitter(bigger).fit(TANH, warm_start=cold.pwl)
        assert warm.init_used == "warm"
        assert warm.pwl.n_breakpoints == 8
        # A larger budget fits at least as well as the smaller seed.
        assert warm.grid_mse <= cold.grid_mse * 1.05


def _pool_session(cache, **engine):
    """The daemon's batch fitter: a pool-engine Session, no warm guard."""
    return Session(EngineConfig(engine="pool", max_workers=1,
                                warm_quality_factor=None, **engine),
                   cache=cache)


def _seed(cache, job):
    with _pool_session(cache) as s:
        s.fit([job])


def _nearest(cache, job, **kw):
    got = cache.nearest_with_key(job, **kw)
    return got[1] if got is not None else None


class TestNearestLookup:
    def test_adjacent_budget_is_found(self, tmp_path):
        cache = FitCache(tmp_path)
        _seed(cache, make_job(TANH, 6, config=_TINY))
        near_job = make_job(TANH, 7, config=_TINY)
        hit = _nearest(cache, near_job, exclude_key=fit_cache_key(near_job))
        assert hit is not None
        assert hit.function == "tanh"
        assert hit.pwl.n_breakpoints == 6

    def test_other_functions_never_match(self, tmp_path):
        cache = FitCache(tmp_path)
        _seed(cache, make_job(TANH, 6, config=_TINY))
        assert _nearest(cache, make_job(SIGMOID, 6, config=_TINY)) is None

    def test_distant_budgets_are_rejected(self, tmp_path):
        cache = FitCache(tmp_path)
        _seed(cache, make_job(TANH, 4, config=_TINY))
        # 4 -> 64 breakpoints is 4 doublings: far beyond max_distance.
        assert _nearest(cache, make_job(TANH, 64, config=_TINY)) is None

    def test_boundary_mismatch_is_rejected(self, tmp_path):
        cache = FitCache(tmp_path)
        _seed(cache, make_job(TANH, 6, config=_TINY))
        free = make_job(TANH, 7, config=_TINY, boundary=("free", "free"))
        assert _nearest(cache, free) is None


class TestBatchFitterIntegration:
    def test_second_budget_is_warm_started(self, tmp_path):
        with _pool_session(FitCache(tmp_path)) as s:
            [cold] = s.fit([make_job(TANH, 6, config=_TINY)])
            [warm] = s.fit([make_job(TANH, 7, config=_TINY)])
        assert cold.init_used in ("uniform", "curvature")
        assert warm.init_used == "warm"
        assert warm.total_steps < cold.total_steps

    def test_warm_start_can_be_disabled(self, tmp_path):
        with _pool_session(FitCache(tmp_path), warm_start=False) as s:
            s.fit([make_job(TANH, 6, config=_TINY)])
            [res] = s.fit([make_job(TANH, 7, config=_TINY)])
        assert res.init_used in ("uniform", "curvature")


class TestWorkerCountEnv:
    """The daemon's pool size: ServiceConfig.max_workers, then the env."""

    @staticmethod
    def _workers(tmp_path, n_jobs, max_workers=None):
        with FitService(ServiceConfig(root=tmp_path / "q",
                                      max_workers=max_workers),
                        cache=FitCache(tmp_path / "fits")) as svc:
            return svc.session.config.resolve_workers(n_jobs)

    def test_env_override_caps_workers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        assert self._workers(tmp_path, 8) == 2
        assert self._workers(tmp_path, 1) == 1

    def test_explicit_workers_beat_the_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        assert self._workers(tmp_path, 8, max_workers=3) == 3

    def test_invalid_env_is_loud(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "many")
        with pytest.raises(FitError):
            self._workers(tmp_path, 8)
        monkeypatch.setenv("REPRO_MAX_WORKERS", "0")
        with pytest.raises(FitError):
            self._workers(tmp_path, 8)
