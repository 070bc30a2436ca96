"""Integration: pool-engine batch fits + persistent cache across
process layers."""

import numpy as np
import pytest

import repro.graph.passes as passes
from repro.api import Session
from repro.core.batchfit import FitCache, make_job
from repro.functions import SIGMOID, TANH, registry as fn_registry
from repro.graph.passes import clear_fit_cache, pwl_for


class TestPrefitServesPasses:
    def test_batch_prefit_then_pure_cache_read(self, tmp_path, monkeypatch,
                                               fast_fit_config):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_fit_cache()
        job = make_job(TANH, 5, config=fast_fit_config)
        with Session(engine="pool") as s:
            [seeded] = s.fit([job])

        # After prefitting, pwl_for must not fit again: the fitter is
        # patched, so any cache-lookup regression trips this.
        def _no_refit(self, fn, **kwargs):  # pragma: no cover
            pytest.fail("pwl_for refitted a prefitted configuration")

        monkeypatch.setattr(passes.FlexSfuFitter, "fit", _no_refit)
        pwl = pwl_for(TANH, 5, config=fast_fit_config)
        assert pwl.to_json() == seeded.pwl.to_json()

    def test_cache_shared_across_mem_clears(self, tmp_path, monkeypatch,
                                            fast_fit_config):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_fit_cache()
        first = pwl_for(SIGMOID, 5, config=fast_fit_config)
        clear_fit_cache()  # drops the in-process layer, keeps the disk
        second = pwl_for(SIGMOID, 5, config=fast_fit_config)
        assert first is not second
        assert first.to_json() == second.to_json()

    def test_disk_clear_forces_refit(self, tmp_path, monkeypatch,
                                     fast_fit_config):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_fit_cache()
        pwl_for(TANH, 4, config=fast_fit_config)
        clear_fit_cache(disk=True)
        from repro.core.batchfit import default_cache
        assert len(default_cache()) == 0


@pytest.mark.slow
class TestRegistrySweep:
    """Fit-heavy sweep, gated behind --runslow to keep tier-1 fast."""

    def test_registry_batch_fit(self, tmp_path, fast_fit_config):
        names = sorted(fn_registry.available())
        jobs = [make_job(name, 8, config=fast_fit_config) for name in names]
        session = Session(engine="pool", cache=FitCache(tmp_path))
        results = session.fit(jobs)
        assert len(results) == len(names)
        assert all(np.isfinite(r.grid_mse) for r in results)
        # PWL-native functions (ReLU & co) short-circuit to their exact
        # representation, which may need fewer than the budgeted knots.
        assert all(r.pwl.n_breakpoints == 8 or r.init_used == "native"
                   for r in results)
        assert any(r.init_used == "native" for r in results)  # relu & co
        # Everything is now persisted and served back verbatim.
        warm = session.fit(jobs)
        assert all(r.from_cache for r in warm)
        for a, b in zip(results, warm):
            assert a.pwl.to_json() == b.pwl.to_json()
