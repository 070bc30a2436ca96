"""Unit tests for the ``repro.api`` front door (Session + engines)."""

import numpy as np
import pytest

from repro.api import (ENGINE_NAMES, EngineConfig, FitRequest, Session,
                       create_engine)
from repro.core.batchfit import FitCache, fit_cache_key
from repro.core.fit import FitConfig
from repro.errors import FitError
from repro.functions import SIGMOID, TANH
from repro.graph.executor import interpret
from repro.graph.opt import DEFAULT_PASSES

_TINY = FitConfig(n_breakpoints=4, max_steps=40, refine_steps=20,
                  max_refine_rounds=1, polish_maxiter=60, grid_points=256)


class TestSessionBasics:
    def test_fit_one_produces_canonical_artifact(self, tmp_path):
        with Session(engine="inline", cache=tmp_path) as s:
            art = s.fit_one(TANH, 4, config=_TINY)
        assert art.function == "tanh"
        assert art.engine == "inline"
        assert not art.from_cache
        assert art.key == fit_cache_key(
            FitRequest.create(TANH, 4, config=_TINY).job)
        assert np.isfinite(art.grid_mse)
        assert art.wall_time_s > 0

    def test_second_fit_is_a_cache_read_with_identity(self, tmp_path):
        with Session(engine="inline", cache=tmp_path) as s:
            first = s.fit_one(TANH, 4, config=_TINY)
            second = s.fit_one(TANH, 4, config=_TINY)
        assert second.from_cache and second.engine == "cache"
        assert second.provenance["source"] == "cache"
        assert second.pwl is first.pwl  # memory-layer identity

    def test_duplicate_requests_deduplicate(self, tmp_path):
        req = FitRequest.create(TANH, 4, config=_TINY)
        with Session(engine="lane", cache=tmp_path) as s:
            a, b = s.fit([req, req])
        assert a is b
        assert not a.from_cache  # one fit, shared by both slots

    def test_native_shortcut_skips_the_optimizer(self, tmp_path):
        with Session(engine="inline", cache=tmp_path) as s:
            art = s.fit_one("relu", 4, config=_TINY)
        assert art.engine == "native"
        assert art.total_steps == 0
        assert art.grid_mse == 0.0

    def test_use_cache_false_never_persists(self, tmp_path):
        cache = FitCache(tmp_path)
        with Session(engine="inline", cache=cache, use_cache=False) as s:
            a = s.fit_one(TANH, 4, config=_TINY)
            b = s.fit_one(TANH, 4, config=_TINY)
        assert len(cache) == 0
        assert not a.from_cache and not b.from_cache
        assert a.pwl.to_json() == b.pwl.to_json()  # deterministic refit

    def test_fit_accepts_legacy_jobs(self, tmp_path):
        job = FitRequest.create(TANH, 4, config=_TINY).job
        with Session(engine="inline", cache=tmp_path) as s:
            [art] = s.fit([job])
        assert art.function == "tanh"

    def test_capabilities_reports_policy(self, tmp_path):
        with Session(EngineConfig(engine="lane", warm_start=False),
                     cache=tmp_path) as s:
            caps = s.capabilities()
        assert caps["engine"] == "lane"
        assert caps["configured_engine"] == "lane"
        assert caps["warm_start"] is False
        assert caps["cache"] == str(tmp_path)

    def test_unknown_engine_rejected(self):
        with pytest.raises(FitError):
            EngineConfig(engine="quantum")
        with pytest.raises(FitError):
            create_engine("quantum")
        assert "auto" in ENGINE_NAMES

    def test_retired_engine_names_are_unknown(self):
        assert ENGINE_NAMES == ("auto", "inline", "lane", "pool", "remote")
        for name in ("daemon", "http"):
            with pytest.raises(FitError):
                EngineConfig(engine=name)


class TestCompile:
    """``Session.compile`` optimizes unless told ``passes=[]``."""

    def test_pass_settings_keep_interpret_bits(self, tmp_path,
                                               tiny_cnn_graph, rng):
        with Session(engine="inline", cache=tmp_path) as s:
            default = s.compile(tiny_cnn_graph)
            plain = s.compile(tiny_cnn_graph, passes=[])
            fused = s.compile(tiny_cnn_graph, passes=["fuse-kernels"])
        assert ([r.name for r in default.pass_reports]
                == list(DEFAULT_PASSES))
        assert len(default.nodes) < len(plain.nodes)
        assert plain.pass_reports == []
        assert [r.name for r in fused.pass_reports] == ["fuse-kernels"]
        feeds = {"x": rng.normal(size=(1, 3, 8, 8))}
        want = interpret(tiny_cnn_graph, feeds)
        for program in (default, plain, fused):
            got = program.run(feeds)
            for name in tiny_cnn_graph.outputs:
                assert np.array_equal(got[name], want[name])

    def test_optimize_flag_is_gone(self, tmp_path, tiny_cnn_graph):
        with Session(engine="inline", cache=tmp_path) as s:
            with pytest.raises(TypeError):
                s.compile(tiny_cnn_graph, optimize=True)

    def test_fused_pwl_kernels_are_counted(self, tmp_path, tiny_cnn_graph):
        with Session(engine="inline", cache=tmp_path) as s:
            default = s.compile(tiny_cnn_graph, n_breakpoints=4,
                                config=_TINY)
            plain = s.compile(tiny_cnn_graph, n_breakpoints=4,
                              config=_TINY, passes=[])
        # The default plan fuses the PWL into its producer's record.
        assert not any(cn.attrs.get("impl") == "pwl"
                       for cn in default.nodes)
        assert default.n_pwl_kernels == plain.n_pwl_kernels == 1


class TestEngineResolution:
    def test_explicit_engine_wins(self):
        assert Session(engine="pool").resolve_engine_name(8) == "pool"

    def test_auto_without_daemon_is_local(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_MAX_WORKERS", "1")
        assert Session().resolve_engine_name(4) == "lane"
        cfg = EngineConfig(lane_batch=False)
        assert Session(cfg).resolve_engine_name(4) == "inline"
        monkeypatch.setenv("REPRO_MAX_WORKERS", "4")
        assert Session().resolve_engine_name(4) == "pool"
        # A single request never pays pool overhead.
        assert Session().resolve_engine_name(1) == "lane"

    def test_auto_failover_chain_has_four_stages(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "4")
        assert Session()._failover_chain(4) == [
            "remote", "pool", "lane", "inline"]
        assert Session()._failover_chain(1) == ["remote", "lane", "inline"]
        assert Session(EngineConfig(fallback="error"))._failover_chain(4) \
            == ["remote"]

    def test_auto_fallback_error_without_daemon_raises(self, tmp_path,
                                                       monkeypatch):
        from repro.errors import ServiceError

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cfg = EngineConfig(fallback="error")
        with pytest.raises(ServiceError):
            Session(cfg).resolve_engine_name(2)
        # Misses are required before the policy can raise: cache hits
        # and natives still flow.
        with Session(cfg, cache=tmp_path / "fits") as s:
            art = s.fit_one("relu", 4, config=_TINY)
        assert art.engine == "native"


class TestWorkerResolution:
    """The satellite fix: one precedence rule for all three knobs."""

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "5")
        assert EngineConfig(max_workers=2).resolve_workers() == 2

    def test_env_beats_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "7")
        assert EngineConfig().resolve_workers() == 7

    def test_n_jobs_bounds_the_result(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "7")
        assert EngineConfig().resolve_workers(3) == 3
        assert EngineConfig(max_workers=4).resolve_workers(2) == 2

    def test_malformed_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "many")
        with pytest.raises(FitError):
            EngineConfig().resolve_workers()
        monkeypatch.setenv("REPRO_MAX_WORKERS", "0")
        with pytest.raises(FitError):
            EngineConfig().resolve_workers()

    def test_batchfitter_routes_through_the_same_rule(self, monkeypatch,
                                                       tmp_path):
        # The daemon's batch fitter is a pool-engine Session: its worker
        # count resolves through the same rule, ServiceConfig.max_workers
        # first.
        from repro.service.daemon import FitService, ServiceConfig

        monkeypatch.setenv("REPRO_MAX_WORKERS", "6")

        def pool_workers(max_workers):
            with FitService(ServiceConfig(root=tmp_path / "q",
                                          max_workers=max_workers),
                            cache=FitCache(tmp_path / "fits")) as svc:
                return svc.session.engine("pool").capabilities()["workers"]

        assert pool_workers(None) == 6
        assert pool_workers(3) == 3 == \
            EngineConfig(max_workers=3).resolve_workers(10)


class TestWarmGuard:
    def _seed_and_warm(self, tmp_path, factor):
        cache = FitCache(tmp_path / "fits")
        cfg = EngineConfig(engine="lane", warm_quality_factor=factor)
        with Session(cfg, cache=cache) as s:
            s.fit_one(TANH, 4, config=_TINY)          # the warm seed
            return s.fit_one(TANH, 5, config=_TINY)   # neighbouring budget

    def test_guard_triggers_and_keeps_the_better_fit(self, tmp_path):
        # A vanishing factor forces the guard on every warm fit.
        art = self._seed_and_warm(tmp_path, factor=1e-12)
        verdict = art.provenance["warm_fallback"]
        assert verdict["kept"] in ("warm", "cold")
        assert art.grid_mse == min(verdict["warm_mse"], verdict["cold_mse"])
        # The kept artifact is what the cache now serves.
        with Session(engine="lane", cache=tmp_path / "fits") as s:
            again = s.fit_one(TANH, 5, config=_TINY)
        assert again.from_cache
        assert again.grid_mse == art.grid_mse

    def test_guard_quiet_when_quality_is_fine(self, tmp_path):
        art = self._seed_and_warm(tmp_path, factor=1e12)
        assert art.init_used == "warm"
        assert "warm_fallback" not in art.provenance

    def test_warm_lineage_recorded(self, tmp_path):
        cache = FitCache(tmp_path / "fits")
        with Session(EngineConfig(engine="lane",
                                  warm_quality_factor=None),
                     cache=cache) as s:
            seed = s.fit_one(TANH, 4, config=_TINY)
            warm = s.fit_one(TANH, 5, config=_TINY)
        assert warm.init_used == "warm"
        assert warm.provenance["warm_key"] == seed.key

    def test_guard_disabled(self, tmp_path):
        art = self._seed_and_warm(tmp_path, factor=None)
        assert art.init_used == "warm"
        assert "warm_fallback" not in art.provenance


class TestDaemonUnavailable:
    """The remote engine's queue transport (no address configured)."""

    @pytest.fixture(autouse=True)
    def _no_address_in_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_ADDR", raising=False)

    def test_daemon_engine_refuses_a_dead_queue_without_enqueueing(
            self, tmp_path):
        from repro.api import RemoteEngine
        from repro.errors import ServiceError

        engine = RemoteEngine(EngineConfig(service_root=tmp_path / "q"))
        with pytest.raises(ServiceError):
            engine.fit([FitRequest.create(TANH, 4, config=_TINY)])
        # No orphan jobs for the next daemon to replay.
        assert not (tmp_path / "q" / "pending").exists() or \
            not list((tmp_path / "q" / "pending").glob("*.json"))

    def test_local_fallback_serves_cache_before_refitting(self, tmp_path,
                                                          monkeypatch):
        """A daemon that persists part of a batch before dying must not
        cost the client a local refit of the persisted part."""
        from repro.api import engines as engines_mod
        from repro.errors import ServiceError

        cache_dir = tmp_path / "fits"
        with Session(engine="lane", cache=tmp_path / "side") as side:
            seeded = side.fit_one(TANH, 4, config=_TINY)

        cache = FitCache(cache_dir)

        def die_after_partial_persist(self, requests, warm=None):
            # Simulate: daemon fits the first job, writes it to the
            # shared cache, then the heartbeat goes stale mid-wait.
            cache.put(requests[0].key, seeded.to_entry())
            raise ServiceError("daemon died mid-wait")

        monkeypatch.setattr(engines_mod.RemoteEngine, "fit",
                            die_after_partial_persist)
        cfg = EngineConfig(engine="remote", service_root=tmp_path / "q",
                           warm_start=False)
        with Session(cfg, cache=cache) as s:
            arts = s.fit([FitRequest.create(TANH, 4, config=_TINY),
                          FitRequest.create(SIGMOID, 4, config=_TINY)])
        assert arts[0].from_cache and arts[0].engine == "cache"
        assert arts[0].grid_mse == seeded.grid_mse
        assert not arts[1].from_cache
        assert arts[1].provenance["source"] == "local-fallback"


def _daemon_fit(tmp_path, job):
    """Fit one job the way ``repro serve`` does (FitService.fit_jobs)."""
    from repro.service.daemon import FitService, ServiceConfig

    with FitService(ServiceConfig(root=tmp_path / "queue", max_workers=1),
                    cache=FitCache(tmp_path / "fits")) as svc:
        [res] = svc.fit_jobs([job])
    return res


class TestCacheInterop:
    """Session-written caches serve the daemon's fitter and vice versa."""

    def test_daemon_side_reads_session_writes(self, tmp_path):
        with Session(engine="inline", cache=tmp_path / "fits") as s:
            art = s.fit_one(SIGMOID, 4, config=_TINY)
        res = _daemon_fit(tmp_path,
                          FitRequest.create(SIGMOID, 4, config=_TINY).job)
        assert res.from_cache
        assert res.pwl.to_json() == art.pwl.to_json()
        assert res.grid_mse == art.grid_mse

    def test_session_reads_daemon_side_writes(self, tmp_path):
        res = _daemon_fit(tmp_path,
                          FitRequest.create(SIGMOID, 4, config=_TINY).job)
        assert res.engine == "pool" and not res.from_cache
        with Session(engine="inline", cache=tmp_path / "fits") as s:
            art = s.fit_one(SIGMOID, 4, config=_TINY)
        assert art.from_cache and art.engine == "cache"
        assert art.pwl.to_json() == res.pwl.to_json()

    def test_schema_version_is_checked_on_read(self, tmp_path):
        import json

        cache = FitCache(tmp_path)
        with Session(engine="inline", cache=cache) as s:
            art = s.fit_one(SIGMOID, 4, config=_TINY)
        path = cache.path(art.key)
        doc = json.loads(path.read_text())
        assert doc["schema"] == 2  # CACHE_SCHEMA_VERSION recorded
        doc["schema"] = 99
        path.write_text(json.dumps(doc))
        fresh = FitCache(tmp_path)
        assert fresh.get(art.key) is None  # wrong schema == miss
