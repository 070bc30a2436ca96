"""RemoteEngine: the client of the ``repro serve`` daemon, on both
transports.

An in-process daemon (the ``fit_daemon`` helper: a :class:`FitService`
serving on a thread, with an HTTP listener beside its queue loop)
serves the module; each test picks the transport through configuration
alone — an address selects HTTP, no address selects the file queue.
Dead-address and dead-queue scenarios cover the failover contract.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.api import (ENGINE_REMOTE, EngineConfig, FitRequest,
                       RemoteEngine, Session)
from repro.core.batchfit import FitCache
from repro.core.fit import FitConfig
from repro.serving.client import ServingClient
from repro.serving.protocol import ENV_SERVE_ADDR
from repro.service.daemon import FitService, ServiceConfig
from repro.service.queue import JobQueue

_TINY = FitConfig(n_breakpoints=4, max_steps=40, refine_steps=20,
                  max_refine_rounds=1, polish_maxiter=60, grid_points=256)

#: Nothing listens here.
_DEAD = "127.0.0.1:1"


@pytest.fixture(autouse=True)
def _no_address_in_env(monkeypatch):
    monkeypatch.delenv(ENV_SERVE_ADDR, raising=False)


@pytest.fixture(scope="module")
def server(tmp_path_factory, fit_daemon):
    root = tmp_path_factory.mktemp("remote-engine")
    with fit_daemon(ServiceConfig(root=root / "queue", warm_start=False,
                                  max_workers=2, poll_interval_s=0.02,
                                  addr="127.0.0.1:0"),
                    cache=FitCache(root / "cache")) as svc:
        yield svc


class TestConfiguration:
    def test_no_address_selects_the_queue(self, server):
        engine = RemoteEngine(EngineConfig(service_root=server.queue.root))
        caps = engine.capabilities()
        assert caps["transport"] == "queue"
        assert caps["target"] == str(server.queue.root)
        assert caps["status"] == "alive"

    def test_env_var_configures_the_address(self, monkeypatch, server):
        monkeypatch.setenv(ENV_SERVE_ADDR, server.serve_addr)
        engine = RemoteEngine(EngineConfig(engine="remote"))
        caps = engine.capabilities()
        assert caps["transport"] == "http"
        assert caps["target"] == server.serve_addr
        assert engine.status() == "alive"
        engine.close()

    def test_explicit_addr_beats_env(self, monkeypatch, server):
        monkeypatch.setenv(ENV_SERVE_ADDR, "other-host:9")
        engine = RemoteEngine(EngineConfig(engine="remote",
                                           http_addr=server.serve_addr))
        assert engine.target() == server.serve_addr
        engine.close()

    def test_queue_status_absent_then_down(self, tmp_path):
        engine = RemoteEngine(EngineConfig(service_root=tmp_path / "q"))
        assert engine.status() == "absent"  # never heartbeated
        queue = JobQueue(tmp_path / "q")
        queue.write_heartbeat({"pid": 0})
        assert engine.status() == "alive"
        old = time.time() - 60.0
        os.utime(queue.heartbeat_path, (old, old))
        assert engine.status() == "down"  # a daemon that died


class TestFitThroughServer:
    @pytest.mark.parametrize("transport", ["http", "queue"])
    def test_artifacts_carry_remote_provenance(self, server, transport):
        addr = server.serve_addr if transport == "http" else None
        engine = RemoteEngine(EngineConfig(http_addr=addr,
                                           service_root=server.queue.root,
                                           warm_start=False))
        reqs = [FitRequest.create("tanh", 4, config=_TINY),
                FitRequest.create("sigmoid", 4, config=_TINY)]
        arts = engine.fit(reqs)
        assert all(a is not None for a in arts)
        for req, art in zip(reqs, arts):
            assert art.engine == ENGINE_REMOTE
            assert art.key == req.key
            assert art.provenance["source"] == "remote"
            assert art.provenance["transport"] == transport
            assert art.provenance.get("addr") == addr
        assert engine.last_errors == {}
        engine.close()

    def test_session_fit_bitwise_matches_inline(self, server, tmp_path):
        reqs = [FitRequest.create("silu", 4, config=_TINY)]
        with Session(EngineConfig(engine="remote",
                                  http_addr=server.serve_addr,
                                  warm_start=False),
                     cache=FitCache(tmp_path / "remote")) as s:
            [via_remote] = s.fit(reqs)
        with Session(EngineConfig(engine="inline", warm_start=False),
                     cache=FitCache(tmp_path / "inline")) as s:
            [via_inline] = s.fit(reqs)
        assert via_remote.engine == ENGINE_REMOTE
        assert via_remote.key == via_inline.key
        assert via_remote.grid_mse == via_inline.grid_mse
        assert np.array_equal(via_remote.pwl.breakpoints,
                              via_inline.pwl.breakpoints)
        assert np.array_equal(via_remote.pwl.values, via_inline.pwl.values)


class TestOneDaemonBothTransports:
    def test_queue_and_http_jobs_in_one_process(self, tmp_path):
        before = set(threading.enumerate())
        svc = FitService(ServiceConfig(root=tmp_path / "queue",
                                       warm_start=False, max_workers=1,
                                       poll_interval_s=0.02,
                                       addr="127.0.0.1:0"),
                         cache=FitCache(tmp_path / "cache"))
        loop = threading.Thread(target=svc.serve_forever, daemon=True)
        loop.start()
        try:
            deadline = time.monotonic() + 30.0
            while not svc.queue.daemon_alive():
                assert time.monotonic() < deadline
                time.sleep(0.01)
            addr = svc.serve_addr
            assert svc.queue.heartbeat()["serve_addr"] == addr
            # A same-host auto client (no address) resolves to the
            # queue, and the listening daemon drains it.
            with Session(EngineConfig(service_root=svc.queue.root,
                                      fallback="error", timeout_s=30.0,
                                      warm_start=False),
                         cache=FitCache(tmp_path / "client")) as s:
                [queued] = s.fit([FitRequest.create("tanh", 4,
                                                    config=_TINY)])
            engine = RemoteEngine(EngineConfig(http_addr=addr,
                                               warm_start=False))
            [posted] = engine.fit([FitRequest.create("sigmoid", 4,
                                                     config=_TINY)])
            engine.close()
        finally:
            svc.close()
        loop.join(timeout=5.0)
        assert queued.engine == posted.engine == ENGINE_REMOTE
        assert queued.provenance["transport"] == "queue"
        assert "degraded_from" not in queued.provenance
        assert posted.provenance["transport"] == "http"
        assert svc.queue.counts()["pending"] == 0
        # No listener, loop or heartbeat thread outlives close().
        assert not loop.is_alive()
        left = [t.name for t in threading.enumerate()
                if t not in before and t.name in ("repro-fit-http",
                                                  "fitservice-heartbeat")]
        assert left == []
        assert not ServingClient(addr).alive(timeout_s=0.2)


class TestDeadServer:
    def test_status_down_and_fit_raises_transport_error(self):
        engine = RemoteEngine(EngineConfig(engine="remote", http_addr=_DEAD,
                                           retry_max_attempts=1))
        assert engine.status() == "down"
        with pytest.raises(OSError):
            engine.fit([FitRequest.create("tanh", 4, config=_TINY)])
        engine.close()

    def test_session_falls_back_locally_with_provenance(self, tmp_path):
        cfg = EngineConfig(engine="remote", http_addr=_DEAD,
                           fallback="local", warm_start=False,
                           retry_max_attempts=1)
        with Session(cfg, cache=FitCache(tmp_path / "cache")) as s:
            [art] = s.fit([FitRequest.create("tanh", 4, config=_TINY)])
        assert art.engine != ENGINE_REMOTE
        assert art.provenance["degraded_from"] == ["remote"]
        assert art.provenance["source"] == "local-fallback"

    def test_session_strict_mode_raises(self, tmp_path):
        cfg = EngineConfig(engine="remote", http_addr=_DEAD,
                           fallback="error", warm_start=False,
                           retry_max_attempts=1)
        with Session(cfg, cache=FitCache(tmp_path / "cache")) as s:
            with pytest.raises(OSError):
                s.fit([FitRequest.create("tanh", 4, config=_TINY)])

    def test_auto_with_a_dead_address_goes_local_not_to_the_queue(
            self, server, tmp_path):
        # A live queue daemon does not catch what the dead address
        # would have served: the transport is the address's.
        cfg = EngineConfig(http_addr=_DEAD, service_root=server.queue.root,
                           warm_start=False)
        with Session(cfg, cache=FitCache(tmp_path / "cache")) as s:
            [art] = s.fit([FitRequest.create("gelu", 4, config=_TINY)])
        assert art.engine != ENGINE_REMOTE
        assert art.provenance["degraded_from"] == ["remote"]
        assert server.queue.result(art.key) is None
