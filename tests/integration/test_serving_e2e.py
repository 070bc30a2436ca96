"""End-to-end serving tier: real daemons in separate interpreters.

The acceptance scenarios for the network tier: a ``repro serve-http``
subprocess answering fit requests over the wire, a clean SIGTERM
shutdown, and — the failover contract — SIGKILL mid-batch with a
Session that degrades to a local engine, recording
``degraded_from=["http"]`` in the artifacts it produces instead.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.api import ENGINE_HTTP, EngineConfig, FitRequest, Session
from repro.core.batchfit import FitCache
from repro.core.fit import FitConfig
from repro.serving.client import ServingClient

pytestmark = pytest.mark.slow

_TINY = FitConfig(n_breakpoints=4, max_steps=40, refine_steps=20,
                  max_refine_rounds=1, polish_maxiter=60, grid_points=256)

_SRC = str(Path(repro.__file__).resolve().parents[1])


def _env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_serve_http(tmp: Path, *extra: str) -> subprocess.Popen:
    cmd = [sys.executable, "-m", "repro", "serve-http",
           "--addr", "127.0.0.1:0", "--dir", str(tmp / "queue"),
           "--cache-dir", str(tmp / "server-cache"), "--workers", "2",
           *extra]
    return subprocess.Popen(cmd, env=_env(tmp / "cachehome"),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)


def _read_addr(proc: subprocess.Popen, timeout_s: float = 60.0) -> str:
    """Parse the bound address from the daemon's startup lines
    (``serve-infer`` prints per-model compile lines first)."""
    seen = []
    while True:
        line = proc.stdout.readline()
        if "http://" in line:
            break
        seen.append(line)
        if not line:  # EOF: the daemon died before binding
            proc.kill()
            raise RuntimeError("no serving line from daemon:\n"
                               + "".join(seen))
    addr = line.split("http://", 1)[1].split()[0]
    deadline = time.monotonic() + timeout_s
    client = ServingClient(addr)
    while not client.alive(timeout_s=1.0):
        if proc.poll() is not None:
            raise RuntimeError(f"serve-http exited early:\n"
                               f"{proc.stdout.read()}")
        if time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError("serve-http never became healthy")
        time.sleep(0.05)
    return addr


class TestServeHttpEndToEnd:
    def test_fit_over_the_wire_then_clean_sigterm(self, tmp_path):
        proc = _spawn_serve_http(tmp_path)
        try:
            addr = _read_addr(proc)
            cfg = EngineConfig(engine="http", http_addr=addr,
                               fallback="error", warm_start=False)
            with Session(cfg, cache=FitCache(tmp_path / "client")) as s:
                arts = s.fit([FitRequest.create("tanh", 4, config=_TINY),
                              FitRequest.create("sigmoid", 4,
                                                config=_TINY)])
            assert all(a.engine == ENGINE_HTTP for a in arts)
            assert all(a.provenance["source"] == "http" for a in arts)
        finally:
            proc.terminate()
            out, _ = proc.communicate(timeout=30)
        # SIGTERM must take the server down through FitService.close().
        assert "exiting after" in out, out

    def test_sigkill_mid_batch_degrades_to_local(self, tmp_path):
        proc = _spawn_serve_http(tmp_path)
        addr = _read_addr(proc)
        # Enough jobs that the server is still fitting when the KILL
        # lands ~50ms into the batch POST.
        reqs = [FitRequest.create(name, n, config=_TINY)
                for name in ("tanh", "sigmoid", "silu", "gelu")
                for n in (4, 5)]
        killer = threading.Timer(0.05, os.kill,
                                 args=(proc.pid, signal.SIGKILL))
        cfg = EngineConfig(engine="http", http_addr=addr,
                           fallback="local", warm_start=False,
                           retry_max_attempts=1)
        try:
            killer.start()
            with Session(cfg, cache=FitCache(tmp_path / "client")) as s:
                arts = s.fit(reqs)
        finally:
            killer.cancel()
            proc.kill()
            proc.communicate(timeout=30)
        # The batch must complete locally, with honest provenance: the
        # chain degraded past the dead http engine.
        assert all(a is not None for a in arts)
        for art in arts:
            assert art.engine != ENGINE_HTTP
            if not art.from_cache:
                assert art.provenance["degraded_from"] == ["http"]
                assert art.provenance["source"] == "local-fallback"


class TestServeInferEndToEnd:
    def test_cli_serves_micro_batched_inference(self, tmp_path):
        import numpy as np

        from repro.zoo.builders import BUILDERS
        cmd = [sys.executable, "-m", "repro", "serve-infer",
               "--model", "generic_cnn", "--addr", "127.0.0.1:0",
               "--quick", "--pwl", "4", "--scale", "0.25"]
        proc = subprocess.Popen(cmd, env=_env(tmp_path / "cachehome"),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        try:
            addr = _read_addr(proc, timeout_s=300.0)
            graph = BUILDERS["generic_cnn"](act="gelu", scale=0.25,
                                            seed=0)
            [(input_name, in_shape)] = graph.inputs
            shape = [d or 1 for d in in_shape]  # batch dim free → 1
            with ServingClient(addr) as client:
                models = client.models()["models"]
                assert models["generic_cnn"]["inputs"] == [input_name]
                rng = np.random.default_rng(0)
                out = client.infer("generic_cnn",
                                   {input_name: rng.normal(size=shape)})
                assert out  # at least one named output array
                for arr in out.values():
                    assert np.all(np.isfinite(arr))
        finally:
            proc.terminate()
            proc.communicate(timeout=30)
