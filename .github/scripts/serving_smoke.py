"""CI smoke for the serving tier: both daemons, many clients, one pass.

Expects a ``repro serve --addr`` fit daemon at ``$REPRO_SERVE_ADDR`` and
a ``serve-infer`` daemon (serving ``generic_cnn``) at
``$REPRO_INFER_ADDR``, started by the workflow.  Exercises the real
client paths: a :class:`repro.api.Session` fitting through the remote
engine's HTTP transport (no local fallback allowed), and a pool of
concurrent ``ServingClient`` inference requests that the daemon must
micro-batch.
"""

import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.api import ENGINE_REMOTE, EngineConfig, FitRequest, Session
from repro.core.fit import FitConfig
from repro.serving.client import ServingClient
from repro.serving.protocol import ENV_INFER_ADDR, ENV_SERVE_ADDR
from repro.zoo.builders import BUILDERS

FIT_ADDR = os.environ[ENV_SERVE_ADDR]
INFER_ADDR = os.environ[ENV_INFER_ADDR]
N_CLIENTS = 8
N_REQUESTS = 4

TINY = FitConfig(n_breakpoints=4, max_steps=40, refine_steps=20,
                 max_refine_rounds=1, polish_maxiter=60, grid_points=256)


def wait_healthy(addr: str, label: str, timeout_s: float = 600.0) -> None:
    client = ServingClient(addr)
    deadline = time.monotonic() + timeout_s
    while not client.alive(timeout_s=2.0):
        if time.monotonic() > deadline:
            sys.exit(f"{label} at {addr} never became healthy")
        time.sleep(1.0)
    doc = client.version()
    print(f"{label}: role={doc['role']} version={doc['version']} "
          f"protocol={doc['protocol']}")


def fit_smoke() -> None:
    reqs = [FitRequest.create(name, 4, config=TINY)
            for name in ("tanh", "sigmoid", "silu")]
    cfg = EngineConfig(engine="remote", http_addr=FIT_ADDR,
                       fallback="error", warm_start=False)
    with Session(cfg) as session:
        arts = session.fit(reqs)
    assert all(a.engine == ENGINE_REMOTE and
               a.provenance["transport"] == "http" for a in arts), \
        [(a.engine, a.provenance) for a in arts]
    print(f"fit: {len(arts)} artifacts via {ENGINE_REMOTE} over http, "
          f"grid_mse {[float(a.grid_mse) for a in arts]}")


def infer_smoke() -> None:
    graph = BUILDERS["generic_cnn"](act="gelu", scale=0.25, seed=0)
    [(input_name, in_shape)] = graph.inputs
    shape = [d or 1 for d in in_shape]

    def one_client(seed: int) -> int:
        rng = np.random.default_rng(seed)
        with ServingClient(INFER_ADDR) as client:
            for _ in range(N_REQUESTS):
                out = client.infer("generic_cnn",
                                   {input_name: rng.normal(size=shape)})
                assert out and all(np.isfinite(a).all()
                                   for a in out.values())
        return N_REQUESTS

    with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
        served = sum(pool.map(one_client, range(N_CLIENTS)))

    with ServingClient(INFER_ADDR) as client:
        models = client.models()["models"]
    stats = models["generic_cnn"]
    assert stats["requests"] >= served, stats
    print(f"infer: {served} requests from {N_CLIENTS} clients; "
          f"server saw {stats['requests']} requests "
          f"in {stats['batches']} batches")


def main() -> None:
    wait_healthy(FIT_ADDR, "serve --addr")
    wait_healthy(INFER_ADDR, "serve-infer")
    fit_smoke()
    infer_smoke()
    print("serving smoke OK")


if __name__ == "__main__":
    main()
