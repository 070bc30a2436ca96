"""Shared fixtures: fast fit configurations, small graphs, a fit daemon."""

from __future__ import annotations

import contextlib
import threading
import time

import numpy as np
import pytest

from repro.core.fit import FitConfig
from repro.graph.builder import GraphBuilder


@pytest.fixture
def fast_fit_config():
    """A cheap FitConfig for tests that only need a reasonable fit."""
    return FitConfig(
        n_breakpoints=8,
        max_steps=150,
        refine_steps=60,
        max_refine_rounds=2,
        polish_maxiter=200,
        grid_points=1024,
    )


@pytest.fixture
def tiny_cnn_graph():
    """A small conv-act-pool-fc graph with one of each interesting op."""
    g = GraphBuilder("tiny_cnn", seed=3)
    x = g.input("x", (0, 3, 8, 8))
    x = g.conv2d(x, 3, 8)
    x = g.batchnorm(x, 8)
    x = g.activation(x, "silu")
    x = g.maxpool(x)
    x = g.global_avgpool(x)
    x = g.linear(x, 8, 4)
    g.graph.outputs = [x]
    return g.graph


@pytest.fixture
def tiny_attention_graph():
    """A single-block attention graph exercising softmax/matmul ops."""
    from repro.zoo.builders import build_vit

    return build_vit(act="gelu", scale=0.5, seed=1, image=8, patch=4,
                     depth=1, heads=2)


@pytest.fixture
def rng():
    """Deterministic RNG for test data."""
    return np.random.default_rng(12345)


@contextlib.contextmanager
def _running_fit_service(config, cache=None):
    """A :class:`FitService` serving (queue loop, plus its HTTP listener
    when ``config.addr`` is set) on a background thread, from its first
    heartbeat until the block exits; then closed, loop joined."""
    from repro.service.daemon import FitService

    svc = FitService(config, cache=cache)
    loop = threading.Thread(target=svc.serve_forever, daemon=True,
                            name="fit-service-loop")
    loop.start()
    try:
        deadline = time.monotonic() + 30.0
        while not svc.queue.daemon_alive():  # first heartbeat written
            assert loop.is_alive(), "serve loop died before heartbeating"
            assert time.monotonic() < deadline, "daemon never heartbeated"
            time.sleep(0.01)
        yield svc
    finally:
        svc.close()
        loop.join(timeout=30.0)
        assert not loop.is_alive(), "serve loop outlived close()"


@pytest.fixture(scope="session")
def fit_daemon():
    """``with fit_daemon(ServiceConfig(...), cache=...) as svc``: an
    in-process fit daemon serving on a thread (see
    :func:`_running_fit_service`); session-scoped so module-scoped
    fixtures can use it."""
    return _running_fit_service
