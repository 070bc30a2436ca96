"""Property: Session artifacts are bitwise-equal across all engines.

The engine choice is an operational decision, never a numerical one:
for any shape-compatible sweep, ``inline`` (sequential scalar fits),
``lane`` (one lock-step batch), ``pool`` (lane-batched units on a
process pool), and ``remote`` on both of its transports (the same fits
run by a ``repro serve`` daemon, reached over HTTP with a JSON round
trip, or through its file queue) must produce byte-identical PWLs and
identical ``grid_mse`` / step counts.  This leans on — and end-to-end
re-checks — the lane kernel's bit-for-bit equivalence contract
(:mod:`repro.core.lanefit`) plus the wire protocol's lossless array
documents (:mod:`repro.serving.protocol`).
"""

import numpy as np
import pytest

from repro.api import EngineConfig, FitRequest, Session
from repro.core.batchfit import FitCache
from repro.core.fit import FitConfig
from repro.serving.protocol import ENV_SERVE_ADDR
from repro.service.daemon import ServiceConfig

#: Sweep legs: label -> (engine, remote transport or None).
_LEGS = {"inline": ("inline", None), "lane": ("lane", None),
         "pool": ("pool", None), "remote-http": ("remote", "http"),
         "remote-queue": ("remote", "queue")}

#: Cheap but non-trivial: two budgets (two lane groups), mixed boundary
#: policies, warm starts off so every engine sees identical cold work.
_CFG = FitConfig(n_breakpoints=5, max_steps=60, refine_steps=25,
                 max_refine_rounds=2, polish_maxiter=80, grid_points=320)


def _sweep():
    reqs = [FitRequest.create(name, 5, config=_CFG)
            for name in ("tanh", "sigmoid", "silu", "gelu")]
    reqs.append(FitRequest.create("tanh", 5, config=_CFG,
                                  boundary=("free", "free")))
    reqs.append(FitRequest.create("sigmoid", 6, config=_CFG))
    return reqs


@pytest.fixture(scope="module")
def per_engine_artifacts(tmp_path_factory, fit_daemon):
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        # The queue leg must not pick up an address from the
        # environment: the transport follows configuration alone.
        mp.delenv(ENV_SERVE_ADDR, raising=False)
        for label, (engine, transport) in _LEGS.items():
            cache = FitCache(tmp_path_factory.mktemp(f"cache-{label}"))
            if engine != "remote":
                config = EngineConfig(engine=engine, warm_start=False)
                with Session(config, cache=cache) as session:
                    out[label] = session.fit(_sweep())
                continue
            # An in-process daemon with its own cold cache: the fits
            # run daemon-side and come back over the transport.
            root = tmp_path_factory.mktemp(f"daemon-{label}")
            with fit_daemon(
                    ServiceConfig(root=root / "queue", warm_start=False,
                                  poll_interval_s=0.02,
                                  addr="127.0.0.1:0"
                                  if transport == "http" else None),
                    cache=FitCache(root / "cache")) as svc:
                config = EngineConfig(engine="remote",
                                      http_addr=svc.serve_addr,
                                      service_root=svc.queue.root,
                                      warm_start=False)
                with Session(config, cache=cache) as session:
                    out[label] = session.fit(_sweep())
    return out


class TestEngineEquivalence:
    def test_every_engine_reports_itself(self, per_engine_artifacts):
        for label, arts in per_engine_artifacts.items():
            engine, transport = _LEGS[label]
            assert all(a.engine == engine for a in arts)
            assert all(a.provenance.get("transport") == transport
                       for a in arts)
            assert not any(a.from_cache for a in arts)

    def test_artifacts_bitwise_equal_across_engines(self,
                                                    per_engine_artifacts):
        reference = per_engine_artifacts["inline"]
        for engine in list(_LEGS)[1:]:
            arts = per_engine_artifacts[engine]
            for ref, art in zip(reference, arts):
                label = f"{engine}:{art.function}@" \
                        f"{art.config.n_breakpoints}"
                assert art.key == ref.key, label
                assert art.grid_mse == ref.grid_mse, label
                assert art.total_steps == ref.total_steps, label
                assert art.rounds == ref.rounds, label
                assert art.init_used == ref.init_used, label
                assert np.array_equal(art.pwl.breakpoints,
                                      ref.pwl.breakpoints), label
                assert np.array_equal(art.pwl.values,
                                      ref.pwl.values), label
                assert art.pwl.left_slope == ref.pwl.left_slope, label
                assert art.pwl.right_slope == ref.pwl.right_slope, label

    def test_artifact_documents_differ_only_in_provenance(
            self, per_engine_artifacts):
        reference = per_engine_artifacts["inline"]
        for engine in list(_LEGS)[1:]:
            for ref, art in zip(reference, per_engine_artifacts[engine]):
                a, b = ref.to_dict(), art.to_dict()
                # wall time and engine lineage are allowed to differ...
                for doc in (a, b):
                    doc.pop("engine")
                    doc.pop("wall_time_s")
                    doc.pop("provenance")
                # ...the canonical payload is not.
                assert a == b
