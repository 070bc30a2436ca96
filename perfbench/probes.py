"""Timing wrappers for the traced runs, kept in the benchmark's files.

A :class:`Recorder` keeps spans (name, start, end, parent, request id)
in memory, one stack per thread, and writes them out when the run ends.
:func:`install` wraps the calls into each layer the benchmark reports —
the fitter, the fit cache, the Session, the compiler passes, the
verifier, the serving codec and HTTP handler, the micro-batcher — so
the program under test is measured without being edited.  A layer's
self time is its span's duration minus the time its child spans cover.

Untraced runs install only :func:`count_calls` counters, which read no
clock, for the work fingerprint.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import types
from collections import defaultdict
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: The four default passes, timed around each pass's ``run``.
PASS_NAMES = ("fold-constants", "eliminate-dead-nodes", "fuse-kernels",
              "schedule-regions")

#: Per-layer metric -> the span whose summed self time it reports (ms).
SELF_MS = {
    "core.fit.polish_ms": "core.fit.polish",
    "core.lanefit.adam_ms": "core.lanefit.adam",
    "core.fit.refine_ms": "core.fit.refine",
    "core.loss.removal_scan_ms": "core.loss.removal_scan",
    "core.loss.grid_build_ms": "core.loss.grid_build",
    "core.batchfit.cache_get_ms": "core.batchfit.cache_get",
    "core.batchfit.cache_put_ms": "core.batchfit.cache_put",
    "core.batchfit.cache_nearest_ms": "core.batchfit.cache_nearest",
    "api.session.self_ms": "api.session",
    "api.engine.self_ms": "api.engine",
    "api.session.rewrite_ms": "api.session.rewrite",
    "analysis.verify_ms": "analysis.verify",
    "graph.program.compile_self_ms": "graph.program.compile",
    **{f"graph.opt.{p}_ms": f"graph.opt.{p}" for p in PASS_NAMES},
}

#: Counters reported as they are.
COUNTS = ("core.fit.polish_calls", "core.loss.scalar_evals",
          "core.lanefit.adam_steps", "core.fit.refine_rounds",
          "core.batchfit.cache_hits", "core.batchfit.cache_misses",
          "api.session.warm_fits", "graph.program.records")


class Recorder:
    """In-memory span store plus named counters (thread-safe)."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        #: [name, start, end, parent index or -1, request id]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- spans --------------------------------------------------------- #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        rid = getattr(self._local, "rid", None)
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, rid])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def set_request(self, rid: Optional[int]) -> None:
        """Tag the spans this thread opens next with request ``rid``."""
        self._local.rid = rid

    def count(self, name: str, n: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    # -- aggregation --------------------------------------------------- #
    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total duration and self time (s)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child
        return out

    def by_request(self, name: str) -> Dict[Any, float]:
        """Summed duration of ``name`` spans per request id."""
        out: Dict[Any, float] = defaultdict(float)
        for n, start, end, _, rid in self.spans:
            if n == name:
                out[rid] += end - start
        return out

    def summary(self) -> Dict[str, float]:
        """The fit- and compile-tier layer metrics of everything
        recorded: :data:`SELF_MS` self times, :data:`COUNTS`, and the
        guard's wasted-work ratio (discarded fits / fits executed)."""
        st = self.self_times()
        out = {metric: 1e3 * st.get(span, {}).get("self_s", 0.0)
               for metric, span in SELF_MS.items()}
        out.update({name: self.counts.get(name, 0.0) for name in COUNTS})
        fits = self.counts.get("api.engine.fits", 0.0)
        out["api.session.guard_refit_ratio"] = (
            self.counts.get("api.session.guard_discards", 0.0) / fits
            if fits else 0.0)
        return out

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line (times relative to start)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, rid in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start - self.t0,
                    "end": end - self.t0, "parent": parent,
                    "request": rid}) + "\n")

    # -- wrappers ------------------------------------------------------ #
    def wrap(self, owner: Any, attr: str, name: str,
             after: Optional[Callable[..., None]] = None,
             before: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a version timed as span ``name``;
        ``before(args)`` / ``after(args, result)`` may record counts."""
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not rec.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    def count_calls(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` into counter ``name`` while
        enabled, with no clock and no span."""
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            if rec.enabled:
                rec.counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)


def count_calls(owner: Any, attr: str, counter: Dict[str, float],
                key: str) -> None:
    """Count calls of ``owner.attr`` into ``counter[key]`` (no clock)."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def counted(*args: Any, **kwargs: Any) -> Any:
        counter[key] = counter.get(key, 0) + 1
        return fn(*args, **kwargs)

    setattr(owner, attr, counted)


def _timed_json(rec: Recorder, name: str) -> types.SimpleNamespace:
    """A stand-in for the ``json`` module whose dumps/loads are spans."""
    ns = types.SimpleNamespace(dumps=json.dumps, loads=json.loads)
    rec.wrap(ns, "dumps", name)
    rec.wrap(ns, "loads", name)
    return ns


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark reports.

    Each process installs all of them; a layer a workload never calls
    reports zero.
    """
    from repro.api import engines as engines_mod
    from repro.api import session as session_mod
    from repro.core import batchfit, fit, lanefit, loss
    from repro.graph import program as program_mod
    from repro.graph.opt import pipeline
    from repro.obs.clock import mono
    from repro.serving import client as client_mod
    from repro.serving import http as http_mod
    from repro.serving import infer_server

    # ``repro.analysis`` re-exports a ``verify`` function that shadows
    # the submodule of the same name.
    verify_mod = import_module("repro.analysis.verify")

    # -- fit tier ------------------------------------------------------ #
    def session_done(args: tuple, arts: list) -> None:
        for art in arts:
            if art.from_cache:
                continue
            if art.init_used == "warm":
                rec.count("api.session.warm_fits")
            if "cold_mse" in art.provenance.get("warm_fallback", {}):
                rec.count("api.session.guard_discards")

    rec.wrap(session_mod.Session, "fit", "api.session", after=session_done)
    rec.wrap(session_mod.Session, "rewrite", "api.session.rewrite")
    rec.wrap(engines_mod._LocalEngine, "fit", "api.engine",
             before=lambda a: rec.count("api.engine.fits", len(a[1])))
    rec.wrap(loss.GridLoss, "__init__", "core.loss.grid_build")
    rec.wrap(loss.GridLoss, "removal_losses", "core.loss.removal_scan")
    # Counted, not timed: a pass makes ~160k of these calls.
    rec.count_calls(loss.GridLoss, "loss_and_grads",
                    "core.loss.scalar_evals")
    rec.wrap(fit.FlexSfuFitter, "_adam", "core.lanefit.adam",
             after=lambda a, r: rec.count("core.lanefit.adam_steps", r[1]))
    rec.wrap(lanefit, "_lane_adam", "core.lanefit.adam",
             after=lambda a, r: rec.count("core.lanefit.adam_steps",
                                          float(sum(r[1]))))
    rec.wrap(fit.FlexSfuFitter, "_polish", "core.fit.polish",
             before=lambda a: rec.count("core.fit.polish_calls"))
    rec.wrap(fit.FlexSfuFitter, "_remove_and_insert", "core.fit.refine",
             after=lambda a, r: rec.count("core.fit.refine_rounds",
                                          r is not None))
    rec.wrap(batchfit.FitCache, "get", "core.batchfit.cache_get",
             after=lambda a, r: rec.count("core.batchfit.cache_hits"
                                          if r is not None else
                                          "core.batchfit.cache_misses"))
    rec.wrap(batchfit.FitCache, "put", "core.batchfit.cache_put")
    rec.wrap(batchfit.FitCache, "nearest_with_key",
             "core.batchfit.cache_nearest")

    # -- compiler ------------------------------------------------------ #
    rec.wrap(program_mod, "compile_graph", "graph.program.compile",
             after=lambda a, prog: rec.count("graph.program.records",
                                             len(prog.nodes)))
    rec.wrap(verify_mod, "run_checks", "analysis.verify")
    rec.wrap(program_mod.Program, "run", "graph.program.run")
    for pass_name in PASS_NAMES:
        rec.wrap(type(pipeline.get_pass(pass_name)), "run",
                 f"graph.opt.{pass_name}")

    # -- serving, client side ------------------------------------------ #
    rec.wrap(client_mod.ServingClient, "infer", "serving.client.request")
    rec.wrap(client_mod.ServingClient, "_request_once",
             "serving.client.roundtrip")
    rec.wrap(client_mod, "encode_array", "serving.client.encode")
    rec.wrap(client_mod, "decode_array", "serving.client.decode")
    client_mod.json = _timed_json(rec, "serving.client.json")

    # -- serving, server side ------------------------------------------ #
    rec.wrap(http_mod._Handler, "do_POST", "serving.http.request")
    http_mod.json = _timed_json(rec, "serving.server.json")
    rec.wrap(infer_server, "decode_array", "serving.server.decode")
    rec.wrap(infer_server, "encode_array", "serving.server.encode")
    rec.wrap(infer_server.InferApp, "_handle_infer", "serving.infer.wait")

    def batch_start(args: tuple) -> None:
        # Queue wait runs from submit to batch start, on the clock the
        # runner stamps ``enqueued_at`` with.
        runner, batch = args[0], args[1]
        now = mono()
        for pending in batch:
            rec.sample("serving.infer.queue_wait_s",
                       now - pending.enqueued_at)
        rec.sample("serving.infer.batch_size", len(batch))
        rec.sample("serving.infer.occupancy",
                   len(batch) / max(runner.batch_cap, 1))

    rec.wrap(infer_server.ModelRunner, "_run_batch", "serving.infer.batch",
             before=batch_start)
    rec.wrap(program_mod.Program, "run_many", "serving.infer.run_many")
