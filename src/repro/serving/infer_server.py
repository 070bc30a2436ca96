"""``repro serve-infer`` — compiled Programs served hot, micro-batched.

The payoff measured by BENCH_graph_exec (``Program.run_many`` stacking
many requests into one fused pass) only materialises when *one
process* sees many concurrent requests; this daemon is that process.
Per model it holds one compiled :class:`~repro.graph.program.Program`
and one :class:`ModelRunner` — a bounded queue plus a batcher thread
that takes the first waiting request and then every request already
queued behind it (up to ``batch_cap``), fuses them through
``run_many``, and splits the outputs back to the blocked HTTP handler
threads.  Under load, requests pile up while the previous batch runs,
so batches form without a timed wait; an explicit ``batch_ms`` window
additionally waits that long for stragglers, which pays only for
models whose cost is per call rather than per sample.

Admission is per request: a request whose feeds could not be stacked
(a missing input, wrong trailing dims, inputs disagreeing on their
sample count) is refused with a **400** carrying its ``RPR20x`` code
before it can join — and fail — a fused batch; so is a feed that is
not a bool/int/float array document or whose floats hold NaN or
infinity (``bad-request``).

Backpressure is explicit: a full queue answers **429** with a
``Retry-After`` of one batch window, at least 10 ms, so synchronized
clients back off (jittered by their
:class:`~repro.service.retry.RetryPolicy`) instead of piling threads
onto a saturated server.  Every fused batch runs under an
``infer.batch`` tracing span and lands on the batch-size / occupancy /
latency histograms exposed at ``/metrics``.
"""

from __future__ import annotations

import functools
import os
import queue as queue_mod
import threading
from typing import Any, Dict, List, Optional

import numpy as np

from ..analysis.diagnostics import DiagnosticError
from ..errors import ServiceError
from ..graph.program import Program
from ..obs import clock
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from .http import Response, ServerThread, ServingApp, ServingHTTPServer
from .protocol import (DEFAULT_HOST, DEFAULT_INFER_PORT, ENV_INFER_BATCH_MS,
                       ROUTE_INFER, ROUTE_MODELS, check_protocol,
                       decode_array, encode_array, error_doc)

#: Micro-batch window when neither the constructor nor
#: :data:`ENV_INFER_BATCH_MS` says otherwise: drain what is queued,
#: wait for nothing more.
DEFAULT_BATCH_MS = 0.0

#: Seconds a handler waits for its batch before answering 504.
DEFAULT_REQUEST_TIMEOUT_S = 60.0

#: Widest accepted window: a wider one would time out every request it
#: holds (and past ``threading.TIMEOUT_MAX`` kill the batcher thread).
MAX_BATCH_MS = 1000.0 * DEFAULT_REQUEST_TIMEOUT_S


#: glibc ``mallopt`` parameters (``malloc.h``) and the values the server
#: pins them to: 32 MiB is the ceiling of glibc's own dynamic mmap
#: threshold on 64-bit hosts, and 64 MiB the 2x trim threshold that
#: rule pairs with it.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


@functools.lru_cache(maxsize=None)
def _pin_heap() -> None:
    """Keep a served Program's temporaries on the heap, untrimmed.

    A served ViT's largest temporaries are 128 KiB per sample, exactly
    glibc's default mmap threshold, so each is mmapped and unmapped
    again, and the heap top freed after a request is trimmed back to
    the kernel: the next request page-faults it in anew.  glibc raises
    both thresholds only when it frees a larger mmapped block, so
    whether a server faulted depended on which libraries its process
    happened to load.  Pinning them makes every request reuse the pages
    of the last.  Process-wide and idempotent (runs once); a no-op
    where the C library has no ``mallopt``.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def resolve_batch_ms(batch_ms: Optional[float] = None) -> float:
    """Explicit argument > ``REPRO_INFER_BATCH_MS`` > default; whichever
    is given must be a finite window of 0 to :data:`MAX_BATCH_MS`."""
    if batch_ms is not None:
        source, text = "batch_ms", batch_ms
    else:
        text = os.environ.get(ENV_INFER_BATCH_MS)
        if not text:
            return DEFAULT_BATCH_MS
        source = ENV_INFER_BATCH_MS
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise ServiceError(f"{source}={text!r} is not a number") from None
    if not 0.0 <= value <= MAX_BATCH_MS:  # NaN fails both comparisons
        raise ServiceError(f"{source} must be a window of 0 to "
                           f"{MAX_BATCH_MS:g} ms, got {value}")
    return value


class _Pending:
    """One in-flight request parked on the batcher."""

    __slots__ = ("feeds", "event", "outputs", "error", "enqueued_at")

    def __init__(self, feeds: Dict[str, np.ndarray], now: float) -> None:
        self.feeds = feeds
        self.event = threading.Event()
        self.outputs: Optional[Dict[str, np.ndarray]] = None
        self.error: Optional[str] = None
        self.enqueued_at = now

    def resolve(self, outputs: Dict[str, np.ndarray]) -> None:
        self.outputs = outputs
        self.event.set()

    def fail(self, error: str) -> None:
        self.error = error
        self.event.set()


class ModelRunner:
    """Bounded queue + batcher thread around one compiled Program."""

    def __init__(self, model: str, program: Program,
                 batch_ms: Optional[float] = None, batch_cap: int = 32,
                 max_queue: int = 128) -> None:
        # ``queue.Queue(maxsize=0)`` is unbounded: no 429 would ever fire.
        for name, value in (("batch_cap", batch_cap),
                            ("max_queue", max_queue)):
            if value < 1:
                raise ServiceError(f"{name} must be >= 1, got {value}")
        self.model = model
        self.program = program
        self.batch_ms = resolve_batch_ms(batch_ms)
        self.batch_cap = batch_cap
        self.queue: "queue_mod.Queue[_Pending]" = queue_mod.Queue(
            maxsize=max_queue)
        self.batches = 0
        self.requests = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name=f"repro-infer-{model}")
        self._thread.start()

    # ------------------------------------------------------------------ #
    def submit(self, feeds: Dict[str, np.ndarray]) -> _Pending:
        """Park one request; raises a coded ``DiagnosticError``
        (RPR201-203, → 400 upstream) for feeds the stacked pass could
        not take, ``queue.Full`` (→ 429 upstream) on backpressure,
        ``ServiceError`` after shutdown."""
        if self._stop.is_set():
            raise ServiceError(f"model {self.model!r} is shutting down")
        self.program.check_request(feeds)
        pending = _Pending(feeds, clock.mono())
        self.queue.put_nowait(pending)
        return pending

    def _collect(self) -> List[_Pending]:
        """Block for the first request, then take everything already
        queued up to ``batch_cap``, waiting for more only while the
        ``batch_ms`` window is open."""
        try:
            first = self.queue.get(timeout=0.1)
        except queue_mod.Empty:
            return []
        batch = [first]
        deadline = clock.mono() + self.batch_ms / 1000.0
        while len(batch) < self.batch_cap:
            try:
                batch.append(self.queue.get(
                    timeout=max(deadline - clock.mono(), 0.0)))
            except queue_mod.Empty:
                break
        return batch

    def _loop(self) -> None:
        while not self._stop.is_set():
            batch = self._collect()
            if batch:
                self._run_batch(batch)
        # Drain stragglers so no handler thread blocks forever.
        while True:
            try:
                self.queue.get_nowait().fail("server shutting down")
            except queue_mod.Empty:
                break

    def _run_batch(self, batch: List[_Pending]) -> None:
        metrics = get_metrics()
        t0 = clock.mono()
        with get_tracer().span("infer.batch", model=self.model,
                               n_requests=len(batch)) as sp:
            try:
                outputs = self.program.run_many(
                    [p.feeds for p in batch])
            except Exception as exc:
                sp.set(failed=len(batch))
                metrics.counter("serving.infer.batch_failures",
                                model=self.model).inc()
                for p in batch:
                    p.fail(f"inference failed: {exc!r}")
                return
        for p, out in zip(batch, outputs):
            p.resolve(out)
            metrics.histogram("serving.infer.latency_s",
                              model=self.model).observe(
                                  clock.mono() - p.enqueued_at)
        self.batches += 1
        self.requests += len(batch)
        metrics.counter("serving.infer.requests",
                        model=self.model).inc(len(batch))
        metrics.counter("serving.infer.batches", model=self.model).inc()
        metrics.histogram("serving.infer.batch_size",
                          model=self.model).observe(len(batch))
        metrics.histogram("serving.infer.batch_occupancy",
                          model=self.model).observe(
                              len(batch) / max(self.batch_cap, 1))
        metrics.histogram("serving.infer.batch_latency_s",
                          model=self.model).observe(clock.mono() - t0)

    def status(self) -> Dict[str, Any]:
        return {"model": self.model, "batch_ms": self.batch_ms,
                "batch_cap": self.batch_cap,
                "queue_depth": self.queue.qsize(),
                "max_queue": self.queue.maxsize,
                "batches": self.batches, "requests": self.requests,
                "inputs": [name for name, _, _ in self.program._input_plan],
                "outputs": [name for name, _ in self.program._output_plan]}

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


class InferApp(ServingApp):
    """Routes ``POST /v1/infer`` / ``GET /v1/models`` onto runners."""

    role = "infer"

    def __init__(self, programs: Dict[str, Program],
                 batch_ms: Optional[float] = None, batch_cap: int = 32,
                 max_queue: int = 128,
                 request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S
                 ) -> None:
        self.request_timeout_s = request_timeout_s
        self.runners = {
            name: ModelRunner(name, program, batch_ms=batch_ms,
                              batch_cap=batch_cap, max_queue=max_queue)
            for name, program in programs.items()}

    # ------------------------------------------------------------------ #
    def handle(self, method: str, path: str,
               body: Optional[Dict[str, Any]]) -> Response:
        if method == "POST" and path == ROUTE_INFER:
            return self._handle_infer(body or {})
        if method == "GET" and path == ROUTE_MODELS:
            return 200, {"ok": True, "models": {
                name: runner.status()
                for name, runner in self.runners.items()}}, None
        return super().handle(method, path, body)

    def capabilities(self) -> Dict[str, Any]:
        return {"models": sorted(self.runners),
                "batch_ms": {name: r.batch_ms
                             for name, r in self.runners.items()},
                "batch_cap": {name: r.batch_cap
                              for name, r in self.runners.items()}}

    def _handle_infer(self, body: Dict[str, Any]) -> Response:
        mismatch = check_protocol(body)
        if mismatch is not None:
            return 400, error_doc("protocol", mismatch), None
        model = body.get("model")
        runner = self.runners.get(model) if isinstance(model, str) else None
        if runner is None:
            return 404, error_doc(
                "unknown-model", f"model {model!r} is not served; "
                f"have {sorted(self.runners)}"), None
        feeds_doc = body.get("feeds")
        if not isinstance(feeds_doc, dict) or not feeds_doc:
            return 400, error_doc(
                "bad-request", "infer body must carry a 'feeds' map"), None
        try:
            feeds = {str(name): decode_array(arr_doc)
                     for name, arr_doc in feeds_doc.items()}
        except ValueError as exc:
            return 400, error_doc("bad-request", str(exc)), None
        for name, arr in feeds.items():
            if arr.dtype.kind == "f" and not np.isfinite(arr).all():
                return 400, error_doc(
                    "bad-request", f"feed {name!r} holds NaN or "
                    f"infinity"), None
        try:
            pending = runner.submit(feeds)
        except DiagnosticError as exc:
            return 400, error_doc(exc.code, str(exc)), None
        except queue_mod.Full:
            get_metrics().counter("serving.infer.rejected",
                                  model=runner.model).inc()
            retry_after = max(runner.batch_ms / 1000.0, 0.01)
            return (429,
                    error_doc("busy", f"model {runner.model!r} queue is "
                              f"full ({runner.queue.maxsize})"),
                    {"Retry-After": f"{retry_after:.3f}"})
        except ServiceError as exc:
            return 503, error_doc("unavailable", str(exc)), None
        if not pending.event.wait(self.request_timeout_s):
            return 504, error_doc(
                "timeout", f"inference did not complete within "
                f"{self.request_timeout_s}s"), None
        if pending.error is not None:
            return 500, error_doc("inference", pending.error), None
        outputs = pending.outputs or {}
        return 200, {"ok": True, "model": runner.model,
                     "outputs": {name: encode_array(arr)
                                 for name, arr in outputs.items()}}, None

    def close(self) -> None:
        for runner in self.runners.values():
            runner.stop()


class InferServer:
    """The ``serve-infer`` daemon: one :class:`InferApp` on HTTP."""

    def __init__(self, programs: Dict[str, Program],
                 host: str = DEFAULT_HOST, port: int = DEFAULT_INFER_PORT,
                 batch_ms: Optional[float] = None, batch_cap: int = 32,
                 max_queue: int = 128,
                 request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S
                 ) -> None:
        self.app = InferApp(programs, batch_ms=batch_ms,
                            batch_cap=batch_cap, max_queue=max_queue,
                            request_timeout_s=request_timeout_s)
        self.server = ServingHTTPServer((host, port), self.app)
        self._runner: Optional[ServerThread] = None
        self._closed = False

    @property
    def addr(self) -> str:
        return self.server.bound_addr

    def start(self) -> str:
        """Serve on a background thread; returns the bound address.

        Pins the process's allocator first (:func:`_pin_heap`), so a
        request reuses the heap pages of the last one instead of
        faulting in fresh ones.
        """
        _pin_heap()
        self._runner = ServerThread(self.server)
        return self._runner.start()

    def serve_forever(self) -> None:
        """Serve on this thread (``repro serve-infer``); pins the
        allocator as :meth:`start` does."""
        _pin_heap()
        self.server.serve_forever(poll_interval=0.1)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._runner is not None:
            self._runner.stop()  # shutdown + join + app.close
        else:
            self.server.server_close()
            self.app.close()

    def __enter__(self) -> "InferServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["DEFAULT_BATCH_MS", "DEFAULT_REQUEST_TIMEOUT_S", "InferApp",
           "InferServer", "MAX_BATCH_MS", "ModelRunner", "resolve_batch_ms"]
