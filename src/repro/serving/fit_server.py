"""The fit daemon's HTTP listener: ``repro serve --addr``.

:class:`FitHttpApp` is what a :class:`~repro.service.daemon.FitService`
runs on its optional listener (``ServiceConfig.addr``), so one shared
:class:`~repro.core.batchfit.FitCache` and the service's pool-engine
Session serve a whole cluster instead of one filesystem.  The daemon
keeps draining its file-backed job queue beside the listener; HTTP
requests fit through the *same* Session under the service's
``fit_lock``, read through the same cache, and publish into the same
heartbeat — which advertises the bind address and protocol version so
``repro queue status`` can discover live servers.

Request flow for ``POST /v1/fit``:

1. protocol check → 400 on a version mismatch;
2. admission → 429 + ``Retry-After`` when ``max_pending`` concurrent
   fit requests are already in flight (bounded queue, not unbounded
   thread pileup);
3. per-job decode → an undecodable job document fails alone
   (``{"error": ...}`` in its slot), mirroring the daemon's queue path;
4. one :meth:`FitService.fit_jobs` per request — the daemon's own
   batch, with its batch→per-job isolation fallback;
5. per-job result documents ``{"key", "entry", "from_cache",
   "wall_time_s"}`` — byte-compatible with the queue's ``done/``
   payloads, so :class:`~repro.api.engines.RemoteEngine` decodes both
   transports through the same ``CachedFit`` schema.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from ..core.batchfit import FitJob, job_from_dict
from ..errors import ServiceError
from ..obs import clock
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from ..service.daemon import FitService, result_doc
from .http import Response, ServingApp
from .protocol import ROUTE_FIT, check_protocol, error_doc


class FitHttpApp(ServingApp):
    """Routes ``POST /v1/fit`` onto the :class:`FitService` it serves."""

    role = "fit"

    def __init__(self, service: FitService, max_pending: int = 8) -> None:
        if max_pending < 1:
            # A zero-slot semaphore would answer every fit with 429.
            raise ServiceError(
                f"max_pending must be >= 1, got {max_pending}")
        self.service = service
        self.max_pending = max_pending
        # Admission control: at most max_pending fit requests fitting /
        # waiting on the fit_lock; the rest bounce with 429 so a burst
        # degrades into client backoff instead of a thread pileup.
        self._slots = threading.BoundedSemaphore(max_pending)

    # ------------------------------------------------------------------ #
    def handle(self, method: str, path: str,
               body: Optional[Dict[str, Any]]) -> Response:
        if method == "POST" and path == ROUTE_FIT:
            return self._handle_fit(body or {})
        return super().handle(method, path, body)

    def cache_dir(self) -> Optional[str]:
        return str(self.service.session.cache.directory)

    def capabilities(self) -> Dict[str, Any]:
        cfg = self.service.config
        return {"max_pending": self.max_pending,
                "lane_batch": cfg.lane_batch,
                "warm_start": cfg.warm_start,
                "queue_root": str(self.service.queue.root),
                "processed": self.service.processed,
                "failed": self.service.failed}

    # ------------------------------------------------------------------ #
    def _handle_fit(self, body: Dict[str, Any]) -> Response:
        mismatch = check_protocol(body)
        if mismatch is not None:
            return 400, error_doc("protocol", mismatch), None
        reqs = body.get("requests")
        if not isinstance(reqs, list):
            return 400, error_doc(
                "bad-request", "fit body must carry a 'requests' list"), None
        if not self._slots.acquire(blocking=False):
            get_metrics().counter("serving.fit.rejected").inc()
            return (429,
                    error_doc("busy", f"{self.max_pending} fit requests "
                              f"already in flight; retry later"),
                    {"Retry-After": "0.1"})
        t0 = clock.mono()
        try:
            with get_tracer().span("fit.http", n_jobs=len(reqs)) as sp:
                results = self._fit_jobs(reqs)
                failed = sum(1 for r in results if "error" in r)
                sp.set(failed=failed)
        finally:
            self._slots.release()
        metrics = get_metrics()
        metrics.counter("serving.fit.requests").inc()
        metrics.counter("serving.fit.jobs").inc(len(reqs))
        if failed:
            metrics.counter("serving.fit.jobs_failed").inc(failed)
        metrics.histogram("serving.fit.batch_jobs").observe(len(reqs))
        metrics.histogram("serving.fit.latency_s").observe(
            clock.mono() - t0)
        return 200, {"ok": True, "results": results}, None

    def _fit_jobs(self, reqs: List[Any]) -> List[Dict[str, Any]]:
        """Fit decoded jobs; per-slot result documents, order aligned."""
        results: List[Dict[str, Any]] = [
            {"error": "no result produced"} for _ in reqs]
        jobs: Dict[int, FitJob] = {}
        for i, doc in enumerate(reqs):
            try:
                jobs[i] = job_from_dict(doc)
            except Exception as exc:
                results[i] = {"error": f"undecodable job: {exc}"}
        if jobs:
            fitted = self.service.fit_jobs(list(jobs.values()))
            for i, got in zip(jobs, fitted):
                results[i] = ({"error": str(got)} if isinstance(got, Exception)
                              else result_doc(got))
        return results


__all__ = ["FitHttpApp"]
