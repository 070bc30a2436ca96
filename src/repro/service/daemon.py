"""The long-running fit daemon behind ``repro serve``.

One :class:`FitService` owns the machine's fitting resources — one
:class:`~repro.api.Session` on the ``pool`` engine over the shared
on-disk :class:`~repro.core.batchfit.FitCache` — and drains the
file-backed :class:`~repro.service.queue.JobQueue` that any number of
benchmark / CLI processes submit into.  Each claimed batch is one
``Session.fit``: cache lookups, the exact-PWL shortcut, dedup and warm
seeds run once for the batch, and its misses fan out over a process
pool opened for that batch (a one-unit batch fits in the daemon's own
process), so every client shares one cache instead of refitting.

With ``ServiceConfig.addr`` set, the same daemon also listens for
``POST /v1/fit`` over HTTP (:mod:`repro.serving.fit_server`), so hosts
without the queue's filesystem share its cache too.  Both paths fit
through :meth:`FitService.fit_jobs`, and the queue loop always runs, so
the daemon drains every queue it heartbeats on.  The heartbeat carries
the listener's address (``serve_addr``).

Robustness model: a batch failure falls back to per-job execution, and a
job failure is published to the queue's ``failed/`` state instead of
taking the daemon down.  Claims orphaned by a crashed daemon are
requeued on startup (:meth:`JobQueue.requeue_stale`).  The daemon
advertises liveness through a heartbeat file that clients poll before
deciding between daemon submission and local fallback; on clean exit
the heartbeat is removed so clients fail over immediately.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

from ..core.batchfit import (FitCache, FitJob, default_cache, job_from_dict,
                             write_json_atomic)
from ..faults import get_faults
from ..obs import clock
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from ..serving.protocol import PROTOCOL_VERSION
from .queue import DEFAULT_MAX_ATTEMPTS, JobQueue
from .retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.artifact import FitArtifact
    from ..serving.http import ServerThread

#: Metrics snapshot the daemon exports next to its heartbeat — what a
#: fresh `repro metrics` process reads (its own in-process registry
#: cannot see the daemon's counters).
METRICS_NAME = "metrics.json"


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one daemon instance."""

    root: Optional[Path] = None            # queue dir (default_service_dir)
    max_workers: Optional[int] = None      # pool size (env/CPU default)
    poll_interval_s: float = 0.2           # queue poll cadence when idle
    idle_timeout_s: Optional[float] = None  # exit after this much idleness
    claim_batch: int = 64                  # max jobs claimed per cycle
    warm_start: bool = True
    lane_batch: bool = True                # lane-batch shape-compatible jobs
    requeue_stale_s: float = 600.0         # reclaim age for orphaned claims
    prune_results_s: float = 3600.0        # done/failed marker retention
    max_attempts: int = DEFAULT_MAX_ATTEMPTS  # claim budget before dead/
    retry_base_delay_s: float = 0.05       # per-job fallback backoff base
    addr: Optional[str] = None             # HTTP bind host:port (None: no
    #                                        listener; port 0: a free port)
    max_pending: int = 8                   # concurrent HTTP fits before 429


def result_doc(art: FitArtifact) -> Dict[str, Any]:
    """The per-job result document: a queue ``done/`` payload and a
    ``POST /v1/fit`` result slot alike, so every client decodes both
    through the same ``CachedFit`` schema."""
    return {"key": art.key, "entry": art.to_entry().to_dict(),
            "from_cache": art.from_cache, "wall_time_s": art.wall_time_s}


def _count_retry(attempt: int, exc: BaseException) -> None:
    get_metrics().counter("service.jobs.retries").inc()


class FitService:
    """Claims queued jobs — and, with ``config.addr`` set, answers HTTP
    fit requests — fitting both through one pool-engine Session."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 cache: Optional[FitCache] = None) -> None:
        # Deferred: repro.api's engines import repro.service.retry, which
        # runs this package's __init__ and so this module.
        from ..api import EngineConfig, Session

        self.config = config or ServiceConfig()
        self.queue = JobQueue(self.config.root,
                              max_attempts=self.config.max_attempts)
        # Transient per-job failures (I/O hiccups, a pool broken under
        # the job) get a short in-process retry before the failure is
        # published; deterministic FitErrors fail fast (is_retryable).
        self.retry = RetryPolicy(
            max_attempts=self.config.max_attempts,
            base_delay_s=self.config.retry_base_delay_s)
        # No warm guard here: the daemon publishes what it fits, and the
        # client's own Session guards what it receives.
        self.session = Session(
            EngineConfig(engine="pool", max_workers=self.config.max_workers,
                         lane_batch=self.config.lane_batch,
                         warm_start=self.config.warm_start,
                         warm_quality_factor=None),
            cache=cache if cache is not None else default_cache())
        self.processed = 0
        self.failed = 0
        # The queue loop and the HTTP fit endpoint share one Session;
        # the lock serializes its fits across the two threads.
        self.fit_lock = threading.RLock()
        self._stop = False
        self._loop_done = threading.Event()
        self._loop_done.set()
        # When the last fit on either path ended (idle exit; monotonic).
        self._fitted_at = clock.mono()
        self._hb_stop = threading.Event()
        self._hb_thread: Optional[threading.Thread] = None
        # The optional HTTP listener, bound now so its address (and the
        # heartbeat's serve_addr, which `repro queue status` prints) is
        # known before serving starts.
        self.serve_addr: Optional[str] = None
        self._listener: Optional[ServerThread] = None
        if self.config.addr is not None:
            from ..serving import http
            from ..serving.fit_server import FitHttpApp
            from ..serving.protocol import DEFAULT_FIT_PORT, parse_addr

            server = http.ServingHTTPServer(
                parse_addr(self.config.addr, DEFAULT_FIT_PORT),
                FitHttpApp(self, max_pending=self.config.max_pending))
            self._listener = http.ServerThread(server)
            self.serve_addr = server.bound_addr

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def fit_jobs(self, jobs: Sequence[FitJob]
                 ) -> List[Union[FitArtifact, Exception]]:
        """Fit a batch; per job, its artifact or the error that failed it.

        The batch is one ``Session.fit``.  If that raises (one divergent
        fit, a dead pool worker), each job runs alone under
        :attr:`retry` so a bad fit fails alone; the Session persisted
        the batchmates' fits before raising, so their reruns are cache
        hits.  The queue loop and the HTTP endpoint both fit here.
        """
        try:
            return list(self._fit(jobs))
        except Exception:
            pass  # isolate: each job alone, below
        out: List[Union[FitArtifact, Exception]] = []
        for job in jobs:
            def one(job: FitJob = job) -> FitArtifact:
                [art] = self._fit([job])
                return art
            try:
                out.append(self.retry.call(one, on_retry=_count_retry))
            except Exception as exc:
                out.append(exc)
        return out

    def _fit(self, jobs: Sequence[FitJob]) -> List[FitArtifact]:
        """One ``Session.fit`` under the lock; stamps the last activity."""
        with self.fit_lock:
            try:
                return self.session.fit(jobs)
            finally:
                self._fitted_at = clock.mono()

    def run_once(self) -> int:
        """Claim and process one batch; returns the number handled."""
        claimed = self.queue.claim(self.config.claim_batch)
        if not claimed:
            return 0
        # Refresh liveness before a potentially long fit batch: clients
        # treat a stale heartbeat as a dead daemon and fail over.
        self._write_heartbeat()
        with get_tracer().span("service.batch", claimed=len(claimed)) as sp:
            before_failed = self.failed
            jobs: Dict[str, FitJob] = {}
            for key, payload in claimed:
                try:
                    jobs[key] = job_from_dict(payload["job"])
                except Exception as exc:
                    self.queue.fail(key, f"undecodable job: {exc}")
                    self.failed += 1
            if jobs:
                for key, got in zip(jobs, self.fit_jobs(list(jobs.values()))):
                    if isinstance(got, Exception):
                        self.queue.fail(key, str(got), exc=got)
                        self.failed += 1
                    else:
                        self._publish(key, got)
            new_failed = self.failed - before_failed
            sp.set(failed=new_failed)
            if new_failed:
                get_metrics().counter("service.jobs.failed").inc(new_failed)
        return len(claimed)

    def _publish(self, key: str, art: FitArtifact) -> None:
        # The crash window every queue consumer must survive: work done
        # (entry persisted) but the done marker not yet published.  An
        # InjectedCrash here leaves the claim orphaned, exactly like a
        # SIGKILL; requeue_stale + the attempt budget bound the damage.
        get_faults().check("daemon.publish")
        try:
            self.retry.call(lambda: self.queue.finish(key, result_doc(art)))
        except OSError:
            # Publication keeps failing: leave the claim for
            # requeue_stale — the refit is a cache hit, so the retry
            # costs one marker write, not a fit.
            return
        self.processed += 1
        get_metrics().counter(
            "service.jobs.done",
            from_cache="yes" if art.from_cache else "no").inc()

    def _write_heartbeat(self) -> None:
        # Injectable stall: a dropped refresh ages the on-disk
        # heartbeat exactly like a wedged daemon would.
        if get_faults().drop("daemon.heartbeat"):
            return
        # The heartbeat payload is a persisted cross-process record:
        # wall clock by design (see repro.obs.clock).
        doc = {
            "pid": os.getpid(),
            "processed": self.processed,
            "failed": self.failed,
            "protocol": PROTOCOL_VERSION,
            "time": clock.wall(),
        }
        if self.serve_addr is not None:
            doc["serve_addr"] = self.serve_addr
        self.queue.write_heartbeat(doc)
        self._export_metrics()

    def _export_metrics(self) -> None:
        """Publish a metrics snapshot next to the heartbeat.

        `repro metrics` runs in its own process whose registry is
        empty; this file is how it sees the daemon's counters.  Queue
        depths are re-gauged at export time so the snapshot is
        self-consistent.
        """
        metrics = get_metrics()
        try:
            for state, n in self.queue.counts().items():
                metrics.gauge("service.queue.depth", state=state).set(n)
            export = {"pid": os.getpid(), "time": clock.wall(),
                      "protocol": PROTOCOL_VERSION,
                      "metrics": metrics.snapshot()}
            if self.serve_addr is not None:
                export["serve_addr"] = self.serve_addr
            write_json_atomic(self.queue.root / METRICS_NAME, export)
        except OSError:  # pragma: no cover - transient fs issue
            pass

    def _start_heartbeat_thread(self) -> None:
        """Keep the heartbeat fresh *during* long fit batches.

        ``run_once`` blocks in ``Session.fit`` for as long as a claimed
        batch takes; without a background refresher a healthy-but-busy daemon
        would look dead to clients (whose staleness bound is seconds).
        The writes are atomic (temp + ``os.replace``), so racing the
        serve loop's own refreshes is harmless.
        """
        if self._hb_thread is not None and self._hb_thread.is_alive():
            return
        self._hb_stop.clear()

        def beat() -> None:
            while not self._hb_stop.wait(2.0):
                try:
                    self._write_heartbeat()
                except OSError:  # pragma: no cover - transient fs issue
                    pass

        self._hb_thread = threading.Thread(target=beat, daemon=True,
                                           name="fitservice-heartbeat")
        self._hb_thread.start()

    def serve_forever(self) -> int:
        """Blocking serve loop; returns total jobs handled.

        Starts the HTTP listener (when configured) on its own thread,
        then drains the queue.  Exits when :meth:`stop` or
        :meth:`close` is called (e.g. from a signal handler or another
        thread) or after ``idle_timeout_s`` without a fit on either
        path.
        """
        self._loop_done.clear()
        try:
            if self._listener is not None:
                self._listener.start()
            return self._serve_queue()
        finally:
            self._loop_done.set()

    def _serve_queue(self) -> int:
        cfg = self.config
        self.queue.requeue_stale(cfg.requeue_stale_s)
        self.queue.prune_results(cfg.prune_results_s)
        self._write_heartbeat()
        self._start_heartbeat_thread()
        idle_since = clock.mono()
        last_prune = clock.mono()
        last_requeue = clock.mono()
        # Orphaned claims become reclaimable at age requeue_stale_s, so
        # sweep for them a few times per staleness window; result-marker
        # pruning only bounds disk growth and can run on its own period.
        requeue_every = max(cfg.requeue_stale_s / 4.0, 1.0)
        while not self._stop:
            try:
                n = self.run_once()
            except OSError:
                # Transient queue I/O (full disk, flaky mount, injected
                # fault): this cycle claims nothing; claims it may have
                # taken are re-served by requeue_stale under the
                # attempt budget.  Only a crash kills the loop.
                get_metrics().counter("service.loop.io_errors").inc()
                n = 0
            if n:  # idle refreshes belong to the heartbeat thread
                self._write_heartbeat()
            now = clock.mono()
            if now - last_requeue > requeue_every:
                self.queue.requeue_stale(cfg.requeue_stale_s)
                last_requeue = now
            if now - last_prune > cfg.prune_results_s:
                self.queue.prune_results(cfg.prune_results_s)
                last_prune = now
            if n:
                idle_since = now
                continue  # drain eagerly while work keeps arriving
            if cfg.idle_timeout_s is not None:
                # An HTTP fit counts as work too: wait out one in
                # progress, then count from the end of the last one.
                with self.fit_lock:
                    idle_since = max(idle_since, self._fitted_at)
                if now - idle_since > cfg.idle_timeout_s:
                    break
            time.sleep(cfg.poll_interval_s)
        return self.processed

    def drain(self) -> int:
        """Process until the queue is empty; returns jobs handled."""
        self.queue.requeue_stale(self.config.requeue_stale_s)
        self._write_heartbeat()
        self._start_heartbeat_thread()
        handled = 0
        while True:
            n = self.run_once()
            if n == 0:
                return handled
            handled += n
            self._write_heartbeat()

    def stop(self) -> None:
        """Ask the serve loop to exit after the current batch."""
        self._stop = True

    def close(self) -> None:
        """Stop the listener, then the queue loop, the heartbeat and
        the Session (idempotent)."""
        if self._listener is not None:
            self._listener.stop()  # shutdown + join + server_close
            self._listener = None
        self.stop()
        # A loop on another thread finishes its batch first (bounded).
        self._loop_done.wait(timeout=30.0)
        self._hb_stop.set()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=5.0)
            self._hb_thread = None
        self.session.close()
        # Retire the liveness marker only if it is OURS: with several
        # daemons sharing one queue, an exiting daemon must not declare
        # a surviving sibling dead.
        beat = self.queue.heartbeat()
        if beat is not None and beat.get("pid") == os.getpid():
            try:
                self.queue.heartbeat_path.unlink()
            except OSError:
                pass

    def __enter__(self) -> "FitService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
