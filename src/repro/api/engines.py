"""The pluggable execution engines behind :class:`repro.api.Session`.

An :class:`Engine` turns canonical :class:`~repro.api.FitRequest` s into
canonical :class:`~repro.api.FitArtifact` s and knows nothing about
caching, warm-seed selection, or quality guards — that is the Session's
job.  Five implementations ship today:

=========  ============================================================
``inline``  one scalar :class:`~repro.core.fit.FlexSfuFitter` run per
            request, sequential, in-process — the reference engine
``lane``    shape-compatible requests stacked through the vectorised
            multi-lane kernel (:mod:`repro.core.lanefit`), in-process
``pool``    lane-batched units fanned out over a
            ``ProcessPoolExecutor`` (the old ``BatchFitter`` strategy)
``daemon``  requests submitted to the shared ``repro serve`` queue and
            awaited (the old ``fit_many`` strategy)
``http``    requests posted to a ``repro serve-http`` daemon over the
            network (:mod:`repro.serving`)
=========  ============================================================

All five produce **numerically identical artifacts** for the same
requests (the lane kernel is bit-for-bit equal to the scalar fitter by
contract, and pool/daemon/http compose those two); the property suite
asserts it.

Failure contract: ``fit`` returns ``None`` in a failed request's slot
and records the reason in :attr:`last_errors`; it raises only when the
engine as a whole is unusable (e.g. the daemon died mid-wait).  The
Session turns unresolved ``None`` s into one aggregate error after
persisting the successes, so a single divergent job never costs its
batchmates their results.
"""

from __future__ import annotations

import concurrent.futures
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Protocol,
                    Sequence)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.queue import JobQueue

from ..core.batchfit import (CachedFit, _pool_worker_init, _run_group,
                             _run_job, plan_units, pool_map_units)
from ..errors import FitError, ServiceError, TransientError
from ..faults import get_faults
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from ..service.retry import RetryPolicy
from .artifact import FitArtifact
from .config import (ENGINE_DAEMON, ENGINE_HTTP, ENGINE_INLINE, ENGINE_LANE,
                     ENGINE_POOL, EngineConfig)
from .request import FitRequest

#: The per-request warm seed type: a ``PiecewiseLinear.to_dict``
#: document from a neighbouring cached configuration, or ``None``.
WarmSeed = Optional[Dict]


class Engine(Protocol):
    """What a Session needs from an execution backend."""

    #: Stable engine name, recorded in every artifact it produces.
    name: str

    #: Failure reasons of the most recent :meth:`fit` call, by request
    #: index (empty when everything succeeded).
    last_errors: Dict[int, str]

    def fit(self, requests: Sequence[FitRequest],
            warm: Optional[Sequence[WarmSeed]] = None
            ) -> List[Optional[FitArtifact]]:
        """Fit every request; results in input order, ``None`` = failed."""
        ...

    def capabilities(self) -> Dict[str, Any]:
        """Static facts a caller may route on (parallelism, remoteness)."""
        ...

    def close(self) -> None:
        """Release any held resources (idempotent)."""
        ...


def _wrap_payload(request: FitRequest, payload: Dict, engine: str
                  ) -> FitArtifact:
    """One worker payload (``_run_job`` shape) into an artifact."""
    entry = CachedFit.from_dict(payload["entry"])
    return FitArtifact.from_entry(
        entry, key=request.key, engine=engine, from_cache=False,
        wall_time_s=float(payload.get("wall_time_s", 0.0)),
        provenance={"kernel": str(payload.get("engine", "scalar"))})


class _LocalEngine:
    """Shared machinery of the in-process engines (inline / lane / pool)."""

    name = "local"

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        self.last_errors: Dict[int, str] = {}

    # Subclasses implement: unit planning + unit execution.
    def _units(self, tasks: List) -> List[List[int]]:
        raise NotImplementedError

    def _run_units(self, units: List[List[int]], tasks: List
                   ) -> Dict[int, Dict]:
        """Execute every unit in-process; returns index -> payload."""
        out: Dict[int, Dict] = {}
        for unit in units:
            try:
                get_faults().check("engine.fit")
                if len(unit) == 1:
                    payloads = [_run_job(*tasks[unit[0]])]
                else:
                    payloads = _run_group([tasks[i] for i in unit])
            except TransientError:
                # Engine-level by definition: a transient failure is a
                # property of the moment, not of the jobs, so the whole
                # call reports it and the Session's failover chain
                # retries elsewhere (per-unit strings would read as
                # deterministic job failures and poison the batch).
                raise
            except Exception as exc:
                payloads = [{"error": repr(exc)}] * len(unit)
            for i, payload in zip(unit, payloads):
                out[i] = payload
        return out

    def fit(self, requests: Sequence[FitRequest],
            warm: Optional[Sequence[WarmSeed]] = None
            ) -> List[Optional[FitArtifact]]:
        self.last_errors = {}
        if not requests:
            return []
        seeds = list(warm) if warm is not None else [None] * len(requests)
        if len(seeds) != len(requests):
            raise FitError(f"{len(seeds)} warm seeds for "
                           f"{len(requests)} requests")
        tasks = [(req.job, seed, None)
                 for req, seed in zip(requests, seeds)]
        with get_tracer().span("fit.engine", engine=self.name,
                               n_requests=len(requests)) as sp:
            units = self._units(tasks)
            sp.set(units=len(units))
            payloads = self._run_units(units, tasks)
            results: List[Optional[FitArtifact]] = []
            for i, req in enumerate(requests):
                payload = payloads.get(i, {"error": "no result produced"})
                if "error" in payload:
                    self.last_errors[i] = str(payload["error"])
                    results.append(None)
                else:
                    results.append(_wrap_payload(req, payload, self.name))
            if self.last_errors:
                sp.set(failed=len(self.last_errors))
        return results

    def capabilities(self) -> Dict[str, Any]:
        return {"engine": self.name, "parallel": False,
                "lane_batch": False, "workers": 1, "remote": False}

    def close(self) -> None:
        pass


class InlineEngine(_LocalEngine):
    """One scalar fit per request, sequential — the reference engine."""

    name = ENGINE_INLINE

    def _units(self, tasks: List) -> List[List[int]]:
        return [[i] for i in range(len(tasks))]


class LaneEngine(_LocalEngine):
    """Shape-compatible requests batched through the multi-lane kernel.

    The whole group rides one deep batch (no chunking): with no pool to
    feed, one lock-step descent beats several shallow ones run
    back-to-back.
    """

    name = ENGINE_LANE

    def _units(self, tasks: List) -> List[List[int]]:
        plan = plan_units({str(i): job.config
                           for i, (job, _, _) in enumerate(tasks)},
                          lane_batch=True, workers=1)
        return [[int(k) for k in unit] for unit in plan]

    def capabilities(self) -> Dict[str, Any]:
        return {"engine": self.name, "parallel": False,
                "lane_batch": True, "workers": 1, "remote": False}


class PoolEngine(_LocalEngine):
    """Lane-batched units fanned out over a process pool.

    Worker count resolves through
    :meth:`EngineConfig.resolve_workers`; with one effective worker the
    units run in-process (forking a pool would only add overhead),
    exactly like the old ``BatchFitter`` fallback.
    """

    name = ENGINE_POOL

    def _units(self, tasks: List) -> List[List[int]]:
        workers = self.config.resolve_workers(len(tasks))
        plan = plan_units({str(i): job.config
                           for i, (job, _, _) in enumerate(tasks)},
                          lane_batch=self.config.lane_batch,
                          workers=workers)
        return [[int(k) for k in unit] for unit in plan]

    def _run_units(self, units: List[List[int]], tasks: List
                   ) -> Dict[int, Dict]:
        workers = self.config.resolve_workers(
            sum(len(u) for u in units))
        if workers == 1 or len(units) == 1:
            return super()._run_units(units, tasks)
        # Engine-level failure site: a BrokenProcessPool raised here is
        # what a worker dying at dispatch looks like; the Session's
        # failover chain (not this engine) owns the recovery.
        get_faults().check("engine.pool")
        out: Dict[int, Dict] = {}
        dispatch: List[List[int]] = []
        for unit in units:
            # The per-unit site of every local engine, hit here in the
            # parent with the in-process path's semantics: a transient
            # fault fails the whole call, any other fails the unit.
            try:
                get_faults().check("engine.fit")
            except TransientError:
                raise
            except Exception as exc:
                out.update({i: {"error": repr(exc)} for i in unit})
            else:
                dispatch.append(unit)
        if not dispatch:
            return out
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(dispatch)),
            initializer=_pool_worker_init)
        try:
            for unit, got in pool_map_units(pool, dispatch,
                                            tasks.__getitem__):
                if isinstance(got, BaseException):
                    got = [{"error": repr(got)}] * len(unit)
                for i, payload in zip(unit, got):
                    out[i] = payload
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        return out

    def capabilities(self) -> Dict[str, Any]:
        return {"engine": self.name, "parallel": True,
                "lane_batch": self.config.lane_batch,
                "workers": self.config.resolve_workers(),
                "remote": False}


class DaemonEngine:
    """Requests submitted to the shared ``repro serve`` queue.

    Warm seeds are ignored here on purpose: the daemon owns its own
    cache-adjacency lookup (it sees the whole cluster's cache, the
    client may not).  Raises :class:`~repro.errors.ServiceError` when
    no daemon is serving or one dies mid-wait; jobs the daemon *failed*
    come back as ``None`` slots with their markers cleared, so a
    Session-level local retry is not vetoed by the stale failure.
    """

    name = ENGINE_DAEMON

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        self.last_errors: Dict[int, str] = {}
        self.retry = RetryPolicy(
            max_attempts=self.config.retry_max_attempts,
            base_delay_s=self.config.retry_base_delay_s)

    def _queue(self) -> JobQueue:
        from ..service.queue import JobQueue
        return JobQueue(self.config.service_root)

    def alive(self) -> bool:
        """Is a daemon heartbeating on the configured queue?"""
        return self._queue().daemon_alive()

    def heartbeat_status(self) -> str:
        """``"alive"``, ``"stale"`` (heartbeat exists but old — a
        daemon died or wedged), or ``"absent"`` (never served)."""
        queue = self._queue()
        if queue.daemon_alive():
            return "alive"
        return "absent" if queue.heartbeat() is None else "stale"

    def fit(self, requests: Sequence[FitRequest],
            warm: Optional[Sequence[WarmSeed]] = None
            ) -> List[Optional[FitArtifact]]:
        from ..service.client import wait

        self.last_errors = {}
        if not requests:
            return []
        queue = self._queue()
        # Pre-flight before enqueueing anything: submitting to a queue
        # nobody serves would orphan jobs for the *next* daemon to
        # replay as stale work.
        if not queue.daemon_alive():
            raise ServiceError(f"no fit daemon is serving {queue.root} "
                               f"({len(requests)} requests unsubmitted)")
        keys = [req.key for req in requests]
        on_retry = (lambda attempt, exc:
                    get_metrics().counter("service.client.retries").inc())
        with get_tracer().span("fit.engine", engine=self.name,
                               n_requests=len(requests)):
            for key, req in zip(keys, requests):
                # A leftover failure from an earlier episode (broken
                # pool, killed daemon) must not veto a fresh attempt.
                got = queue.result(key)
                if got is not None and got[0] == "failed":
                    queue.forget(key)
                # Transient submit I/O retries under the budget; a key
                # that stays unsubmittable raises ServiceError so the
                # Session's failover chain takes over.
                try:
                    self.retry.call(
                        lambda key=key, req=req: queue.submit(
                            key, {"job": req.to_dict()}),
                        on_retry=on_retry)
                except OSError as exc:
                    raise ServiceError(
                        f"cannot submit fit job {key[:16]}… to "
                        f"{queue.root}: {exc}") from exc
            entries, failures = wait(
                sorted(set(keys)), root=self.config.service_root,
                timeout_s=self.config.timeout_s, poll_s=self.config.poll_s,
                require_daemon=True, return_failures=True)
        results: List[Optional[FitArtifact]] = []
        for i, (key, req) in enumerate(zip(keys, requests)):
            entry = entries.get(key)
            if entry is None:
                doc = failures.get(key, {})
                self.last_errors[i] = str(doc.get("error", "unknown error"))
                queue.forget(key)
                results.append(None)
            else:
                results.append(FitArtifact.from_entry(
                    entry, key=key, engine=self.name, from_cache=False,
                    provenance={"source": "daemon"}))
        return results

    def capabilities(self) -> Dict[str, Any]:
        return {"engine": self.name, "parallel": True, "remote": True,
                "root": str(self._queue().root), "alive": self.alive()}

    def close(self) -> None:
        pass


class HttpEngine:
    """Requests fitted by a ``repro serve-http`` daemon over HTTP.

    The network sibling of :class:`DaemonEngine`: the server owns the
    shared cache and warm-seed lookup, so client-side warm seeds are
    ignored here too.  The address resolves through
    :meth:`EngineConfig.resolve_http_addr` (explicit config >
    ``REPRO_SERVE_ADDR``); with neither set the engine is unconfigured
    and raises :class:`~repro.errors.ServiceError` — which is how the
    ``auto`` chain knows to skip it.

    Transport-error contract: connection failures and exhausted
    backpressure retries (429s, retried with jittered backoff by the
    shared :class:`~repro.service.retry.RetryPolicy`) surface as
    engine-level failures — ``ServiceError`` / ``TransientError`` —
    advancing the Session's failover chain; a job the *server* failed
    comes back as a ``None`` slot with the reason in
    :attr:`last_errors`, exactly like every other engine.
    """

    name = ENGINE_HTTP

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        self.last_errors: Dict[int, str] = {}
        self.retry = RetryPolicy(
            max_attempts=self.config.retry_max_attempts,
            base_delay_s=self.config.retry_base_delay_s)
        self._client: Optional[Any] = None
        self._client_addr: Optional[str] = None

    # ------------------------------------------------------------------ #
    def addr(self) -> Optional[str]:
        """The resolved serving address (``None`` = unconfigured)."""
        return self.config.resolve_http_addr()

    def configured(self) -> bool:
        return self.addr() is not None

    def _client_for(self, addr: str) -> Any:
        from ..serving.client import ServingClient
        if self._client is None or self._client_addr != addr:
            if self._client is not None:
                self._client.close()
            self._client = ServingClient(
                addr, timeout_s=self.config.http_timeout_s,
                retry=self.retry)
            self._client_addr = addr
        return self._client

    def alive(self, timeout_s: float = 1.0) -> bool:
        """One cheap liveness probe against ``/healthz``."""
        addr = self.addr()
        if addr is None:
            return False
        return self._client_for(addr).alive(timeout_s=timeout_s)

    def fit(self, requests: Sequence[FitRequest],
            warm: Optional[Sequence[WarmSeed]] = None
            ) -> List[Optional[FitArtifact]]:
        self.last_errors = {}
        if not requests:
            return []
        addr = self.addr()
        if addr is None:
            raise ServiceError(
                f"no serving address configured (set http_addr or "
                f"$REPRO_SERVE_ADDR; {len(requests)} requests unsent)")
        client = self._client_for(addr)
        with get_tracer().span("fit.http", addr=addr,
                               n_requests=len(requests)) as sp:
            docs = client.fit([req.to_dict() for req in requests])
            results: List[Optional[FitArtifact]] = []
            for i, (req, doc) in enumerate(zip(requests, docs)):
                art = self._decode(req, doc, addr)
                if art is None:
                    self.last_errors[i] = str(
                        doc.get("error", "malformed result document")
                        if isinstance(doc, dict) else "malformed result")
                results.append(art)
            if self.last_errors:
                sp.set(failed=len(self.last_errors))
        return results

    def _decode(self, req: FitRequest, doc: Any,
                addr: str) -> Optional[FitArtifact]:
        if not isinstance(doc, dict) or "error" in doc or \
                "entry" not in doc:
            return None
        try:
            entry = CachedFit.from_dict(doc["entry"])
        except Exception:
            return None
        return FitArtifact.from_entry(
            entry, key=req.key, engine=self.name, from_cache=False,
            wall_time_s=float(doc.get("wall_time_s", 0.0)),
            provenance={"source": "http", "addr": addr})

    def capabilities(self) -> Dict[str, Any]:
        addr = self.addr()
        return {"engine": self.name, "parallel": True, "remote": True,
                "addr": addr,
                "alive": self.alive() if addr is not None else False}

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None


#: Concrete engine classes by name (``auto`` is resolved by the
#: Session before it reaches this table).
ENGINE_TYPES = {
    ENGINE_INLINE: InlineEngine,
    ENGINE_LANE: LaneEngine,
    ENGINE_POOL: PoolEngine,
    ENGINE_DAEMON: DaemonEngine,
    ENGINE_HTTP: HttpEngine,
}


def create_engine(name: str, config: Optional[EngineConfig] = None) -> Engine:
    """Instantiate a concrete engine by name."""
    try:
        cls = ENGINE_TYPES[name]
    except KeyError:
        raise FitError(f"unknown engine {name!r}; expected one of "
                       f"{tuple(ENGINE_TYPES)}") from None
    return cls(config)


__all__ = [
    "DaemonEngine",
    "Engine",
    "ENGINE_TYPES",
    "HttpEngine",
    "InlineEngine",
    "LaneEngine",
    "PoolEngine",
    "create_engine",
]
