"""The pluggable execution engines behind :class:`repro.api.Session`.

An :class:`Engine` turns canonical :class:`~repro.api.FitRequest` s into
canonical :class:`~repro.api.FitArtifact` s and knows nothing about
caching, warm-seed selection, or quality guards — that is the Session's
job.  Four implementations ship today:

==========  ===========================================================
``inline``  one scalar :class:`~repro.core.fit.FlexSfuFitter` run per
            request, sequential, in-process — the reference engine
``lane``    shape-compatible requests stacked through the vectorised
            multi-lane kernel (:mod:`repro.core.lanefit`), in-process
``pool``    lane-batched units fanned out over a
            ``ProcessPoolExecutor``, one pool per call (also what the
            ``repro serve`` daemon fits on)
``remote``  requests fitted by the ``repro serve`` daemon: posted to
            its HTTP listener when an address resolves, else submitted
            to its file queue and awaited
==========  ===========================================================

All four produce **numerically identical artifacts** for the same
requests (the lane kernel is bit-for-bit equal to the scalar fitter by
contract, and pool and remote compose those two); the property suite
asserts it, on both remote transports.

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
                    Sequence, Tuple, Union)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.queue import JobQueue

from ..core.batchfit import (CachedFit, _pool_worker_init, _run_unit,
                             plan_units)
from ..errors import FitError, ServiceError, TransientError
from ..faults import get_faults
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from ..service.retry import RetryPolicy
from .artifact import FitArtifact
from .config import (ENGINE_INLINE, ENGINE_LANE, ENGINE_POOL, ENGINE_REMOTE,
                     EngineConfig)
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
    """One worker payload (``_run_unit`` element) into an artifact."""
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
                payloads = _run_unit([tasks[i] for i in unit])
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
        tasks = [(req.job, seed) for req, seed in zip(requests, seeds)]
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
                           for i, (job, _) in enumerate(tasks)},
                          lane_batch=True, workers=1)
        return [[int(k) for k in unit] for unit in plan]

    def capabilities(self) -> Dict[str, Any]:
        return {"engine": self.name, "parallel": False,
                "lane_batch": True, "workers": 1, "remote": False}


class PoolEngine(_LocalEngine):
    """Lane-batched units fanned out over a process pool.

    Worker count resolves through
    :meth:`EngineConfig.resolve_workers`.  Each call with two or more
    units opens its own pool and shuts it down before returning, so no
    pool outlives the call that broke it; with one effective worker or
    one unit the call runs in-process (forking a pool would only add
    overhead).
    """

    name = ENGINE_POOL

    def _units(self, tasks: List) -> List[List[int]]:
        workers = self.config.resolve_workers(len(tasks))
        plan = plan_units({str(i): job.config
                           for i, (job, _) in enumerate(tasks)},
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
        faults = get_faults()
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(dispatch)),
            initializer=_pool_worker_init,
            initargs=(faults.plan.to_json(),) if faults.enabled else ())
        try:
            futures = [(unit, pool.submit(_run_unit,
                                          [tasks[i] for i in unit]))
                       for unit in dispatch]
            for unit, fut in futures:
                try:
                    got = fut.result()
                except Exception as exc:  # job failures gather
                    got = [{"error": repr(exc)}] * len(unit)
                out.update(zip(unit, got))
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        return out

    def capabilities(self) -> Dict[str, Any]:
        return {"engine": self.name, "parallel": True,
                "lane_batch": self.config.lane_batch,
                "workers": self.config.resolve_workers(),
                "remote": False}


#: The remote engine's two transports (``provenance["transport"]``).
TRANSPORT_HTTP = "http"
TRANSPORT_QUEUE = "queue"

#: :meth:`RemoteEngine.status` values.  ``"down"`` (an address that does
#: not answer, or a stale heartbeat) is a degradation the failover chain
#: records; ``"absent"`` (no daemon ever heartbeated) is skipped silently.
STATUS_ALIVE = "alive"
STATUS_DOWN = "down"
STATUS_ABSENT = "absent"

#: What one remote slot decodes to: the entry and its fit's wall time,
#: or the reason the slot failed.
_Slot = Union[Tuple[CachedFit, float], str]


def _decode_slot(doc: Any) -> _Slot:
    """One ``POST /v1/fit`` result slot (see ``service.daemon.result_doc``)."""
    if not isinstance(doc, dict):
        return "malformed result"
    if "error" in doc or "entry" not in doc:
        return str(doc.get("error", "malformed result document"))
    try:
        return (CachedFit.from_dict(doc["entry"]),
                float(doc.get("wall_time_s", 0.0)))
    except Exception as exc:
        return f"undecodable result: {exc!r}"


class RemoteEngine:
    """Requests fitted by the ``repro serve`` daemon.

    The transport resolves on every call: HTTP to the daemon's listener
    when :meth:`EngineConfig.resolve_http_addr` gives an address
    (explicit ``http_addr`` > ``REPRO_SERVE_ADDR``), else the daemon's
    file queue at ``service_root``.  The daemon owns the shared cache
    and its warm-seed lookup, so client-side warm seeds are ignored.

    Failure contract, on either transport: a job the daemon failed comes
    back as a ``None`` slot with its reason in :attr:`last_errors`; an
    unusable daemon raises — :class:`~repro.errors.ServiceError` when
    no daemon serves the queue or one dies mid-wait, ``OSError`` /
    :class:`~repro.errors.TransientError` when the address does not
    answer or 429 backpressure outlasts the retry budget — and the
    Session's failover chain takes over.  One ``timeout_s`` bounds a
    batch on either transport.
    """

    name = ENGINE_REMOTE

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        self.last_errors: Dict[int, str] = {}
        self.retry = RetryPolicy(
            max_attempts=self.config.retry_max_attempts,
            base_delay_s=self.config.retry_base_delay_s)
        self._client: Optional[Any] = None
        self._client_addr: Optional[str] = None

    # ------------------------------------------------------------------ #
    def target(self) -> str:
        """Where the daemon is reached: its address or its queue root."""
        addr = self.config.resolve_http_addr()
        return addr if addr is not None else str(self._queue().root)

    def _queue(self) -> JobQueue:
        from ..service.queue import JobQueue
        return JobQueue(self.config.service_root)

    def _client_for(self, addr: str) -> Any:
        from ..serving.client import ServingClient
        if self._client is None or self._client_addr != addr:
            if self._client is not None:
                self._client.close()
            self._client = ServingClient(addr, timeout_s=self.config.timeout_s,
                                         retry=self.retry)
            self._client_addr = addr
        return self._client

    def status(self) -> str:
        """:data:`STATUS_ALIVE`, :data:`STATUS_DOWN` or
        :data:`STATUS_ABSENT`.

        Over HTTP, one ``/healthz`` probe (an address never counts as
        absent).  Over the queue, the heartbeat file: one stat, plus one
        read when it is not fresh — no socket.
        """
        addr = self.config.resolve_http_addr()
        if addr is not None:
            alive = self._client_for(addr).alive()
            return STATUS_ALIVE if alive else STATUS_DOWN
        queue = self._queue()
        if queue.daemon_alive():
            return STATUS_ALIVE
        return STATUS_ABSENT if queue.heartbeat() is None else STATUS_DOWN

    def fit(self, requests: Sequence[FitRequest],
            warm: Optional[Sequence[WarmSeed]] = None
            ) -> List[Optional[FitArtifact]]:
        self.last_errors = {}
        if not requests:
            return []
        addr = self.config.resolve_http_addr()
        transport = TRANSPORT_QUEUE if addr is None else TRANSPORT_HTTP
        provenance: Dict[str, Any] = {"source": "remote",
                                      "transport": transport}
        with get_tracer().span("fit.engine", engine=self.name,
                               transport=transport,
                               n_requests=len(requests)) as sp:
            if addr is None:
                slots = self._fit_queue(requests)
            else:
                provenance["addr"] = addr
                docs = self._client_for(addr).fit(
                    [req.to_dict() for req in requests])
                slots = [_decode_slot(doc) for doc in docs]
            results: List[Optional[FitArtifact]] = []
            for i, (req, slot) in enumerate(zip(requests, slots)):
                if isinstance(slot, str):
                    self.last_errors[i] = slot
                    results.append(None)
                    continue
                entry, wall_time_s = slot
                results.append(FitArtifact.from_entry(
                    entry, key=req.key, engine=self.name, from_cache=False,
                    wall_time_s=wall_time_s, provenance=provenance))
            if self.last_errors:
                sp.set(failed=len(self.last_errors))
        return results

    def _fit_queue(self, requests: Sequence[FitRequest]) -> List[_Slot]:
        """Submit to the daemon's queue and wait; one slot per request.

        A failed job's markers are cleared, so a Session-level local
        retry is not vetoed by the stale failure.
        """
        from ..service.client import wait

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
        for key, req in zip(keys, requests):
            # A leftover failure from an earlier episode (broken pool,
            # killed daemon) must not veto a fresh attempt.
            got = queue.result(key)
            if got is not None and got[0] == "failed":
                queue.forget(key)
            # Transient submit I/O retries under the budget; a key that
            # stays unsubmittable raises ServiceError so the Session's
            # failover chain takes over.
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
        slots: List[_Slot] = []
        for key in keys:
            entry = entries.get(key)
            if entry is None:
                queue.forget(key)
                slots.append(str(failures.get(key, {}).get(
                    "error", "unknown error")))
            else:
                slots.append((entry, 0.0))
        return slots

    def capabilities(self) -> Dict[str, Any]:
        addr = self.config.resolve_http_addr()
        return {"engine": self.name, "parallel": True, "remote": True,
                "transport": TRANSPORT_QUEUE if addr is None
                else TRANSPORT_HTTP,
                "target": self.target(), "status": self.status()}

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
    ENGINE_REMOTE: RemoteEngine,
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
    "Engine",
    "ENGINE_TYPES",
    "InlineEngine",
    "LaneEngine",
    "PoolEngine",
    "RemoteEngine",
    "STATUS_ABSENT",
    "STATUS_ALIVE",
    "STATUS_DOWN",
    "create_engine",
]
