"""``Session`` — the one front door to the fitting subsystem.

A Session owns the policy around fitting: cache lookups (and the
exact-PWL native shortcut), warm-seed selection, the warm-start quality
guard, engine resolution, and artifact persistence.  The *execution* of
cache misses is delegated to a pluggable :class:`~repro.api.engines
.Engine` — inline scalar, lane-batched, process pool, or the shared
daemon — all of which produce numerically identical artifacts, so the
engine choice is purely an operational decision.

Typical use::

    from repro.api import FitRequest, Session

    with Session() as s:                       # engine="auto"
        art = s.fit_one("gelu", n_breakpoints=16)
        print(art.grid_mse, art.engine, art.from_cache)

        sweep = [FitRequest.create("tanh", n) for n in (8, 16, 32)]
        artifacts = s.fit(sweep)

Engine resolution (``engine="auto"``) is deterministic: the daemon when
one is heartbeating on the configured queue, else the process pool when
more than one worker resolves (see
:meth:`EngineConfig.resolve_workers`), else the in-process lane engine
(or the scalar inline engine with ``lane_batch=False``).
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.fit import FitConfig
    from ..graph.ir import Graph
    from ..graph.program import Program

from ..core.batchfit import FitCache, FitJob, default_cache, native_entry
from ..errors import FitError, ServiceError, TransientError
from ..functions.base import ActivationFunction
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from .artifact import FitArtifact
from .breaker import OPEN as BREAKER_OPEN
from .breaker import CircuitBreaker
from .config import (ENGINE_AUTO, ENGINE_DAEMON, ENGINE_HTTP, ENGINE_INLINE,
                     ENGINE_LANE, ENGINE_POOL, FALLBACK_ERROR, FALLBACK_LOCAL,
                     EngineConfig)
from .engines import Engine, create_engine
from .request import FitRequest

#: Exceptions that indicate the *engine* (not an individual job) failed:
#: the failover chain records a breaker failure and tries the next
#: engine.  Per-job failures are deterministic properties of the job and
#: never advance the chain.
_ENGINE_FAILURES = (ServiceError, TransientError, OSError, BrokenExecutor)

#: Engines whose fits run in another process that owns its own cache
#: and warm-seed lookup.  They share failover semantics: a pre-flight
#: liveness check before anything is sent, per-job failures retried
#: locally (the real reason may be "server died", not the job), and
#: ``degraded_from`` provenance when the chain moves past them.
_REMOTE_ENGINES = (ENGINE_HTTP, ENGINE_DAEMON)

#: What :meth:`Session.fit` accepts per element.
RequestLike = Union[FitRequest, FitJob]


class Session:
    """Facade over caching, engine selection, and artifact provenance.

    ``engine`` is an engine name (``"auto"`` / ``"inline"`` / ``"lane"``
    / ``"pool"`` / ``"daemon"``) or a full :class:`EngineConfig`.
    ``cache`` is a :class:`~repro.core.batchfit.FitCache`, a directory
    path for one, or ``None`` for the process-wide default (which
    follows ``REPRO_CACHE_DIR``); ``use_cache=False`` disables the
    persistent cache entirely (every fit runs, nothing is stored).
    """

    def __init__(self,
                 engine: Union[str, EngineConfig, None] = None,
                 cache: Union[FitCache, str, Path, None] = None,
                 use_cache: bool = True) -> None:
        if isinstance(engine, EngineConfig):
            self.config = engine
        else:
            self.config = EngineConfig(engine=engine or ENGINE_AUTO)
        if isinstance(cache, (str, Path)):
            cache = FitCache(cache)
        self._cache = cache
        self.use_cache = use_cache
        self._engines: Dict[str, Engine] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}

    # ------------------------------------------------------------------ #
    # Resources
    # ------------------------------------------------------------------ #
    @property
    def cache(self) -> Optional[FitCache]:
        """The active cache (``None`` with ``use_cache=False``).

        Resolved lazily so a default-cache Session follows
        ``REPRO_CACHE_DIR`` changes, like every legacy entry point did.
        """
        if not self.use_cache:
            return None
        return self._cache if self._cache is not None else default_cache()

    def engine(self, name: Optional[str] = None) -> Engine:
        """The (memoised) engine instance for ``name``.

        ``None`` resolves the session's configured engine for a
        single-request batch.
        """
        if name is None:
            name = self.resolve_engine_name(1, strict=False)
        got = self._engines.get(name)
        if got is None:
            got = create_engine(name, self.config)
            self._engines[name] = got
        return got

    def resolve_engine_name(self, n_requests: int = 1,
                            strict: bool = True) -> str:
        """The concrete engine an ``"auto"`` session would use now.

        With ``strict=True`` and ``fallback="error"``, an unreachable
        daemon raises :class:`~repro.errors.ServiceError` instead of
        resolving locally — how deployments assert that nothing ever
        fits outside the shared pool.  A daemon whose circuit breaker
        is open (see :class:`~repro.api.breaker.CircuitBreaker`) counts
        as unreachable until its cooldown elapses.
        """
        cfg = self.config
        if cfg.engine != ENGINE_AUTO:
            return cfg.engine
        http = self.engine(ENGINE_HTTP)
        if http.configured() and \
                self._breaker(ENGINE_HTTP).state != BREAKER_OPEN and \
                http.alive():
            return ENGINE_HTTP
        daemon = self.engine(ENGINE_DAEMON)
        if daemon.alive() and \
                self._breaker(ENGINE_DAEMON).state != BREAKER_OPEN:
            return ENGINE_DAEMON
        if strict and cfg.fallback == FALLBACK_ERROR:
            raise ServiceError(
                f"no fit daemon is serving "
                f"{daemon.capabilities()['root']} and fallback='error' "
                f"({n_requests} requests unfitted)")
        return self._local_engine_name(n_requests)

    def _local_engine_name(self, n_requests: int) -> str:
        cfg = self.config
        if n_requests > 1 and cfg.resolve_workers(n_requests) > 1:
            return ENGINE_POOL
        return ENGINE_LANE if cfg.lane_batch else ENGINE_INLINE

    def _breaker(self, name: str) -> CircuitBreaker:
        """The (memoised) circuit breaker guarding engine ``name``."""
        got = self._breakers.get(name)
        if got is None:
            got = CircuitBreaker(name,
                                 failure_threshold=self.config
                                 .breaker_threshold,
                                 cooldown_s=self.config.breaker_cooldown_s)
            self._breakers[name] = got
        return got

    def _failover_chain(self, n_requests: int) -> List[str]:
        """Engines to try, in order, for this batch of misses.

        Explicit engines get no failover (the caller asked for exactly
        that engine); the exception is a *remote* engine
        (``"daemon"`` / ``"http"``) with ``fallback="local"``, which
        falls back to a local engine.  ``auto`` produces the full
        health-tracked chain http → daemon → pool → lane → inline
        (http only when an address is configured; pool only when the
        batch and the worker budget both exceed one; lane only with
        ``lane_batch``).  ``fallback="error"`` pins the chain to the
        remote engines alone so failures raise instead of degrading.
        """
        cfg = self.config
        if cfg.engine != ENGINE_AUTO:
            if cfg.engine in _REMOTE_ENGINES and \
                    cfg.fallback == FALLBACK_LOCAL:
                return [cfg.engine, self._local_engine_name(n_requests)]
            return [cfg.engine]
        chain = ([ENGINE_HTTP]
                 if cfg.resolve_http_addr() is not None else [])
        chain.append(ENGINE_DAEMON)
        if cfg.fallback == FALLBACK_ERROR:
            return chain
        if n_requests > 1 and cfg.resolve_workers(n_requests) > 1:
            chain.append(ENGINE_POOL)
        if cfg.lane_batch:
            chain.append(ENGINE_LANE)
        chain.append(ENGINE_INLINE)
        return chain

    def capabilities(self) -> Dict:
        """The resolved engine's capabilities plus session policy."""
        engine = self.engine(self.resolve_engine_name(1, strict=False))
        out = dict(engine.capabilities())
        out.update({
            "configured_engine": self.config.engine,
            "cache": (str(self.cache.directory)
                      if self.cache is not None else None),
            "warm_start": self.config.warm_start,
            "warm_quality_factor": self.config.warm_quality_factor,
            "breakers": {name: br.snapshot()
                         for name, br in sorted(self._breakers.items())},
        })
        return out

    def close(self) -> None:
        """Release every engine this session created (idempotent)."""
        for engine in self._engines.values():
            engine.close()
        self._engines.clear()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit_one(self,
                fn: Union[RequestLike, str, ActivationFunction],
                n_breakpoints: int = 16,
                interval: Optional[Tuple[float, float]] = None,
                config: Optional[FitConfig] = None,
                boundary: Optional[Tuple[str, str]] = None) -> FitArtifact:
        """Fit a single request (built via :meth:`FitRequest.create`
        when ``fn`` is a function / name rather than a request)."""
        if isinstance(fn, (FitRequest, FitJob)):
            request: RequestLike = fn
        else:
            request = FitRequest.create(fn, n_breakpoints, interval=interval,
                                        config=config, boundary=boundary)
        [artifact] = self.fit([request])
        return artifact

    def fit(self, requests: Sequence[RequestLike]) -> List[FitArtifact]:
        """Fit every request; canonical artifacts in input order.

        Identical requests are deduplicated (and return the same
        artifact object); cache hits and exact-PWL natives never reach
        the engine.
        """
        reqs = [req if isinstance(req, FitRequest) else
                FitRequest.from_job(req) for req in requests]
        keys = [req.key for req in reqs]

        artifacts: Dict[str, FitArtifact] = {}
        misses: Dict[str, FitRequest] = {}
        cache = self.cache
        metrics = get_metrics()
        with get_tracer().span("fit.session", n_requests=len(reqs)) as sp:
            hits = natives = 0
            for req, key in zip(reqs, keys):
                if key in artifacts or key in misses:
                    continue
                if cache is not None:
                    hit = cache.get(key)
                    if hit is not None:
                        hits += 1
                        artifacts[key] = FitArtifact.from_entry(
                            hit, key=key, engine="cache", from_cache=True,
                            provenance={"source": "cache"})
                        continue
                native = native_entry(req.job)
                if native is not None:
                    natives += 1
                    if cache is not None:
                        cache.put(key, native)
                    artifacts[key] = FitArtifact.from_entry(
                        native, key=key, engine="native")
                    continue
                misses[key] = req
            if hits:
                metrics.counter("session.cache.hit").inc(hits)
            if natives:
                metrics.counter("session.cache.native").inc(natives)
            if misses:
                metrics.counter("session.cache.miss").inc(len(misses))
                artifacts.update(self._fit_misses(misses))
            sp.set(dedup=len(reqs) - len(set(keys)), hits=hits,
                   native=natives, misses=len(misses))
        return [artifacts[key] for key in keys]

    # ------------------------------------------------------------------ #
    # Miss execution
    # ------------------------------------------------------------------ #
    def _warm_seeds(self, keys: List[str], reqs: List[FitRequest]
                    ) -> Tuple[List[Optional[Dict]], List[Optional[Dict]]]:
        """Near-miss warm seeds per request, plus each seed's lineage.

        Returns ``(seeds, warm_meta)``: the PWL seed documents
        (``None`` = cold) and, per warm seed, the lineage dict that
        lands in provenance — the neighbour's cache key
        (``warm_key``) and its configuration distance
        (``warm_distance``, the :func:`~repro.core.batchfit
        .config_distance` metric the telemetry report buckets by).
        """
        from ..core.batchfit import config_distance

        cache = self.cache
        seeds: List[Optional[Dict]] = [None] * len(reqs)
        warm_meta: List[Optional[Dict]] = [None] * len(reqs)
        if not self.config.warm_start or cache is None:
            return seeds, warm_meta
        for i, (key, req) in enumerate(zip(keys, reqs)):
            near = cache.nearest_with_key(req.job, exclude_key=key)
            if near is not None:
                warm_key, entry = near
                seeds[i] = entry.pwl.to_dict()
                meta: Dict = {"warm_key": warm_key}
                if entry.config is not None and \
                        entry.config.interval is not None and \
                        req.config.interval is not None:
                    meta["warm_distance"] = config_distance(
                        req.config, entry.config.n_breakpoints,
                        entry.config.interval)
                warm_meta[i] = meta
        return seeds, warm_meta

    def _fit_misses(self, misses: Dict[str, FitRequest]
                    ) -> Dict[str, FitArtifact]:
        cfg = self.config
        cache = self.cache
        keys = list(misses)
        reqs = list(misses.values())
        metrics = get_metrics()

        chain = self._failover_chain(len(reqs))
        results: List[Optional[FitArtifact]] = [None] * len(reqs)
        seeds: List[Optional[Dict]] = [None] * len(reqs)
        warm_meta: List[Optional[Dict]] = [None] * len(reqs)
        #: Engine that produced results[i] (``None`` = cache re-check).
        produced_by: List[Optional[str]] = [None] * len(reqs)
        #: Degradations visible when results[i] was produced.
        degraded_at: List[List[str]] = [[] for _ in reqs]
        errors: Dict[str, str] = {}
        degraded: List[str] = []
        attempted_remote = False
        remaining = list(range(len(reqs)))

        for step, name in enumerate(chain):
            if not remaining:
                break
            last = step == len(chain) - 1
            if name == ENGINE_HTTP and cfg.engine == ENGINE_AUTO:
                # Pre-flight: one cheap /healthz probe before posting
                # anything — a configured-but-dead server degrades the
                # chain instead of burning the transport retry budget.
                if not self.engine(ENGINE_HTTP).alive() and not last:
                    degraded.append(ENGINE_HTTP)
                    continue
            if name == ENGINE_DAEMON and cfg.engine == ENGINE_AUTO:
                status = self.engine(ENGINE_DAEMON).heartbeat_status()
                if status != "alive":
                    if last:  # fallback="error": strict daemon-only chain
                        daemon = self.engine(ENGINE_DAEMON)
                        raise ServiceError(
                            f"no fit daemon is serving "
                            f"{daemon.capabilities()['root']} and "
                            f"fallback='error' ({len(remaining)} requests "
                            f"unfitted)")
                    if status == "stale":
                        # A daemon died recently (heartbeat file exists
                        # but is old): record the degradation even
                        # though nothing was attempted.
                        degraded.append(ENGINE_DAEMON)
                    continue
            breaker = self._breaker(name)
            # The final engine is attempted regardless of its breaker:
            # every fit must terminate with an artifact or a typed
            # error, never "all breakers open".
            if not last and not breaker.allow():
                degraded.append(name)
                metrics.counter("session.breaker.skipped",
                                engine=name).inc()
                continue
            if step > 0 and cache is not None:
                # A failed engine may have persisted part of the batch
                # (the daemon publishes per job) — serve those from the
                # cache instead of refitting.
                still = []
                for i in remaining:
                    hit = cache.get(keys[i])
                    if hit is not None:
                        results[i] = FitArtifact.from_entry(
                            hit, key=keys[i], engine="cache",
                            from_cache=True,
                            provenance={"source": "cache"})
                    else:
                        still.append(i)
                remaining = still
                if not remaining:
                    break
            sub_keys = [keys[i] for i in remaining]
            sub_reqs = [reqs[i] for i in remaining]
            # A remote engine owns its own warm-seed lookup (it sees
            # the whole shared cache); local engines get seeds here.
            if name in _REMOTE_ENGINES:
                attempted_remote = True
                sub_seeds: List[Optional[Dict]] = [None] * len(remaining)
                sub_warm: List[Optional[Dict]] = [None] * len(remaining)
            else:
                sub_seeds, sub_warm = self._warm_seeds(sub_keys, sub_reqs)
            engine = self.engine(name)
            try:
                sub = engine.fit(sub_reqs, warm=sub_seeds)
            except _ENGINE_FAILURES:
                breaker.record_failure()
                if last or (name in _REMOTE_ENGINES and
                            cfg.engine != ENGINE_AUTO and
                            cfg.fallback != FALLBACK_LOCAL):
                    raise
                degraded.append(name)
                metrics.counter("session.engine.failover",
                                engine=name).inc()
                continue
            pending = [j for j, art in enumerate(sub) if art is None]
            if name in _REMOTE_ENGINES and pending:
                breaker.record_failure()
                if cfg.fallback != FALLBACK_LOCAL and \
                        (last or cfg.engine != ENGINE_AUTO):
                    first = engine.last_errors.get(pending[0],
                                                   f"{name} unavailable")
                    raise ServiceError(
                        f"{len(pending)} fit job(s) failed in the {name} "
                        f"engine, e.g. {sub_keys[pending[0]][:16]}…: "
                        f"{first}")
                degraded.append(name)
                metrics.counter("session.engine.failover",
                                engine=name).inc()
            else:
                breaker.record_success()
            still = []
            for j, i in enumerate(remaining):
                art = sub[j]
                if art is None:
                    if name in _REMOTE_ENGINES:
                        # Remote-side failures are retried on the next
                        # engine; the real reason may be "server died",
                        # not the job.
                        still.append(i)
                    else:
                        # A local per-job failure is a deterministic
                        # property of the job — the same crash would
                        # repeat on every engine, so it never advances
                        # the chain.
                        errors[keys[i]] = engine.last_errors.get(
                            j, "no result")
                else:
                    results[i] = art
                    seeds[i] = sub_seeds[j]
                    warm_meta[i] = sub_warm[j]
                    produced_by[i] = name
                    degraded_at[i] = list(dict.fromkeys(degraded))
            remaining = still

        for i in remaining:  # pragma: no cover - defensive
            errors.setdefault(keys[i], "no engine available")

        out: Dict[str, FitArtifact] = {}
        for i, (key, req) in enumerate(zip(keys, reqs)):
            art = results[i]
            if art is None:
                continue
            if not art.from_cache:
                if degraded_at[i]:
                    art.provenance.setdefault("degraded_from",
                                              degraded_at[i])
                if attempted_remote and produced_by[i] is not None and \
                        produced_by[i] not in _REMOTE_ENGINES:
                    art.provenance["source"] = "local-fallback"
            if warm_meta[i] is not None and not art.from_cache:
                for field, value in warm_meta[i].items():
                    art.provenance.setdefault(field, value)
            art = self._warm_guard(req, art)
            if not art.from_cache:
                warm = "warm" if art.init_used == "warm" else "cold"
                metrics.counter("session.fit.executed", engine=art.engine,
                                init=warm).inc()
            # Persist before surfacing any batchmate's failure, so a
            # retrying caller hits the cache for the survivors.  Skip
            # the write when the daemon already shares this directory
            # (identical entry) — unless the guard kept a better fit.
            if cache is not None:
                forced = art.provenance.get("warm_fallback", {}) \
                    .get("kept") == "cold"
                if forced or cache.get(key) is None:
                    cache.put(key, art.to_entry())
                if not art.from_cache:
                    # Telemetry: one line per fit that actually ran —
                    # what `repro cache report` aggregates.  (The
                    # guard's discarded fit, if any, was logged inside
                    # _warm_guard.)
                    self._log_fit(key, art)
            out[key] = art
        if errors:
            key, reason = next(iter(errors.items()))
            raise FitError(
                f"{len(errors)} of {len(reqs)} fit jobs failed; "
                f"first: {misses[key].function!r} ({reason})")
        return out

    # ------------------------------------------------------------------ #
    # Graph compilation (serving front door)
    # ------------------------------------------------------------------ #
    def rewrite(self, graph: "Graph", n_breakpoints: int,
                config: Optional["FitConfig"] = None) -> "Graph":
        """Clone ``graph`` with every activation / softmax node rewired
        to a PWL fitted *through this session* (cache, warm starts,
        engine policy and all) — the paper's activation-replacement
        pass behind the front door, without compiling."""
        from ..graph.passes import (collect_activation_names,
                                    make_pwl_approximators,
                                    replace_activations)

        names = sorted(collect_activation_names(graph))
        approx = make_pwl_approximators(names, n_breakpoints,
                                        config=config, session=self)
        rewritten, _ = replace_activations(graph, approx)
        return rewritten

    def compile(self, graph: "Graph", batch_size: int = 1,
                n_breakpoints: Optional[int] = None,
                config: Optional["FitConfig"] = None,
                verify: bool = True,
                passes: Optional[Sequence[str]] = None) -> "Program":
        """Compile a :class:`~repro.graph.ir.Graph` into a hot-runnable
        :class:`~repro.graph.program.Program`.

        With ``n_breakpoints`` set, the graph first goes through
        :meth:`rewrite` — the paper's deployment flow behind one front
        door: fit the approximations, bake them into kernels, serve the
        compiled plan.  ``batch_size`` parameterises the static cost
        profile only; the returned program runs feeds of any batch
        size.  ``verify`` gates the compile-time static checks (see
        :func:`repro.graph.program.compile_graph`).

        The plan is optimized: ``passes`` names the
        :mod:`repro.graph.opt` passes to run, in order, and defaults to
        :data:`~repro.graph.opt.DEFAULT_PASSES`; ``passes=[]`` compiles
        the graph as written.  Every pass keeps the outputs
        bitwise-equal to the eager interpreter, and each one's static
        cost delta lands on :attr:`Program.pass_reports`.
        """
        from ..graph.program import compile_graph

        if n_breakpoints is not None:
            graph = self.rewrite(graph, n_breakpoints, config=config)
        return compile_graph(graph, batch_size=batch_size, verify=verify,
                             optimize=passes is None, passes=passes or None)

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def _log_fit(self, key: str, art: FitArtifact, **extra: object) -> None:
        """Append one provenance line for a fit that actually executed."""
        cache = self.cache
        if cache is None:
            return
        record = {
            "ts": time.time(),
            "key": key,
            "function": art.function,
            "n_breakpoints": art.config.n_breakpoints,
            "engine": art.engine,
            "init_used": art.init_used,
            "rounds": art.rounds,
            "total_steps": art.total_steps,
            "grid_mse": art.grid_mse,
            "wall_time_s": art.wall_time_s,
            "provenance": dict(art.provenance),
        }
        record.update(extra)
        cache.log_provenance(record)

    # ------------------------------------------------------------------ #
    # Warm-start quality guard
    # ------------------------------------------------------------------ #
    def _warm_guard(self, req: FitRequest, art: FitArtifact) -> FitArtifact:
        """Re-fit cold when a warm-started fit looks suspiciously bad.

        Warm starts skip the cold uniform/curvature init race, so their
        quality depends mildly on cache contents and sweep order.  When
        the warm artifact's grid MSE exceeds ``warm_quality_factor``
        times the free-knot optimal-MSE bound (the same yardstick
        ``repro.core.analysis.assess_fit`` uses), the better of a cold
        re-fit and the warm fit is kept; either way the verdict lands
        in the artifact's provenance.
        """
        factor = self.config.warm_quality_factor
        if factor is None or art.init_used != "warm":
            return art
        from ..core.analysis import optimal_mse_bound
        try:
            fn = req.resolve()
            cfg = req.config
            a, b = (cfg.interval if cfg.interval is not None
                    else fn.default_interval)
            bound = optimal_mse_bound(fn, art.pwl.n_segments, (a, b))
        except Exception:
            return art  # un-assessable target: keep the warm fit
        if not np.isfinite(bound) or bound <= 0.0:
            return art
        if art.grid_mse <= factor * bound:
            return art

        local = self.engine(self._local_engine_name(1))
        [cold] = local.fit([req], warm=[None])
        verdict = {"warm_mse": art.grid_mse, "bound": bound,
                   "factor": factor}
        if cold is None:
            verdict.update({"kept": "warm",
                            "cold_error": local.last_errors.get(0, "?")})
            art.provenance["warm_fallback"] = verdict
            get_metrics().counter("session.guard.verdict",
                                  kept="warm_cold_failed").inc()
            return art
        verdict["cold_mse"] = cold.grid_mse
        # Both fits executed; the kept one is logged by the caller, so
        # the discarded one must be logged here or the telemetry would
        # undercount executed fits whenever the guard fires.
        if cold.grid_mse < art.grid_mse:
            verdict["kept"] = "cold"
            cold.provenance["warm_fallback"] = verdict
            get_metrics().counter("session.guard.verdict", kept="cold").inc()
            self._log_fit(req.key, art, discarded_by_guard=True)
            return cold
        verdict["kept"] = "warm"
        art.provenance["warm_fallback"] = verdict
        get_metrics().counter("session.guard.verdict", kept="warm").inc()
        self._log_fit(req.key, cold, discarded_by_guard=True)
        return art


def fit(fn: Union[RequestLike, str, ActivationFunction],
        n_breakpoints: int = 16,
        interval: Optional[Tuple[float, float]] = None,
        config: Optional[FitConfig] = None,
        boundary: Optional[Tuple[str, str]] = None,
        engine: Union[str, EngineConfig, None] = None) -> FitArtifact:
    """One-shot convenience: fit through a throwaway default Session."""
    with Session(engine=engine) as session:
        return session.fit_one(fn, n_breakpoints, interval=interval,
                               config=config, boundary=boundary)


# Re-exported names the module docstring references.
__all__ = ["ENGINE_INLINE", "RequestLike", "Session", "fit"]
