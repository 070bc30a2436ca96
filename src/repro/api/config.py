"""Engine selection and sizing policy: one config instead of a scatter.

Before this module, execution strategy leaked out of three unrelated
knobs — per-fitter ``lane_batch`` / ``max_workers`` arguments, the
``--no-lane-batch`` / ``--serial`` CLI flags, and the
``REPRO_MAX_WORKERS`` environment variable — which could silently
disagree with ``ServiceConfig.max_workers``.  :class:`EngineConfig` is
the single place all of them resolve through:

* :meth:`EngineConfig.resolve_workers` is the one worker-count policy
  (explicit setting > ``REPRO_MAX_WORKERS`` > schedulable CPU count);
  the service daemon's Session resolves through it too;
* ``engine`` names the execution strategy explicitly (``"auto"`` picks
  one deterministically — see :meth:`Session.resolve_engine_name
  <repro.api.session.Session>`), subsuming the old flag scatter;
* :meth:`EngineConfig.resolve_http_addr` picks the remote engine's
  transport: HTTP to the daemon's listener when an address resolves
  (an explicit ``http_addr``, or ``REPRO_SERVE_ADDR`` unless
  ``service_root`` names a queue), its file queue otherwise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..errors import FitError
from ..serving.protocol import ENV_SERVE_ADDR

ENGINE_AUTO = "auto"
ENGINE_INLINE = "inline"
ENGINE_LANE = "lane"
ENGINE_POOL = "pool"
ENGINE_REMOTE = "remote"

#: Engines a Session can be asked for (``auto`` resolves to one of the
#: concrete four).
ENGINE_NAMES = (ENGINE_AUTO, ENGINE_INLINE, ENGINE_LANE, ENGINE_POOL,
                ENGINE_REMOTE)

#: Behaviour when the remote engine is unavailable or loses jobs:
#: ``"local"`` re-runs them on a local engine, ``"error"`` raises.
FALLBACK_LOCAL = "local"
FALLBACK_ERROR = "error"

#: Environment variable capping the default process-pool size.
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"


@dataclass(frozen=True)
class EngineConfig:
    """How a :class:`~repro.api.Session` executes fit requests.

    ``engine`` is one of :data:`ENGINE_NAMES`; everything else tunes
    the chosen engine.  The config is frozen so a Session's behaviour
    cannot drift mid-run.
    """

    engine: str = ENGINE_AUTO
    #: Process-pool size; ``None`` defers to ``REPRO_MAX_WORKERS`` and
    #: then the schedulable CPU count (see :meth:`resolve_workers`).
    max_workers: Optional[int] = None
    #: Batch shape-compatible misses through the multi-lane kernel
    #: (subsumes the old ``--no-lane-batch`` flag).
    lane_batch: bool = True
    #: Seed cache misses from the nearest cached configuration.
    warm_start: bool = True
    #: Warm-start quality guard: when a warm-started artifact's grid
    #: MSE exceeds ``warm_quality_factor *`` the free-knot optimal-MSE
    #: bound, the Session re-fits cold and keeps the better artifact
    #: (recorded in the artifact's provenance).  ``None`` disables the
    #: guard.
    warm_quality_factor: Optional[float] = 10.0
    #: Remote-unavailability policy (:data:`FALLBACK_LOCAL` or
    #: :data:`FALLBACK_ERROR`).
    fallback: str = FALLBACK_LOCAL
    #: Queue directory the remote engine submits to when no address
    #: resolves (``None``: the default service dir under
    #: ``$REPRO_CACHE_DIR``).  Setting it selects the queue over an
    #: address from ``REPRO_SERVE_ADDR``; an explicit ``http_addr``
    #: still wins.
    service_root: Optional[Path] = None
    #: Remote engine: the bound on one batch, on either transport (the
    #: queue wait, or one HTTP round trip), and the queue poll cadence.
    timeout_s: float = 300.0
    poll_s: float = 0.05
    #: Retry budget for transient queue I/O (remote submits, client
    #: waits) and HTTP transport errors; see
    #: :class:`repro.service.retry.RetryPolicy`.
    retry_max_attempts: int = 3
    retry_base_delay_s: float = 0.05
    #: Remote engine: ``host:port`` of a ``repro serve --addr`` daemon.
    #: ``None`` defers to ``REPRO_SERVE_ADDR``, unless ``service_root``
    #: is set (see :meth:`resolve_http_addr`); with no address, the
    #: remote engine reaches the daemon through its file queue.
    http_addr: Optional[str] = None
    #: Per-engine circuit breaker (``auto`` failover chain): the
    #: breaker opens after ``breaker_threshold`` consecutive
    #: engine-level failures and admits one half-open probe after
    #: ``breaker_cooldown_s`` on the monotonic clock.
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 30.0

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_NAMES:
            raise FitError(f"unknown engine {self.engine!r}; "
                           f"expected one of {ENGINE_NAMES}")
        if self.fallback not in (FALLBACK_LOCAL, FALLBACK_ERROR):
            raise FitError(f"unknown fallback policy {self.fallback!r}; "
                           f"expected 'local' or 'error'")
        if self.max_workers is not None and self.max_workers < 1:
            raise FitError(
                f"max_workers must be >= 1, got {self.max_workers}")
        if self.retry_max_attempts < 1:
            raise FitError(f"retry_max_attempts must be >= 1, "
                           f"got {self.retry_max_attempts}")
        if self.breaker_threshold < 1:
            raise FitError(f"breaker_threshold must be >= 1, "
                           f"got {self.breaker_threshold}")
        if self.breaker_cooldown_s < 0:
            raise FitError(f"breaker_cooldown_s must be >= 0, "
                           f"got {self.breaker_cooldown_s}")

    def resolve_http_addr(self) -> Optional[str]:
        """The serving address, by fixed precedence.

        1. an explicit ``http_addr`` on this config;
        2. ``None`` when ``service_root`` is set: a caller who named a
           queue gets that queue, whatever the environment says;
        3. the ``REPRO_SERVE_ADDR`` environment variable;
        4. ``None`` — the remote engine uses the file queue.
        """
        if self.http_addr:
            return self.http_addr
        if self.service_root is not None:
            return None
        env = os.environ.get(ENV_SERVE_ADDR)
        return env if env else None

    def resolve_workers(self, n_jobs: Optional[int] = None) -> int:
        """The effective worker count, by fixed precedence.

        1. an explicit ``max_workers`` on this config (which is where
           ``ServiceConfig.max_workers`` lands);
        2. the ``REPRO_MAX_WORKERS`` environment variable;
        3. the schedulable CPU count.

        ``n_jobs`` bounds the result (no point forking more workers
        than jobs); malformed environment values raise
        :class:`~repro.errors.FitError` rather than silently falling
        through to a different tier.
        """
        cap: Optional[int] = self.max_workers
        if cap is None:
            env = os.environ.get(MAX_WORKERS_ENV)
            if env:
                try:
                    cap = int(env)
                except ValueError:
                    raise FitError(
                        f"{MAX_WORKERS_ENV} must be an integer, got {env!r}"
                    ) from None
                if cap < 1:
                    raise FitError(
                        f"{MAX_WORKERS_ENV} must be >= 1, got {cap}")
        if cap is None:
            try:
                cap = len(os.sched_getaffinity(0))
            except AttributeError:  # pragma: no cover - non-linux
                cap = os.cpu_count() or 1
        if n_jobs is not None:
            cap = min(cap, max(n_jobs, 1))
        return max(1, cap)
