"""``repro.api`` — the one front door to the fitting subsystem.

Three PRs of growth left five ways to fit a PWL approximation with four
incompatible result types.  This package replaces them all:

* :class:`Session` — the façade: cache lookups, warm seeds + quality
  guard, engine resolution, artifact persistence;
* :class:`Engine` (protocol) with :class:`InlineEngine`,
  :class:`LaneEngine`, :class:`PoolEngine` and :class:`RemoteEngine`
  (the ``repro serve`` daemon, over HTTP or its file queue) —
  pluggable execution backends producing numerically identical
  results;
* :class:`EngineConfig` — the single policy object subsuming the old
  ``lane_batch`` / ``--no-lane-batch`` / ``REPRO_MAX_WORKERS`` scatter
  (:meth:`EngineConfig.resolve_workers` is the one worker-count rule);
* :class:`FitRequest` / :class:`FitArtifact` — the canonical,
  losslessly-serialisable request/result pair that the cache, the job
  queue, and the daemon all speak.

The pre-``repro.api`` entry points have been removed; the README's
migration table records what each one became.

Importing this package is side-effect-light by design: no scipy (or any
plotting stack) is loaded until a fit actually runs — the public
surface test enforces it.
"""

from .artifact import ARTIFACT_SCHEMA_VERSION, FitArtifact
from .config import (ENGINE_AUTO, ENGINE_INLINE, ENGINE_LANE, ENGINE_NAMES,
                     ENGINE_POOL, ENGINE_REMOTE, FALLBACK_ERROR,
                     FALLBACK_LOCAL, EngineConfig)
from .engines import (Engine, InlineEngine, LaneEngine, PoolEngine,
                      RemoteEngine, create_engine)
from .request import FitRequest
from .session import Session, fit
from .telemetry import aggregate_provenance

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ENGINE_AUTO",
    "ENGINE_INLINE",
    "ENGINE_LANE",
    "ENGINE_NAMES",
    "ENGINE_POOL",
    "ENGINE_REMOTE",
    "Engine",
    "EngineConfig",
    "FALLBACK_ERROR",
    "FALLBACK_LOCAL",
    "FitArtifact",
    "FitRequest",
    "InlineEngine",
    "LaneEngine",
    "PoolEngine",
    "RemoteEngine",
    "Session",
    "aggregate_provenance",
    "create_engine",
    "fit",
]
