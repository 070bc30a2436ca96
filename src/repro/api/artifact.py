"""The canonical fit result: one versioned schema for every transport.

Before ``repro.api``, a finished fit surfaced as one of four
incompatible shapes depending on which entry point produced it (a
bare ``FitResult``, a ``CachedFit`` entry, and one result type each for
the batch and service front ends, since removed).
:class:`FitArtifact` collapses that zoo: every Session engine, the
on-disk cache, the job queue, and the daemon speak this one document.

Schema notes
------------
``to_dict`` emits ``{"schema": ARTIFACT_SCHEMA_VERSION, "entry": <the
cache-entry document>, ...provenance fields...}``.  The embedded
``entry`` is byte-compatible with what :class:`~repro.core.batchfit
.FitCache` stores on disk (``CACHE_SCHEMA_VERSION`` recorded and
checked on read), so a cache written by a Session is readable by the
daemon and vice versa — the artifact only *adds* provenance (engine,
cache lineage, wall time) around the shared entry, it never forks the
storage format.  ``from_dict`` refuses unknown schema versions instead
of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.batchfit import CachedFit
from ..core.fit import FitConfig
from ..core.pwl import PiecewiseLinear
from ..errors import FitError

#: Bump when the artifact document changes shape.
ARTIFACT_SCHEMA_VERSION = 1


@dataclass
class FitArtifact:
    """One fitted PWL plus its full provenance.

    ``engine`` records which Session engine produced the artifact —
    one of the concrete names in :data:`~repro.api.config.ENGINE_NAMES`,
    ``"cache"`` for a read-back, or ``"native"`` for the exact-PWL
    shortcut; ``provenance`` holds the JSON-native lineage details —
    e.g. ``kernel`` (scalar vs lane inside a pool), ``warm_key`` (the
    neighbouring cache entry that seeded the fit), ``warm_fallback``
    (the quality guard's verdict when it re-fitted cold), ``source``
    (``"remote"``, or ``"local-fallback"`` when a session that tried
    the remote engine fitted locally) and ``transport`` (``"http"`` or
    ``"queue"`` for a remote fit).
    """

    function: str
    config: FitConfig
    pwl: PiecewiseLinear
    grid_mse: float
    rounds: int
    total_steps: int
    init_used: str
    key: str
    engine: str
    from_cache: bool = False
    wall_time_s: float = 0.0
    spec_digest: Optional[str] = None
    provenance: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = ARTIFACT_SCHEMA_VERSION

    # ------------------------------------------------------------------ #
    # Cache-entry bridging
    # ------------------------------------------------------------------ #
    @classmethod
    def from_entry(cls, entry: CachedFit, key: str, engine: str,
                   from_cache: bool = False, wall_time_s: float = 0.0,
                   provenance: Optional[Dict[str, Any]] = None
                   ) -> "FitArtifact":
        """Wrap a cache entry (the storage type) into an artifact."""
        if entry.config is None:
            raise FitError(
                f"cache entry for {key[:16]}… carries no config; "
                f"cannot build a canonical artifact from it")
        return cls(function=entry.function, config=entry.config,
                   pwl=entry.pwl, grid_mse=entry.grid_mse,
                   rounds=entry.rounds, total_steps=entry.total_steps,
                   init_used=entry.init_used, key=key, engine=engine,
                   from_cache=from_cache, wall_time_s=wall_time_s,
                   spec_digest=entry.spec_digest,
                   provenance=dict(provenance or {}))

    def to_entry(self) -> CachedFit:
        """The cache-entry view (what :class:`FitCache` persists).

        Shares the fitted :class:`PiecewiseLinear` object, so a Session
        that stores the entry and re-reads it through the cache's
        memory layer preserves object identity.
        """
        return CachedFit(function=self.function, pwl=self.pwl,
                         grid_mse=self.grid_mse, rounds=self.rounds,
                         total_steps=self.total_steps,
                         init_used=self.init_used, config=self.config,
                         spec_digest=self.spec_digest)

    # ------------------------------------------------------------------ #
    # Lossless document round-trip
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """The canonical JSON document (lossless; see module docstring)."""
        return {
            "schema": self.schema_version,
            "key": self.key,
            "engine": self.engine,
            "from_cache": self.from_cache,
            "wall_time_s": self.wall_time_s,
            "provenance": dict(self.provenance),
            "entry": self.to_entry().to_dict(),
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "FitArtifact":
        """Inverse of :meth:`to_dict` (schema version checked)."""
        if d.get("schema") != ARTIFACT_SCHEMA_VERSION:
            raise FitError(f"artifact schema {d.get('schema')!r} != "
                           f"{ARTIFACT_SCHEMA_VERSION}")
        entry = CachedFit.from_dict(d["entry"])
        return cls.from_entry(entry, key=str(d["key"]),
                              engine=str(d["engine"]),
                              from_cache=bool(d["from_cache"]),
                              wall_time_s=float(d["wall_time_s"]),
                              provenance=dict(d.get("provenance") or {}))
