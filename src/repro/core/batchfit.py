"""Fit jobs, the persistent on-disk fit cache, and the worker functions.

(Infrastructure layer: the public front door is
:class:`repro.api.Session`, whose engines run on this module's job /
cache / worker machinery.)

The fitting loop (Adam + plateau scheduler + removal/insertion, Section
IV) is this reproduction's hot path, and every sweep — Fig. 5's budget
grid, Table II's per-row configurations, Table III's budgets x zoo
activations — refits the same handful of (function, budget, format)
combinations.  This module holds what makes those workloads cheap:

* :class:`FitJob` / :func:`make_job` / :func:`fit_cache_key` — one
  canonical, content-keyed description of a fit;
* :class:`FitCache` persists every finished fit to disk as JSON (via
  :meth:`PiecewiseLinear.to_dict`), so fits survive across processes,
  sessions and benchmark runs;
* :func:`plan_units` and :func:`_run_unit` — how the :mod:`repro.api`
  engines split misses into lane-batched units and run one unit,
  in-process or in a pool worker.

Two service-grade behaviours layer on top:

* **portable jobs** — a :class:`FitJob` may carry a sampled
  :class:`~repro.service.spec.FunctionSpec`, so unregistered
  (``make_custom``-built) activations can be fitted by pool workers and
  daemon processes that never saw the original Python callable;
* **near-miss warm starts** — on a cache miss,
  :meth:`FitCache.nearest_with_key` finds the cached fit of the closest
  neighbouring configuration (same function, adjacent budget/interval)
  and the optimizer is seeded from its PWL instead of refitting cold
  (``EngineConfig(warm_start=False)`` disables it; a warm-started entry
  may differ bit-for-bit from a cold fit of the same key, depending on
  what the cache held at fit time — quality is equivalent, provenance
  is recorded in ``init_used == "warm"``).

Cache location
--------------
``$REPRO_CACHE_DIR/fits`` when the ``REPRO_CACHE_DIR`` environment
variable is set, else ``~/.cache/repro-flexsfu/fits``.  The test suite
points ``REPRO_CACHE_DIR`` at a per-session temporary directory so test
runs stay hermetic.

Cache keys and invalidation
---------------------------
A key is the SHA-256 of a canonical JSON document containing the schema
version, the function identity (registry name, plus the content digest
for sampled specs), and *every* :class:`FitConfig` field (with
``interval`` resolved to concrete floats — see :func:`make_job`).  Any
change to a hyper-parameter, to the fit interval, or to the key schema
therefore lands on a fresh key automatically; stale entries are never
read, only orphaned.  To reclaim space or force refits wholesale, delete
the cache directory, call :meth:`FitCache.clear`, or bound the directory
with :meth:`FitCache.prune` (also exposed as ``repro cache prune``).
Entries are written atomically (temp file + ``os.replace``), so
concurrent writers — the pool workers, parallel pytest sessions — can
share one directory; a corrupt or truncated entry is treated as a miss
and rewritten.
"""

from __future__ import annotations

import json
import hashlib
import math
import os
import signal
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..errors import CacheIntegrityError, FitError
from ..faults import get_faults
from ..functions.base import ActivationFunction
from ..obs.metrics import get_metrics
from .fit import FitConfig, FlexSfuFitter, grid_points_for
from .pwl import PiecewiseLinear

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..service.spec import FunctionSpec

#: Bump when the key document or the entry payload changes shape.
CACHE_SCHEMA_VERSION = 2


# --------------------------------------------------------------------- #
# Jobs and keys
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FitJob:
    """One fully-resolved fitting task: a function identity plus config.

    Build instances through :func:`make_job`, which folds budget /
    interval / boundary overrides into the config and resolves a ``None``
    interval to the function's default so that equivalent requests land
    on the same cache key.  ``spec`` is set for functions that are not
    resolvable by registry name in another process (sampled
    :class:`~repro.service.spec.FunctionSpec`); it rides along so pool
    workers and daemons can rebuild the target.
    """

    function: str
    config: FitConfig
    spec: Optional["FunctionSpec"] = None


def make_job(fn: Union[str, ActivationFunction, "FunctionSpec"],
             n_breakpoints: int,
             interval: Optional[Tuple[float, float]] = None,
             config: Optional[FitConfig] = None,
             boundary: Optional[Tuple[str, str]] = None) -> FitJob:
    """Canonicalise a fit request into a :class:`FitJob`.

    (The engine-room behind :meth:`repro.api.FitRequest.create` — new
    code should construct requests there.)

    ``fn`` may be a registry name, an :class:`ActivationFunction`, or a
    :class:`~repro.service.spec.FunctionSpec`.  Activation objects that
    are not the registered instance of their name (unregistered customs,
    ``with_interval`` copies) are captured as a sampled spec so the job
    stays executable — and correctly cache-keyed — in any process.  The
    interval defaults to the function's ``default_interval`` so explicit
    and implicit requests for the same span share a cache key.
    """
    from ..service.spec import KIND_SAMPLED, FunctionSpec, as_spec

    spec: Optional[FunctionSpec] = None
    if isinstance(fn, str):
        # Resolve and fall through to the object branch: a *session*
        # registration referenced by name must still be captured as a
        # sampled spec — keyed by name alone, two make_custom overwrites
        # of one name would collide on a cache key (and the name would
        # be unresolvable in a daemon anyway).
        from ..functions import registry as fn_registry
        fn = fn_registry.get(fn)
    if isinstance(fn, FunctionSpec):
        s = fn
        name = s.name
        a, b = (interval if interval is not None
                else s.resolve().default_interval)
        if s.kind == KIND_SAMPLED:
            spec = s
            # A pre-built spec cannot be re-sampled here: the fit span
            # — *including* the edge margin where learnable edge
            # breakpoints roam — must already lie inside the captured
            # samples, or workers would optimize against the
            # extrapolated tails.
            margin = (config or FitConfig()).edge_margin_rel * (b - a)
            if a - margin < s.lo or b + margin > s.hi:
                raise FitError(
                    f"fit interval [{a:g}, {b:g}] (+ edge margin "
                    f"{margin:g}) exceeds the sampled span "
                    f"[{s.lo:g}, {s.hi:g}] of spec {s.name!r}; "
                    f"rebuild the spec with interval=({a}, {b})")
    else:
        name = fn.name
        a, b = interval if interval is not None else fn.default_interval
        # Sample past the edge margin too: learnable edge breakpoints
        # roam up to edge_margin_rel outside [a, b] and must read real
        # function values there, whatever the config sets the margin to.
        m = (config or FitConfig()).edge_margin_rel * (b - a)
        s = as_spec(fn, interval=(float(a - m), float(b + m)))
        if s.kind == KIND_SAMPLED:
            spec = s
    base = config or FitConfig()
    overrides: Dict = {
        "n_breakpoints": int(n_breakpoints),
        "interval": (float(a), float(b)),
    }
    if boundary is not None:
        overrides["boundary_left"] = boundary[0]
        overrides["boundary_right"] = boundary[1]
    return FitJob(function=name, config=replace(base, **overrides), spec=spec)


def job_spec_digest(job: FitJob) -> Optional[str]:
    """Content digest identifying a spec-carrying job's function."""
    return job.spec.digest if job.spec is not None else None


def resolve_function(job: FitJob) -> ActivationFunction:
    """Rebuild the job's target function in *this* process."""
    if job.spec is not None:
        return job.spec.resolve()
    from ..functions import registry as fn_registry
    return fn_registry.get(job.function)


def fit_cache_key(job: FitJob) -> str:
    """Stable content hash of a job (see module docstring)."""
    doc = {
        "schema": CACHE_SCHEMA_VERSION,
        "function": job.function,
        "config": asdict(job.config),
    }
    digest = job_spec_digest(job)
    if digest is not None:
        doc["spec_digest"] = digest
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def config_to_dict(config: FitConfig) -> Dict:
    """JSON-serialisable form of a :class:`FitConfig`.

    JSON-*native* types only (the interval tuple becomes a list), so a
    document compares equal before and after a real JSON round-trip —
    the artifact schema's losslessness test relies on it.
    """
    doc = asdict(config)
    if doc.get("interval") is not None:
        doc["interval"] = [float(x) for x in doc["interval"]]
    return doc


def config_from_dict(d: Dict) -> FitConfig:
    """Inverse of :func:`config_to_dict` (tuples restored)."""
    doc = dict(d)
    if doc.get("interval") is not None:
        doc["interval"] = tuple(float(x) for x in doc["interval"])
    return FitConfig(**doc)


def job_to_dict(job: FitJob) -> Dict:
    """JSON-serialisable form of a job (the queue's wire format)."""
    doc: Dict = {"function": job.function,
                 "config": config_to_dict(job.config)}
    if job.spec is not None:
        doc["spec"] = job.spec.to_dict()
    return doc


def job_from_dict(d: Dict) -> FitJob:
    """Inverse of :func:`job_to_dict`."""
    spec = None
    if d.get("spec") is not None:
        from ..service.spec import FunctionSpec
        spec = FunctionSpec.from_dict(d["spec"])
    return FitJob(function=str(d["function"]),
                  config=config_from_dict(d["config"]), spec=spec)


# --------------------------------------------------------------------- #
# Persistent cache
# --------------------------------------------------------------------- #
@dataclass
class CachedFit:
    """One cache entry: the fitted PWL plus its fit statistics.

    ``config`` and ``spec_digest`` (schema >= 2) record what produced the
    entry, which is what makes near-miss lookups possible: without the
    config on disk there is nothing to measure "adjacent budget/interval"
    against.
    """

    function: str
    pwl: PiecewiseLinear
    grid_mse: float
    rounds: int
    total_steps: int
    init_used: str
    config: Optional[FitConfig] = None
    spec_digest: Optional[str] = None

    def to_dict(self) -> Dict:
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "function": self.function,
            "pwl": self.pwl.to_dict(),
            "grid_mse": self.grid_mse,
            "rounds": self.rounds,
            "total_steps": self.total_steps,
            "init_used": self.init_used,
            "config": (config_to_dict(self.config)
                       if self.config is not None else None),
            "spec_digest": self.spec_digest,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "CachedFit":
        if d.get("schema") != CACHE_SCHEMA_VERSION:
            raise FitError(f"cache entry schema {d.get('schema')!r} != "
                           f"{CACHE_SCHEMA_VERSION}")
        cfg = d.get("config")
        return cls(function=str(d["function"]),
                   pwl=PiecewiseLinear.from_dict(d["pwl"]),
                   grid_mse=float(d["grid_mse"]),
                   rounds=int(d["rounds"]),
                   total_steps=int(d["total_steps"]),
                   init_used=str(d["init_used"]),
                   config=config_from_dict(cfg) if cfg is not None else None,
                   spec_digest=d.get("spec_digest"))


#: Key under which an entry's content checksum is stored on disk.  The
#: checksum covers the canonical JSON of the document *without* this
#: key; it is stripped before :meth:`CachedFit.from_dict` ever sees the
#: document, so the entry schema itself is unchanged (schema v2 readers
#: without checksum support simply ignore unknown keys, and pre-checksum
#: entries verify as legacy rather than corrupt).
_INTEGRITY_KEY = "integrity"


def _entry_digest(doc: Dict) -> str:
    """Content checksum of an entry document (sans integrity key)."""
    body = {k: v for k, v in doc.items() if k != _INTEGRITY_KEY}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _entry_meta(doc: Dict) -> Optional[Dict]:
    """Neighbour metadata of one entry document (what
    ``nearest_with_key`` matches against), or None when the entry cannot
    participate in near-miss lookups.  JSON-native types only: the same
    dict goes into the in-memory scan result and onto disk in
    ``index.jsonl``.
    """
    cfg = doc.get("config")
    if (doc.get("schema") != CACHE_SCHEMA_VERSION or cfg is None
            or cfg.get("interval") is None):
        return None
    return {
        "function": doc["function"],
        "spec_digest": doc.get("spec_digest"),
        "n_breakpoints": int(cfg["n_breakpoints"]),
        "interval": [float(cfg["interval"][0]), float(cfg["interval"][1])],
        "boundary": [cfg.get("boundary_left"), cfg.get("boundary_right")],
    }


def config_distance(cfg: FitConfig, other_n_breakpoints: int,
                    other_interval: Sequence[float]) -> float:
    """Neighbour distance between a job's config and a cached entry's.

    ``|log2(budget ratio)| + interval mismatch / width`` — one budget
    doubling or shifting the interval by its own width both count as
    distance 1.  The one metric shared by
    :meth:`FitCache.nearest_with_key` and the warm-start telemetry
    (``provenance["warm_distance"]``).
    """
    a, b = cfg.interval
    width = max(b - a, 1e-12)
    oa, ob = float(other_interval[0]), float(other_interval[1])
    return (abs(math.log2(max(int(other_n_breakpoints), 1)
                          / max(cfg.n_breakpoints, 1)))
            + (abs(a - oa) + abs(b - ob)) / max(width, ob - oa, 1e-12))


def default_cache_dir() -> Path:
    """Resolve the cache root (``REPRO_CACHE_DIR`` env var or ~/.cache)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    root = Path(env).expanduser() if env else (
        Path.home() / ".cache" / "repro-flexsfu")
    return root / "fits"


def write_json_atomic(path: Path, doc: Dict) -> None:
    """Write a JSON document via temp file + ``os.replace``.

    The one atomic-publication discipline shared by the fit cache and
    the service queue: readers either see the old file, the new file, or
    nothing — never a torn write.  The temp file lives in the target's
    directory so the replace stays on one filesystem.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(doc))
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class FitCache:
    """Disk-backed fit store with an in-memory read-through layer.

    The memory layer keeps object identity within a process (repeated
    lookups of one key return the *same* :class:`PiecewiseLinear`); the
    disk layer makes fits persistent and shareable across processes.
    The memory layer is FIFO-bounded so a long-running daemon touching
    an unbounded key stream cannot grow without limit (the disk layer
    is bounded separately, via :meth:`prune`).

    Neighbour metadata (what :meth:`nearest_with_key` matches against)
    is served from an on-disk **jsonl index** (``<dir>.index.jsonl``
    *beside* the entries directory): every :meth:`put` appends one line,
    and readers trust the index as long as the entries directory's mtime
    does not exceed the index's — an entry landing without its index
    line (an old writer, a crash between the two steps, an append racing
    a rebuild's ``os.replace``) bumps the directory mtime past the index
    stamp and forces a full rebuild.  The index lives *outside* the
    directory precisely so a rebuild can stamp itself with the
    directory mtime observed before its walk without perturbing that
    mtime.  Warm-start lookups therefore stay O(1)-ish at 10k+ entries
    instead of re-stat'ing and re-parsing the whole directory per miss
    batch.  (Known limit: filesystems with coarse mtime granularity can
    mask a foreign write landing in the same tick as the index stamp
    until the next write.)
    """

    #: Memory-layer entry cap; identity is only promised within it.
    MEM_ENTRIES_MAX = 4096

    #: Suffix of the jsonl neighbour-metadata manifest (kept beside,
    #: not inside, the entries directory).
    INDEX_SUFFIX = ".index.jsonl"

    #: Suffix of the fit-provenance telemetry log (one line per fit a
    #: Session actually executed; see :meth:`log_provenance`).
    PROVENANCE_SUFFIX = ".provenance.jsonl"

    #: Rotation threshold for the provenance log: past this size an
    #: append first compacts the log to its newest half, bounding a
    #: long-running service's telemetry sidecar.
    PROVENANCE_MAX_BYTES = 8 * 1024 * 1024

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self.directory = (Path(directory) if directory is not None
                          else default_cache_dir())
        self._mem: Dict[str, CachedFit] = {}
        #: key -> (mtime, neighbour metadata or None); see :meth:`_scan`.
        self._meta: Dict[str, Tuple[float, Optional[Dict]]] = {}
        #: (monotonic stamp, scan result) — amortises the per-miss scan
        #: inside one Session.fit batch; invalidated by this process's own
        #: writes (other writers surface after the short TTL).
        self._scan_cache: Optional[Tuple[float, Dict[str, Dict]]] = None
        #: ((mtime, size) of index.jsonl, parsed metas) — re-parse only
        #: when the index file itself changed.
        self._index_cache: Optional[Tuple[Tuple[float, int],
                                          Dict[str, Dict]]] = None

    def path(self, key: str) -> Path:
        """Disk location of one entry."""
        return self.directory / f"{key}.json"

    @property
    def index_path(self) -> Path:
        """Disk location of the neighbour-metadata index."""
        return self.directory.parent / (self.directory.name
                                        + self.INDEX_SUFFIX)

    def get(self, key: str) -> Optional[CachedFit]:
        """Entry for ``key``, or None — never a corrupt fit.

        A file that exists but fails to decode (torn write, bit rot,
        checksum mismatch, foreign schema) is *quarantined* — moved to
        ``quarantine/`` under the cache directory — and the read
        reports a miss.  Quarantining instead of silently re-reading
        keeps a corrupt entry from being parsed on every lookup,
        preserves the evidence for ``repro cache verify``, and lets the
        next fit overwrite the slot cleanly.
        """
        hit = self._mem.get(key)
        if hit is not None:
            return hit
        path = self.path(key)
        try:
            text = path.read_text()
        except OSError:
            return None  # plain miss: no file (or unreadable slot)
        text = get_faults().corrupt("cache.read", text)
        try:
            entry = self._decode_entry(text)
        except (ValueError, KeyError, TypeError, FitError,
                CacheIntegrityError) as exc:
            self._quarantine(key, path, repr(exc))
            return None
        self._remember(key, entry)
        return entry

    @staticmethod
    def _decode_entry(text: str) -> CachedFit:
        """Parse + checksum-verify one on-disk entry document."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise CacheIntegrityError(
                f"entry document is {type(doc).__name__}, not an object")
        stored = doc.pop(_INTEGRITY_KEY, None)
        if stored is not None and stored != _entry_digest(doc):
            raise CacheIntegrityError(
                f"checksum mismatch: stored {stored!r}, "
                f"computed {_entry_digest(doc)!r}")
        return CachedFit.from_dict(doc)

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are parked (created on first use)."""
        return self.directory / "quarantine"

    def _quarantine(self, key: str, path: Path, reason: str) -> None:
        target = self.quarantine_dir / f"{key}.json"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            return  # someone else moved/overwrote it first
        self._mem.pop(key, None)
        self._scan_cache = None
        get_metrics().counter("cache.quarantined").inc()

    def verify(self, repair: bool = False) -> Dict:
        """Validate every on-disk entry; optionally quarantine the bad.

        Returns ``{"checked", "ok", "legacy", "corrupt": [...],
        "quarantined"}`` — ``legacy`` counts entries written before
        checksums (structurally valid, no integrity key).  With
        ``repair=True`` corrupt entries are moved to ``quarantine/``
        and the neighbour index is rebuilt; without it the report is
        read-only.  ``repro cache verify [--repair]`` is the CLI.
        """
        checked = ok = legacy = 0
        corrupt: List[Dict] = []
        quarantined = 0
        if self.directory.is_dir():
            for path in sorted(self.directory.glob("*.json")):
                key = path.stem
                checked += 1
                try:
                    text = path.read_text()
                except OSError as exc:
                    corrupt.append({"key": key, "reason": repr(exc)})
                    continue
                try:
                    self._decode_entry(text)
                except (ValueError, KeyError, TypeError, FitError,
                        CacheIntegrityError) as exc:
                    corrupt.append({"key": key, "reason": repr(exc)})
                    if repair:
                        self._quarantine(key, path, repr(exc))
                        quarantined += 1
                    continue
                ok += 1
                if _INTEGRITY_KEY not in json.loads(text):
                    legacy += 1
        if repair and quarantined:
            # The index may advertise entries just quarantined; a full
            # rescan drops them and rewrites it.
            self._meta.clear()
            self._index_cache = None
            self._scan_directory()
        return {"directory": str(self.directory), "checked": checked,
                "ok": ok, "legacy": legacy, "corrupt": corrupt,
                "quarantined": quarantined}

    def _remember(self, key: str, entry: CachedFit) -> None:
        while len(self._mem) >= self.MEM_ENTRIES_MAX:
            self._mem.pop(next(iter(self._mem)))
        self._mem[key] = entry

    def put(self, key: str, entry: CachedFit) -> None:
        """Store an entry in memory, atomically on disk, and in the
        index (entry first: a crash between the two steps leaves the
        directory newer than the index, which readers treat as stale)."""
        self._remember(key, entry)
        self._scan_cache = None
        doc = entry.to_dict()
        doc[_INTEGRITY_KEY] = _entry_digest(doc)
        write_json_atomic(self.path(key), doc)
        self._index_append(key, _entry_meta(doc))

    def clear(self, memory_only: bool = False) -> None:
        """Drop cached fits (memory layer, and the disk files unless told
        otherwise)."""
        self._mem.clear()
        self._meta.clear()
        self._scan_cache = None
        if memory_only:
            return
        self._index_cache = None
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass
        for sidecar in (self.index_path, self.provenance_path):
            try:
                sidecar.unlink()
            except OSError:
                pass

    def __len__(self) -> int:
        on_disk = (set(p.stem for p in self.directory.glob("*.json"))
                   if self.directory.is_dir() else set())
        return len(on_disk | set(self._mem))

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict:
        """Entry count, on-disk footprint and age span of the store."""
        entries = 0
        total_bytes = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        now = time.time()
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    st = path.stat()
                except OSError:
                    continue
                entries += 1
                total_bytes += st.st_size
                oldest = st.st_mtime if oldest is None else min(oldest,
                                                                st.st_mtime)
                newest = st.st_mtime if newest is None else max(newest,
                                                                st.st_mtime)
        try:
            provenance_bytes = self.provenance_path.stat().st_size
        except OSError:
            provenance_bytes = 0
        return {
            "directory": str(self.directory),
            "entries": entries,
            "bytes": total_bytes,
            "provenance_bytes": provenance_bytes,
            "oldest_age_s": (now - oldest) if oldest is not None else None,
            "newest_age_s": (now - newest) if newest is not None else None,
        }

    def prune(self, max_entries: Optional[int] = None,
              max_age_s: Optional[float] = None) -> int:
        """Bound the on-disk store; returns the number of entries removed.

        ``max_age_s`` drops entries older than the given age;
        ``max_entries`` then keeps only the newest N (by mtime).  Both
        are applied when both are given.  Removed keys also leave the
        in-memory layer so a pruned entry cannot be resurrected from RAM.
        """
        if max_entries is None and max_age_s is None:
            return 0
        if max_entries is not None and max_entries < 0:
            raise FitError(f"max_entries must be >= 0, got {max_entries}")
        if not self.directory.is_dir():
            return 0
        now = time.time()
        stamped: List[Tuple[float, Path]] = []
        for path in self.directory.glob("*.json"):
            try:
                stamped.append((path.stat().st_mtime, path))
            except OSError:
                continue
        stamped.sort(key=lambda t: t[0], reverse=True)  # newest first

        doomed: List[Path] = []
        if max_age_s is not None:
            cutoff = now - max_age_s
            keep = [(m, p) for m, p in stamped if m >= cutoff]
            doomed.extend(p for m, p in stamped if m < cutoff)
            stamped = keep
        if max_entries is not None and len(stamped) > max_entries:
            doomed.extend(p for _, p in stamped[max_entries:])

        removed = 0
        for path in doomed:
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            self._mem.pop(path.stem, None)
            self._meta.pop(path.stem, None)
        self._scan_cache = None
        if removed:
            # Retire the index: the next scan rebuilds it from what
            # actually survived (pruning is rare; rebuilds are cheap).
            self._index_cache = None
            try:
                self.index_path.unlink()
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------ #
    # Fit-provenance telemetry
    # ------------------------------------------------------------------ #
    @property
    def provenance_path(self) -> Path:
        """Disk location of the provenance telemetry log."""
        return self.directory.parent / (self.directory.name
                                        + self.PROVENANCE_SUFFIX)

    def log_provenance(self, record: Dict) -> None:
        """Append one fit-provenance record (best-effort, like the index).

        Sessions call this once per fit that actually *executed* — the
        payload is the JSON-native slice of the
        :class:`~repro.api.artifact.FitArtifact` (engine, init lineage,
        warm-guard verdicts, step counts).  ``repro cache report``
        aggregates the log into the warm-start telemetry the ROADMAP
        asks for.  The log self-rotates past
        :attr:`PROVENANCE_MAX_BYTES` (newest half kept), so a
        long-running daemon cannot grow it without bound.  Telemetry
        must never break a fit: any OS error is swallowed.
        """
        try:
            self.directory.parent.mkdir(parents=True, exist_ok=True)
            self._provenance_rotate()
            with open(self.provenance_path, "a") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError:
            pass

    def _provenance_rotate(self) -> None:
        """Compact the log to its newest half once it outgrows the cap."""
        path = self.provenance_path
        try:
            if path.stat().st_size <= self.PROVENANCE_MAX_BYTES:
                return
            lines = path.read_text().splitlines(keepends=True)
        except OSError:
            return
        keep = lines[len(lines) // 2:]
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.writelines(keep)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def iter_provenance(self) -> List[Dict]:
        """Parsed provenance records, oldest first (corrupt lines skipped)."""
        return self.read_provenance()[0]

    def read_provenance(self) -> Tuple[List[Dict], int]:
        """``(records, malformed)``: parsed lines plus the skip count.

        Malformed lines happen legitimately — a writer killed mid-append
        leaves a truncated tail, and the self-rotation may cut a line in
        half — so readers skip them; the *count* matters because a
        growing one points at a corrupted log or a misbehaving writer,
        which ``repro cache report`` surfaces instead of hiding.
        """
        out: List[Dict] = []
        malformed = 0
        try:
            with open(self.provenance_path) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        doc = json.loads(line)
                    except ValueError:
                        malformed += 1
                        continue
                    if isinstance(doc, dict):
                        out.append(doc)
                    else:
                        malformed += 1
        except OSError:
            pass
        return out, malformed

    # ------------------------------------------------------------------ #
    # Near-miss lookup (warm starts)
    # ------------------------------------------------------------------ #
    def _scan(self, max_age_s: float = 1.0) -> Dict[str, Dict]:
        """Neighbour metadata for every parseable on-disk entry.

        Served from the jsonl index when it is trustworthy (see the
        class docstring); otherwise from a full directory walk that also
        rewrites the index.  A whole-result TTL (``max_age_s``) lets a
        batch of misses pay for one freshness check instead of one per
        miss.
        """
        now = time.monotonic()
        if (self._scan_cache is not None
                and now - self._scan_cache[0] < max_age_s):
            return self._scan_cache[1]
        out = self._scan_index()
        if out is None:
            out = self._scan_directory()
        self._scan_cache = (now, out)
        return out

    def _scan_index(self) -> Optional[Dict[str, Dict]]:
        """Metadata from ``index.jsonl``, or None when it cannot be
        trusted (missing, older than the directory, or corrupt)."""
        try:
            st = self.index_path.stat()
            dir_mtime = self.directory.stat().st_mtime
        except OSError:
            return None
        if dir_mtime > st.st_mtime:
            return None  # an entry landed after the last index update
        stamp = (st.st_mtime, st.st_size)
        if self._index_cache is not None and self._index_cache[0] == stamp:
            return self._index_cache[1]
        metas: Dict[str, Dict] = {}
        try:
            with open(self.index_path) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    doc = json.loads(line)
                    key = str(doc["key"])
                    meta = doc.get("meta")
                    if meta is None:
                        metas.pop(key, None)
                    else:
                        metas[key] = meta
        except (OSError, ValueError, KeyError, TypeError):
            return None  # torn append / corrupt line: rebuild instead
        self._index_cache = (stamp, metas)
        return metas

    def _scan_directory(self) -> Dict[str, Dict]:
        """Full directory walk (mtime-keyed parse caching underneath);
        rewrites the index so the next scan is O(1) again."""
        fresh: Dict[str, Tuple[float, Optional[Dict]]] = {}
        out: Dict[str, Dict] = {}
        if not self.directory.is_dir():
            self._meta = fresh
            return out
        try:
            # Entries written from here on may be missed by this walk;
            # stamping the rebuilt index with the PRE-walk directory
            # mtime guarantees any such write leaves the directory
            # looking newer, forcing the next scan to rebuild again.
            walk_stamp = self.directory.stat().st_mtime
        except OSError:
            walk_stamp = None
        for path in self.directory.glob("*.json"):
            key = path.stem
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            cached = self._meta.get(key)
            if cached is not None and cached[0] == mtime:
                fresh[key] = cached
                if cached[1] is not None:
                    out[key] = cached[1]
                continue
            meta: Optional[Dict] = None
            try:
                meta = _entry_meta(json.loads(path.read_text()))
            except (OSError, ValueError, KeyError, TypeError):
                meta = None
            fresh[key] = (mtime, meta)
            if meta is not None:
                out[key] = meta
        self._meta = fresh
        self._index_rewrite(out, walk_stamp)
        return out

    # ------------------------------------------------------------------ #
    # Index maintenance
    # ------------------------------------------------------------------ #
    def _index_append(self, key: str, meta: Optional[Dict]) -> None:
        """Append one index line (``meta=None`` records "no neighbour
        metadata" so rebuilds are not forced by metadata-less entries).

        The index is an accelerator: on any OS error the append is
        simply skipped, and the staleness check forces a rebuild later.
        """
        try:
            with open(self.index_path, "a") as handle:
                handle.write(json.dumps({"key": key, "meta": meta},
                                        sort_keys=True) + "\n")
        except OSError:
            pass

    def _index_rewrite(self, metas: Dict[str, Dict],
                       walk_stamp: Optional[float]) -> None:
        """Atomically replace the index with the given metadata set.

        The rebuilt index is stamped with ``walk_stamp`` — the entries
        directory's mtime *before* the walk that produced ``metas`` —
        so any entry written concurrently (which this walk may have
        missed, or whose index append raced the replace below and
        landed on the discarded inode) keeps the directory newer than
        the index and triggers another rebuild.
        """
        if walk_stamp is None or not self.directory.is_dir():
            return
        try:
            fd, tmp = tempfile.mkstemp(dir=self.index_path.parent,
                                       suffix=".tmp")
        except OSError:
            return
        try:
            with os.fdopen(fd, "w") as handle:
                for key, meta in metas.items():
                    handle.write(json.dumps({"key": key, "meta": meta},
                                            sort_keys=True) + "\n")
            os.utime(tmp, (walk_stamp, walk_stamp))
            os.replace(tmp, self.index_path)
            self._index_cache = None
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def nearest_with_key(self, job: FitJob, exclude_key: Optional[str] = None,
                         max_distance: float = 1.25
                         ) -> Optional[Tuple[str, CachedFit]]:
        """Cache key and entry of the closest neighbouring configuration.

        Candidates must match the job's function identity (name plus
        sampled-spec digest) and boundary policy; distance is
        :func:`config_distance`, so one budget doubling or shifting the
        interval by its own width both count as distance 1.  Entries
        further than ``max_distance`` are worse seeds than a cold
        curvature init and are ignored.  The key is the neighbour's
        identity — what warm-start lineage records in
        ``FitArtifact.provenance["warm_key"]``.
        """
        cfg = job.config
        if cfg.interval is None:
            return None
        digest = job_spec_digest(job)
        boundary = (cfg.boundary_left, cfg.boundary_right)

        best_key: Optional[str] = None
        best_d = max_distance
        for key, meta in self._scan().items():
            if key == exclude_key:
                continue
            if meta["function"] != job.function:
                continue
            if meta["spec_digest"] != digest:
                continue
            if tuple(meta["boundary"]) != boundary:
                continue
            d = config_distance(cfg, meta["n_breakpoints"], meta["interval"])
            if d <= best_d:
                best_d = d
                best_key = key
        if best_key is None:
            return None
        entry = self.get(best_key)
        return (best_key, entry) if entry is not None else None


_DEFAULT_CACHES: Dict[Path, FitCache] = {}


def default_cache() -> FitCache:
    """Process-wide cache at :func:`default_cache_dir` (env-sensitive)."""
    directory = default_cache_dir()
    cache = _DEFAULT_CACHES.get(directory)
    if cache is None:
        cache = FitCache(directory)
        _DEFAULT_CACHES[directory] = cache
    return cache


# --------------------------------------------------------------------- #
# Worker functions (in-process, or pickled into a pool worker)
# --------------------------------------------------------------------- #
#: One fit task as the engines hand it to a worker: the job plus an
#: optional warm seed (a :meth:`PiecewiseLinear.to_dict` document from a
#: neighbouring cached configuration).
FitTask = Tuple[FitJob, Optional[Dict]]


def _lane_task(job: FitJob, warm: Optional[Dict]):
    """Resolve one (job, warm seed) into a fit-ready LaneTask."""
    from .lanefit import LaneTask

    warm_pwl = PiecewiseLinear.from_dict(warm) if warm is not None else None
    return LaneTask(fn=resolve_function(job), config=job.config,
                    warm_start=warm_pwl)


def _entry_payload(job: FitJob, res, wall_time_s: float, engine: str) -> Dict:
    """Wrap a FitResult into the cache/queue payload format."""
    entry = CachedFit(function=job.function, pwl=res.pwl,
                      grid_mse=res.grid_mse, rounds=res.rounds,
                      total_steps=res.total_steps, init_used=res.init_used,
                      config=job.config, spec_digest=job_spec_digest(job))
    return {"entry": entry.to_dict(), "wall_time_s": wall_time_s,
            "engine": engine}


def _run_job(job: FitJob, warm: Optional[Dict] = None) -> Dict:
    """Execute one scalar fit; returns the cache payload."""
    get_faults().check("fit.worker")
    t0 = time.perf_counter()
    task = _lane_task(job, warm)
    res = FlexSfuFitter(job.config).fit(task.fn, warm_start=task.warm_start)
    return _entry_payload(job, res, time.perf_counter() - t0, "scalar")


def _run_group(tasks: Sequence[FitTask]) -> List[Dict]:
    """Execute a shape-compatible group of fits as one lane batch.

    Returns one payload per task, in order — either the ``_run_job``
    shape or ``{"error": repr}``.  If the lane engine cannot run the
    batch (a hostile target, an incompatibility the grouping missed),
    every task is retried individually through the scalar path so one
    bad job cannot poison its batchmates.
    """
    from .lanefit import fit_lanes

    get_faults().check("fit.worker")
    t0 = time.perf_counter()
    try:
        lane_tasks = [_lane_task(*task) for task in tasks]
        results = fit_lanes(lane_tasks)
    except Exception:
        out: List[Dict] = []
        for task in tasks:
            try:
                out.append(_run_job(*task))
            except Exception as exc:
                out.append({"error": repr(exc)})
        return out
    wall = (time.perf_counter() - t0) / max(len(tasks), 1)
    return [_entry_payload(job, res, wall, "lane")
            for (job, _), res in zip(tasks, results)]


def _run_unit(tasks: Sequence[FitTask]) -> List[Dict]:
    """Execute one unit (see :func:`plan_units`): payloads in order.

    Module-level so a process pool can pickle it.  A one-task unit runs
    the scalar path, a larger one the lane-batched kernel.
    """
    if len(tasks) == 1:
        return [_run_job(*tasks[0])]
    return _run_group(tasks)


def native_entry(job: FitJob) -> Optional[CachedFit]:
    """Exact-PWL shortcut shared by every execution engine.

    PWL-native functions (ReLU & co) must not burn a full optimizer
    run — and must yield the *same* artifact under a key regardless of
    which engine (batch, session, pass-level cache) produced it.
    Returns ``None`` when the function is not exactly representable
    within the job's budget.
    """
    from ..graph.passes import native_pwl  # deferred: passes imports us
    fn = resolve_function(job)
    native = native_pwl(fn)
    if native is None or native.n_breakpoints > job.config.n_breakpoints:
        return None
    a, b = job.config.interval if job.config.interval is not None \
        else fn.default_interval
    from .loss import GridLoss
    n_grid = grid_points_for(job.config)
    mse = GridLoss(fn, a, b, n_points=n_grid).loss_pwl(native)
    return CachedFit(function=job.function, pwl=native, grid_mse=mse,
                     rounds=0, total_steps=0, init_used="native",
                     config=job.config, spec_digest=job_spec_digest(job))


def plan_units(configs: Dict[str, FitConfig], lane_batch: bool,
               workers: int) -> List[List[str]]:
    """Partition miss keys into execution units (ordered key lists).

    With lane batching on, keys are grouped by
    :func:`~repro.core.lanefit.lane_group_key` and each group is
    chunked so a pool still sees at least ``workers`` tasks when it has
    cores to feed; with ``workers=1`` each group rides one deep batch.
    A one-key unit runs the scalar path.
    """
    if not lane_batch:
        return [[key] for key in configs]
    from .lanefit import lane_group_key

    groups: Dict[FitConfig, List[str]] = {}
    for key, cfg in configs.items():
        groups.setdefault(lane_group_key(cfg), []).append(key)
    units: List[List[str]] = []
    for keys in groups.values():
        chunk = max(2, -(-len(keys) // max(workers, 1)))
        units.extend(keys[i:i + chunk]
                     for i in range(0, len(keys), chunk))
    return units


def _pool_worker_init(fault_plan: Optional[str] = None) -> None:
    """Set up a fresh pool worker: default SIGTERM, exit with the parent,
    and the parent's fault plan (``FaultPlan.to_json``) when it has one.

    The ``repro serve`` CLI reroutes SIGTERM to ``KeyboardInterrupt``
    for its own clean shutdown; fork-started workers inherit that
    handler and would raise at whatever bytecode they happen to be on
    when an operator signals the process group.  Workers should just
    die the default way — the executor's broken-pool handling and the
    daemon's per-job retry own the recovery story.

    A worker also exits once its parent is gone (a SIGKILLed daemon
    never shuts its pool down): an orphan would otherwise wait on the
    pool's call queue forever, holding the parent's stdout open.

    A spawn- or forkserver-started worker inherits no module state, so
    a plan enabled in the parent reaches it only through
    ``fault_plan``; whatever the start method, the worker's injector
    counts hits from zero.
    """
    if fault_plan is not None:
        from ..faults import FaultPlan, enable_faults
        enable_faults(FaultPlan.parse(fault_plan))
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    parent = os.getppid()

    def exit_with_parent() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True,
                     name="repro-pool-parent-watch").start()
