"""Durable file-backed job queue with atomic claims.

The queue is a directory tree — the same discipline as
:class:`~repro.core.batchfit.FitCache` (atomic ``os.replace``), extended
with a claim step so any number of client processes and daemon processes
can share it without locks:

.. code-block:: text

    <root>/
      pending/<key>.json    submitted, unowned
      claimed/<key>.json    owned by a daemon (``os.replace`` from pending)
      done/<key>.json       result payload (entry + timing)
      failed/<key>.json     error payload
      dead/<key>.json       dead letter: attempt budget exhausted
      daemon.json           heartbeat of the serving daemon

``<key>`` is the job's fit-cache key, which buys queue-level
deduplication for free: two clients submitting the same job race on one
``pending`` file, the daemon claims it once, and both clients read the
single ``done`` marker.  ``os.replace`` of a missing source raises, so
exactly one of two racing daemons wins each claim.

Claimed files left behind by a crashed daemon are returned to
``pending`` by :meth:`JobQueue.requeue_stale` (age-based), which the
daemon runs on startup.  Each claim stamps an ``attempts`` count into
the payload, carried through requeues; a job that keeps crashing its
daemon (claimed, orphaned, requeued, claimed again …) exhausts the
budget and lands in ``dead/`` — with a companion ``failed`` marker so
waiting clients terminate — instead of looping forever.
"""

from __future__ import annotations

import json
import os
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.batchfit import default_cache_dir, write_json_atomic
from ..errors import ServiceError
from ..faults import get_faults
from ..obs import clock
from ..obs.metrics import get_metrics

PENDING = "pending"
CLAIMED = "claimed"
DONE = "done"
FAILED = "failed"
DEAD = "dead"

_STATES = (PENDING, CLAIMED, DONE, FAILED, DEAD)

HEARTBEAT_NAME = "daemon.json"

#: Default per-job claim budget before dead-lettering.
DEFAULT_MAX_ATTEMPTS = 3

#: Cap on the traceback tail carried by a failure payload.
TRACEBACK_TAIL_CHARS = 2000


def traceback_tail(exc: BaseException,
                   max_chars: int = TRACEBACK_TAIL_CHARS) -> str:
    """The last ``max_chars`` of ``exc``'s formatted traceback.

    The *tail* is the useful end: the innermost frames and the message.
    """
    text = "".join(traceback.format_exception(
        type(exc), exc, exc.__traceback__))
    return text[-max_chars:]


def default_service_dir() -> Path:
    """Queue root next to the fit cache (``<cache root>/service``)."""
    return default_cache_dir().parent / "service"


def _read_json(path: Path) -> Optional[Dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


class JobQueue:
    """One shared queue directory; safe for many readers and writers.

    ``max_attempts`` is the dead-letter budget: the claim that would be
    attempt ``max_attempts + 1`` for a key goes to ``dead/`` instead.
    """

    def __init__(self, root: Optional[Path] = None,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> None:
        self.root = Path(root) if root is not None else default_service_dir()
        if max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts
        # First-observation times (monotonic) of claimed files, so
        # staleness decisions made by a long-lived daemon survive
        # wall-clock jumps; see requeue_stale().
        self._claim_seen: Dict[str, float] = {}

    def _dir(self, state: str) -> Path:
        return self.root / state

    def _path(self, state: str, key: str) -> Path:
        return self._dir(state) / f"{key}.json"

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #
    def submit(self, key: str, payload: Dict) -> bool:
        """Enqueue a job under ``key``; returns False when redundant.

        Redundant means the key is already pending, claimed, or
        finished — the submit is then a no-op and the caller just waits
        on the existing lifecycle.
        """
        # Lifecycle order: a job moves pending -> claimed -> done/failed,
        # each step creating the next file before retiring the last, so
        # a job a daemon advances mid-scan (a claim, a publish) is still
        # seen instead of being enqueued again.
        for state in _STATES:
            if self._path(state, key).exists():
                get_metrics().counter("service.submit", outcome="dedup").inc()
                return False
        get_faults().check("queue.submit")
        write_json_atomic(self._path(PENDING, key), payload)
        get_metrics().counter("service.submit", outcome="accepted").inc()
        return True

    def result(self, key: str) -> Optional[Tuple[str, Dict]]:
        """(state, payload) once the job reached done/failed, else None."""
        for state in (DONE, FAILED):
            doc = _read_json(self._path(state, key))
            if doc is not None:
                return state, doc
        return None

    def forget(self, key: str) -> None:
        """Drop every trace of a key (any state); used by re-submitters."""
        for state in _STATES:
            try:
                self._path(state, key).unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    # Daemon side
    # ------------------------------------------------------------------ #
    def claim(self, max_jobs: int = 64) -> List[Tuple[str, Dict]]:
        """Atomically move up to ``max_jobs`` pending jobs to claimed.

        Returns the claimed (key, payload) pairs.  Unparseable payloads
        are moved straight to ``failed`` instead of wedging the queue.
        Each successful claim rewrites the payload with an incremented
        ``attempts`` count; a claim past ``max_attempts`` dead-letters
        the job instead of returning it.
        """
        if max_jobs < 1:
            raise ServiceError(f"max_jobs must be >= 1, got {max_jobs}")
        pending = self._dir(PENDING)
        if not pending.is_dir():
            return []
        # Stat first, racily: a file another daemon claims between the
        # glob and the stat simply drops out of this cycle's ordering.
        stamped: List[Tuple[float, Path]] = []
        for path in pending.glob("*.json"):
            try:
                stamped.append((path.stat().st_mtime, path))
            except OSError:
                continue
        stamped.sort(key=lambda t: t[0])
        out: List[Tuple[str, Dict]] = []
        for _, path in stamped:
            if len(out) >= max_jobs:
                break
            key = path.stem
            target = self._path(CLAIMED, key)
            target.parent.mkdir(parents=True, exist_ok=True)
            try:
                get_faults().check("queue.claim")
                os.replace(path, target)  # atomic: exactly one winner
            except OSError:
                continue  # another daemon got it first
            doc = self._read_claimed(target)
            if doc is None:
                self.fail(key, "unparseable job payload")
                continue
            attempts = int(doc.get("attempts", 0)) + 1
            doc["attempts"] = attempts
            if attempts > self.max_attempts:
                self._dead_letter(key, doc)
                continue
            # Rewriting stamps the *claim* time (os.replace preserved
            # the submit mtime, which would make long-queued jobs look
            # instantly stale to requeue_stale()) and persists the
            # attempt count so it survives a daemon crash + requeue.
            try:
                write_json_atomic(target, doc)
            except OSError:
                try:
                    os.utime(target)
                except OSError:
                    pass
            # ``attempts`` is queue bookkeeping, not part of the
            # caller's payload contract — it lives on disk only.
            out.append((key, {k: v for k, v in doc.items()
                              if k != "attempts"}))
        if out:
            get_metrics().counter("service.jobs.claimed").inc(len(out))
        return out

    def _read_claimed(self, path: Path) -> Optional[Dict]:
        """A claimed payload, through the corruption injection site."""
        try:
            text = path.read_text()
        except OSError:
            return None
        text = get_faults().corrupt("queue.claim.payload", text)
        try:
            doc = json.loads(text)
        except ValueError:
            return None
        return doc if isinstance(doc, dict) else None

    def _dead_letter(self, key: str, doc: Dict) -> None:
        """Move an over-budget claim to ``dead/`` and publish a
        terminal failure so waiting clients stop immediately."""
        attempts = int(doc.get("attempts", 0))
        reason = (f"dead-lettered after {attempts} attempts "
                  f"(budget {self.max_attempts})")
        dead_doc = dict(doc)
        dead_doc.update({"error": reason, "ts": clock.wall()})
        write_json_atomic(self._path(DEAD, key), dead_doc)
        get_metrics().counter("service.jobs.dead").inc()
        self.fail(key, reason, detail={"dead": True},
                  attempts=attempts)

    def finish(self, key: str, result: Dict) -> None:
        """Publish a result and retire the claim."""
        get_faults().check("queue.publish")
        write_json_atomic(self._path(DONE, key), result)
        try:
            self._path(CLAIMED, key).unlink()
        except OSError:
            pass

    def fail(self, key: str, error: str, detail: Optional[Dict] = None,
             attempts: Optional[int] = None,
             exc: Optional[BaseException] = None) -> None:
        """Publish a failure and retire the claim.

        The payload always carries a wall timestamp and the claim's
        attempt count (read back from the claimed marker when not given
        explicitly); ``exc`` adds a truncated traceback tail.  ``repro
        queue failed --json`` surfaces all of it.
        """
        if attempts is None:
            claimed_doc = _read_json(self._path(CLAIMED, key))
            if claimed_doc is not None:
                attempts = int(claimed_doc.get("attempts", 0)) or None
        doc: Dict = {"error": str(error), "ts": clock.wall()}
        if attempts is not None:
            doc["attempts"] = attempts
        if exc is not None:
            doc["traceback"] = traceback_tail(exc)
        if detail:
            doc.update(detail)
        get_faults().check("queue.publish")
        write_json_atomic(self._path(FAILED, key), doc)
        try:
            self._path(CLAIMED, key).unlink()
        except OSError:
            pass

    def requeue_stale(self, max_age_s: float = 600.0) -> int:
        """Return crashed daemons' claims to pending; returns the count.

        Staleness is judged on the *monotonic* clock for claims this
        queue object has watched age (a long-running daemon polling
        here must not mass-requeue live work because the wall clock
        jumped forward, nor hold genuinely stale claims forever because
        it jumped back).  A claim seen for the first time falls back to
        its file mtime — the only evidence available across processes,
        e.g. on daemon startup after a crash.
        """
        claimed = self._dir(CLAIMED)
        if not claimed.is_dir():
            self._claim_seen.clear()
            return 0
        now_mono = clock.mono()
        cutoff_wall = clock.wall() - max_age_s
        moved = 0
        live = set()
        for path in claimed.glob("*.json"):
            key = path.stem
            live.add(key)
            first_seen = self._claim_seen.get(key)
            if first_seen is None:
                self._claim_seen[key] = now_mono
                try:
                    stale = path.stat().st_mtime < cutoff_wall
                except OSError:
                    continue
            else:
                stale = (now_mono - first_seen) >= max_age_s
            if not stale:
                continue
            try:
                os.replace(path, self._path(PENDING, key))
            except OSError:
                continue
            self._claim_seen.pop(key, None)
            live.discard(key)
            moved += 1
        # Claims that finished (or were requeued by someone else) stop
        # being tracked, so a re-claim of the same key restarts its age.
        for key in [k for k in self._claim_seen if k not in live]:
            del self._claim_seen[key]
        if moved:
            get_metrics().counter("service.jobs.requeued").inc(moved)
        return moved

    def prune_results(self, max_age_s: float = 3600.0) -> int:
        """Drop done/failed markers older than ``max_age_s``.

        Marker mtimes are persisted wall-clock facts shared across
        processes, so this comparison stays wall-based by design — a
        jump can at worst prune early/late, never wedge the queue.
        """
        cutoff = clock.wall() - max_age_s
        removed = 0
        for state in (DONE, FAILED):
            directory = self._dir(state)
            if not directory.is_dir():
                continue
            for path in directory.glob("*.json"):
                try:
                    if path.stat().st_mtime < cutoff:
                        path.unlink()
                        removed += 1
                except OSError:
                    continue
        return removed

    # ------------------------------------------------------------------ #
    # Introspection / heartbeat
    # ------------------------------------------------------------------ #
    def counts(self) -> Dict[str, int]:
        """Per-state entry counts."""
        out: Dict[str, int] = {}
        for state in _STATES:
            directory = self._dir(state)
            out[state] = (len(list(directory.glob("*.json")))
                          if directory.is_dir() else 0)
        return out

    def list_state(self, state: str) -> List[Dict]:
        """Entries of one state for introspection (``repro queue``).

        Each item: ``{"key", "age_s", ...payload}`` — for ``failed``
        that includes the enriched error / ts / attempts / traceback
        fields, for ``dead`` the dead-letter document.  Sorted oldest
        first; unreadable files surface as ``{"error": "unreadable"}``
        stubs rather than vanishing from the report.
        """
        if state not in _STATES:
            raise ServiceError(f"unknown queue state {state!r}; "
                               f"expected one of {_STATES}")
        directory = self._dir(state)
        if not directory.is_dir():
            return []
        now = clock.wall()
        stamped: List[Tuple[float, Path]] = []
        for path in directory.glob("*.json"):
            try:
                stamped.append((path.stat().st_mtime, path))
            except OSError:
                continue
        stamped.sort(key=lambda t: t[0])
        out: List[Dict] = []
        for mtime, path in stamped:
            doc = _read_json(path) or {"error": "unreadable"}
            item: Dict = {"key": path.stem,
                          "age_s": round(max(now - mtime, 0.0), 3)}
            item.update(doc)
            out.append(item)
        return out

    @property
    def heartbeat_path(self) -> Path:
        return self.root / HEARTBEAT_NAME

    def write_heartbeat(self, doc: Dict) -> None:
        """Refresh the daemon liveness marker (atomic)."""
        write_json_atomic(self.heartbeat_path, doc)

    def daemon_alive(self, max_age_s: float = 10.0) -> bool:
        """Whether a daemon refreshed its heartbeat recently.

        Necessarily wall-based: the heartbeat mtime is written by a
        *different* process, and wall time is the only clock the two
        share.  A one-shot freshness check cannot accumulate monotonic
        observations the way :meth:`requeue_stale` does.
        """
        try:
            age = clock.wall() - self.heartbeat_path.stat().st_mtime
        except OSError:
            return False
        return age <= max_age_s

    def heartbeat(self) -> Optional[Dict]:
        """Last heartbeat payload, if any."""
        return _read_json(self.heartbeat_path)
