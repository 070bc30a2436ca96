"""Thin client primitives over the fit service: submit / wait.

A client process never fits anything itself when a daemon is serving:
it checks the shared on-disk cache, enqueues the misses, and waits for
``done`` markers.  The queue transport of :class:`repro.api
.RemoteEngine` builds on :func:`wait`; ``Session(EngineConfig(
service_root=..., fallback=...))`` is the front end, with transparent
local fallback when no daemon is serving.

All coordination is file-based (queue directory + cache directory), so
"client" and "daemon" only need a filesystem in common.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from ..core.batchfit import CachedFit, FitJob, fit_cache_key, job_to_dict
from ..errors import ReproError, ServiceError
from ..obs import clock
from .queue import JobQueue
from .retry import RetryPolicy, jittered


def submit(job: FitJob, root: Optional[Union[str, Path]] = None,
           retry: Optional[RetryPolicy] = None) -> str:
    """Enqueue one job; returns its key (idempotent per key).

    Transient queue I/O errors are retried under ``retry`` (a default
    :class:`~repro.service.retry.RetryPolicy` when not given).
    """
    key = fit_cache_key(job)
    queue = JobQueue(Path(root) if root is not None else None)
    policy = retry or RetryPolicy()
    policy.call(lambda: queue.submit(key, {"job": job_to_dict(job)}),
                label=f"submit {key[:16]}")
    return key


def wait(keys: Sequence[str], root: Optional[Union[str, Path]] = None,
         timeout_s: float = 300.0, poll_s: float = 0.05,
         require_daemon: bool = True, return_failures: bool = False):
    """Block until every key reaches ``done``; returns key -> entry.

    A job the daemon marked *failed* raises :class:`ServiceError` — or,
    with ``return_failures=True``, the call instead returns a
    ``(results, failures)`` pair where ``failures`` maps key -> failure
    payload, so one bad job cannot discard its batchmates' finished
    fits.  Timeout, and — with ``require_daemon`` — a heartbeat going
    stale while results are outstanding, always raise (so clients don't
    sit out the full timeout against a dead service).
    """
    queue = JobQueue(Path(root) if root is not None else None)
    outstanding = set(keys)
    results: Dict[str, CachedFit] = {}
    failures: Dict[str, Dict] = {}
    # Monotonic on purpose: the deadline must not move when the wall
    # clock jumps (NTP step, suspend/resume) mid-wait.
    deadline = clock.mono() + timeout_s
    while outstanding:
        for key in sorted(outstanding):
            try:
                got = queue.result(key)
            except OSError:
                continue  # transient read hiccup: retry next poll
            if got is None:
                continue
            state, doc = got
            if state == "failed":
                if not return_failures:
                    raise ServiceError(
                        f"fit job {key[:16]}… failed in the daemon: "
                        f"{doc.get('error', 'unknown error')}")
                failures[key] = doc
            else:
                try:
                    results[key] = CachedFit.from_dict(doc["entry"])
                except (KeyError, TypeError, ValueError, ReproError) as exc:
                    # E.g. a done marker published by a daemon running a
                    # different cache schema: treat like a failed job so
                    # fallback paths (and marker cleanup) still work.
                    if not return_failures:
                        raise ServiceError(
                            f"fit job {key[:16]}… returned an "
                            f"undecodable result: {exc!r}") from exc
                    failures[key] = {"error": f"undecodable result: {exc!r}"}
            outstanding.discard(key)
        if not outstanding:
            break
        # Generous staleness bound: the daemon refreshes per batch, but a
        # pool cold-start plus a big claim can stretch one cycle.
        if require_daemon and not queue.daemon_alive(max_age_s=60.0):
            raise ServiceError(
                f"no fit daemon is serving {queue.root} "
                f"({len(outstanding)} jobs outstanding)")
        if clock.mono() > deadline:
            raise ServiceError(
                f"timed out after {timeout_s:g}s waiting for "
                f"{len(outstanding)} of {len(keys)} fit jobs")
        # Jittered so a fleet of clients that enqueued together does
        # not hammer the queue directory in lock-step every cycle.
        time.sleep(jittered(poll_s))
    return (results, failures) if return_failures else results
