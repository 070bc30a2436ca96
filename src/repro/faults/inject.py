"""The fault injector: named sites, deterministic firing, gated off.

Call sites are one line::

    get_faults().check("queue.claim")        # may raise / stall
    text = get_faults().corrupt("cache.read", text)
    if get_faults().drop("daemon.heartbeat"):
        return

With no plan active (the default), :func:`get_faults` returns a shared
:class:`NullInjector` whose methods are immediate no-ops — the same
discipline as the obs layer's ``NullTracer``: no allocation, no clock
read, no branching beyond one attribute lookup, so production code pays
nothing for being injectable and outputs are bitwise-identical to a
build without the call sites (``benchmarks/bench_faults.py`` gates the
overhead).

Activation is programmatic (:func:`enable_faults`, for in-process chaos
tests) or environmental (``REPRO_FAULTS`` holding inline JSON or a plan
file path, for subprocess daemons and their pool workers).  The active
injector counts every hit per site and every fire per rule —
:meth:`FaultInjector.snapshot` is what chaos tests assert against and
what failure artifacts carry.
"""

from __future__ import annotations

import os
import threading
import time
from random import Random
from typing import Any, Dict, List, Optional, Tuple

from ..errors import TransientError
from .plan import (KIND_BROKEN_POOL, KIND_CLOCK_JUMP, KIND_CORRUPT,
                   KIND_CRASH, KIND_DROP, KIND_ERROR, KIND_OSERROR,
                   KIND_STALL, FaultPlan, FaultRule)

#: Environment switch: inline JSON or the path of a plan file.
ENV_FAULTS = "REPRO_FAULTS"


class InjectedFault(TransientError):
    """A transient failure injected by the fault layer (retryable)."""


class InjectedOSError(OSError):
    """An I/O failure injected by the fault layer."""


class InjectedCrash(BaseException):
    """A simulated process death.

    Deliberately *not* an :class:`Exception`: the blanket per-job
    ``except Exception`` isolation in the daemon must not absorb a
    simulated crash, exactly as it cannot absorb a real ``SIGKILL``.
    """


class NullInjector:
    """The disabled state: every site is a no-op.  Shared singleton."""

    __slots__ = ()

    enabled = False

    def fire(self, site: str) -> Optional[FaultRule]:
        return None

    def check(self, site: str) -> None:
        return None

    def corrupt(self, site: str, text: str) -> str:
        return text

    def drop(self, site: str) -> bool:
        return False

    def wall_offset(self) -> float:
        return 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {"enabled": False, "sites": {}, "plan": None}


class FaultInjector:
    """Executes a :class:`FaultPlan` against named call sites.

    Deterministic by construction: each rule owns a
    ``random.Random(plan.seed * 1_000_003 + rule.seed)`` stream and a
    hit counter, so the k-th arrival at a site always rolls the same
    dice regardless of wall time, thread timing of *other* sites, or
    process pid.  (Concurrent hits on one site serialise on the
    injector lock, so "k-th arrival" is well-defined; which thread is
    k-th is the one thing scheduling still decides.)
    """

    enabled = True

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._fires: Dict[str, int] = {}
        # (rule id -> (rng, hits seen, times fired)); rules are frozen,
        # state lives here.
        self._state: Dict[int, Tuple[Random, List[int]]] = {}
        for i, rule in enumerate(plan.rules):
            rng = Random(plan.seed * 1_000_003 + rule.seed * 8_191 + i)
            self._state[i] = (rng, [0, 0])
        self._wall_offset = 0.0

    # ------------------------------------------------------------------ #
    # Firing decision
    # ------------------------------------------------------------------ #
    def fire(self, site: str) -> Optional[FaultRule]:
        """The rule firing at this arrival, or None.  Counts the hit."""
        with self._lock:
            self._hits[site] = self._hits.get(site, 0) + 1
            fired: Optional[FaultRule] = None
            for i, rule in enumerate(self.plan.rules):
                if not rule.matches(site):
                    continue
                rng, counters = self._state[i]
                n = counters[0]
                counters[0] = n + 1
                if n < rule.after:
                    continue
                if rule.times is not None and counters[1] >= rule.times:
                    continue
                k = n - rule.after
                hit = (k in rule.at) if rule.at else \
                    (rule.p > 0.0 and rng.random() < rule.p)
                if hit:
                    counters[1] += 1
                    if fired is None:  # first matching rule wins
                        fired = rule
            if fired is not None:
                self._fires[site] = self._fires.get(site, 0) + 1
            return fired

    # ------------------------------------------------------------------ #
    # Site verbs
    # ------------------------------------------------------------------ #
    def check(self, site: str) -> None:
        """Raise / stall according to the schedule (the common verb)."""
        rule = self.fire(site)
        if rule is None:
            return
        msg = rule.message or f"injected {rule.kind} at {site}"
        if rule.kind == KIND_ERROR:
            raise InjectedFault(msg)
        if rule.kind == KIND_OSERROR:
            raise InjectedOSError(msg)
        if rule.kind == KIND_BROKEN_POOL:
            # Imported here: the module pulls in multiprocessing, which
            # a process that never opens a pool should not pay for.
            from concurrent.futures.process import BrokenProcessPool
            raise BrokenProcessPool(msg)
        if rule.kind == KIND_CRASH:
            raise InjectedCrash(msg)
        if rule.kind == KIND_STALL:
            time.sleep(rule.stall_s)

    def corrupt(self, site: str, text: str) -> str:
        """Deterministically mangle ``text`` when a corrupt rule fires.

        Alternates between truncation (a torn write) and byte mangling
        (rot on the middle character — still bytes, no longer valid
        JSON structure) by fire parity, covering both corruption
        classes readers must survive.
        """
        rule = self.fire(site)
        if rule is None or rule.kind != KIND_CORRUPT:
            return text
        with self._lock:
            parity = self._fires.get(site, 0) % 2
        if not text:
            return "\x00"
        mid = len(text) // 2
        if parity:
            return text[:mid]  # torn write: tail lost
        return text[:mid] + chr((ord(text[mid]) + 1) % 128) + \
            text[mid + 1:]

    def drop(self, site: str) -> bool:
        """True when the caller should silently skip the operation."""
        rule = self.fire(site)
        return rule is not None and rule.kind == KIND_DROP

    def wall_offset(self) -> float:
        """Accumulated injected wall-clock offset (see ``obs.clock``).

        Each call counts one arrival at ``clock.wall``; a firing
        ``clock_jump`` rule advances the offset by its ``jump_s`` (which
        may be negative) from that call onward.
        """
        rule = self.fire("clock.wall")
        if rule is not None and rule.kind == KIND_CLOCK_JUMP:
            with self._lock:
                self._wall_offset += rule.jump_s
        with self._lock:
            return self._wall_offset

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            sites = {site: {"hits": self._hits.get(site, 0),
                            "fires": self._fires.get(site, 0)}
                     for site in sorted(self._hits)}
        return {"enabled": True, "sites": sites,
                "plan": self.plan.to_dict()}


_NULL = NullInjector()
_active: Optional[FaultInjector] = None
_env_checked = False
# Reentrant: the lazy env load inside ``get_faults`` calls
# ``enable_faults`` while already holding the lock.
_install_lock = threading.RLock()


def _sync_clock_hook() -> None:
    # Imported lazily: obs.clock must not import the faults package at
    # module scope (the seam stays a plain-function shim when idle).
    from ..obs import clock
    if _active is not None and any(
            r.kind == KIND_CLOCK_JUMP for r in _active.plan.rules):
        clock._install_wall_offset(_active.wall_offset)
    else:
        clock._install_wall_offset(None)


def get_faults() -> Any:
    """The process-wide injector: the active plan's, or the no-op.

    The ``REPRO_FAULTS`` environment variable is consulted once, on
    first call — daemons and their (spawned) pool workers pick the plan
    up without wiring, while the disabled fast path stays two loads and
    a compare.
    """
    global _active, _env_checked
    if _active is not None:
        return _active
    if not _env_checked:
        with _install_lock:
            if not _env_checked:
                spec = os.environ.get(ENV_FAULTS, "").strip()
                if spec:
                    enable_faults(FaultPlan.parse(spec))
                _env_checked = True
        if _active is not None:
            return _active
    return _NULL


def enable_faults(plan: FaultPlan) -> FaultInjector:
    """Activate a plan for this process; returns the live injector."""
    global _active
    with _install_lock:
        _active = FaultInjector(plan)
        _sync_clock_hook()
        return _active


def disable_faults() -> None:
    """Back to the no-op singleton (and a future env re-check)."""
    global _active, _env_checked
    with _install_lock:
        _active = None
        _env_checked = True  # do not resurrect the env plan mid-test
        _sync_clock_hook()


def faults_enabled() -> bool:
    return get_faults().enabled
