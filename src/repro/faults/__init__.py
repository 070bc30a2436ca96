"""Deterministic fault injection — off by default, zero-dependency.

The robustness counterpart of :mod:`repro.obs`: named injection sites
wired through the fit-serving plane (queue, cache, daemon, engines, and
the clock seam), driven by a seeded :class:`FaultPlan` so chaos tests
replay exactly.  With no plan active every site is a shared no-op
singleton — the disabled path adds no allocation, no clock read, and no
behavioural change (``benchmarks/bench_faults.py`` gates the overhead
at <1% and asserts bitwise-identical fit outputs).

Enable programmatically::

    from repro.faults import FaultPlan, FaultRule, enable_faults

    enable_faults(FaultPlan(rules=(
        FaultRule(site="queue.claim", kind="oserror", p=0.2),
        FaultRule(site="cache.read", kind="corrupt", at=(0,)),
    ), seed=7))

or environmentally (daemons, pool workers, CI chaos jobs)::

    REPRO_FAULTS='{"seed": 7, "rules": [...]}'  repro serve ...
    REPRO_FAULTS=/path/to/plan.json             repro serve ...

A process pool the ``pool`` engine opens ships the parent's active plan
to every worker it starts, so a plan enabled in the parent fires inside
the workers whatever the start method (fork, spawn or forkserver).
Each worker enables its own injector: it counts hits from zero, so an
``at=(0,)`` rule on ``fit.worker`` fires once in every worker, not once
per pool.

Shipped injection sites (prefix-matchable with ``"queue.*"`` etc.):

=========================  ===========================================
``queue.submit``            enqueue write I/O (client side)
``queue.claim``             atomic claim ``os.replace`` I/O
``queue.claim.payload``     claimed-payload corruption (torn write)
``queue.publish``           done/failed marker write I/O
``cache.read``              cache-entry corruption on read
``daemon.publish``          crash window before result publication
``daemon.heartbeat``        heartbeat drop (stall simulation)
``engine.fit``              transient / slow in-process fit units
``engine.pool``             broken process pool at dispatch
``fit.worker``              per-job faults inside pool workers
``clock.wall``              wall-clock jumps through ``obs.clock``
``serving.accept``          HTTP connection accept (serving tier)
``serving.read``            request-body read / corruption → 400
``serving.write``           response write failure / dropped reply
=========================  ===========================================

This package must stay import-light and dependency-free: it is on the
hot path of the queue and cache, and pool workers import it on spawn.
"""

from .inject import (ENV_FAULTS, FaultInjector, InjectedCrash,
                     InjectedFault, InjectedOSError, NullInjector,
                     disable_faults, enable_faults, faults_enabled,
                     get_faults)
from .plan import FAULT_KINDS, FaultPlan, FaultRule

__all__ = [
    "ENV_FAULTS",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedCrash",
    "InjectedFault",
    "InjectedOSError",
    "NullInjector",
    "disable_faults",
    "enable_faults",
    "faults_enabled",
    "get_faults",
]
