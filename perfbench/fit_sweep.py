"""fit-sweep: a closed loop of ``Session.fit`` calls, one client.

Each request fits one (function, budget) pair at the paper-default
``FitConfig``; a pass covers the 11 smooth registry activations x {8,
16} breakpoints in seeded order and starts from an empty cache, with a
fresh default Session (``auto`` resolves to the in-process lane engine
for one-request batches; warm starts and the quality guard stay on).

Which budget of a function comes first — and so runs cold, the other
being warm-seeded from it — alternates along :data:`FUNCTIONS` and does
not depend on the seed: every seed does the same work in a different
order, so the run-to-run spread is measurement noise, not a different
mix of cold and warm fits.

A run makes at least :data:`MIN_PASSES` passes, so every pair is timed
more than once and the tail comes from 44 or more requests.

An untraced run times every request twice at once: :data:`REPLICAS`
measuring processes, each pinned to its own CPU with its own Sessions
and caches, run the same passes side by side, and a request's latency
is the faster replica's (see :func:`harness.side_by_side`; one process
of identical code moved by up to 25% from run to run).  Both replicas
must do the same work.  A traced run is one process.

Parent side: :func:`drive`.  Child side: ``python3 perfbench/fit_sweep.py
probe|measure ...`` (see :func:`main`).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import harness

FUNCTIONS = ("elu", "exp", "gelu", "gelu_tanh", "hardswish", "mish", "selu",
             "sigmoid", "silu", "softplus", "tanh")
BUDGETS = (8, 16)

#: Set-ups per run; setup_s is their median.  One is timed before the
#: measuring children start, two between their first two passes and two
#: after they end, so they sample the whole run, not one stretch of the
#: host's speed.
SETUPS = 5
#: Whole passes per run at least: every pair is timed this often, and
#: the tail has twice as many samples to come from.
MIN_PASSES = 2
#: Measuring processes side by side, one per CPU.
REPLICAS = 2


def pairs(seed: int) -> List[Tuple[str, int]]:
    """One pass: the 22 (function, budget) pairs in seeded order."""
    order = [(fn, n) for fn in FUNCTIONS for n in BUDGETS]
    random.Random(seed).shuffle(order)
    slots: Dict[str, List[int]] = {}
    for i, (fn, _) in enumerate(order):
        slots.setdefault(fn, []).append(i)
    for k, fn in enumerate(FUNCTIONS):
        first, second = slots[fn]
        cold = BUDGETS[k % 2]
        order[first] = (fn, cold)
        order[second] = (fn, BUDGETS[1 - k % 2])
    return order


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #
def drive(seed: int, seconds: int, trace: bool) -> Dict:
    me = Path(__file__)
    cpus = harness.side_by_side(1 if trace else REPLICAS)
    setups: List[float] = []

    def probe(count: int) -> None:
        for _ in range(count):
            setups.append(harness.setup_probe([me, "probe", harness.fresh_dir(
                f"fit-sweep-probe{len(setups)}")]))

    probe(1)
    with harness.start_pinned(
            [[me, "measure", harness.fresh_dir(f"fit-sweep{cpu}"),
              "--seed", seed, "--trace", int(trace)] for cpu in cpus],
            cpus, stdin=True) as children:
        passes = 0
        while True:
            # A traced run makes its two passes at once, then stops.
            measured_s = [float(c.expect("PASS", 180.0)[1])
                          for c in children]
            passes += 1
            if trace or (passes >= MIN_PASSES and min(measured_s) >= seconds):
                break
            if passes == 1:
                probe(2)
            for c in children:
                c.send("next")
        for c in children:
            c.send("stop")
        results = [json.loads(c.expect("RESULT", 60.0)[1]) for c in children]
    probe(SETUPS - len(setups))

    # Per pass, the latency of each pair: the faster replica's (None
    # where a replica's fit failed).
    lat = [[None if None in xs else min(xs) for xs in zip(*per_pass)]
           for per_pass in zip(*(r["latencies_s"] for r in results))]
    pooled = [x for xs in lat for x in xs if x is not None]
    tail = harness.tail(pooled)
    metrics = {
        "setup_s": harness.median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "fit_mse_geomean": results[0]["fit_mse_geomean"],
        "latency_p50_ms": 1e3 * harness.median(pooled),
        "latency_tail_ms": 1e3 * tail["value"],
        "throughput_per_s": len(pooled) / sum(pooled),
    }
    return {"attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "errors": harness.replica_errors(results),
            "work": results[0]["work"],
            "metrics": metrics, "layers": results[0].get("layers", {}),
            "info": {"setups_s": setups, "cpus": cpus,
                     "replica_passes_s": [r["pass_s"] for r in results],
                     "latency_tail": tail, "latencies_s": lat}}


# --------------------------------------------------------------------- #
# Child side
# --------------------------------------------------------------------- #
def _check(arts: List, registry, GridLoss, grid_points_for) -> List[str]:
    """Each artifact's PWL, re-evaluated on its loss grid, must give
    the reported MSE; and it must have been fitted, not read back."""
    wrong = []
    for fn, n, art in arts:
        a, b = art.config.interval
        loss = GridLoss(registry.get(fn), a, b,
                        n_points=grid_points_for(art.config))
        mse = loss.loss_pwl(art.pwl)
        if art.from_cache or art.config.n_breakpoints != n or \
                abs(mse - art.grid_mse) > 1e-9 * art.grid_mse:
            wrong.append(f"{fn}@{n}: grid MSE {mse!r} != reported "
                         f"{art.grid_mse!r} (from_cache={art.from_cache})")
    return wrong


def main(argv: List[str]) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("probe", "measure"))
    ap.add_argument("workdir", type=Path)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--cpu", type=int, default=None)
    args = ap.parse_args(argv)
    harness.pin(args.cpu)
    harness.apply_env()

    # Set-up: imports, the Session and an empty cache.
    from repro.api import FitRequest, Session
    from repro.core import fit as fit_mod

    session = Session(cache=args.workdir / "pass0")
    harness.emit("READY")
    if args.role == "probe":
        return
    # Untimed, in a cache of its own: the first fit in a process pays
    # lazy imports (the polish's scipy) that no later request pays.
    with Session(cache=args.workdir / "warmup") as warmup:
        warmup.fit([FitRequest.create(FUNCTIONS[0], BUDGETS[0])])

    import probes
    from repro.core.loss import GridLoss
    from repro.functions import registry

    counter: Dict[str, int] = {}
    probes.count_calls(fit_mod.FlexSfuFitter, "_polish", counter, "polish")
    rec = None
    if args.trace:
        rec = probes.Recorder()
        probes.install(rec)
        rec.enabled = False
    order = pairs(args.seed)
    passes: List[Dict] = []
    errors: List[str] = []
    attempted = failed = 0

    def fit(p: Dict, i: int, fn: str, n: int, traced: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        polish_before = counter.get("polish", 0)
        if traced:
            rec.set_request(i)
            rec.enabled = True
        t0 = time.perf_counter()
        try:
            [art] = p["session"].fit([FitRequest.create(fn, n)])
        except Exception as exc:  # a failed request, counted
            failed += 1
            errors.append(f"{fn}@{n}: {exc!r}")
            p["lat"].append(None)
            return
        finally:
            if traced:
                rec.enabled = False
        p["lat"].append(time.perf_counter() - t0)
        p["polish"] += counter.get("polish", 0) - polish_before
        p["arts"].append((fn, n, art))

    def work(p: Dict) -> Dict:
        p["session"].close()
        arts = p["arts"]
        return {
            "requests": len(order),
            "adam_steps": sum(a.total_steps for _, _, a in arts),
            "warm_fits": sum(a.init_used == "warm" for _, _, a in arts),
            "refine_rounds": sum(a.rounds for _, _, a in arts),
            "polish_calls": p["polish"],
            "guard_refits": sum("cold_mse" in a.provenance.get(
                "warm_fallback", {}) for _, _, a in arts),
            "fit_mse_geomean": harness.geomean(a.grid_mse
                                               for _, _, a in arts),
        }

    # After each pass the parent answers "next" or "stop"; it makes set-up
    # probes while this process waits, so they never share the CPUs with
    # a pass.  A traced run makes its two passes at once: each pair is
    # fitted untraced in the first, then traced in the second, so the
    # per-pair ratio of the two latencies (the tracing overhead) compares
    # fits made seconds apart, and the two work fingerprints must agree.
    while True:
        group = []
        for _ in range(2 if args.trace else 1):
            if passes or group:
                session = Session(
                    cache=args.workdir / f"pass{len(passes) + len(group)}")
            group.append({"session": session, "arts": [], "lat": [],
                          "polish": 0})
        passes += group
        for i, (fn, n) in enumerate(order):
            for k, p in enumerate(group):
                fit(p, i, fn, n, traced=k == 1)
        for p in group:
            wrong = _check(p["arts"], registry, GridLoss,
                           fit_mod.grid_points_for)
            failed += len(wrong)
            errors.extend(wrong)
            p["work"] = work(p)
        harness.emit("PASS", sum(x for p in passes for x in p["lat"]
                                 if x is not None))
        if sys.stdin.readline().strip() != "next":
            break
    works = [p["work"] for p in passes]
    if any(w != works[0] for w in works):
        errors.append(f"passes of one run did different work: {works}")

    latencies = [p["lat"] for p in passes]
    out = {"latencies_s": latencies,
           "pass_s": [sum(x for x in lat if x is not None)
                      for lat in latencies],
           "attempted": attempted, "failed": failed, "errors": errors,
           "work": works[0], "fit_mse_geomean": works[0]["fit_mse_geomean"],
           "peak_rss_mb": harness.peak_rss_mb()}
    if rec is not None:
        out["layers"] = _layers(rec, order, latencies)
        rec.write(harness.BUILD / "traces" / f"fit-sweep-seed{args.seed}"
                  ".jsonl")
    harness.emit("RESULT", out)


def _layers(rec, order: List[Tuple[str, int]],
            latencies: List[List[Optional[float]]]) -> Dict[str, float]:
    """Per-layer metrics of the traced pass (ms and counts per pass),
    each budget's polish share of its requests' fit time, and the
    tracing overhead: the median over pairs of the traced latency over
    the untraced one, which cancels the spread between pairs."""
    layers = rec.summary()
    polish = rec.by_request("core.fit.polish")
    fit_time = rec.by_request("api.session")
    for n in BUDGETS:
        rids = [i for i, (_, b) in enumerate(order) if b == n]
        layers[f"core.fit.polish_share_{n}"] = (
            sum(polish.get(i, 0.0) for i in rids)
            / sum(fit_time.get(i, 0.0) for i in rids))
    untraced, traced = latencies
    layers["perfbench.trace_overhead_pct"] = 100.0 * (harness.median(
        t / u for u, t in zip(untraced, traced)
        if u is not None and t is not None) - 1.0)
    return layers


if __name__ == "__main__":
    main(sys.argv[1:])
