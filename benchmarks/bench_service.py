"""Fit-service benchmark: shared daemon, warm-started refits.

Two comparisons:

* **daemon sharing** — N client processes with overlapping job sets
  against one ``FitService`` daemon (one pool-engine Session, one
  cache) vs N independent clients, each with its own pool-engine
  Session and private cache.  The shared path must execute each unique
  job once instead of N times;
* **warm starts** — refitting a neighbouring ``FitConfig`` (adjacent
  budget) seeded from the cached PWL vs fitting it cold: fewer
  optimizer steps at equivalent quality.

Machine-readable summaries land in results/bench_service_*.json.
"""

import multiprocessing
import threading
import time
from dataclasses import replace


from repro.api import EngineConfig, FitRequest, Session
from repro.core.batchfit import FitCache
from repro.core.fit import FitConfig
from repro.eval import fmt_ratio, fmt_sci, format_table
from repro.service import FitService, ServiceConfig

_BENCH_CFG = FitConfig(n_breakpoints=16, init="uniform", polish=False,
                       max_steps=300, refine_steps=100, max_refine_rounds=2,
                       grid_points=4096)


def _job_plan(bench_quick):
    budgets = (8, 12) if bench_quick else (8, 12, 16, 24)
    names = ("tanh", "sigmoid", "silu", "gelu")[: 2 if bench_quick else 4]
    cfg = replace(_BENCH_CFG, max_steps=150, refine_steps=50,
                  max_refine_rounds=1, grid_points=1024)
    return [(name, n, cfg) for name in names for n in budgets]


def _independent_client(plan, cache_dir, out_q):
    try:
        reqs = [FitRequest.create(name, n, config=cfg)
                for name, n, cfg in plan]
        with Session(EngineConfig(engine="pool"),
                     cache=FitCache(cache_dir)) as session:
            arts = session.fit(reqs)
        out_q.put(("ok", sum(not a.from_cache for a in arts)))
    except BaseException as exc:  # a silent death would hang the bench
        out_q.put(("err", repr(exc)))
        raise


def _service_client(plan, root, cache_dir, out_q):
    try:
        reqs = [FitRequest.create(name, n, config=cfg)
                for name, n, cfg in plan]
        config = EngineConfig(service_root=root, fallback="error",
                              timeout_s=600.0)
        with Session(config, cache=FitCache(cache_dir)) as session:
            arts = session.fit(reqs)
        out_q.put(("ok", sum(a.engine == "remote" for a in arts)))
    except BaseException as exc:
        out_q.put(("err", repr(exc)))
        raise


def _collect(out_q, n_clients, timeout_s=600.0):
    total = 0
    for _ in range(n_clients):
        status, value = out_q.get(timeout=timeout_s)
        assert status == "ok", f"client failed: {value}"
        total += value
    return total


def test_daemon_vs_independent_pools(report_writer, json_report_writer,
                                     tmp_path, bench_quick):
    n_clients = 2 if bench_quick else 3
    plan = _job_plan(bench_quick)
    ctx = multiprocessing.get_context("fork")

    # No daemon: every client its own pool and private cache.
    out_q = ctx.Queue()
    procs = [ctx.Process(target=_independent_client,
                         args=(plan, tmp_path / f"ind{i}", out_q))
             for i in range(n_clients)]
    t0 = time.perf_counter()
    for p in procs:
        p.start()
    independent_fits = _collect(out_q, n_clients)
    for p in procs:
        p.join()
    t_independent = time.perf_counter() - t0

    # Service topology: one daemon (thread here; a process in prod),
    # one Session, one cache, N clients sharing it.
    root = tmp_path / "queue"
    shared_cache = tmp_path / "shared-fits"
    svc = FitService(ServiceConfig(root=root, poll_interval_s=0.02),
                     cache=FitCache(shared_cache))
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    try:
        # Don't race the daemon's first heartbeat: clients run with
        # fallback="error" and would (correctly) refuse a dead queue.
        deadline = time.monotonic() + 30.0
        while not svc.queue.daemon_alive():
            assert time.monotonic() < deadline, "daemon never heartbeated"
            time.sleep(0.01)
        out_q = ctx.Queue()
        procs = [ctx.Process(target=_service_client,
                             args=(plan, root, tmp_path / f"cli{i}", out_q))
                 for i in range(n_clients)]
        t0 = time.perf_counter()
        for p in procs:
            p.start()
        daemon_served = _collect(out_q, n_clients)
        for p in procs:
            p.join()
        t_shared = time.perf_counter() - t0
        shared_fits = svc.processed
    finally:
        svc.stop()
        thread.join(timeout=30)
        svc.close()

    unique_jobs = len(plan)
    # Deduplication is the load-bearing claim: N overlapping clients must
    # not multiply the fitting work.
    assert shared_fits == unique_jobs, (shared_fits, unique_jobs)
    assert independent_fits == n_clients * unique_jobs
    assert daemon_served >= unique_jobs

    summary = {
        "n_clients": n_clients,
        "unique_jobs": unique_jobs,
        "independent": {"wall_s": t_independent,
                        "fits_executed": independent_fits},
        "shared_daemon": {"wall_s": t_shared,
                          "fits_executed": shared_fits},
        "fit_dedup_factor": independent_fits / shared_fits,
        "wall_speedup": t_independent / max(t_shared, 1e-9),
    }
    report_writer("service_daemon_sharing", format_table(
        ["topology", "fits executed", "wall s"],
        [["N independent pools", independent_fits, f"{t_independent:.2f}"],
         ["one shared daemon", shared_fits, f"{t_shared:.2f}"]],
        title=f"{n_clients} clients x {unique_jobs} overlapping jobs")
        + f"\ndedup {fmt_ratio(summary['fit_dedup_factor'])}, wall "
          f"{fmt_ratio(summary['wall_speedup'])}")
    json_report_writer("bench_service_daemon", summary)


#: Adaptive-termination config: steps are bounded by the plateau
#: scheduler and the stale-round break, not by the step cap — so the
#: step counts below measure *convergence*, which is what a warm start
#: accelerates.  (With a binding ``max_steps`` every fit would report
#: the cap and the comparison would be meaningless.)
_WARM_CFG = FitConfig(polish=False, grid_points=2048, max_refine_rounds=2)


def test_warm_vs_cold_refit(report_writer, json_report_writer, tmp_path,
                            bench_quick):
    seeds = (16,) if bench_quick else (16, 24)
    rows = []
    summary = {}
    for seed_bp in seeds:
        refit_bp = seed_bp + 2  # the neighbouring budget of a sweep step
        # Quality guard off: this bench measures the *raw* warm path.
        warm_session = Session(
            EngineConfig(engine="lane", warm_quality_factor=None),
            cache=FitCache(tmp_path / f"w{seed_bp}"))
        cold_session = Session(
            EngineConfig(engine="lane", warm_start=False),
            cache=FitCache(tmp_path / f"c{seed_bp}"))
        for name in ("gelu", "silu"):
            seed = warm_session.fit_one(name, seed_bp, config=_WARM_CFG)
            warm = warm_session.fit_one(name, refit_bp, config=_WARM_CFG)
            cold = cold_session.fit_one(name, refit_bp, config=_WARM_CFG)
            assert warm.init_used == "warm"
            assert cold.init_used in ("uniform", "curvature")
            # Acceptance: measurably fewer optimizer iterations at
            # equivalent quality.  "Equivalent" leaves room for
            # basin-to-basin noise: cold ``init="auto"`` races two
            # inits and sometimes lands marginally lower; both sit at
            # the same optimality-gap scale.
            assert warm.total_steps < cold.total_steps, (
                f"{name}@{refit_bp}: warm {warm.total_steps} steps vs "
                f"cold {cold.total_steps}")
            assert warm.grid_mse <= cold.grid_mse * 2.5

            key = f"{name}@{seed_bp}->{refit_bp}"
            summary[key] = {
                "seed_steps": seed.total_steps,
                "warm_steps": warm.total_steps,
                "cold_steps": cold.total_steps,
                "step_ratio": warm.total_steps / cold.total_steps,
                "warm_mse": warm.grid_mse,
                "cold_mse": cold.grid_mse,
            }
            rows.append([key, cold.total_steps, warm.total_steps,
                         fmt_ratio(cold.total_steps
                                   / max(warm.total_steps, 1)),
                         fmt_sci(warm.grid_mse), fmt_sci(cold.grid_mse)])

    report_writer("service_warm_refit", format_table(
        ["refit", "cold steps", "warm steps", "fewer", "warm MSE",
         "cold MSE"], rows,
        title="Neighbouring-config refits: cold vs cache-warm-started"))
    json_report_writer("bench_service_warm", {"warm_refit": summary})
