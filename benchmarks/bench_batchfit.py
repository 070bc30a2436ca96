"""Batch fitting: serial-naive vs pool-engine wall time plus a scan
microbenchmark.

Two comparisons:

* **removal scan** — the naive O(n * grid) per-candidate rebuild vs the
  vectorised ``GridLoss.removal_losses`` (must be >= 5x faster at
  n_breakpoints >= 32, bitwise-matching losses);
* **end-to-end** — fitting the full activation registry one scalar
  ``FlexSfuFitter`` run at a time with the naive scan vs a pool-engine
  ``Session`` (fast scan, process pool on multi-core machines, cold
  persistent cache), plus a warm all-hits pass.  The Session must be
  faster with per-function grid MSE equal or better.

A machine-readable timing summary lands in results/bench_batchfit.json
for the perf trajectory; ``--bench-quick`` shrinks the sweep.
"""

import time
from dataclasses import replace

import numpy as np

from repro.api import EngineConfig, FitRequest, Session
from repro.core.batchfit import FitCache
from repro.core.boundary import BoundarySpec
from repro.core.fit import FitConfig, FlexSfuFitter
from repro.core.loss import GridLoss
from repro.eval import fmt_ratio, fmt_sci, format_table
from repro.functions import GELU, registry as fn_registry

#: Depth-64 budget with polish off and short phases: the removal scan is
#: a realistic share of each refinement round, which is exactly the path
#: this PR vectorises.
_BENCH_CFG = FitConfig(n_breakpoints=64, init="uniform", polish=False,
                       max_steps=120, refine_steps=40, max_refine_rounds=8,
                       grid_points=2048)


def _best_of(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_removal_scan_speedup(report_writer, json_report_writer, bench_quick):
    loss = GridLoss(GELU, -8.0, 8.0, n_points=4096)
    spec = BoundarySpec.resolve(GELU)
    left_pin = (spec.left.slope, spec.left.intercept)
    right_pin = (spec.right.slope, spec.right.intercept)
    repeats = 3 if bench_quick else 7

    rows = []
    summary = {}
    for n in (16, 32, 64, 128):
        p = np.linspace(-7.8, 7.8, n)
        v = np.asarray(GELU(p)) + 0.01 * np.sin(3.0 * p)
        v[0] = left_pin[0] * p[0] + left_pin[1]
        v[-1] = right_pin[0] * p[-1] + right_pin[1]
        args = (p, v, spec.left.slope, spec.right.slope, left_pin, right_pin)

        fast = loss.removal_losses(*args)
        naive = loss.removal_losses_naive(*args)
        assert np.allclose(fast, naive, rtol=1e-9,
                           atol=1e-12 * (1.0 + float(np.max(naive))))

        t_naive = _best_of(lambda: loss.removal_losses_naive(*args), repeats)
        t_fast = _best_of(lambda: loss.removal_losses(*args), repeats)
        speedup = t_naive / t_fast
        rows.append([n, f"{t_naive * 1e3:.3f}", f"{t_fast * 1e3:.3f}",
                     fmt_ratio(speedup)])
        summary[n] = {"naive_ms": t_naive * 1e3, "fast_ms": t_fast * 1e3,
                      "speedup": speedup}
        if n >= 32:
            assert speedup >= 5.0, f"scan speedup {speedup:.1f}x < 5x at n={n}"

    report_writer("batchfit_removal_scan", format_table(
        ["#BP", "naive ms", "vectorised ms", "speedup"], rows,
        title="Removal scan: naive rebuild vs vectorised (4096-pt grid)"))
    json_report_writer("bench_batchfit_removal_scan",
                       {"removal_scan": summary})


def test_batch_engine_registry(report_writer, json_report_writer, tmp_path,
                               bench_quick):
    names = sorted(fn_registry.available())
    if bench_quick:
        names = names[:4]
    cfg_new = _BENCH_CFG if not bench_quick else replace(
        _BENCH_CFG, n_breakpoints=32, max_refine_rounds=4)
    cfg_old = replace(cfg_new, removal_scan="naive")
    n_bp = cfg_new.n_breakpoints

    # Baseline: one process, one scalar fit per function, naive scan.
    t0 = time.perf_counter()
    old = {name: FlexSfuFitter(cfg_old).fit(fn_registry.get(name))
           for name in names}
    t_old = time.perf_counter() - t0

    # New engine: fast scan, cold persistent cache, pooled when the
    # machine has cores to spare (Session resolves the pool engine).
    reqs = [FitRequest.create(name, n_bp, config=cfg_new) for name in names]
    session = Session(EngineConfig(engine="pool"),
                      cache=FitCache(tmp_path / "fitcache"))
    t0 = time.perf_counter()
    cold = session.fit(reqs)
    t_cold = time.perf_counter() - t0
    assert not any(a.from_cache for a in cold)

    # Warm pass: everything served from the cache.
    t0 = time.perf_counter()
    warm = session.fit(reqs)
    t_warm = time.perf_counter() - t0
    session.close()
    assert all(a.from_cache for a in warm)

    per_function = {}
    rows = []
    for name, res in zip(names, cold):
        mse_old = old[name].grid_mse
        per_function[name] = {"mse_old": mse_old, "mse_new": res.grid_mse}
        rows.append([name, fmt_sci(mse_old), fmt_sci(res.grid_mse)])
        # The engine must never lose accuracy vs the naive path.
        assert res.grid_mse <= mse_old * (1.0 + 1e-9), name

    table = format_table(
        ["function", "grid MSE (naive)", "grid MSE (engine)"], rows,
        title=f"Registry fit at {n_bp} BP: serial naive vs batch engine")
    summary = (f"\nend-to-end: old {t_old:.2f}s   new (cold cache) "
               f"{t_cold:.2f}s ({fmt_ratio(t_old / t_cold)})   "
               f"warm cache {t_warm * 1e3:.0f}ms "
               f"({fmt_ratio(t_old / max(t_warm, 1e-9))})")
    report_writer("batchfit_registry", table + summary)
    json_report_writer("bench_batchfit", {
        "n_functions": len(names),
        "n_breakpoints": n_bp,
        "old_serial_naive_s": t_old,
        "new_cold_s": t_cold,
        "new_warm_s": t_warm,
        "speedup_cold": t_old / t_cold,
        "speedup_warm": t_old / max(t_warm, 1e-9),
        "per_function": per_function,
    })

    assert t_cold < t_old, (
        f"batch engine ({t_cold:.2f}s) not faster than the serial naive "
        f"path ({t_old:.2f}s)")
    assert t_warm < t_cold / 10.0
