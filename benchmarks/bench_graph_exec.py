"""Compiled graph execution: repeated-inference throughput vs the seed
eager executor.

The serving scenario this PR compiles for: one transformer-block graph,
activations rewritten to fitted PWLs, answering a stream of
single-sample inference requests.  Three execution strategies:

* **seed eager** — the pre-compilation executor, reproduced verbatim as
  a reference implementation (per-run value dict, per-node op
  resolution) with the seed ``PiecewiseLinear.__call__`` that rebuilt
  its ``(m, q)`` coefficient table on every call;
* **compiled single** — ``Program.run`` per request: one-time
  scheduling/resolution/kernel baking, slot arena, baked PWL kernels;
* **compiled stacked** — ``Program.run_many`` fusing the request list
  into stacked batches, the plan's serving mode.

The acceptance gate is on the serving mode: >= 3x over the seed eager
executor on the full workload (>= 2x under ``--bench-quick``, the CI
regression gate).  Outputs are checked bitwise (single) / to 1e-12
relative (stacked — BLAS batching may re-block reductions) against the
seed path before any timing is trusted.

The machine-readable summary lands in ``results/BENCH_graph_exec.json``.

``test_conv_kernel_throughput`` gates conv2d on zoo-batch's three
dominant shapes against the einsum conv it replaced, kept here as a
reference; its summary lands in ``results/BENCH_conv.json``.
"""

import os
import time

import numpy as np

from repro.core.pwl import PiecewiseLinear
from repro.eval import fmt_ratio, format_table
from repro.functions.softmax import SoftmaxApproximator
from repro.graph.ops import get_op
from repro.graph.passes import make_pwl_approximators, replace_activations
from repro.graph.program import compile_graph
from repro.core.fit import FitConfig
from repro.zoo.builders import build_vit

#: Cheap fit preset: the benchmark measures execution, not fitting
#: (fits are cached after the first run either way).
_FIT_CFG = FitConfig(max_steps=150, refine_steps=60, max_refine_rounds=2,
                     polish=False, grid_points=1024)


# --------------------------------------------------------------------- #
# Seed reference implementations (reproduced verbatim)
# --------------------------------------------------------------------- #
class _SeedPwl:
    """The pre-memoization ``PiecewiseLinear.__call__``: rebuilds the
    full coefficient table on every evaluation."""

    def __init__(self, pwl: PiecewiseLinear) -> None:
        self._pwl = pwl

    def __call__(self, x):
        pwl = self._pwl
        p, v = pwl.breakpoints, pwl.values
        n = p.size
        m = np.empty(n + 1, dtype=np.float64)
        q = np.empty(n + 1, dtype=np.float64)
        m[0] = pwl.left_slope
        q[0] = v[0] - pwl.left_slope * p[0]
        inner = np.diff(v) / np.diff(p)
        m[1:n] = inner
        q[1:n] = v[:-1] - inner * p[:-1]
        m[n] = pwl.right_slope
        q[n] = v[-1] - pwl.right_slope * p[-1]
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        xf = np.atleast_1d(x)
        r = np.searchsorted(p, xf, side="right")
        out = m[r] * xf + q[r]
        return float(out[0]) if scalar else out


class _SeedExecutor:
    """The seed eager executor's run loop, reproduced verbatim:
    topological order cached at construction, everything else — value
    dict, op lookups, input gathering — re-done per forward pass."""

    def __init__(self, graph) -> None:
        graph.validate()
        self.graph = graph
        self._order = graph.topological_order()

    def run(self, feeds):
        values = {}
        for name, shape in self.graph.inputs:
            arr = np.asarray(feeds[name])
            values[name] = arr
        values.update(self.graph.initializers)
        for node in self._order:
            op = get_op(node.op_type)
            inputs = [values[v] for v in node.inputs]
            outputs = op.execute(inputs, node.attrs)
            for value_name, arr in zip(node.outputs, outputs):
                values[value_name] = arr
        return {name: values[name] for name in self.graph.outputs}


def _einsum_conv2d(inputs, attrs):
    """The im2col + ``np.einsum`` conv2d the BLAS paths replaced,
    reproduced verbatim but for its channel check (the timed shapes
    pass it).  numpy lowers the einsum to one batched matmul over the
    group index: it copies the im2col array into group-major order,
    runs one GEMM per group over every sample's pixels and transposes
    the result back."""
    x, w = inputs[0], inputs[1]
    b = inputs[2] if len(inputs) > 2 else None
    stride = int(attrs.get("stride", 1))
    padding = int(attrs.get("padding", 0))
    groups = int(attrs.get("groups", 1))
    n, c, h, width = x.shape
    c_out, c_in_g, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    h_p, w_p = x.shape[2], x.shape[3]
    h_out = (h_p - kh) // stride + 1
    w_out = (w_p - kw) // stride + 1
    # im2col: gather kh*kw shifted views (kernels are small).
    cols = np.empty((n, c, kh * kw, h_out, w_out), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i * kw + j] = x[:, :, i:i + h_out * stride:stride,
                                       j:j + w_out * stride:stride]
    cols = cols.reshape(n, groups, c_in_g * kh * kw, h_out * w_out)
    wg = w.reshape(groups, c_out // groups, c_in_g * kh * kw)
    out = np.einsum("ngkp,gok->ngop", cols, wg, optimize=True)
    out = out.reshape(n, c_out, h_out, w_out)
    if b is not None:
        out = out + b.reshape(1, -1, 1, 1)
    return [out]


def _seed_approximators(approx):
    """Swap fitted approximators for their seed-behaviour equivalents."""
    out = {}
    for name, fn in approx.items():
        if isinstance(fn, PiecewiseLinear):
            out[name] = _SeedPwl(fn)
        elif isinstance(fn, SoftmaxApproximator):
            out[name] = SoftmaxApproximator(_SeedPwl(fn._exp_fn),
                                            clip_lo=fn._clip_lo)
        else:  # pragma: no cover - nothing else is produced today
            out[name] = fn
    return out


def _best_of(fn, repeats):
    best, result = np.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_graph_exec_throughput(report_writer, json_report_writer,
                               bench_quick):
    if bench_quick:
        scale, image, n_requests, repeats, floor = 0.5, 8, 24, 3, 2.0
    else:
        scale, image, n_requests, repeats, floor = 0.5, 8, 64, 5, 3.0

    graph = build_vit(act="gelu", scale=scale, seed=1, image=image,
                      patch=4, depth=1, heads=2)
    approx = make_pwl_approximators(["gelu", "softmax"], 16, config=_FIT_CFG)
    rewritten, n_rewritten = replace_activations(graph, approx)
    seed_graph, _ = replace_activations(graph, _seed_approximators(approx))
    assert n_rewritten >= 2

    rng = np.random.default_rng(0)
    shape = (1,) + tuple(graph.inputs[0][1][1:])
    requests = [{"x": rng.normal(size=shape)} for _ in range(n_requests)]

    seed = _SeedExecutor(seed_graph)
    program = compile_graph(rewritten)
    out_name = graph.outputs[0]

    # Correctness first: the compiled plan must reproduce the seed
    # executor bitwise per request; the stacked fuse may re-block BLAS
    # reductions, so it gets a 1e-12 relative bound (observed 0).
    seed_outs = [seed.run(feed)[out_name] for feed in requests]
    for feed, ref in zip(requests, seed_outs):
        assert np.array_equal(program.run(feed)[out_name], ref)
    stacked_outs = [o[out_name] for o in program.run_many(requests)]
    max_rel = max(
        float(np.max(np.abs(got - ref))
              / max(float(np.max(np.abs(ref))), 1e-300))
        for got, ref in zip(stacked_outs, seed_outs))
    assert max_rel <= 1e-12, f"stacked serving drifted: {max_rel:.3e}"

    t_seed, _ = _best_of(
        lambda: [seed.run(feed) for feed in requests], repeats)
    t_single, _ = _best_of(
        lambda: [program.run(feed) for feed in requests], repeats)
    t_stacked, _ = _best_of(lambda: program.run_many(requests), repeats)

    speedup_single = t_seed / t_single
    speedup_stacked = t_seed / t_stacked
    summary = {
        "graph": graph.name,
        "n_nodes": len(graph.nodes),
        "n_pwl_nodes": n_rewritten,
        "arena_slots": program.n_slots,
        "n_requests": n_requests,
        "seed_eager_s": t_seed,
        "compiled_single_s": t_single,
        "compiled_stacked_s": t_stacked,
        "speedup_single": speedup_single,
        "speedup_stacked": speedup_stacked,
        "stacked_max_rel_diff": max_rel,
        "floor": floor,
        "quick": bench_quick,
    }

    rows = [
        ["seed eager (per request)", f"{t_seed * 1e3:.2f}", fmt_ratio(1.0)],
        ["compiled Program.run", f"{t_single * 1e3:.2f}",
         fmt_ratio(speedup_single)],
        ["compiled run_many (stacked)", f"{t_stacked * 1e3:.2f}",
         fmt_ratio(speedup_stacked)],
    ]
    report_writer("graph_exec_throughput", format_table(
        ["strategy", f"{n_requests} requests ms", "speedup"], rows,
        title=f"Repeated inference on {graph.name} "
              f"({len(graph.nodes)} nodes, {n_rewritten} PWL kernels)"))
    json_report_writer("BENCH_graph_exec", summary)

    assert speedup_single > 1.0, (
        f"compiled single-request path slower than the seed executor "
        f"({speedup_single:.2f}x)")
    assert speedup_stacked >= floor, (
        f"compiled serving throughput {speedup_stacked:.2f}x below the "
        f"{floor:.0f}x gate vs the seed eager executor")


# --------------------------------------------------------------------- #
# Optimizing pipeline vs the PR-5 compiled baseline
# --------------------------------------------------------------------- #
def test_optimized_pipeline_throughput(report_writer, json_report_writer,
                                       bench_quick):
    """The optimization passes must earn their keep on stacked serving.

    Baseline is the unoptimized compiled ``Program`` (per-node
    kernels, no fusion) on a transformer-shaped zoo model; the
    candidate is the same graph through the default pipeline.  The
    stacked-serving gate is >= 1.3x (>= 1.2x under ``--bench-quick``);
    outputs must stay bitwise identical to the baseline for every
    variant before any timing is trusted.  The JSON artifact records
    the fusion on/off dimension separately so a regression can be
    localized to the fusion pass.
    """
    if bench_quick:
        n_requests, repeats, floor = 16, 3, 1.2
    else:
        n_requests, repeats, floor = 48, 5, 1.3

    graph = build_vit(act="gelu", scale=0.5, seed=1, image=16,
                      patch=4, depth=2, heads=2)
    approx = make_pwl_approximators(["gelu", "softmax"], 16, config=_FIT_CFG)
    rewritten, n_rewritten = replace_activations(graph, approx)
    assert n_rewritten >= 4

    baseline = compile_graph(rewritten)
    optimized = compile_graph(rewritten, optimize=True)
    no_fusion = compile_graph(
        rewritten, optimize=True,
        passes=["fold-constants", "eliminate-dead-nodes",
                "schedule-regions"])
    assert [r.name for r in optimized.pass_reports] == \
        ["fold-constants", "eliminate-dead-nodes", "fuse-kernels",
         "schedule-regions"]

    rng = np.random.default_rng(0)
    shape = (1,) + tuple(graph.inputs[0][1][1:])
    requests = [{"x": rng.normal(size=shape)} for _ in range(n_requests)]
    out_name = graph.outputs[0]

    # Bitwise first, then the stopwatch: every variant must agree with
    # the PR-5 baseline exactly, per request and stacked.
    for feed in requests[: 8 if bench_quick else None]:
        ref = baseline.run(feed)[out_name]
        for variant in (optimized, no_fusion):
            assert np.array_equal(variant.run(feed)[out_name], ref)
    ref_stacked = [o[out_name] for o in baseline.run_many(requests)]
    for variant in (optimized, no_fusion):
        got = [o[out_name] for o in variant.run_many(requests)]
        for g, r in zip(got, ref_stacked):
            assert np.array_equal(g, r)

    t_base, _ = _best_of(lambda: baseline.run_many(requests), repeats)
    t_opt, _ = _best_of(lambda: optimized.run_many(requests), repeats)
    t_nofuse, _ = _best_of(lambda: no_fusion.run_many(requests), repeats)
    t_base_single, _ = _best_of(
        lambda: [baseline.run(feed) for feed in requests], repeats)
    t_opt_single, _ = _best_of(
        lambda: [optimized.run(feed) for feed in requests], repeats)

    speedup = t_base / t_opt
    summary = {
        "graph": graph.name,
        "n_requests": n_requests,
        "nodes_baseline": len(baseline.nodes),
        "nodes_optimized": len(optimized.nodes),
        "pass_reports": [r.to_dict() for r in optimized.pass_reports],
        "baseline_stacked_s": t_base,
        "optimized_stacked_s": t_opt,
        "no_fusion_stacked_s": t_nofuse,
        "baseline_single_s": t_base_single,
        "optimized_single_s": t_opt_single,
        "speedup_stacked": speedup,
        "speedup_stacked_no_fusion": t_base / t_nofuse,
        "speedup_single": t_base_single / t_opt_single,
        "floor": floor,
        "quick": bench_quick,
    }

    rows = [
        ["baseline (PR-5 Program)", f"{t_base * 1e3:.2f}", fmt_ratio(1.0)],
        ["optimized, fusion off", f"{t_nofuse * 1e3:.2f}",
         fmt_ratio(t_base / t_nofuse)],
        ["optimized (default passes)", f"{t_opt * 1e3:.2f}",
         fmt_ratio(speedup)],
    ]
    report_writer("graph_opt_throughput", format_table(
        ["variant", f"{n_requests} stacked requests ms", "speedup"], rows,
        title=f"Optimizing pipeline on {graph.name} "
              f"({len(baseline.nodes)} -> {len(optimized.nodes)} records)"))
    json_report_writer("BENCH_graph_opt", summary)

    assert speedup >= floor, (
        f"optimized stacked serving {speedup:.2f}x below the "
        f"{floor:.1f}x gate vs the PR-5 compiled baseline")


# --------------------------------------------------------------------- #
# Conv kernels vs the einsum conv
# --------------------------------------------------------------------- #
#: The three conv shapes that dominate zoo-batch (64-sample batches of
#: Table III's models): label, input shape, weight shape, attrs, and
#: which speedup floor gates it (None: reported only).
_CONV_SHAPES = [
    ("resnet 3x3 24->24", (64, 24, 16, 16), (24, 24, 3, 3),
     {"stride": 1, "padding": 1, "groups": 1}, "dense"),
    ("mobilenet depthwise 96-ch 3x3", (64, 96, 16, 16), (96, 1, 3, 3),
     {"stride": 1, "padding": 1, "groups": 96}, "depthwise"),
    ("1x1 96->32", (64, 96, 16, 16), (32, 96, 1, 1),
     {"stride": 1, "padding": 0, "groups": 1}, None),
]


def test_conv_kernel_throughput(report_writer, json_report_writer,
                                bench_quick):
    """conv2d's BLAS paths against the einsum conv they replaced.

    Each shape times the two kernels in alternating pairs (which goes
    first flips every pair) and gates on the median of the paired
    ratios, so drift in CPU speed cancels within a pair.  Outputs must
    agree to 1e-12 relative before any timing is trusted: the
    depthwise tap sum adds in a different order than a GEMM.
    """
    if bench_quick:
        pairs, floors = 5, {"dense": 1.5, "depthwise": 1.5}
    else:
        pairs, floors = 15, {"dense": 1.8, "depthwise": 1.8}
    conv = get_op("conv2d").execute
    rng = np.random.default_rng(0)

    results, rows = [], []
    for label, x_shape, w_shape, attrs, gate in _CONV_SHAPES:
        inputs = [rng.standard_normal(x_shape), rng.standard_normal(w_shape),
                  rng.standard_normal(w_shape[0])]
        ref = _einsum_conv2d(inputs, attrs)[0]
        got = conv(inputs, attrs)[0]
        max_rel = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
        assert max_rel <= 1e-12, f"{label}: conv drifted {max_rel:.3e}"

        times = {"einsum": [], "blas": []}
        for i in range(pairs):
            order = [("einsum", _einsum_conv2d), ("blas", conv)]
            for name, fn in order[::-1] if i % 2 else order:
                t0 = time.perf_counter()
                fn(inputs, attrs)
                times[name].append(time.perf_counter() - t0)
        speedup = float(np.median(np.divide(times["einsum"], times["blas"])))
        results.append({
            "shape": label, "input": list(x_shape), "weight": list(w_shape),
            "attrs": attrs, "pairs": pairs,
            "einsum_median_s": float(np.median(times["einsum"])),
            "blas_median_s": float(np.median(times["blas"])),
            "speedup": speedup, "max_rel_diff": max_rel,
            "gate": gate, "floor": floors.get(gate)})
        rows.append([label, f"{np.median(times['einsum']) * 1e3:.2f}",
                     f"{np.median(times['blas']) * 1e3:.2f}",
                     fmt_ratio(speedup),
                     f"{floors[gate]:.1f}x" if gate else "-"])

    report_writer("conv_kernel_throughput", format_table(
        ["shape", "einsum ms", "BLAS ms", "speedup", "floor"], rows,
        title=f"conv2d kernels at batch 64 (median of {pairs} "
              f"alternating pairs)"))
    json_report_writer("BENCH_conv", {
        "shapes": results, "quick": bench_quick, "cpus": os.cpu_count(),
        "numpy": np.__version__})

    for r in results:
        if r["gate"]:
            assert r["speedup"] >= r["floor"], (
                f"{r['shape']}: conv2d {r['speedup']:.2f}x below the "
                f"{r['floor']:.1f}x gate vs the einsum conv")


# --------------------------------------------------------------------- #
# Observability overhead gate
# --------------------------------------------------------------------- #
def _strip_obs_kernels(program):
    """Swap every instrumented PWL kernel for a subclass running the
    identical method body minus the ``_capture.enabled`` check — the
    pre-instrumentation kernel the overhead gate compares against.
    (Subclasses, not closures: the baseline must pay the same dispatch
    and ``self.`` lookups, so the measurement isolates the check.)"""
    import dataclasses

    from repro.graph.program import PwlKernel, SoftmaxPwlKernel

    class StrippedPwl(PwlKernel):
        def __call__(self, x):
            x = np.asarray(x, dtype=np.float64)
            r = np.searchsorted(self.breakpoints, x, side="right")
            return self.m[r] * x + self.q[r]

    class StrippedSoftmax(SoftmaxPwlKernel):
        def __call__(self, x):
            x = np.asarray(x, dtype=np.float64)
            shifted = x - np.max(x, axis=self.axis, keepdims=True)
            r = np.searchsorted(self.breakpoints, shifted, side="right")
            e = np.where(shifted < self.clip_lo, 0.0,
                         self.m[r] * shifted + self.q[r])
            e = np.maximum(e, 0.0)
            denom = np.sum(e, axis=self.axis, keepdims=True)
            denom = np.where(denom <= 0.0, 1.0, denom)
            return e / denom

    def fields_of(k):
        return {f.name: getattr(k, f.name) for f in dataclasses.fields(k)}

    stripped = 0
    for cn in program.nodes:
        k = cn.kernel
        if isinstance(k, SoftmaxPwlKernel):
            cn.kernel = StrippedSoftmax(**fields_of(k))
            stripped += 1
        elif isinstance(k, PwlKernel):
            cn.kernel = StrippedPwl(**fields_of(k))
            stripped += 1
    return stripped


def test_obs_disabled_overhead(report_writer, json_report_writer,
                               bench_quick):
    """Disabled observability must cost < 3% on ``Program.run``.

    The instrumented kernels pay one module-global attribute check per
    call (``_capture.enabled``); this gate times them against kernels
    with the check stripped out, on the same graph-exec workload, and
    checks outputs stay bitwise identical either way.
    """
    from repro.obs import disable_capture, disable_tracing

    disable_capture()
    disable_tracing()

    # The quick mode exists to smoke-test the harness wiring; its
    # samples are too short for a sub-1% effect, so only the full run
    # carries the tight 3% gate.
    if bench_quick:
        n_requests, repeats, inner = 16, 9, 4
        overhead_gate = 0.08
    else:
        n_requests, repeats, inner = 48, 11, 4
        overhead_gate = 0.03

    graph = build_vit(act="gelu", scale=0.5, seed=1, image=8,
                      patch=4, depth=1, heads=2)
    approx = make_pwl_approximators(["gelu", "softmax"], 16, config=_FIT_CFG)
    rewritten, n_rewritten = replace_activations(graph, approx)

    instrumented = compile_graph(rewritten)
    stripped_prog = compile_graph(rewritten)
    n_stripped = _strip_obs_kernels(stripped_prog)
    assert n_stripped == n_rewritten >= 2

    rng = np.random.default_rng(0)
    shape = (1,) + tuple(graph.inputs[0][1][1:])
    requests = [{"x": rng.normal(size=shape)} for _ in range(n_requests)]
    out_name = graph.outputs[0]

    # The capture branch must be observation-only: outputs of the
    # instrumented and stripped kernels agree bitwise.
    for feed in requests:
        assert np.array_equal(instrumented.run(feed)[out_name],
                              stripped_prog.run(feed)[out_name])

    # The effect under measurement (~0.1 us per PWL call) is far below
    # this machine's run-to-run wall-time noise, so the estimator is a
    # *median of paired ratios*: each rep times both variants
    # back-to-back (shared CPU state cancels the drift a per-variant
    # block layout would soak up) and the median squeezes out
    # contention spikes.
    def sample(program):
        t0 = time.perf_counter()
        for _ in range(inner):
            for feed in requests:
                program.run(feed)
        return time.perf_counter() - t0

    def measure():
        ratios = []
        best_i = best_s = np.inf
        for _ in range(repeats):
            ti = sample(instrumented)
            ts = sample(stripped_prog)
            ratios.append(ti / ts)
            best_i = min(best_i, ti)
            best_s = min(best_s, ts)
        return float(np.median(ratios)) - 1.0, best_i, best_s

    overhead, t_instr, t_stripped = measure()
    if overhead >= overhead_gate:
        # One automatic re-measure: a transient contention spike on a
        # shared box can swamp a sub-1% effect, and a genuine
        # regression will fail twice.
        overhead, t_instr, t_stripped = measure()

    summary = {
        "graph": graph.name,
        "n_pwl_nodes": n_rewritten,
        "n_requests": n_requests,
        "inner_passes": inner,
        "paired_reps": repeats,
        "instrumented_s": t_instr,
        "stripped_s": t_stripped,
        "overhead": overhead,
        "gate": overhead_gate,
        "quick": bench_quick,
    }
    rows = [
        ["stripped kernels", f"{t_stripped * 1e3:.2f}", "baseline"],
        ["instrumented (obs disabled)", f"{t_instr * 1e3:.2f}",
         f"{overhead * 100:+.2f}%"],
    ]
    report_writer("graph_exec_obs_overhead", format_table(
        ["variant", f"{inner}x{n_requests} requests ms", "overhead"], rows,
        title=f"Disabled-observability overhead on {graph.name} "
              f"({n_rewritten} PWL kernels)"))
    json_report_writer("BENCH_graph_exec_obs", summary)

    assert overhead < overhead_gate, (
        f"disabled observability costs {overhead * 100:.2f}% on "
        f"Program.run, above the {overhead_gate * 100:.0f}% gate")
