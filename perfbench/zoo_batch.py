"""zoo-batch: offline batch inference over Table III's model population.

Set-up builds the 16 ``MINI_ZOO_VARIANTS`` trunks (seed 0, scale 0.5,
with ``build_mini_zoo``'s per-family shapes), rewrites their
activations to 16-breakpoint PWLs from a copy of the prepared fit cache
and compiles each with the default pass pipeline, as ``repro compile``
does; then it draws one 64-sample stacked feed per variant from the
seed.  Each request is one ``Program.run`` of one variant's feed — the
batch shape ``MiniModel.features`` uses — with the variants in seeded
round-robin, whole passes only, so every variant is timed equally
often whatever the seed.

An untraced run times every batch twice at once: :data:`REPLICAS`
measuring processes, each pinned to its own CPU with its own copy of
the cache, run the same passes side by side, and a batch's time is the
faster replica's (see :func:`harness.side_by_side`).  Both replicas
must do the same work.  A traced run is one process.

Parent side: :func:`drive`.  Child side: ``python3 perfbench/zoo_batch.py
probe|measure ...`` (see :func:`main`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import harness

SCALE = 0.5
BATCH = 64
#: Set-ups per run; setup_s is their median.
SETUPS = 5
#: Whole passes per run at least, so each variant's median has three
#: batches to come from and the pooled tail (the 11th-largest batch)
#: falls among the two resnets, below the three slowest variants' nine.
MIN_PASSES = 3
#: Measuring processes side by side, one per CPU.
REPLICAS = 2
#: Stacked outputs may re-block BLAS reductions: bench_graph_exec's
#: relative bound against ``interpret()``.
STACKED_RTOL = 1e-12

#: Op types the optimized zoo programs execute (``graph.exec.<op>_ms``);
#: time in any other op type lands in ``graph.exec.other_ms``.
EXEC_OPS = ("add", "fused", "global_avgpool", "layernorm", "linear",
            "maxpool2d", "mean_pool_seq", "mul")

_DEEP_CONV = ("resnet", "mobilenet", "efficientnet", "darknet")
_TRANSFORMERS = ("vit", "nlp_transformer", "mixer")


def variants() -> List[Tuple[str, str, Dict]]:
    """(name, builder, kwargs) per variant, shaped as ``build_mini_zoo``
    shapes its trunks: 16x16 darknet inputs, four blocks in the deep
    convnets, transformers at scale >= 0.75."""
    from repro.zoo.minizoo import MINI_ZOO_VARIANTS

    out = []
    for _, builder, act in MINI_ZOO_VARIANTS:
        kwargs: Dict = {"act": act, "scale": SCALE, "seed": 0}
        if builder == "darknet":
            kwargs["image"] = 16
        if builder in _DEEP_CONV:
            kwargs["blocks"] = 4
        if builder in _TRANSFORMERS:
            kwargs["scale"] = max(SCALE, 0.75)
        out.append((f"{builder}-{act}", builder, kwargs))
    return out


def build_trunk(variant: Tuple[str, str, Dict]):
    from repro.zoo.builders import BUILDERS

    _, builder, kwargs = variant
    return BUILDERS[builder](**kwargs)


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #
def drive(seed: int, seconds: int, trace: bool) -> Dict:
    me = Path(__file__)
    prepared = harness.prepared_cache()
    cpus = harness.side_by_side(1 if trace else REPLICAS)

    def cache(name: str) -> Path:
        return harness.copy_prepared(prepared, harness.fresh_dir(name))

    setups = [harness.setup_probe([me, "probe", cache(f"zoo-batch-probe{i}")])
              for i in range(SETUPS)]
    with harness.start_pinned(
            [[me, "measure", cache(f"zoo-batch{cpu}"), "--seed", seed,
              "--seconds", seconds, "--trace", int(trace)] for cpu in cpus],
            cpus, timeout_s=150.0) as children:
        results = [json.loads(c.expect("RESULT", 150.0)[1]) for c in children]

    # Per variant, each timed batch: the faster replica's (whole passes
    # only, as many as the replica with fewer made).
    per_variant = {name: [min(ts) for ts in zip(*(r["batch_s"][name]
                                                  for r in results))]
                   for name in results[0]["batch_s"]}
    pooled = [t for ts in per_variant.values() for t in ts]
    tail = harness.tail(pooled)
    res = results[0]
    metrics = {
        "setup_s": harness.median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "fit_mse_geomean": res["fit_mse_geomean"],
        # The median over variants of each variant's median batch: the
        # pooled median falls in the gap between the 8th and 9th
        # variants (40 vs 50 ms) and moves with a single sample.
        "latency_p50_ms": 1e3 * harness.median(
            harness.median(ts) for ts in per_variant.values()),
        "latency_tail_ms": 1e3 * tail["value"],
        # Each model counts equally, as the paper averages its speedup
        # over models; a plain total would be mostly three CNNs.
        "throughput_per_s": harness.geomean(
            BATCH / harness.median(ts) for ts in per_variant.values()),
    }
    return {"attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "errors": harness.replica_errors(results), "work": res["work"],
            "metrics": metrics, "layers": res.get("layers", {}),
            "info": {"setups_s": setups, "cpus": cpus,
                     "passes": [r["passes"] for r in results],
                     "latency_tail": tail}}


# --------------------------------------------------------------------- #
# Child side
# --------------------------------------------------------------------- #
def _feed(graph, rng):
    """One stacked feed for ``graph``'s single input."""
    name, shape = graph.inputs[0]
    if name == "ids":  # token ids for the NLP encoder (vocab 64)
        return {name: rng.integers(0, 64, size=(BATCH,) + tuple(shape[1:]))}
    return {name: rng.standard_normal((BATCH,) + tuple(shape[1:]))}


def _rel_err(got, ref) -> float:
    import numpy as np
    return float(np.max(np.abs(got - ref))
                 / max(float(np.max(np.abs(ref))), 1e-300))


def main(argv: List[str]) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("probe", "measure"))
    ap.add_argument("cache", type=Path)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--cpu", type=int, default=None)
    args = ap.parse_args(argv)
    harness.pin(args.cpu)
    harness.apply_env()

    rec = None
    if args.trace:
        import probes
        rec = probes.Recorder()
        probes.install(rec)

    # Set-up: build, rewrite, compile and feed generation.
    import numpy as np
    from repro.api import Session
    from repro.graph import program as program_mod

    session = Session(cache=args.cache)
    rng = np.random.default_rng(args.seed)
    models = []
    for variant in variants():
        rewritten = session.rewrite(build_trunk(variant),
                                    harness.ZOO_BREAKPOINTS)
        program = program_mod.compile_graph(rewritten, batch_size=BATCH,
                                            optimize=True)
        models.append((variant[0], rewritten, program,
                       _feed(rewritten, rng)))
    harness.emit("READY")
    if args.role == "probe":
        return
    if rec is not None:
        rec.enabled = False

    from repro.graph import interpret

    errors: List[str] = []
    # Oracle checks, before timing: two samples per variant run alone
    # must be bitwise equal to interpret().  Every timed batch must then
    # reproduce the first stacked batch bitwise, and (checked after the
    # timing) that batch must match interpret() row by row.
    expected = {}
    for name, rewritten, program, feed in models:
        out_name = rewritten.outputs[0]
        got = program.run(feed)[out_name]
        for i in (0, int(rng.integers(1, BATCH))):
            one = {k: v[i:i + 1] for k, v in feed.items()}
            if not np.array_equal(program.run(one)[out_name],
                                  interpret(rewritten, one)[out_name]):
                errors.append(f"{name}: sample {i} not bitwise equal to "
                              f"interpret()")
        expected[name] = got

    order = [models[i] for i in rng.permutation(len(models))]
    batch_s: Dict[str, List[float]] = {m[0]: [] for m in models}
    pass_s: List[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    while len(pass_s) < MIN_PASSES or time.perf_counter() - start < \
            args.seconds:
        # A traced run traces every other pass, from the second: the
        # difference from the untraced passes around them is the tracing
        # overhead.
        if rec is not None:
            rec.enabled = len(pass_s) % 2 == 1
        t_pass = time.perf_counter()
        for name, rewritten, program, feed in order:
            attempted += 1
            if rec is not None:
                rec.set_request(attempted)
            t0 = time.perf_counter()
            try:
                out = program.run(feed)[rewritten.outputs[0]]
            except Exception as exc:  # a failed request, counted
                failed += 1
                errors.append(f"{name}: {exc!r}")
                continue
            batch_s[name].append(time.perf_counter() - t0)
            if not np.array_equal(out, expected[name]):
                failed += 1
                errors.append(f"{name}: output changed between runs")
        pass_s.append(time.perf_counter() - t_pass)
    if rec is not None:
        rec.enabled = False
    # Before the whole-feed interpret(), whose value environment for 64
    # samples outweighs the programs' arenas.
    peak_rss_mb = harness.peak_rss_mb()

    for name, rewritten, _, feed in models:
        ref = interpret(rewritten, feed)[rewritten.outputs[0]]
        errs = [_rel_err(expected[name][i], ref[i]) for i in range(BATCH)]
        if max(errs) > STACKED_RTOL:
            # Every timed batch of the variant gave this output.
            failed += len(batch_s[name])
            errors.append(f"{name}: stacked rows off interpret() by up to "
                          f"{max(errs):.3e}")

    mses: Dict[str, float] = {}
    for variant in variants():
        mses.update(harness.baked_mses(session, build_trunk(variant),
                                       harness.ZOO_BREAKPOINTS))

    digest = hashlib.sha256()
    for name in sorted(expected):
        digest.update(expected[name].tobytes())
    out = {"batch_s": batch_s, "passes": len(pass_s),
           "attempted": attempted, "failed": failed, "errors": errors,
           "fit_mse_geomean": harness.geomean(mses.values()),
           "peak_rss_mb": peak_rss_mb,
           "work": {"variants": len(models), "requests_per_pass": len(order),
                    "records": sum(len(m[2].nodes) for m in models),
                    "macs": sum(m[2].profile.total_macs for m in models),
                    "fit_mse_geomean": harness.geomean(mses.values()),
                    "outputs_sha256": digest.hexdigest()[:16]}}
    if rec is not None:
        out["layers"] = _layers(rec, models, batch_s)
        rec.write(harness.BUILD / "traces" / f"zoo-batch-seed{args.seed}"
                  ".jsonl")
    harness.emit("RESULT", out)


def _layers(rec, models, batch_s) -> Dict[str, float]:
    """Compile-tier layers of the traced set-up (ms per set-up of all 16
    variants), execution layers per 64-sample batch, and the overhead
    of the traced passes over the untraced ones: the median over
    variants of their ratio, which cancels the spread between variants."""
    layers = rec.summary()
    for name, ts in batch_s.items():
        layers[f"graph.program.run_ms.{name}"] = 1e3 * harness.median(ts)
    by_op: Dict[str, float] = {}
    n_bytes = 0
    for _, rewritten, program, feed in models:
        _, prof = program.run_timed(feed, repeats=2)
        for t in prof.nodes:
            by_op[t.op_type] = by_op.get(t.op_type, 0.0) + t.mean_s
        for cn in program.nodes:
            for value in list(cn.node.inputs) + list(cn.node.outputs):
                # float64 activations and int64 token ids alike
                n_bytes += 8 * math.prod(program.value_shape(value))
    for op, s in by_op.items():
        key = f"graph.exec.{op if op in EXEC_OPS else 'other'}_ms"
        layers[key] = layers.get(key, 0.0) + 1e3 * s
    layers["graph.exec.macs"] = float(sum(m[2].profile.total_macs
                                          for m in models))
    layers["graph.exec.bytes_computed"] = float(n_bytes)
    layers["perfbench.trace_overhead_pct"] = 100.0 * (harness.median(
        harness.median(ts[1::2]) / harness.median(ts[0::2])
        for ts in batch_s.values()) - 1.0)
    return layers


if __name__ == "__main__":
    main(sys.argv[1:])
