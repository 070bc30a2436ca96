"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``fit``     fit one activation and print the PWL + metrics;
``fit-all`` batch-fit many activations through the parallel engine;
``serve``   run the long-running fit daemon over the shared job queue,
            and with ``--addr`` over HTTP too (the network serving
            tier: one shared cache + pool for a cluster);
``serve-infer`` hold compiled zoo Programs hot and serve inference
            over HTTP with micro-batching (``run_many`` fusion);
``cache``   inspect / clear / prune the persistent fit cache and report
            warm-start telemetry (``cache report``);
``compile`` compile a zoo model graph (optionally PWL-rewritten through
            the session) and print its *static* cost profile;
``check``   statically verify zoo model graphs (shape rules, liveness,
            PWL domain coverage, ...) and print the diagnostics;
``table``   emit quantised hardware tables as JSON;
``fig``     regenerate one of the paper's figures/tables in the terminal;
``zoo``     summarise the synthetic catalog and its speedups;
``bound``   print the theoretical optimal-MSE bound for a budget sweep;
``profile`` run a compiled zoo model with the per-kernel timer and
            (``--compare-static``) hold the observed time against the
            static cost model, node for node;
``trace``   show or summarise a JSONL trace written via ``REPRO_TRACE``;
``metrics`` print the metrics snapshot a running daemon exports.

Environment
-----------
``REPRO_CACHE_DIR``   root of the persistent fit cache (and the default
                      service queue directory, ``<root>/service``);
``REPRO_MAX_WORKERS`` default process-pool size for batch fitting when
                      no explicit ``--workers`` is given;
``REPRO_TRACE``       path of a shared JSONL trace sink; setting it
                      enables tracing in every repro process that
                      inherits the variable;
``REPRO_SERVE_ADDR``  ``host:port`` of the fit daemon's HTTP listener —
                      the bind address of ``serve`` when ``--addr`` is
                      not given, and the address the ``remote`` engine
                      (and ``engine=auto``) talks to client-side unless
                      its config names a ``service_root`` queue;
``REPRO_INFER_ADDR``  ``host:port`` of a ``serve-infer`` daemon;
``REPRO_INFER_BATCH_MS``  extra wait of ``serve-infer``'s batcher for
                      stragglers, in milliseconds (default 0: take
                      what is queued, wait for nothing).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .api import ENGINE_NAMES, EngineConfig, FitRequest, Session
from .functions import registry as fn_registry


def _session_from_args(args: argparse.Namespace) -> Session:
    """Build the command's Session from the shared engine flags.

    The legacy ``--serial`` / ``--no-lane-batch`` / ``--workers``
    scatter maps onto one :class:`EngineConfig`; ``--engine`` names a
    strategy explicitly and wins over the legacy flags.
    """
    engine = getattr(args, "engine", None) or "auto"
    if engine == "auto" and getattr(args, "serial", False):
        engine = "lane" if not getattr(args, "no_lane_batch", False) \
            else "inline"
    config = EngineConfig(
        engine=engine,
        max_workers=getattr(args, "workers", None),
        lane_batch=not getattr(args, "no_lane_batch", False))
    cache_dir = getattr(args, "cache_dir", None)
    return Session(config, cache=cache_dir)


def _cmd_fit(args: argparse.Namespace) -> int:
    from .core.analysis import assess_fit
    from .core.metrics import evaluate
    from .eval import fmt_sci
    from .eval.plots import breakpoint_strip

    fn = fn_registry.get(args.function)
    interval = (args.lo, args.hi) if args.lo is not None else None
    artifact = _session_from_args(args).fit_one(
        fn, n_breakpoints=args.breakpoints, interval=interval)
    if args.json:
        # The canonical FitArtifact document — the same schema the
        # cache and the daemon speak, so shell pipelines can consume it.
        print(json.dumps(artifact.to_dict(), indent=2))
        return 0
    m = evaluate(artifact.pwl, fn, interval)
    a, b = m.interval
    print(f"{fn.name}: {args.breakpoints} breakpoints on [{a:g}, {b:g}]  "
          f"[{'cache' if artifact.from_cache else artifact.engine}]")
    print(f"  MSE {fmt_sci(m.mse)}   MAE {fmt_sci(m.mae)}   "
          f"AAE {fmt_sci(m.aae)}")
    quality = assess_fit(artifact.pwl, fn, (a, b))
    print(f"  optimality gap vs free-knot bound: "
          f"{quality.optimality_gap:.2f}x")
    print(breakpoint_strip(artifact.pwl.breakpoints, a, b,
                           title="  breakpoint placement:"))
    return 0


def _csv_ints(text: str) -> List[int]:
    """argparse type for comma-separated integer lists."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _cmd_fit_all(args: argparse.Namespace) -> int:
    from .core.fit import FitConfig
    from .eval import fmt_sci, format_table

    names = (args.functions.split(",") if args.functions
             else list(fn_registry.available()))
    budgets = args.breakpoints
    base = FitConfig(max_steps=150, refine_steps=60, max_refine_rounds=2,
                     polish_maxiter=200, grid_points=1024) \
        if args.quick else None
    requests = [FitRequest.create(name, n, config=base)
                for name in names for n in budgets]
    session = _session_from_args(args)
    t0 = time.perf_counter()
    artifacts = session.fit(requests)
    elapsed = time.perf_counter() - t0
    session.close()

    if args.json:
        # One canonical FitArtifact document per job — identical to the
        # `repro fit --json` schema and to what the cache stores.
        print(json.dumps({"elapsed_s": elapsed,
                          "results": [a.to_dict() for a in artifacts]},
                         indent=2))
        return 0

    rows = [[a.function, a.config.n_breakpoints,
             fmt_sci(a.grid_mse), "cache" if a.from_cache else a.engine,
             f"{a.wall_time_s:.2f}"] for a in artifacts]
    hits = sum(a.from_cache for a in artifacts)
    print(format_table(
        ["function", "#BP", "grid MSE", "source", "fit s"], rows,
        title=f"batch fit: {len(artifacts)} jobs in {elapsed:.1f}s "
              f"({hits} cache hits)"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os
    import signal
    from pathlib import Path

    from .core.batchfit import FitCache
    from .service import FitService, ServiceConfig, default_service_dir
    from .serving.protocol import ENV_SERVE_ADDR

    addr = args.addr or os.environ.get(ENV_SERVE_ADDR) or None
    if addr is not None and args.once:
        print("repro serve: --once drains the queue and exits; it cannot "
              f"also listen on {addr} (--addr / ${ENV_SERVE_ADDR})",
              file=sys.stderr)
        return 2
    root = Path(args.dir) if args.dir else default_service_dir()
    cache = FitCache(args.cache_dir) if args.cache_dir else None
    config = ServiceConfig(root=root, max_workers=args.workers,
                           poll_interval_s=args.poll,
                           idle_timeout_s=args.idle_exit,
                           lane_batch=not args.no_lane_batch,
                           addr=addr, max_pending=args.max_pending)

    def _terminate(signum, frame):  # pragma: no cover - signal path
        # Route SIGTERM through the KeyboardInterrupt cleanup below so
        # the pool workers are shut down with the daemon: a default
        # SIGTERM death would orphan them (they outlive their parent).
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        with FitService(config, cache=cache) as svc:
            http = (f"fit service at http://{svc.serve_addr}  "
                    if svc.serve_addr else "")
            print(f"repro serve: {http}queue at {root}  "
                  f"(workers={args.workers or 'auto'}, "
                  f"idle-exit={args.idle_exit or 'never'})", flush=True)
            try:
                handled = svc.drain() if args.once else svc.serve_forever()
            except KeyboardInterrupt:
                handled = svc.processed
            print(f"repro serve: exiting after {handled} jobs "
                  f"({svc.failed} failed)", flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


def _cmd_serve_infer(args: argparse.Namespace) -> int:
    import os
    import signal

    from .serving.infer_server import InferServer, resolve_batch_ms
    from .serving.protocol import (DEFAULT_INFER_PORT, ENV_INFER_ADDR,
                                   parse_addr)
    from .zoo.builders import BUILDERS

    host, port = parse_addr(args.addr or os.environ.get(ENV_INFER_ADDR),
                            DEFAULT_INFER_PORT)
    batch_ms = resolve_batch_ms(args.batch_ms)  # refuse before fitting
    names = args.model or ["vit"]
    unknown = [n for n in names if n not in BUILDERS]
    if unknown:
        print(f"unknown model(s) {unknown}; known: {sorted(BUILDERS)}",
              file=sys.stderr)
        return 2
    fit_config = None
    if args.quick:
        from .core.fit import FitConfig
        fit_config = FitConfig(max_steps=150, refine_steps=60,
                               max_refine_rounds=2, polish=False,
                               grid_points=1024)
    session = _session_from_args(args)
    programs = {}
    with session:
        for name in names:
            graph = BUILDERS[name](act=args.act, scale=args.scale,
                                   seed=args.seed)
            programs[name] = session.compile(
                graph, n_breakpoints=args.pwl or None, config=fit_config)
            print(f"repro serve-infer: compiled {name} "
                  f"({len(programs[name].nodes)} nodes"
                  + (f", PWL @{args.pwl}" if args.pwl else "") + ")",
                  flush=True)
    server = InferServer(programs, host=host, port=port,
                         batch_ms=batch_ms, batch_cap=args.batch_cap,
                         max_queue=args.max_queue)
    print(f"repro serve-infer: serving {sorted(programs)} at "
          f"http://{server.addr}  (batch window {batch_ms:g}ms, "
          f"cap {args.batch_cap})", flush=True)

    def _terminate(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        served = sum(r.requests for r in server.app.runners.values())
        print(f"repro serve-infer: exiting after {served} requests",
              flush=True)
    finally:
        server.close()
        signal.signal(signal.SIGTERM, previous)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .core.batchfit import FitCache

    cache = FitCache(args.cache_dir) if args.cache_dir else FitCache()
    if args.action == "report":
        from .api import aggregate_provenance
        from .eval import format_table

        report = aggregate_provenance(cache)
        if args.json:
            print(json.dumps(report, indent=2))
            return 0
        fits = report["fits"]
        print(f"fit telemetry from {report['log']}")
        print(f"  executed fits: {fits['executed']}  "
              f"(warm rate {fits['warm_rate'] * 100:.1f}%)")
        if report.get("malformed_lines"):
            print(f"  malformed log lines skipped: "
                  f"{report['malformed_lines']}")
        if fits["engines"]:
            print("  engines: " + "  ".join(
                f"{k}={v}" for k, v in fits["engines"].items()))
        if fits["init_used"]:
            print("  init:    " + "  ".join(
                f"{k}={v}" for k, v in fits["init_used"].items()))
        guard = report["guard"]
        kept = "  ".join(f"{k}={v}" for k, v in guard["kept"].items())
        print(f"  warm-quality guard fired {guard['fired']}x"
              + (f" (kept: {kept})" if kept else ""))
        if report["steps_by_distance"]:
            rows = []
            for bucket, row in report["steps_by_distance"].items():
                saving = row["saving_vs_cold"]
                rows.append([bucket, row["fits"],
                             f"{row['mean_steps']:.0f}",
                             "-" if saving is None else f"{saving:+.0f}"])
            cold = report["cold_mean_steps"]
            print(format_table(
                ["neighbour distance", "fits", "mean steps", "vs cold"],
                rows,
                title="warm-start step savings by neighbour distance"
                      + (f" (cold mean {cold:.0f})" if cold else "")))
        elif fits["executed"]:
            print("  no warm-started fits logged yet")
        return 0
    if args.action == "verify":
        report = cache.verify(repair=args.repair)
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(f"fit cache at {report['directory']}")
            print(f"  checked {report['checked']} entries: "
                  f"{report['ok']} ok, {report['legacy']} legacy "
                  f"(pre-checksum), {len(report['corrupt'])} corrupt")
            for item in report["corrupt"]:
                print(f"  corrupt: {item['key'][:16]}…  {item['reason']}")
            if report["quarantined"]:
                print(f"  quarantined {report['quarantined']} entries "
                      f"under {cache.quarantine_dir}")
            elif report["corrupt"]:
                print("  (re-run with --repair to quarantine them)")
        return 1 if report["corrupt"] else 0
    if args.action == "stats":
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats, indent=2))
        else:
            age = stats["oldest_age_s"]
            print(f"fit cache at {stats['directory']}")
            print(f"  {stats['entries']} entries, "
                  f"{stats['bytes'] / 1024:.1f} KiB"
                  + (f", oldest {age / 3600:.1f}h" if age is not None else ""))
    elif args.action == "clear":
        before = len(cache)
        cache.clear()
        print(f"cleared {before} entries from {cache.directory}")
    else:  # prune
        if args.max_entries is None and args.max_age_s is None:
            print("cache prune: need --max-entries and/or --max-age-s",
                  file=sys.stderr)
            return 2
        removed = cache.prune(max_entries=args.max_entries,
                              max_age_s=args.max_age_s)
        print(f"pruned {removed} entries from {cache.directory} "
              f"({len(cache)} remain)")
    return 0


def _cmd_queue(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .service import default_service_dir
    from .service.queue import JobQueue

    root = Path(args.dir) if args.dir else default_service_dir()
    queue = JobQueue(root)
    if args.action == "status":
        beat = queue.heartbeat()
        doc = {"root": str(queue.root), "counts": queue.counts(),
               "daemon_alive": queue.daemon_alive(), "heartbeat": beat}
        if args.json:
            print(json.dumps(doc, indent=2))
            return 0
        print(f"fit queue at {doc['root']}")
        print("  " + "  ".join(f"{k}={v}"
                               for k, v in doc["counts"].items()))
        if doc["daemon_alive"]:
            pid = (beat or {}).get("pid", "?")
            line = f"  daemon alive (pid {pid}"
            proto = (beat or {}).get("protocol")
            if proto is not None:
                line += f", protocol {proto}"
            line += ")"
            print(line)
            addr = (beat or {}).get("serve_addr")
            if addr:
                print(f"  serving http at {addr}")
        else:
            print("  no daemon heartbeating"
                  + ("" if beat is None else " (stale heartbeat)"))
        return 0
    # failed / dead: per-job listings with the enriched failure payloads
    items = queue.list_state(args.action)
    if args.json:
        print(json.dumps(items, indent=2))
        return 0
    if not items:
        print(f"no {args.action} jobs in {queue.root}")
        return 0
    print(f"{len(items)} {args.action} job(s) in {queue.root}")
    for item in items:
        line = f"  {item['key'][:16]}…  age {item['age_s']:.0f}s"
        if item.get("attempts") is not None:
            line += f"  attempts={item['attempts']}"
        line += f"  {item.get('error', '?')}"
        print(line)
        tb = item.get("traceback")
        if tb and args.verbose:
            print("    " + "\n    ".join(tb.strip().splitlines()))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from .core.tables import build_tables
    from .hw.dtypes import HwDataType, fixed_for_range

    fn = fn_registry.get(args.function)
    with Session() as session:
        result = session.fit_one(fn, n_breakpoints=args.breakpoints)
    if args.format.startswith("fp"):
        dtype = HwDataType.float(int(args.format[2:]))
    else:
        a, b = fn.default_interval
        dtype = fixed_for_range(int(args.format), a, b)
    tables = build_tables(result.pwl, dtype.fmt)
    payload = {
        "function": fn.name,
        "format": dtype.name,
        "depth": tables.depth,
        "breakpoints": tables.breakpoints.tolist(),
        "breakpoint_bits": [int(x) for x in tables.breakpoint_bits],
        "slopes": tables.slopes.tolist(),
        "slope_bits": [int(x) for x in tables.slope_bits],
        "intercepts": tables.intercepts.tolist(),
        "intercept_bits": [int(x) for x in tables.intercept_bits],
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    from .eval import experiments as exp
    from .eval import fmt_ratio, fmt_sci, format_table
    from .eval.plots import log_line_chart

    name = args.name.lower()
    if name in ("fig2", "2"):
        res = exp.run_figure2()
        print(format_table(
            ["boundary", "uniform", "flex-sfu", "improvement"],
            [["pinned", fmt_sci(res.mse_uniform), fmt_sci(res.mse_flexsfu),
              fmt_ratio(res.improvement)],
             ["free", fmt_sci(res.mse_uniform_free),
              fmt_sci(res.mse_flexsfu_free), fmt_ratio(res.improvement_free)]],
            title="Figure 2 (paper: 7.0x)"))
    elif name in ("fig4", "4"):
        res = exp.run_figure4()
        series = {}
        sizes = sorted({p.n_words_32b for p in res.points})
        for bits in (8, 16, 32):
            ys = [p.gact_s for p in res.points
                  if p.bits == bits and p.depth == 32]
            series[f"{bits}-bit"] = ys
        print(log_line_chart(series, sizes,
                             title="Figure 4: GAct/s vs words (depth 32)"))
    elif name in ("fig5", "5"):
        res = exp.run_figure5()
        budgets = sorted({p.n_breakpoints for p in res.points})
        series = {fn: [p.mse for p in res.series(fn)]
                  for fn in ("tanh", "gelu", "silu")}
        print(log_line_chart(series, budgets, title="Figure 5: MSE",
                             hline=res.ulp_mse_line, hline_label="fp16 ULP^2"))
        print(f"\nper-doubling: MSE {res.mse_improvement_per_doubling:.1f}x "
              f"(paper 15.9x), MAE {res.mae_improvement_per_doubling:.1f}x "
              f"(paper 3.8x)")
    elif name in ("tab1", "table1"):
        res = exp.run_table1()
        rows = [[r.depth, r.latency_model, f"{r.power_model_mw:.2f}",
                 f"{r.area_model_um2:.0f}"] for r in res.rows]
        print(format_table(["depth", "latency", "power mW", "area um2"],
                           rows, title="Table I (model)"))
    elif name in ("tab2", "table2"):
        res = exp.run_table2()
        rows = [[r.row.ref, r.row.function, r.row.n_breakpoints,
                 fmt_sci(r.measured_error), fmt_ratio(r.measured_improvement)]
                for r in res.rows]
        print(format_table(["ref", "funct", "#BP", "error", "improvement"],
                           rows, title=f"Table II (mean "
                           f"{fmt_ratio(res.mean_improvement)}, paper 22.3x)"))
    else:
        print(f"unknown figure {args.name!r}; try fig2/fig4/fig5/tab1/tab2",
              file=sys.stderr)
        return 2
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from .perf import AcceleratorConfig, model_cycles, model_speedup, \
        program_to_record
    from .zoo.builders import BUILDERS

    builder = BUILDERS.get(args.model)
    if builder is None:
        print(f"unknown model {args.model!r}; known: {sorted(BUILDERS)}",
              file=sys.stderr)
        return 2
    graph = builder(act=args.act, scale=args.scale, seed=args.seed)
    session = _session_from_args(args)
    if args.passes is not None:
        passes = [p for p in args.passes.split(",") if p]
    else:
        passes = [] if args.no_opt else None
    program = session.compile(graph, batch_size=args.batch,
                              n_breakpoints=args.pwl, passes=passes)
    # Static pricing: no forward pass behind either of these.
    record = program_to_record(program, name=graph.name, family=args.model)
    prof = program.profile
    cfg = AcceleratorConfig()
    reports = program.pass_reports or []
    if args.json:
        payload = {
            "model": graph.name,
            "nodes": len(program.nodes),
            "arena_slots": program.n_slots,
            "batch_size": program.batch_size,
            "pwl_breakpoints": args.pwl,
            "optimize": not args.no_opt,
            "passes": [r.name for r in reports],
            "pass_reports": [r.to_dict() for r in reports],
            "macs": prof.total_macs,
            "vector_ops": prof.total_vector_ops,
            "act_elements": prof.act_elements_by_fn(),
            "flexsfu_speedup": model_speedup(record, cfg),
        }
        if args.dump_plan:
            payload["plan"] = [{
                "name": cn.name,
                "op": cn.op_type,
                "label": cn.attrs.get("label"),
                "in_slots": list(cn.in_slots),
                "out_slots": list(cn.out_slots),
            } for cn in program.nodes]
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{graph.name}: compiled {len(program.nodes)} nodes into "
          f"{program.n_slots} arena slots (batch {program.batch_size}"
          + (f", {program.n_pwl_kernels} PWL kernels at {args.pwl} "
             f"breakpoints"
             if args.pwl else "") + ")")
    print(f"  static profile: {prof.total_macs:,} MACs   "
          f"{prof.total_vector_ops:,} vector ops   "
          f"{prof.total_act_elements:,} activation elements "
          f"{prof.act_elements_by_fn()}")
    base = model_cycles(record, cfg, use_flexsfu=False)
    print(f"  cost model ({cfg.name}): {base.total:,.0f} baseline cycles, "
          f"{base.act_share * 100:.1f}% in activations, "
          f"flex-sfu speedup {model_speedup(record, cfg):.2f}x")
    if args.dump_plan:
        if reports:
            print("  passes:")
            for r in reports:
                print(f"    {r.format()}")
        print("  plan:")
        for cn in program.nodes:
            label = cn.attrs.get("label")
            tail = f" [{label}]" if label else ""
            print(f"    {cn.name}: {cn.op_type}"
                  f" {list(cn.in_slots)}->{list(cn.out_slots)}{tail}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis.report import (diagnostics_payload, format_code_table,
                                  format_diagnostics)
    from .analysis.verify import verify
    from .errors import GraphError
    from .graph.program import compile_graph
    from .zoo.builders import BUILDERS

    if args.list_codes:
        print(format_code_table())
        return 0
    models = sorted(BUILDERS) if args.all_zoo else list(args.models)
    if not models:
        print("check: name at least one zoo model or pass --all-zoo "
              "(or --list-codes)", file=sys.stderr)
        return 2
    unknown = [m for m in models if m not in BUILDERS]
    if unknown:
        print(f"unknown model(s) {unknown}; known: {sorted(BUILDERS)}",
              file=sys.stderr)
        return 2

    session = _session_from_args(args) if args.pwl else None
    reports = []
    for name in models:
        graph = BUILDERS[name](act=args.act, scale=args.scale,
                               seed=args.seed)
        if session is not None:
            # Same rewrite `repro compile --pwl` applies: fitted PWL
            # activations are what the domain-coverage check inspects.
            graph = session.rewrite(graph, n_breakpoints=args.pwl)
        try:
            # Verification is the point here, so compile with verify
            # off and run the full check set (graph + program scope)
            # over the result — errors become report lines, not raises.
            program = compile_graph(graph, batch_size=args.batch,
                                    verify=False)
            diags = verify(program)
        except GraphError:
            # Too broken to plan (cycle, unknown op, ...): the
            # graph-scope findings explain why.
            diags = verify(graph, batch_size=args.batch)
        reports.append((name, graph, diags))

    if args.json:
        docs = [dict(diagnostics_payload(diags, source=graph.name),
                     model=name)
                for name, graph, diags in reports]
        ok = all(doc["ok"] for doc in docs)
        # What was checked, so reports of different rewrites differ.
        checked = {"act": args.act, "scale": args.scale, "seed": args.seed,
                   "batch": args.batch, "pwl": args.pwl}
        print(json.dumps({"ok": ok, "args": checked, "models": docs},
                         indent=2))
    else:
        ok = True
        for name, graph, diags in reports:
            print(format_diagnostics(diags, source=graph.name))
            ok = ok and not any(d.is_error for d in diags)
    return 0 if ok else 1


def _profile_feeds(program, batch: int, seed: int):
    """Deterministic feed arrays for every free graph input.

    Inputs an ``embedding`` reads as token ids get integers drawn below
    the row count the program admits for them, not gaussian floats
    (which would index out of the table).
    """
    import numpy as np

    graph, vocab = program.graph, program._vocab
    rng = np.random.default_rng(seed)
    feeds = {}
    for name, shape in graph.inputs:
        if name in graph.initializers:
            continue
        dims = tuple(batch if d == 0 else int(d) for d in shape)
        if name in vocab:
            feeds[name] = rng.integers(0, vocab[name], size=dims)
        else:
            feeds[name] = rng.standard_normal(dims)
    return feeds


def _profile_one(args: argparse.Namespace, model: str):
    """Compile one zoo model and run the per-kernel timer over it."""
    from .obs import compare_profiles
    from .zoo.builders import BUILDERS

    graph = BUILDERS[model](act=args.act, scale=args.scale, seed=args.seed)
    session = _session_from_args(args)
    program = session.compile(graph, batch_size=args.batch,
                              n_breakpoints=args.pwl,
                              passes=[] if args.no_opt else None)
    feeds = _profile_feeds(program, args.batch, args.seed)
    _, runtime = program.run_timed(feeds, repeats=args.repeats)
    comparison = (compare_profiles(program.profile, runtime)
                  if args.compare_static else None)
    return graph, program, runtime, comparison


def _cmd_profile(args: argparse.Namespace) -> int:
    from .eval import format_table
    from .zoo.builders import BUILDERS

    models = sorted(BUILDERS) if args.all_zoo else list(args.models)
    if not models:
        print("profile: name at least one zoo model or pass --all-zoo",
              file=sys.stderr)
        return 2
    unknown = [m for m in models if m not in BUILDERS]
    if unknown:
        print(f"unknown model(s) {unknown}; known: {sorted(BUILDERS)}",
              file=sys.stderr)
        return 2

    if args.capture:
        from .obs import enable_capture
        enable_capture(clear=True)

    docs = {}
    for model in models:
        graph, program, runtime, comparison = _profile_one(args, model)
        reports = program.pass_reports or []
        if args.json:
            doc = {"model": graph.name, "nodes": len(program.nodes),
                   "batch_size": args.batch, "repeats": args.repeats,
                   "pwl_breakpoints": args.pwl,
                   "runtime": runtime.to_dict()}
            if reports:
                doc["pass_reports"] = [r.to_dict() for r in reports]
            if comparison is not None:
                doc["comparison"] = comparison.to_dict()
            docs[model] = doc
            continue
        print(f"{graph.name}: {len(program.nodes)} nodes, "
              f"{runtime.total_s * 1e3 / args.repeats:.2f} ms/run "
              f"(batch {args.batch}, {args.repeats} repeats"
              + (f", PWL {args.pwl}" if args.pwl else "") + ")")
        for r in reports:
            print(f"  pass {r.format()}")
        if comparison is None:
            for op, total in sorted(runtime.by_op_type().items(),
                                    key=lambda kv: -kv[1]):
                print(f"  {op:<12} {total * 1e3:8.2f} ms  "
                      f"{total / runtime.total_s * 100:5.1f}%")
            continue
        rows = []
        for nc in comparison.nodes:
            rows.append([
                nc.name, nc.op_type,
                f"{nc.predicted_share * 100:.1f}%",
                f"{nc.observed_share * 100:.1f}%",
                "-" if nc.ratio is None else f"{nc.ratio:.2f}",
            ])
        print(format_table(
            ["node", "op", "predicted", "observed", "obs/pred"], rows,
            title="observed wall-time share vs static cost-model share"))
        hist = comparison.ratio_histogram()
        if hist:
            print("  log2(obs/pred) histogram: "
                  + "  ".join(f"{k}:{v}" for k, v in hist.items()))
        worst = comparison.worst(3)
        if worst:
            names = ", ".join(f"{n.name} ({n.ratio:.2f}x)" for n in worst)
            print(f"  worst-priced nodes: {names}")
    if args.json:
        payload = docs[models[0]] if len(models) == 1 else docs
        print(json.dumps(payload, indent=2))
    if args.capture:
        from .obs import disable_capture, get_capture
        disable_capture()
        path = get_capture().save(args.capture)
        if not args.json:
            print(f"PWL input histograms written to {path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import os

    from .eval import format_table
    from .obs import ENV_TRACE, read_trace

    path = args.file or os.environ.get(ENV_TRACE)
    if not path:
        print(f"trace: no trace file (pass --file or set {ENV_TRACE})",
              file=sys.stderr)
        return 2
    records = list(read_trace(path))
    if args.action == "summary":
        by_name = {}
        for rec in records:
            name = str(rec.get("name", "?"))
            row = by_name.setdefault(name, {"count": 0, "total_s": 0.0,
                                            "max_s": 0.0, "errors": 0})
            dur = float(rec.get("dur_s", 0.0) or 0.0)
            row["count"] += 1
            row["total_s"] += dur
            row["max_s"] = max(row["max_s"], dur)
            row["errors"] += 1 if rec.get("error") else 0
        if args.json:
            print(json.dumps({"file": str(path), "spans": len(records),
                              "by_name": by_name}, indent=2))
            return 0
        rows = [[name, row["count"], f"{row['total_s'] * 1e3:.1f}",
                 f"{row['total_s'] / row['count'] * 1e3:.2f}",
                 f"{row['max_s'] * 1e3:.2f}", row["errors"]]
                for name, row in sorted(by_name.items())]
        print(format_table(
            ["span", "count", "total ms", "mean ms", "max ms", "errors"],
            rows, title=f"{len(records)} spans in {path}"))
        return 0
    # show: most recent spans, parents indented within their process
    records = records[-args.limit:] if args.limit else records
    if args.json:
        print(json.dumps(records, indent=2))
        return 0
    depth_of = {}
    for rec in records:
        parent = rec.get("parent_id")
        depth = depth_of.get(parent, -1) + 1 if parent else 0
        depth_of[rec.get("span_id")] = depth
        attrs = rec.get("attrs") or {}
        extra = ("  " + " ".join(f"{k}={v}" for k, v in attrs.items())
                 if attrs else "")
        err = f"  ERROR={rec['error']}" if rec.get("error") else ""
        print(f"{rec.get('ts', 0.0):.3f} {'  ' * depth}"
              f"{rec.get('name', '?')}  "
              f"{float(rec.get('dur_s', 0.0) or 0.0) * 1e3:.2f} ms"
              f"{extra}{err}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .obs import MetricsRegistry
    from .service.daemon import METRICS_NAME
    from .service.queue import JobQueue, default_service_dir

    root = Path(args.dir) if args.dir else default_service_dir()
    queue = JobQueue(root)
    snap_path = root / METRICS_NAME
    try:
        doc = json.loads(snap_path.read_text())
    except (OSError, ValueError):
        print(f"metrics: no daemon snapshot at {snap_path} "
              f"(is a daemon serving this queue?)", file=sys.stderr)
        return 1
    beat = queue.heartbeat() or {}
    age = None
    if "time" in beat:
        age = max(0.0, time.time() - float(beat["time"]))
    if args.json:
        print(json.dumps({"snapshot": doc, "heartbeat": beat,
                          "heartbeat_age_s": age, "alive":
                          queue.daemon_alive()}, indent=2))
        return 0
    if args.format == "prom":
        # Rehydrate into a registry so one renderer owns the format.
        registry = MetricsRegistry()
        for name, family in doc.get("metrics", {}).items():
            for series in family.get("series", []):
                labels = series.get("labels", {})
                if family["kind"] == "counter":
                    registry.counter(name, **labels).inc(series["value"])
                elif family["kind"] == "gauge":
                    registry.gauge(name, **labels).set(series["value"])
                else:
                    hist = registry.histogram(
                        name, buckets=tuple(series["bounds"]), **labels)
                    hist.count = series["count"]
                    hist.sum = series["sum"]
                    hist.min = series["min"]
                    hist.max = series["max"]
                    hist.buckets = list(series["buckets"])
        print(registry.render_prometheus(), end="")
        return 0
    alive = "alive" if queue.daemon_alive() else "STALE"
    print(f"daemon metrics from {snap_path} "
          f"(pid {doc.get('pid')}, heartbeat {alive}"
          + (f", {age:.1f}s old" if age is not None else "") + ")")
    for name, family in sorted(doc.get("metrics", {}).items()):
        for series in family.get("series", []):
            labels = series.get("labels", {})
            suffix = ("{" + ",".join(f"{k}={v}"
                                     for k, v in sorted(labels.items()))
                      + "}") if labels else ""
            if family["kind"] == "histogram":
                mean = series.get("mean")
                print(f"  {name}{suffix}  count={series['count']} "
                      f"sum={series['sum']:.3f}"
                      + (f" mean={mean:.3f}" if mean is not None else ""))
            else:
                print(f"  {name}{suffix}  {series['value']:g}")
    return 0


def _cmd_zoo(args: argparse.Namespace) -> int:
    from .eval.plots import hbar_chart
    from .perf import evaluate_zoo
    from .zoo import build_catalog

    records = build_catalog()
    ev = evaluate_zoo(records)
    print(hbar_chart([f.family for f in ev.families],
                     [f.mean_speedup for f in ev.families],
                     title=f"mean end-to-end speedup per family "
                           f"({len(records)} models)"))
    print(f"\nzoo mean {ev.mean_speedup_all:.3f}  "
          f"complex {ev.mean_speedup_complex:.3f}  "
          f"peak {ev.peak_speedup:.2f}x ({ev.peak_model})")
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    from .core.analysis import optimal_mse_bound
    from .eval import fmt_sci, format_table

    fn = fn_registry.get(args.function)
    rows = []
    for n in (4, 8, 16, 32, 64, 128):
        rows.append([n, fmt_sci(optimal_mse_bound(fn, n + 1)),
                     fmt_sci(optimal_mse_bound(fn, n + 1, interpolatory=True))])
    print(format_table(
        ["#BP", "free-knot bound", "interpolatory bound"], rows,
        title=f"optimal PWL MSE bounds for {fn.name} on "
              f"[{fn.default_interval[0]:g}, {fn.default_interval[1]:g}]"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    from . import __version__
    from .serving.protocol import PROTOCOL_VERSION

    parser = argparse.ArgumentParser(
        prog="repro", description="Flex-SFU reproduction CLI")
    parser.add_argument(
        "--version", action="version",
        version=f"repro {__version__} (serving protocol "
                f"{PROTOCOL_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one activation")
    p_fit.add_argument("function")
    p_fit.add_argument("-n", "--breakpoints", type=int, default=16)
    p_fit.add_argument("--lo", type=float, default=None)
    p_fit.add_argument("--hi", type=float, default=None)
    p_fit.add_argument("--engine", choices=ENGINE_NAMES, default=None,
                       help="execution engine (default: auto)")
    p_fit.add_argument("--cache-dir", default=None,
                       help="fit cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro-flexsfu)")
    p_fit.add_argument("--json", action="store_true",
                       help="print the canonical FitArtifact document "
                            "(the cache/daemon schema) instead of text")
    p_fit.set_defaults(func=_cmd_fit)

    p_fit_all = sub.add_parser(
        "fit-all", help="batch-fit activations via the parallel engine")
    p_fit_all.add_argument("--functions", default=None,
                           help="comma-separated names (default: all)")
    p_fit_all.add_argument("-n", "--breakpoints", default=[16],
                           type=_csv_ints,
                           help="comma-separated budgets (default: 16)")
    p_fit_all.add_argument("--engine", choices=ENGINE_NAMES, default=None,
                           help="execution engine (default: auto; wins "
                                "over --serial / --no-lane-batch)")
    p_fit_all.add_argument("--workers", type=int, default=None,
                           help="process-pool size (default: "
                                "$REPRO_MAX_WORKERS or CPU count)")
    p_fit_all.add_argument("--serial", action="store_true",
                           help="legacy alias: run in-process "
                                "(engine=lane, or inline with "
                                "--no-lane-batch)")
    p_fit_all.add_argument("--no-lane-batch", action="store_true",
                           help="disable the vectorised multi-lane fit "
                                "kernel (one scalar fit per job)")
    p_fit_all.add_argument("--quick", action="store_true",
                           help="cheap low-accuracy fit preset (smoke runs)")
    p_fit_all.add_argument("--cache-dir", default=None,
                           help="fit cache directory (default: "
                                "$REPRO_CACHE_DIR or ~/.cache/repro-flexsfu)")
    p_fit_all.add_argument("--json", action="store_true",
                           help="emit one canonical FitArtifact document "
                                "per job (the cache/daemon schema)")
    p_fit_all.set_defaults(func=_cmd_fit_all)

    p_serve = sub.add_parser(
        "serve", help="run the fit daemon over the shared job queue "
                      "(and over HTTP with --addr)")
    p_serve.add_argument("--addr", default=None,
                         help="also serve fits over HTTP on this bind "
                              "host:port (default: $REPRO_SERVE_ADDR, "
                              "else no listener; port 0 picks a free "
                              "port)")
    p_serve.add_argument("--max-pending", type=int, default=8,
                         help="concurrent HTTP fit requests before 429 "
                              "backpressure (default: 8)")
    p_serve.add_argument("--dir", default=None,
                         help="queue directory (default: "
                              "$REPRO_CACHE_DIR/service)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="process-pool size (default: "
                              "$REPRO_MAX_WORKERS or CPU count)")
    p_serve.add_argument("--poll", type=float, default=0.2,
                         help="queue poll interval in seconds when idle")
    p_serve.add_argument("--idle-exit", type=float, default=None,
                         help="exit after this many idle seconds "
                              "(default: serve forever)")
    p_serve.add_argument("--once", action="store_true",
                         help="drain the queue once and exit")
    p_serve.add_argument("--no-lane-batch", action="store_true",
                         help="disable the vectorised multi-lane fit kernel")
    p_serve.add_argument("--cache-dir", default=None,
                         help="fit cache directory (default: "
                              "$REPRO_CACHE_DIR or ~/.cache/repro-flexsfu)")
    p_serve.set_defaults(func=_cmd_serve)

    p_serve_infer = sub.add_parser(
        "serve-infer", help="serve compiled zoo models over HTTP with "
                            "micro-batched inference")
    p_serve_infer.add_argument("--model", action="append", default=None,
                               help="zoo builder to hold hot (repeatable; "
                                    "default: vit)")
    p_serve_infer.add_argument("--addr", default=None,
                               help="bind host:port (default: "
                                    "$REPRO_INFER_ADDR or 127.0.0.1:8174; "
                                    "port 0 picks a free port)")
    p_serve_infer.add_argument("--act", default="gelu",
                               help="activation the builders use "
                                    "(default: gelu)")
    p_serve_infer.add_argument("--scale", type=float, default=0.5,
                               help="width multiplier (default: 0.5)")
    p_serve_infer.add_argument("--seed", type=int, default=0)
    p_serve_infer.add_argument("--pwl", type=int, default=8, metavar="N",
                               help="rewrite activations to N-breakpoint "
                                    "PWLs before compiling (0 disables; "
                                    "default: 8)")
    p_serve_infer.add_argument("--quick", action="store_true",
                               help="fit the PWLs with the quick preset "
                                    "(faster startup, benchmark fidelity)")
    p_serve_infer.add_argument("--batch-ms", type=float, default=None,
                               help="after draining the queue, wait this "
                                    "many milliseconds for more requests "
                                    "to fuse; pays only for models bound "
                                    "by per-call overhead (default: "
                                    "$REPRO_INFER_BATCH_MS or 0)")
    p_serve_infer.add_argument("--batch-cap", type=int, default=32,
                               help="max requests fused per batch "
                                    "(default: 32)")
    p_serve_infer.add_argument("--max-queue", type=int, default=128,
                               help="queued requests per model before 429 "
                                    "backpressure (default: 128)")
    p_serve_infer.add_argument("--engine", choices=ENGINE_NAMES,
                               default=None,
                               help="fit engine for --pwl (default: auto)")
    p_serve_infer.add_argument("--cache-dir", default=None,
                               help="fit cache directory for --pwl fits")
    p_serve_infer.set_defaults(func=_cmd_serve_infer)

    p_cache = sub.add_parser(
        "cache", help="inspect / clear / prune the persistent fit cache, "
                      "or report warm-start telemetry")
    p_cache.add_argument("action", choices=("stats", "clear", "prune",
                                            "report", "verify"))
    p_cache.add_argument("--cache-dir", default=None,
                         help="fit cache directory (default: "
                              "$REPRO_CACHE_DIR or ~/.cache/repro-flexsfu)")
    p_cache.add_argument("--max-entries", type=int, default=None,
                         help="prune: keep only the newest N entries")
    p_cache.add_argument("--max-age-s", type=float, default=None,
                         help="prune: drop entries older than this age")
    p_cache.add_argument("--json", action="store_true",
                         help="stats/report/verify: emit machine-readable "
                              "JSON")
    p_cache.add_argument("--repair", action="store_true",
                         help="verify: quarantine corrupt entries and "
                              "rebuild the index")
    p_cache.set_defaults(func=_cmd_cache)

    p_queue = sub.add_parser(
        "queue", help="inspect the fit service queue: counts + heartbeat, "
                      "or per-job failed/dead listings")
    p_queue.add_argument("action", nargs="?", default="status",
                         choices=("status", "failed", "dead"))
    p_queue.add_argument("--dir", default=None,
                         help="queue directory (default: the service dir "
                              "under $REPRO_CACHE_DIR)")
    p_queue.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON")
    p_queue.add_argument("-v", "--verbose", action="store_true",
                         help="failed/dead: include traceback tails")
    p_queue.set_defaults(func=_cmd_queue)

    p_table = sub.add_parser("table", help="emit hardware tables as JSON")
    p_table.add_argument("function")
    p_table.add_argument("-n", "--breakpoints", type=int, default=15)
    p_table.add_argument("-f", "--format", default="fp16",
                         help="fp8/fp16/fp32 or fixed width 8/16/32")
    p_table.set_defaults(func=_cmd_table)

    p_fig = sub.add_parser("fig", help="regenerate a figure/table")
    p_fig.add_argument("name", help="fig2|fig4|fig5|tab1|tab2")
    p_fig.set_defaults(func=_cmd_fig)

    p_compile = sub.add_parser(
        "compile", help="compile a zoo model graph and print its static "
                        "profile (no forward pass)")
    p_compile.add_argument("model", help="builder name (e.g. vit, resnet)")
    p_compile.add_argument("--act", default="gelu",
                           help="activation the builder uses (default: gelu)")
    p_compile.add_argument("--scale", type=float, default=1.0,
                           help="width multiplier (default: 1.0)")
    p_compile.add_argument("--seed", type=int, default=0)
    p_compile.add_argument("--batch", type=int, default=1,
                           help="batch size of the static profile")
    p_compile.add_argument("--pwl", type=int, default=None, metavar="N",
                           help="rewrite activations to N-breakpoint PWLs "
                                "(fitted through the session) before "
                                "compiling")
    p_compile.add_argument("--engine", choices=ENGINE_NAMES, default=None,
                           help="fit engine for --pwl (default: auto)")
    p_compile.add_argument("--cache-dir", default=None,
                           help="fit cache directory for --pwl fits")
    p_compile.add_argument("--no-opt", action="store_true",
                           help="disable the optimization pipeline "
                                "(folding, dead-node elimination, fusion, "
                                "region scheduling run by default)")
    p_compile.add_argument("--passes", default=None, metavar="A,B,C",
                           help="comma-separated ordered pass list to run "
                                "instead of the default pipeline")
    p_compile.add_argument("--dump-plan", action="store_true",
                           help="print the compiled plan: one line per "
                                "record plus per-pass profile deltas")
    p_compile.add_argument("--json", action="store_true",
                           help="emit a machine-readable summary")
    p_compile.set_defaults(func=_cmd_compile)

    p_check = sub.add_parser(
        "check",
        help="static analysis: verify zoo graphs and report diagnostics")
    p_check.add_argument("models", nargs="*",
                         help="builder names (e.g. vit resnet)")
    p_check.add_argument("--all-zoo", action="store_true",
                         help="check every zoo builder")
    p_check.add_argument("--act", default="gelu",
                         help="activation for parameterisable builders")
    p_check.add_argument("--scale", type=float, default=1.0,
                         help="width multiplier for the builders")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--batch", type=int, default=1,
                         help="batch size for the static cost profile")
    p_check.add_argument("--pwl", type=int, default=None, metavar="N",
                         help="rewrite activations to N-breakpoint PWL "
                              "before checking (exercises the domain-"
                              "coverage checks)")
    p_check.add_argument("--engine", choices=ENGINE_NAMES, default=None,
                         help="fitting engine for --pwl rewrites")
    p_check.add_argument("--cache-dir", default=None,
                         help="fit cache directory for --pwl rewrites")
    p_check.add_argument("--json", action="store_true",
                         help="emit diagnostics as JSON")
    p_check.add_argument("--list-codes", action="store_true",
                         help="print the diagnostic code table and exit")
    p_check.set_defaults(func=_cmd_check)

    p_profile = sub.add_parser(
        "profile",
        help="run a compiled zoo model with the per-kernel timer and "
             "compare observed time against the static cost model")
    p_profile.add_argument("models", nargs="*",
                           help="builder names (e.g. vit resnet)")
    p_profile.add_argument("--all-zoo", action="store_true",
                           help="profile every zoo builder")
    p_profile.add_argument("--act", default="gelu",
                           help="activation the builders use")
    p_profile.add_argument("--scale", type=float, default=1.0,
                           help="width multiplier (default: 1.0)")
    p_profile.add_argument("--seed", type=int, default=0)
    p_profile.add_argument("--batch", type=int, default=1,
                           help="batch size of the profiled run")
    p_profile.add_argument("--repeats", type=int, default=3,
                           help="timed executions to accumulate "
                                "(default: 3)")
    p_profile.add_argument("--pwl", type=int, default=None, metavar="N",
                           help="rewrite activations to N-breakpoint PWLs "
                                "(fitted through the session) first")
    p_profile.add_argument("--no-opt", action="store_true",
                           help="profile the graph as written; by "
                                "default the optimization pipeline runs "
                                "first and prints one static-profile "
                                "delta line per pass")
    p_profile.add_argument("--compare-static", action="store_true",
                           help="align the runtime profile with the "
                                "static cost model, node for node")
    p_profile.add_argument("--capture", default=None, metavar="PATH",
                           help="capture PWL input histograms during the "
                                "run and write them to PATH (JSON)")
    p_profile.add_argument("--engine", choices=ENGINE_NAMES, default=None,
                           help="fit engine for --pwl (default: auto)")
    p_profile.add_argument("--cache-dir", default=None,
                           help="fit cache directory for --pwl fits")
    p_profile.add_argument("--json", action="store_true",
                           help="emit the runtime profile (and the "
                                "comparison) as JSON")
    p_profile.set_defaults(func=_cmd_profile)

    p_trace = sub.add_parser(
        "trace", help="show or summarise a JSONL trace file")
    p_trace.add_argument("action", choices=("show", "summary"))
    p_trace.add_argument("--file", default=None,
                         help="trace path (default: $REPRO_TRACE)")
    p_trace.add_argument("--limit", type=int, default=50,
                         help="show: newest N spans (default: 50; 0=all)")
    p_trace.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON")
    p_trace.set_defaults(func=_cmd_trace)

    p_metrics = sub.add_parser(
        "metrics", help="print the metrics snapshot a daemon exports")
    p_metrics.add_argument("--dir", default=None,
                           help="queue directory (default: "
                                "$REPRO_CACHE_DIR/service)")
    p_metrics.add_argument("--format", choices=("text", "prom"),
                           default="text",
                           help="text summary or Prometheus exposition")
    p_metrics.add_argument("--json", action="store_true",
                           help="emit snapshot + heartbeat as JSON")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_zoo = sub.add_parser("zoo", help="catalog speedup summary")
    p_zoo.set_defaults(func=_cmd_zoo)

    p_bound = sub.add_parser("bound", help="theoretical MSE bounds")
    p_bound.add_argument("function")
    p_bound.set_defaults(func=_cmd_bound)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
