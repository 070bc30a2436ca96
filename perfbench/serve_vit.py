"""serve-vit: a closed loop over loopback HTTP to an ``InferServer``.

The server process runs ``InferServer`` with the ``repro serve-infer``
defaults (``Session.compile`` defaults, 8-breakpoint PWLs from a copy
of the prepared fit cache, 5 ms window, cap 32) holding a ViT (gelu,
scale 0.5) with a 3x32x32 input, so each single-sample feed is 3072
float64 values and the JSON codec is a visible share of a request.
The server is this file's own ``server`` role rather than the CLI, so
a traced run can wrap its layers too.

One load-generator process runs :data:`CLIENTS` threads, each with its
own keep-alive ``ServingClient`` posting single-sample requests and
sending the next only after the reply (closed loop).

Parent side: :func:`drive`.  Child sides: ``python3 perfbench/
serve_vit.py load|server ...`` (see :func:`main`).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

import harness

#: Client threads in the load generator (= nproc of the reference host).
CLIENTS = 2
#: Set-ups per run (server start to /healthz answered and all clients
#: connected); setup_s is their median.
SETUPS = 5
#: Distinct feeds per client, cycled; each checked against Program.run.
FEEDS = 16
#: Consecutive responses per throughput sample (about half a second).
RATE_GROUP = 50
#: bench_serving's bound between a served response and Program.run.
RTOL, ATOL = 1e-10, 1e-12


def build_graph():
    from repro.zoo.builders import BUILDERS
    return BUILDERS["vit"](act="gelu", scale=0.5, seed=0, image=32)


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #
def drive(seed: int, seconds: int, trace: bool) -> Dict:
    prepared = harness.prepared_cache()
    _, res = harness.run_child(
        [Path(__file__), "load", prepared, harness.fresh_dir("serve-vit"),
         "--seed", seed, "--seconds", seconds, "--trace", int(trace)],
        timeout_s=170.0)
    lat = res["latencies_s"]
    tail = harness.tail(lat)
    metrics = {
        "setup_s": harness.median(res["setups_s"]),
        "peak_rss_mb": res["server"]["peak_rss_mb"],
        "fit_mse_geomean": res["fit_mse_geomean"],
        "latency_p50_ms": 1e3 * harness.median(lat),
        "latency_tail_ms": 1e3 * tail["value"],
        "throughput_per_s": harness.median(res["rates"]),
    }
    return {"attempted": res["attempted"], "failed": res["failed"],
            "errors": res["errors"], "work": res["work"],
            "metrics": metrics, "layers": res.get("layers", {}),
            "info": {"setups_s": res["setups_s"], "latency_tail": tail,
                     "served": res["server"]["requests"],
                     "batches": res["server"]["batches"]}}


# --------------------------------------------------------------------- #
# Server process
# --------------------------------------------------------------------- #
def serve(cache: Path, trace: bool) -> None:
    rec = None
    if trace:
        import probes
        rec = probes.Recorder()
        probes.install(rec)
    from repro.api import Session
    from repro.serving.infer_server import InferServer

    with Session(cache=cache) as session:
        program = session.compile(build_graph(),
                                  n_breakpoints=harness.SERVE_BREAKPOINTS)
    server = InferServer({"vit": program}, port=0)
    harness.emit("READY", server.start())
    if rec is not None:
        rec.enabled = False
    for line in sys.stdin:
        if line.strip() == "trace on" and rec is not None:
            rec.enabled = True
        elif line.strip() == "stop":
            break
    server.close()
    runner = server.app.runners["vit"]
    out = {"peak_rss_mb": harness.peak_rss_mb(), "requests": runner.requests,
           "batches": runner.batches}
    if rec is not None:
        out["layers"] = _server_layers(rec)
        rec.write(harness.BUILD / "traces" / "serve-vit-server.jsonl")
    harness.emit("RESULT", out)


def _server_layers(rec) -> Dict[str, float]:
    """Set-up layers (ms per set-up) plus serving layers: per request
    for the handler side, per batch for ``run_many``."""
    layers = rec.summary()
    st = rec.self_times()
    n = max(st.get("serving.http.request", {}).get("calls", 0), 1)

    def per_request(span: str) -> float:
        return 1e3 * st.get(span, {}).get("self_s", 0.0) / n

    layers.update({
        "serving.server.decode_ms": per_request("serving.server.decode"),
        "serving.server.encode_ms": per_request("serving.server.encode"),
        "serving.server.json_ms": per_request("serving.server.json"),
        "serving.http.server_self_ms": per_request("serving.http.request"),
        "serving.infer.wait_ms": per_request("serving.infer.wait"),
    })
    run_many = st.get("serving.infer.run_many", {})
    layers["serving.infer.run_many_ms"] = (
        1e3 * run_many.get("total_s", 0.0)
        / max(run_many.get("calls", 0), 1))
    for name, key, scale in (
            ("serving.infer.queue_wait_ms", "serving.infer.queue_wait_s", 1e3),
            ("serving.infer.batch_size", "serving.infer.batch_size", 1.0),
            ("serving.infer.occupancy", "serving.infer.occupancy", 1.0)):
        xs = rec.samples.get(key, [])
        layers[name] = scale * sum(xs) / len(xs) if xs else 0.0
    return layers


# --------------------------------------------------------------------- #
# Load generator
# --------------------------------------------------------------------- #
def _clients_loop(clients, feeds, refs, out_name, seconds, rec
                  ) -> Dict:
    """Drive every client thread for ``seconds`` from a common start;
    returns the window's latencies, counts and rate."""
    import numpy as np

    barrier = threading.Barrier(len(clients) + 1)
    results: List[Dict] = []
    deadline: List[float] = []

    def loop(c: int) -> None:
        out = {"lat": [], "done": [], "attempted": 0, "failed": 0,
               "errors": []}
        barrier.wait()
        while time.perf_counter() < deadline[0]:
            i = out["attempted"]
            out["attempted"] += 1
            if rec is not None:
                rec.set_request(i * len(clients) + c)
            t0 = time.perf_counter()
            try:
                got = clients[c].infer("vit", feeds[c][i % FEEDS])[out_name]
            except Exception as exc:  # an error or a refusal, counted
                out["failed"] += 1
                out["errors"].append(repr(exc))
                continue
            out["done"].append(time.perf_counter())
            out["lat"].append(out["done"][-1] - t0)
            if not np.allclose(got, refs[c][i % FEEDS], rtol=RTOL,
                               atol=ATOL):
                out["failed"] += 1
                out["errors"].append(f"client {c} request {i}: wrong "
                                     f"output")
        out["end"] = time.perf_counter()
        results.append(out)

    threads = [threading.Thread(target=loop, args=(c,))
               for c in range(len(clients))]
    for t in threads:
        t.start()
    start = time.perf_counter()
    deadline.append(start + seconds)
    barrier.wait()
    for t in threads:
        t.join()
    # The rate of each run of RATE_GROUP consecutive responses: their
    # median moves far less with a few-second stall of the shared host
    # than the window's mean rate does.
    done = sorted(t for r in results for t in r["done"])
    window_s = max(r["end"] for r in results) - start
    rates = [RATE_GROUP / (done[i + RATE_GROUP] - done[i])
             for i in range(0, len(done) - RATE_GROUP, RATE_GROUP)] or \
        [len(done) / window_s]
    lat = [x for r in results for x in r["lat"]]
    return {"lat": lat, "rates": rates, "window_s": window_s,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "errors": [e for r in results for e in r["errors"][:5]]}


def load(prepared: Path, work: Path, seed: int, seconds: float,
         trace: bool) -> None:
    import numpy as np
    from repro.api import Session
    from repro.service.retry import RetryPolicy
    from repro.serving.client import ServingClient

    rec = None
    if trace:
        import probes
        rec = probes.Recorder()
        probes.install(rec)
        rec.enabled = False

    # Reference outputs: the same program, compiled here from its own
    # copy of the prepared cache.
    graph = build_graph()
    ref_session = Session(cache=harness.copy_prepared(prepared,
                                                      work / "reference"))
    program = ref_session.compile(graph,
                                  n_breakpoints=harness.SERVE_BREAKPOINTS)
    out_name = program.graph.outputs[0]
    rng = np.random.default_rng(seed)
    shape = (1,) + tuple(graph.inputs[0][1][1:])
    feeds = [[{"x": rng.standard_normal(shape)} for _ in range(FEEDS)]
             for _ in range(CLIENTS)]
    refs = [[program.run(f)[out_name] for f in fs] for fs in feeds]
    mses = harness.baked_mses(ref_session, graph,
                              harness.SERVE_BREAKPOINTS).values()

    setups: List[float] = []
    server, clients = None, []
    try:
        for k in range(SETUPS):
            if server is not None:
                _stop(server, clients)
            cache = harness.copy_prepared(prepared, work / f"server{k}")
            t0 = time.perf_counter()
            server = harness.Child([Path(__file__), "server", cache,
                                    "--trace", int(trace)], stdin=True)
            _, addr = server.expect("READY", 60.0)
            # No client-side retries: a refusal must count as a failure.
            clients = [ServingClient(addr,
                                     retry=RetryPolicy(max_attempts=1))
                       for _ in range(CLIENTS)]
            for client in clients:
                client.healthz()
            setups.append(time.perf_counter() - t0)
        harness.emit("READY")

        # Warm-up, untimed; its failures still fail the run.
        windows = [_clients_loop(clients, feeds, refs, out_name, 0.5, None)]
        # A traced run splits its time: untraced, then traced on both
        # sides; the rate difference is the tracing overhead.
        for traced in ((False, True) if trace else (False,)):
            if traced:
                server.send("trace on")
                rec.enabled = True
            windows.append(_clients_loop(clients, feeds, refs, out_name,
                                         seconds / (1 + trace), rec))
        if rec is not None:
            rec.enabled = False
        server_out = _stop(server, clients)
        server = None
    finally:
        if server is not None:  # failed mid-run: no result to wait for
            server.kill()

    timed = windows[1:]
    errors = [e for w in windows for e in w["errors"]]
    if windows[0]["failed"]:
        errors.append(f"{windows[0]['failed']} warm-up requests failed")
    out = {"latencies_s": [x for w in timed for x in w["lat"]],
           "rates": [x for w in timed for x in w["rates"]],
           "setups_s": setups,
           "attempted": sum(w["attempted"] for w in timed),
           "failed": sum(w["failed"] for w in timed),
           "errors": errors, "fit_mse_geomean": harness.geomean(mses),
           "server": server_out,
           "work": {"clients": CLIENTS, "feed_values": int(np.prod(shape)),
                    "records": len(program.nodes),
                    "fit_mse_geomean": harness.geomean(mses)}}
    if rec is not None:
        rates = [len(w["lat"]) / w["window_s"] for w in timed]
        out["layers"] = _client_layers(rec, server_out["layers"], rates)
        rec.write(harness.BUILD / "traces" / f"serve-vit-seed{seed}.jsonl")
    harness.emit("RESULT", out)


def _stop(server, clients) -> Dict:
    """Close the clients, stop the server, return its RESULT document."""
    for client in clients:
        client.close()
    try:
        server.send("stop")
        _, payload = server.expect("RESULT", 30.0)
    finally:
        server.finish()
    return json.loads(payload)


def _client_layers(rec, server_layers: Dict, rates: List[float]
                   ) -> Dict[str, float]:
    """Client codec and round-trip self times per request, merged with
    the server's layers; overhead from the untraced vs traced window."""
    st = rec.self_times()
    n = max(st.get("serving.client.request", {}).get("calls", 0), 1)
    layers = dict(server_layers)
    for metric, span in (("serving.client.encode_ms", "serving.client.encode"),
                         ("serving.client.decode_ms", "serving.client.decode"),
                         ("serving.client.json_ms", "serving.client.json"),
                         ("serving.client.roundtrip_ms",
                          "serving.client.roundtrip")):
        layers[metric] = 1e3 * st.get(span, {}).get("self_s", 0.0) / n
    layers["perfbench.trace_overhead_pct"] = 100.0 * (rates[0] / rates[1]
                                                      - 1.0)
    return layers


def main(argv: List[str]) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("load", "server"))
    ap.add_argument("paths", type=Path, nargs="+")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)
    harness.apply_env()
    if args.role == "server":
        serve(args.paths[0], bool(args.trace))
    else:
        load(args.paths[0], args.paths[1], args.seed, args.seconds,
             bool(args.trace))


if __name__ == "__main__":
    main(sys.argv[1:])
