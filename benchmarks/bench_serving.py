"""Network serving throughput: micro-batched daemon vs sequential runs.

The serving tier's reason to exist in one number: 16 concurrent
clients posting single-sample requests at a ``serve-infer`` daemon
must beat the same requests executed sequentially through
``Program.run`` — HTTP framing, array codec and queue hops included —
because the batcher fuses concurrent requests into stacked
``run_many`` passes.

The workload is built to expose the win honestly: a small-input,
heavy-compute MLP (input dim 64, three hidden layers), so the
payload per request stays tiny while each fused GEMM carries real
arithmetic — a wide matrix-vector product is memory-bound on its
weight matrix, so a fused batch reads the weights once where the
sequential baseline reads them per request.  Clients are real forked
processes: in-process client threads would serialize on the GIL and
measure the harness, not the server.  No client sends a request until
every client is forked: the server runs in this process, and a fork
while its batcher thread is inside a multi-threaded BLAS call can
deadlock in OpenBLAS's fork handler.

Acceptance gate: >= 2x served throughput over the sequential baseline
at 16 clients (>= 1.2x under ``--bench-quick``, where the shrunken
workload leaves less arithmetic to amortise the transport).  Outputs
are checked against the direct run before any timing is trusted.

The machine-readable summary lands in ``results/BENCH_serving.json``.
"""

import multiprocessing
import time

import numpy as np

from repro.eval import fmt_ratio, format_table
from repro.graph.builder import GraphBuilder
from repro.graph.program import compile_graph
from repro.serving.client import ServingClient
from repro.serving.infer_server import InferServer


def _mlp(hidden: int):
    """Small-input / heavy-compute MLP: 64 -> 3x hidden -> 16."""
    g = GraphBuilder(f"serving_mlp_h{hidden}", seed=11)
    x = g.input("x", (0, 64))
    x = g.linear(x, 64, hidden)
    x = g.activation(x, "tanh")
    for _ in range(2):
        x = g.linear(x, hidden, hidden)
        x = g.activation(x, "tanh")
    x = g.linear(x, hidden, 16)
    g.graph.outputs = [x]
    return g.graph


def _client(addr, seed, n_requests, barrier, conn):
    """Client-process body: wait until the whole fleet is forked, warm
    the connection, sync on the barrier again, drain the plan, report
    elapsed wall time."""
    try:
        rng = np.random.default_rng(seed)
        plan = [{"x": rng.normal(size=(1, 64))} for _ in range(n_requests)]
        with ServingClient(addr) as client:
            barrier.wait()
            client.infer("mlp", plan[0])  # connect + first-request warm
            barrier.wait()
            t0 = time.perf_counter()
            for feeds in plan:
                client.infer("mlp", feeds)
            conn.send(time.perf_counter() - t0)
    except BaseException as exc:  # surface the failure to the parent
        conn.send(RuntimeError(f"client failed: {exc!r}"))
    finally:
        conn.close()


def _serve_all(addr, n_clients, per_client):
    """Run the client fleet; wall time from barrier release until the
    last client finishes its plan."""
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(n_clients + 1)
    pipes, procs = [], []
    for i in range(n_clients):
        recv, send = ctx.Pipe(duplex=False)
        p = ctx.Process(target=_client,
                        args=(addr, 1000 + i, per_client, barrier, send))
        p.start()
        pipes.append(recv)
        procs.append(p)
    barrier.wait()  # fleet forked: clients may now reach the server
    barrier.wait()  # fleet warm: the timed window starts
    t0 = time.perf_counter()
    payloads = []
    for pipe in pipes:
        assert pipe.poll(300), "client sent no result in time"
        payloads.append(pipe.recv())
    elapsed = time.perf_counter() - t0
    for p in procs:
        p.join(timeout=60)
    failures = [p for p in payloads if isinstance(p, Exception)]
    assert not failures, failures[:3]
    return elapsed


def test_serving_throughput(report_writer, json_report_writer, bench_quick):
    if bench_quick:
        hidden, n_clients, per_client, floor = 3072, 8, 4, 1.2
    else:
        hidden, n_clients, per_client, floor = 4096, 16, 8, 2.0

    graph = _mlp(hidden)
    program = compile_graph(graph)
    out_name = graph.outputs[0]

    rng = np.random.default_rng(1000)  # client 0's stream
    flat = [{"x": rng.normal(size=(1, 64))}
            for _ in range(n_clients * per_client)]

    # batch_cap = fleet size: a full round of in-flight requests closes
    # the window immediately instead of sleeping it out.
    with InferServer({"mlp": program}, port=0, batch_ms=5.0,
                     batch_cap=n_clients,
                     max_queue=n_clients * per_client) as server:
        # Correctness first: a served response must match the direct
        # run (to stacked-GEMM rounding) before throughput means
        # anything.
        with ServingClient(server.addr) as probe:
            got = probe.infer("mlp", flat[0])[out_name]
        ref = program.run(flat[0])[out_name]
        assert np.allclose(got, ref, rtol=1e-10, atol=1e-12)

        # Warm the sequential path (BLAS thread pools, kernel bake).
        for feeds in flat[:4]:
            program.run(feeds)
        t_seq = np.inf
        for _ in range(2):
            t0 = time.perf_counter()
            for feeds in flat:
                program.run(feeds)
            t_seq = min(t_seq, time.perf_counter() - t0)

        t_served = min(_serve_all(server.addr, n_clients, per_client)
                       for _ in range(2))
        batches = sum(r.batches for r in server.app.runners.values())
        served = sum(r.requests for r in server.app.runners.values())

    n_requests = len(flat)
    speedup = t_seq / t_served
    mean_batch = served / max(batches, 1)
    summary = {
        "graph": graph.name,
        "hidden": hidden,
        "n_clients": n_clients,
        "n_requests": n_requests,
        "sequential_s": t_seq,
        "served_s": t_served,
        "speedup": speedup,
        "batches": batches,
        "mean_batch_size": mean_batch,
        "floor": floor,
        "quick": bench_quick,
    }

    rows = [
        ["sequential Program.run", f"{t_seq * 1e3:.1f}", fmt_ratio(1.0)],
        [f"serve-infer, {n_clients} clients", f"{t_served * 1e3:.1f}",
         fmt_ratio(speedup)],
    ]
    report_writer("serving_throughput", format_table(
        ["strategy", f"{n_requests} requests ms", "speedup"], rows,
        title=f"Micro-batched serving on {graph.name} "
              f"(mean fused batch {mean_batch:.1f})"))
    json_report_writer("BENCH_serving", summary)

    assert speedup >= floor, (
        f"served throughput {speedup:.2f}x below the {floor:g}x gate "
        f"vs sequential Program.run")
