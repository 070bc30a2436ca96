"""The ``serve-infer`` daemon: micro-batching, correctness, 429s."""

import queue as queue_mod
import threading

import numpy as np
import pytest

from repro.analysis.diagnostics import DiagnosticError
from repro.errors import ServiceError
from repro.graph.builder import GraphBuilder
from repro.graph.ir import Graph, Node
from repro.graph.program import compile_graph
from repro.serving.client import ServerError, ServingClient
from repro.serving.infer_server import (DEFAULT_BATCH_MS, MAX_BATCH_MS,
                                        InferApp, InferServer, ModelRunner,
                                        resolve_batch_ms)
from repro.serving.protocol import (ENV_INFER_BATCH_MS, PROTOCOL_VERSION,
                                    ROUTE_INFER, decode_array,
                                    encode_array)
from repro.zoo.builders import build_nlp_transformer


def _tiny_program():
    g = GraphBuilder("tiny_mlp", seed=7)
    x = g.input("x", (0, 16))
    x = g.linear(x, 16, 8)
    x = g.activation(x, "gelu")
    x = g.linear(x, 8, 4)
    g.graph.outputs = [x]
    return g.graph, compile_graph(g.graph)


class TestResolveBatchMs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_INFER_BATCH_MS, "50")
        assert resolve_batch_ms(2.5) == 2.5

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(ENV_INFER_BATCH_MS, "12.5")
        assert resolve_batch_ms() == 12.5

    def test_default(self, monkeypatch):
        monkeypatch.delenv(ENV_INFER_BATCH_MS, raising=False)
        assert resolve_batch_ms() == DEFAULT_BATCH_MS

    @pytest.mark.parametrize("bad", ["fast", "-3", "inf", "nan", "1e13"])
    def test_malformed_env_fails_loudly(self, monkeypatch, bad):
        monkeypatch.setenv(ENV_INFER_BATCH_MS, bad)
        with pytest.raises(ServiceError, match=ENV_INFER_BATCH_MS):
            resolve_batch_ms()

    @pytest.mark.parametrize("bad", [-5.0, float("inf"), float("nan"),
                                     MAX_BATCH_MS * 2, "soon"])
    def test_bad_explicit_window_fails_loudly(self, monkeypatch, bad):
        monkeypatch.setenv(ENV_INFER_BATCH_MS, "5")
        with pytest.raises(ServiceError, match="batch_ms"):
            resolve_batch_ms(bad)
        _, prog = _tiny_program()
        with pytest.raises(ServiceError, match="batch_ms"):
            ModelRunner("tiny", prog, batch_ms=bad)

    def test_window_bounds_are_inclusive(self):
        assert resolve_batch_ms(0) == 0.0
        assert resolve_batch_ms(MAX_BATCH_MS) == MAX_BATCH_MS


class TestModelRunnerBatching:
    def test_burst_fuses_into_one_batch(self, rng):
        graph, prog = _tiny_program()
        # A wide window so the whole burst lands in one fused pass.
        runner = ModelRunner("tiny", prog, batch_ms=500.0, batch_cap=32)
        try:
            feeds = [{"x": rng.normal(size=(1, 16))} for _ in range(4)]
            pending = [runner.submit(f) for f in feeds]
            for p in pending:
                assert p.event.wait(30.0), "batcher never answered"
                assert p.error is None
            assert runner.requests == 4
            assert runner.batches == 1
            # Fused outputs match the per-request outputs to BLAS
            # rounding (a stacked GEMM may round rows differently than
            # a batch-of-one pass does).
            name = graph.outputs[0]
            for p, f in zip(pending, feeds):
                assert np.allclose(p.outputs[name], prog.run(f)[name],
                                   rtol=1e-10, atol=1e-12)
        finally:
            runner.stop()

    def test_batch_cap_splits_the_window(self, rng):
        _, prog = _tiny_program()
        runner = ModelRunner("tiny", prog, batch_ms=500.0, batch_cap=2)
        try:
            pending = [runner.submit({"x": rng.normal(size=(1, 16))})
                       for _ in range(4)]
            for p in pending:
                assert p.event.wait(30.0)
                assert p.error is None
            assert runner.batches >= 2  # cap forbids one fused batch of 4
        finally:
            runner.stop()

    @pytest.mark.parametrize("size", ["batch_cap", "max_queue"])
    def test_sizes_below_one_are_refused(self, size):
        # max_queue=0 would build an unbounded queue: no 429, ever.
        _, prog = _tiny_program()
        with pytest.raises(ServiceError, match=size):
            ModelRunner("tiny", prog, **{size: 0})

    def test_status_names_io(self):
        _, prog = _tiny_program()
        runner = ModelRunner("tiny", prog, batch_ms=1.0)
        try:
            status = runner.status()
            assert status["inputs"] == ["x"]
            assert len(status["outputs"]) == 1
            assert status["max_queue"] == 128
        finally:
            runner.stop()

    def test_submit_after_stop_raises(self, rng):
        _, prog = _tiny_program()
        runner = ModelRunner("tiny", prog, batch_ms=1.0)
        runner.stop()
        with pytest.raises(ServiceError, match="shutting down"):
            runner.submit({"x": rng.normal(size=(1, 16))})


class TestGreedyDrain:
    """With no window the batcher still fuses whatever is queued.

    ``run_many`` is gated so the first request holds the batcher while
    four more queue up behind it: no wall-clock window decides what
    lands in which batch.
    """

    def _drain(self, rng, monkeypatch, batch_cap):
        graph, prog = _tiny_program()
        entered, release = threading.Event(), threading.Event()
        run_many = prog.run_many

        def gated(feeds_seq):
            entered.set()
            release.wait(30.0)
            return run_many(feeds_seq)

        monkeypatch.setattr(prog, "run_many", gated)
        runner = ModelRunner("tiny", prog, batch_ms=0.0,
                             batch_cap=batch_cap)
        feeds = [{"x": rng.normal(size=(1, 16))} for _ in range(5)]
        try:
            pending = [runner.submit(feeds[0])]
            assert entered.wait(30.0), "batcher never ran the first request"
            pending += [runner.submit(f) for f in feeds[1:]]
            release.set()
            for p in pending:
                assert p.event.wait(30.0), "batcher never answered"
                assert p.error is None
        finally:
            release.set()
            runner.stop()
        assert not runner._thread.is_alive()  # its counters are final
        name = graph.outputs[0]
        for p, f in zip(pending, feeds):
            assert np.allclose(p.outputs[name], prog.run(f)[name],
                               rtol=1e-10, atol=1e-12)
        assert runner.requests == 5
        return runner.batches

    def test_queued_requests_fuse_at_window_zero(self, rng, monkeypatch):
        assert self._drain(rng, monkeypatch, batch_cap=32) == 2

    def test_drain_stops_at_the_cap(self, rng, monkeypatch):
        assert self._drain(rng, monkeypatch, batch_cap=2) == 3


class TestInferApp:
    @pytest.fixture()
    def app(self):
        _, prog = _tiny_program()
        app = InferApp({"tiny": prog}, batch_ms=1.0)
        yield app
        app.close()

    def _body(self, rng, model="tiny"):
        return {"protocol": PROTOCOL_VERSION, "model": model,
                "feeds": {"x": encode_array(rng.normal(size=(1, 16)))}}

    def test_unknown_model_is_404(self, app, rng):
        status, doc, _ = app.handle("POST", ROUTE_INFER,
                                    self._body(rng, model="resnet"))
        assert status == 404
        assert "tiny" in doc["message"]

    def test_protocol_mismatch_is_400(self, app, rng):
        body = self._body(rng)
        body["protocol"] = PROTOCOL_VERSION + 1
        status, doc, _ = app.handle("POST", ROUTE_INFER, body)
        assert status == 400

    def test_bad_feeds_are_400(self, app, rng):
        good = encode_array(rng.normal(size=(1, 16)))
        bad_docs = [
            {"shape": [1], "data": [1, 2]},
            dict(good, data="not base64!"),
            dict(good, shape=[2, 16]),   # bytes fill half the shape
            dict(good, shape=[-1, 16]),
            # A protocol-1 number list sent as protocol 2.
            dict(good, data=rng.normal(size=16).tolist()),
        ]
        for feeds in [None, {}] + [{"x": d} for d in bad_docs]:
            status, doc, _ = app.handle(
                "POST", ROUTE_INFER,
                {"protocol": PROTOCOL_VERSION, "model": "tiny",
                 "feeds": feeds})
            assert status == 400
            assert doc["error"] == "bad-request"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feed_is_400_naming_the_input(self, app, rng,
                                                      value):
        x = rng.normal(size=(1, 16))
        x[0, 3] = value
        status, doc, _ = app.handle(
            "POST", ROUTE_INFER,
            {"protocol": PROTOCOL_VERSION, "model": "tiny",
             "feeds": {"x": encode_array(x)}})
        assert status == 400
        assert doc["error"] == "bad-request"
        assert "'x'" in doc["message"]
        assert app.runners["tiny"].requests == 0

    def test_full_queue_is_429_with_retry_after(self, app, rng,
                                                monkeypatch):
        runner = app.runners["tiny"]

        def full(feeds):
            raise queue_mod.Full

        monkeypatch.setattr(runner, "submit", full)
        status, doc, headers = app.handle("POST", ROUTE_INFER,
                                          self._body(rng))
        assert status == 429
        assert doc["error"] == "busy"
        assert float(headers["Retry-After"]) >= runner.batch_ms / 1000.0

    def test_shutdown_is_503(self, app, rng):
        app.runners["tiny"].stop()
        status, doc, _ = app.handle("POST", ROUTE_INFER, self._body(rng))
        assert status == 503


class TestMalformedRequests:
    """A malformed request is refused alone, at admission, with a 400."""

    @staticmethod
    def _body(feeds):
        return {"protocol": PROTOCOL_VERSION, "model": "tiny",
                "feeds": {k: encode_array(v) for k, v in feeds.items()}}

    def _beside_good(self, rng, bad, model=None, good=None):
        """Post ``bad`` while a good request waits in a wide window;
        check the good one comes back bitwise-equal to its solo run and
        return the bad one's answer.  ``model`` is a ``(graph,
        program)`` pair (default: the tiny MLP) served as "tiny"."""
        graph, prog = model or _tiny_program()
        # A wide window: without the admission check both requests
        # would share one fused pass and fail together.
        app = InferApp({"tiny": prog}, batch_ms=200.0)
        good = good or {"x": rng.normal(size=(1, 16))}
        answers = {}

        def post(key, feeds):
            answers[key] = app.handle("POST", ROUTE_INFER, self._body(feeds))

        try:
            worker = threading.Thread(target=post, args=("good", good))
            worker.start()
            post("bad", bad)
            worker.join(30.0)
            assert not worker.is_alive()
        finally:
            app.close()
        status, doc, _ = answers["good"]
        assert status == 200
        name = graph.outputs[0]
        assert np.array_equal(decode_array(doc["outputs"][name]),
                              prog.run(good)[name])
        return answers["bad"]

    def test_bad_request_does_not_fail_its_batch(self, rng):
        status, doc, _ = self._beside_good(
            rng, {"x": rng.normal(size=(1, 15))})
        assert status == 400
        assert doc["error"] == "RPR202" and "RPR202" in doc["message"]

    @pytest.mark.parametrize("feed", [
        np.full((1, 16), 0.5, dtype=object),
        np.full((1, 16), "0.5", dtype="<U32"),
        np.full((1, 16), 0.5 + 0.5j),
    ], ids=["object", "str", "complex128"])
    def test_non_numeric_dtype_is_refused_alone(self, rng, feed):
        status, doc, _ = self._beside_good(rng, {"x": feed})
        assert status == 400
        assert doc["error"] == "bad-request"
        assert repr(str(feed.dtype)) in doc["message"]

    @pytest.mark.parametrize("bad", [10 ** 6, -1, 2.7],
                             ids=["1e6", "-1", "2.7"])
    def test_token_id_outside_the_table_is_refused_alone(self, rng, bad):
        graph = build_nlp_transformer(scale=0.25, depth=1)
        model = (graph, compile_graph(graph, optimize=True))
        good = {"ids": rng.integers(0, 64, size=(1, 16))}
        poison = {"ids": good["ids"].astype(np.float64)}
        poison["ids"][0, 7] = bad
        status, doc, _ = self._beside_good(rng, poison, model=model,
                                           good=good)
        assert status == 400
        assert doc["error"] == "RPR208" and "'ids'" in doc["message"]

    def test_runner_refuses_bad_feeds_and_serves_the_rest(self, rng):
        graph, prog = _tiny_program()
        runner = ModelRunner("tiny", prog, batch_ms=200.0)
        try:
            good = {"x": rng.normal(size=(1, 16))}
            pending = runner.submit(good)
            with pytest.raises(DiagnosticError) as err:
                runner.submit({"x": rng.normal(size=(1, 15))})
            assert err.value.code == "RPR202"
            assert pending.event.wait(30.0)
            assert pending.error is None
            name = graph.outputs[0]
            assert np.array_equal(pending.outputs[name],
                                  prog.run(good)[name])
        finally:
            runner.stop()

    def test_lone_and_batched_requests_are_checked_alike(self):
        g = Graph(name="pair")
        g.inputs.extend([("a", (0, 3)), ("b", (0, 3))])
        g.add_node(Node("add", ["a", "b"], ["y"]))
        g.outputs.append("y")
        prog = compile_graph(g)
        ragged = {"a": np.zeros((3, 3)), "b": np.ones((1, 3))}
        other = {"a": np.zeros((1, 3)), "b": np.ones((1, 3))}
        codes = []
        for batch in ([ragged], [other, ragged]):
            with pytest.raises(DiagnosticError) as err:
                prog.run_many(batch)
            codes.append(err.value.code)
        assert codes == ["RPR203", "RPR203"]
        with pytest.raises(DiagnosticError, match="RPR203"):
            prog.check_request(ragged)
        assert prog.check_request(other) == 1


class TestInferServerEndToEnd:
    def test_http_roundtrip_matches_direct_run(self, rng):
        graph, prog = _tiny_program()
        with InferServer({"tiny": prog}, port=0, batch_ms=2.0) as srv:
            with ServingClient(srv.addr) as client:
                feeds = {"x": rng.normal(size=(1, 16))}
                out = client.infer("tiny", feeds)
                name = graph.outputs[0]
                assert np.array_equal(out[name], prog.run(feeds)[name])
                models = client.models()["models"]
                assert models["tiny"]["requests"] >= 1
                with pytest.raises(ServerError) as err:
                    client.infer("missing", feeds)
                assert err.value.status == 404
