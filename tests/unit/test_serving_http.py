"""The fit daemon's HTTP listener: endpoints, backpressure, isolation.

One in-process daemon (the ``fit_daemon`` helper: a :class:`FitService`
with ``addr`` set, serving on a thread) serves the whole module; every
test talks to it through the real :class:`ServingClient`, so request
framing, error mapping and metrics are exercised end to end in-process.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.api import FitRequest
from repro.core.batchfit import FitCache
from repro.core.fit import FitConfig
from repro.serving.client import ServerError, ServingClient
from repro.serving.fit_server import FitHttpApp
from repro.serving.http import ServerThread, ServingApp, ServingHTTPServer
from repro.serving.protocol import (MAX_BODY_BYTES, PROTOCOL_VERSION,
                                    ROUTE_FIT)
from repro.service.daemon import FitService, ServiceConfig

_TINY = FitConfig(n_breakpoints=4, max_steps=40, refine_steps=20,
                  max_refine_rounds=1, polish_maxiter=60, grid_points=256)


def _job_doc(name="tanh", n=4):
    return FitRequest.create(name, n, config=_TINY).to_dict()


@pytest.fixture(scope="module")
def server(tmp_path_factory, fit_daemon):
    root = tmp_path_factory.mktemp("serving-http")
    with fit_daemon(ServiceConfig(root=root / "queue", warm_start=False,
                                  max_workers=2, addr="127.0.0.1:0"),
                    cache=FitCache(root / "cache")) as svc:
        yield svc


@pytest.fixture()
def client(server):
    with ServingClient(server.serve_addr) as c:
        yield c


class TestPlumbingEndpoints:
    def test_healthz(self, client):
        doc = client.healthz()
        assert doc["ok"] is True
        assert doc["role"] == "fit"
        assert doc["protocol"] == PROTOCOL_VERSION

    def test_version_advertises_schemas_and_cache(self, server, client):
        from repro import __version__
        from repro.api.artifact import ARTIFACT_SCHEMA_VERSION
        from repro.core.batchfit import CACHE_SCHEMA_VERSION
        doc = client.version()
        assert doc["version"] == __version__
        assert doc["schemas"] == {"artifact": ARTIFACT_SCHEMA_VERSION,
                                  "cache": CACHE_SCHEMA_VERSION}
        assert doc["cache_dir"] == str(server.session.cache.directory)
        assert doc["capabilities"]["max_pending"] == server.config.max_pending

    def test_alive_probe(self, server):
        assert ServingClient(server.serve_addr).alive()
        # Nothing listens on the port the OS just handed back to us.
        dead = ServingClient(("127.0.0.1", 1))
        assert not dead.alive(timeout_s=0.2)

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServerError) as err:
            client.request("GET", "/nope")
        assert err.value.status == 404

    def test_metrics_exposition(self, client):
        client.healthz()  # at least one response counted
        import http.client
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=5.0)
        conn.request("GET", "/metrics")
        resp = conn.getresponse()
        text = resp.read().decode("utf-8")
        conn.close()
        assert resp.status == 200
        assert "repro_serving_http_responses" in text


class TestFitEndpoint:
    def test_fit_roundtrip_then_cache_hit(self, client):
        [doc] = client.fit([_job_doc("tanh", 4)])
        assert "error" not in doc
        assert doc["from_cache"] is False
        assert doc["entry"]["function"] == "tanh"
        [again] = client.fit([_job_doc("tanh", 4)])
        assert again["key"] == doc["key"]
        assert again["from_cache"] is True
        assert again["entry"] == doc["entry"]

    def test_protocol_mismatch_is_400(self, client):
        with pytest.raises(ServerError) as err:
            client.request("POST", ROUTE_FIT,
                           {"protocol": PROTOCOL_VERSION + 1,
                            "requests": []})
        assert err.value.status == 400
        assert err.value.doc["error"] == "protocol"

    def test_missing_requests_list_is_400(self, client):
        with pytest.raises(ServerError) as err:
            client.request("POST", ROUTE_FIT,
                           {"protocol": PROTOCOL_VERSION,
                            "requests": "tanh"})
        assert err.value.status == 400

    def test_undecodable_job_fails_alone(self, client):
        bad = {"function": "tanh"}  # no n_breakpoints / config
        good = _job_doc("sigmoid", 4)
        results = client.fit([bad, good])
        assert "error" in results[0]
        assert "undecodable job" in results[0]["error"]
        assert "error" not in results[1]
        assert results[1]["entry"]["function"] == "sigmoid"

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_fit_that_raises_fails_alone(self, tmp_path, fit_daemon):
        # exp over (0, 800) overflows the loss grid, so its fit raises
        # inside the batch; the tanh batchmate (fitted, not cached: a
        # fresh server) must still come back.
        good = _job_doc("tanh", 4)
        bad = FitRequest.create("exp", 4, interval=(0.0, 800.0),
                                config=_TINY).to_dict()
        with fit_daemon(ServiceConfig(root=tmp_path / "queue",
                                      max_workers=1, addr="127.0.0.1:0"),
                        cache=FitCache(tmp_path / "cache")) as svc:
            host, port = svc.serve_addr.rsplit(":", 1)
            conn = http.client.HTTPConnection(host, int(port), timeout=60)
            try:
                conn.request("POST", ROUTE_FIT, body=json.dumps(
                    {"protocol": PROTOCOL_VERSION,
                     "requests": [good, bad]}).encode("utf-8"),
                    headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                status, doc = resp.status, json.loads(resp.read())
            finally:
                conn.close()
        assert status == 200
        tanh, exp = doc["results"]
        assert "error" not in tanh and tanh["entry"]["function"] == "tanh"
        assert "entry" not in exp and "fit jobs failed" in exp["error"]

    def test_http_jobs_are_counted_like_queue_jobs(self, tmp_path,
                                                   fit_daemon):
        # Two fitted jobs and one undecodable: the attribute, GET
        # /version's capabilities and the next heartbeat all count them.
        with fit_daemon(ServiceConfig(root=tmp_path / "queue",
                                      max_workers=1, addr="127.0.0.1:0"),
                        cache=FitCache(tmp_path / "cache")) as svc:
            with ServingClient(svc.serve_addr) as client:
                results = client.fit([_job_doc("tanh", 4),
                                      {"function": "tanh"},
                                      _job_doc("sigmoid", 4)])
                assert ["error" in r for r in results] == \
                    [False, True, False]
                assert (svc.processed, svc.failed) == (2, 1)
                caps = client.version()["capabilities"]
                assert (caps["processed"], caps["failed"]) == (2, 1)
            deadline = time.monotonic() + 10.0
            while (svc.queue.heartbeat() or {}).get("processed") != 2:
                assert time.monotonic() < deadline, \
                    "no heartbeat counted the HTTP fits"
                time.sleep(0.05)
            assert svc.queue.heartbeat()["failed"] == 1


class TestBackpressure:
    def test_saturated_slots_answer_429_with_retry_after(self, tmp_path):
        service = FitService(ServiceConfig(root=tmp_path / "q",
                                           warm_start=False),
                             cache=FitCache(tmp_path / "c"))
        try:
            app = FitHttpApp(service, max_pending=1)
            assert app._slots.acquire(blocking=False)  # fill the one slot
            status, doc, headers = app.handle(
                "POST", ROUTE_FIT,
                {"protocol": PROTOCOL_VERSION, "requests": []})
            assert status == 429
            assert doc["error"] == "busy"
            assert float(headers["Retry-After"]) > 0
            app._slots.release()
            # Slot free again: the same request is admitted.
            status, doc, _ = app.handle(
                "POST", ROUTE_FIT,
                {"protocol": PROTOCOL_VERSION, "requests": []})
            assert status == 200
        finally:
            service.stop()
            service.close()

    def test_zero_slots_are_refused(self, tmp_path):
        from repro.errors import ServiceError

        with FitService(ServiceConfig(root=tmp_path / "q"),
                        cache=FitCache(tmp_path / "c")) as service:
            with pytest.raises(ServiceError, match="max_pending"):
                FitHttpApp(service, max_pending=0)

    def test_concurrent_requests_all_complete(self, server):
        # More client threads than admission slots: everyone must get a
        # real answer (429s are retried by the client's RetryPolicy).
        results, errors = [], []

        def one(i):
            try:
                with ServingClient(server.serve_addr) as c:
                    results.append(c.fit([_job_doc("silu", 4)])[0])
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert len(results) == 6
        assert len({doc["key"] for doc in results}) == 1


class _NanApp(ServingApp):
    """Answers ``GET /nan`` with a float no strict JSON can carry."""

    def handle(self, method, path, body):
        if method == "GET" and path == "/nan":
            return 200, {"ok": True, "value": float("nan")}, None
        return super().handle(method, path, body)


def _strict_loads(raw):
    def refuse(token):
        raise ValueError(f"non-standard token {token}")
    return json.loads(raw.decode("utf-8"), parse_constant=refuse)


class TestStrictWire:
    """Strict JSON both ways, and oversized bodies refused unread."""

    @pytest.fixture(scope="class")
    def addr(self):
        with ServerThread(ServingHTTPServer(("127.0.0.1", 0),
                                            _NanApp())) as addr:
            host, _, port = addr.rpartition(":")
            yield host, int(port)

    @staticmethod
    def _exchange(addr, method, path, body=None):
        conn = http.client.HTTPConnection(*addr, timeout=5.0)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_token_in_request_is_400(self, addr, token):
        body = ('{"protocol": %d, "requests": [], "x": %s}'
                % (PROTOCOL_VERSION, token)).encode()
        status, raw = self._exchange(addr, "POST", ROUTE_FIT, body)
        assert status == 400
        doc = _strict_loads(raw)
        assert doc["error"] == "bad-request"
        assert token in doc["message"]

    def test_unencodable_response_is_a_strict_500(self, addr):
        status, raw = self._exchange(addr, "GET", "/nan")
        assert status == 500
        doc = _strict_loads(raw)
        assert doc["ok"] is False and doc["error"] == "internal"

    def test_oversized_body_is_413_before_reading(self, addr):
        with socket.create_connection(addr, timeout=5.0) as sock:
            sock.sendall(b"POST /v1/fit HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 1000000000\r\n\r\n{}")
            raw = b""
            while True:  # the server closes after answering
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413")
        doc = _strict_loads(body)
        assert doc["error"] == "too-large"
        assert str(MAX_BODY_BYTES) in doc["message"]
        assert self._exchange(addr, "GET", "/healthz")[0] == 200
