"""HTTP client for the serving tier (stdlib ``http.client`` only).

:class:`ServingClient` is the one way the rest of the package talks to
a ``repro serve --addr`` / ``serve-infer`` daemon: the HTTP transport
of :class:`~repro.api.engines.RemoteEngine`, the CLI smoke paths, and
the benchmark harness all go through it, so transport-error
classification lives in exactly one place:

* connection refused / reset / timeout → ``OSError`` — retryable by
  :class:`~repro.service.retry.RetryPolicy` and an *engine-level*
  failure for the Session chain;
* HTTP 429 → :class:`ServerBusy` (a ``TransientError``) carrying the
  server's ``Retry-After`` — retryable backpressure, not a fault;
* any other non-2xx → :class:`ServerError` (a ``ServiceError``) with
  the server's error document — permanent for this request;
* protocol-version mismatch → ``ServerError`` at the first response,
  so incompatible checkouts refuse each other loudly.
"""

from __future__ import annotations

import http.client
import json
import socket
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import ServiceError, TransientError
from ..obs import clock
from ..obs.metrics import get_metrics
from ..service.retry import RetryPolicy
from .protocol import (DEFAULT_FIT_PORT, PROTOCOL_VERSION, ROUTE_FIT,
                       ROUTE_HEALTH, ROUTE_INFER, ROUTE_MODELS,
                       ROUTE_VERSION, check_protocol, decode_array,
                       encode_array, parse_addr)


class ServerBusy(TransientError):
    """429 backpressure: the server's queue is full; retry later."""

    def __init__(self, message: str, retry_after_s: float = 0.05) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServerError(ServiceError):
    """A non-2xx, non-429 response; carries the server's error doc."""

    def __init__(self, status: int, doc: Dict[str, Any]) -> None:
        super().__init__(f"server returned {status}: "
                         f"{doc.get('message', doc.get('error', '?'))}")
        self.status = status
        self.doc = doc


class ServingClient:
    """JSON client for one serving daemon; one connection, reopened
    on transport failure; thread-compatible via per-call locking-free
    use (callers needing concurrency hold one client per thread)."""

    def __init__(self, addr: Union[str, Tuple[str, int], None],
                 timeout_s: float = 10.0,
                 default_port: int = DEFAULT_FIT_PORT,
                 retry: Optional[RetryPolicy] = None) -> None:
        if isinstance(addr, tuple):
            self.host, self.port = addr[0], int(addr[1])
        else:
            self.host, self.port = parse_addr(addr, default_port)
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s)
            conn.connect()
            # Request headers and body leave in separate writes; with
            # Nagle on, the second waits out the server's delayed ACK
            # (~40ms per request, dwarfing any micro-batching win).
            conn.sock.setsockopt(socket.IPPROTO_TCP,
                                 socket.TCP_NODELAY, 1)
            self._conn = conn
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _request_once(self, method: str, path: str,
                      doc: Optional[Dict[str, Any]]
                      ) -> Tuple[int, Dict[str, Any], float]:
        body = None
        headers = {}
        if doc is not None:
            body = json.dumps(doc).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            status = resp.status
            raw = resp.read()
            retry_after = float(resp.headers.get("Retry-After", 0.05) or
                                0.05)
        except (http.client.HTTPException, socket.timeout, OSError) as exc:
            # Any torn transport invalidates the kept-alive connection.
            self.close()
            if isinstance(exc, OSError):
                raise
            raise ConnectionError(f"{method} {path} to "
                                  f"{self.host}:{self.port} failed: "
                                  f"{exc!r}") from exc
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError) as exc:
            self.close()
            raise ConnectionError(f"undecodable response for {method} "
                                  f"{path}: {exc!r}") from exc
        if not isinstance(payload, dict):
            payload = {"body": payload}
        return status, payload, retry_after

    def request(self, method: str, path: str,
                doc: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """One request under the retry policy; returns the 2xx doc.

        Raises ``ServerBusy`` once the 429 retry budget is exhausted,
        ``ServerError`` for other non-2xx, ``OSError`` for transport.
        """
        def attempt() -> Dict[str, Any]:
            t0 = clock.mono()
            status, payload, retry_after = self._request_once(
                method, path, doc)
            get_metrics().histogram(
                "serving.client.latency_s", route=path).observe(
                    clock.mono() - t0)
            get_metrics().counter("serving.client.requests", route=path,
                                  status=str(status)).inc()
            if status == 429:
                raise ServerBusy(
                    payload.get("message", "server busy"),
                    retry_after_s=retry_after)
            if not (200 <= status < 300):
                raise ServerError(status, payload)
            mismatch = check_protocol(payload)
            if mismatch is not None:
                raise ServerError(status, {"error": "protocol",
                                           "message": mismatch})
            return payload

        def on_retry(attempt_no: int, exc: BaseException) -> None:
            get_metrics().counter("serving.client.retries",
                                  route=path).inc()

        return self.retry.call(attempt, label=f"{method} {path}",
                               on_retry=on_retry)

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def healthz(self) -> Dict[str, Any]:
        return self.request("GET", ROUTE_HEALTH)

    def version(self) -> Dict[str, Any]:
        return self.request("GET", ROUTE_VERSION)

    def alive(self, timeout_s: float = 1.0) -> bool:
        """One cheap liveness probe — no retries, short timeout."""
        probe = ServingClient((self.host, self.port), timeout_s=timeout_s,
                              retry=RetryPolicy(max_attempts=1))
        try:
            doc = probe.healthz()
            return bool(doc.get("ok"))
        except (OSError, ServiceError, TransientError):
            return False
        finally:
            probe.close()

    def fit(self, jobs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """POST job documents; returns per-job result documents
        (``{"key", "entry", "from_cache", "wall_time_s"}`` or
        ``{"error": ...}``), order-aligned with ``jobs``."""
        doc = {"protocol": PROTOCOL_VERSION, "requests": list(jobs)}
        payload = self.request("POST", ROUTE_FIT, doc)
        results = payload.get("results")
        if not isinstance(results, list) or len(results) != len(jobs):
            raise ServerError(200, {
                "error": "protocol",
                "message": f"fit response carries "
                           f"{len(results) if isinstance(results, list) else 'no'} "
                           f"results for {len(jobs)} jobs"})
        return results

    def infer(self, model: str, feeds: Dict[str, np.ndarray]
              ) -> Dict[str, np.ndarray]:
        """Run one request through ``serve-infer``; feeds/outputs are
        ndarray documents (lossless dtype round-trip)."""
        doc = {"protocol": PROTOCOL_VERSION, "model": model,
               "feeds": {name: encode_array(arr)
                         for name, arr in feeds.items()}}
        payload = self.request("POST", ROUTE_INFER, doc)
        outputs = payload.get("outputs")
        if not isinstance(outputs, dict):
            raise ServerError(200, {"error": "protocol",
                                    "message": "infer response carries "
                                               "no outputs"})
        return {name: decode_array(arr_doc)
                for name, arr_doc in outputs.items()}

    def models(self) -> Dict[str, Any]:
        return self.request("GET", ROUTE_MODELS)


__all__ = ["ServerBusy", "ServerError", "ServingClient"]
