"""Shared HTTP machinery of the serving tier (stdlib only).

One :class:`ServingHTTPServer` (a ``ThreadingHTTPServer``) dispatches
requests to a :class:`ServingApp` — the small object a concrete server
(the ``repro serve --addr`` fit listener, ``serve-infer``) implements.  The base app owns the
three endpoints every repro server answers identically:

* ``GET /healthz`` — liveness probe for clients and CI;
* ``GET /version`` — protocol/schema versions, cache dir, and a
  capabilities snapshot (:meth:`ServingApp.version_doc`);
* ``GET /metrics`` — the process :class:`~repro.obs.metrics
  .MetricsRegistry` in Prometheus exposition format.

Fault-injection sites (chaos suite coverage of torn requests, stalls,
and mid-flight kills):

* ``serving.accept`` — connection accept (``check``: refused / stalled
  accepts, crash verbs kill the acceptor exactly like a SIGKILL);
* ``serving.read``   — request-body read (``check`` + ``corrupt``: a
  torn or mangled request body must 400, never crash the server);
* ``serving.write``  — response write (``check`` + ``drop``: a dropped
  write closes the connection with no response — the client sees the
  same thing a mid-flight server kill produces).

Every body in both directions is strict JSON: a request holding a
``NaN`` / ``Infinity`` token is a 400, and a response document that
cannot be encoded that way goes out as a 500 error document.  A
declared body longer than :data:`~repro.serving.protocol.MAX_BODY_BYTES`
is refused with 413 before any of it is read.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from .. import __version__
from ..faults import get_faults
from ..obs.metrics import get_metrics
from .protocol import (MAX_BODY_BYTES, PROTOCOL_VERSION, ROUTE_HEALTH,
                       ROUTE_METRICS, ROUTE_VERSION, error_doc, format_addr)

#: (status, document, extra headers) — what an app route returns.
Response = Tuple[int, Dict[str, Any], Optional[Dict[str, str]]]


class ServingApp:
    """Routing + the endpoints shared by every repro server."""

    #: Advertised in ``/healthz`` and ``/version`` (``"fit"``,
    #: ``"infer"``).
    role = "serving"

    def handle(self, method: str, path: str,
               body: Optional[Dict[str, Any]]) -> Response:
        """Dispatch one request; subclasses route their own paths and
        fall back to ``super().handle`` for the shared ones."""
        if method == "GET" and path == ROUTE_HEALTH:
            return 200, self.health_doc(), None
        if method == "GET" and path == ROUTE_VERSION:
            return 200, self.version_doc(), None
        return 404, error_doc("not-found", f"no route {method} {path}"), None

    def health_doc(self) -> Dict[str, Any]:
        return {"ok": True, "role": self.role,
                "protocol": PROTOCOL_VERSION}

    def version_doc(self) -> Dict[str, Any]:
        """Protocol/schema versions plus a capabilities snapshot."""
        from ..api.artifact import ARTIFACT_SCHEMA_VERSION
        from ..core.batchfit import CACHE_SCHEMA_VERSION

        return {"ok": True, "role": self.role,
                "protocol": PROTOCOL_VERSION,
                "version": __version__,
                "schemas": {"artifact": ARTIFACT_SCHEMA_VERSION,
                            "cache": CACHE_SCHEMA_VERSION},
                "cache_dir": self.cache_dir(),
                "capabilities": self.capabilities()}

    def cache_dir(self) -> Optional[str]:
        """The cache directory the server fits/serves from, if any."""
        return None

    def capabilities(self) -> Dict[str, Any]:
        """Static facts clients may route on; subclass-specific."""
        return {}

    def close(self) -> None:
        """Release app-held resources (idempotent)."""


class _BodyTooLarge(Exception):
    """A declared request body above :data:`MAX_BODY_BYTES` (→ 413)."""


def _refuse_constant(token: str) -> Any:
    """``json.loads`` hook for the non-standard ``NaN`` / ``Infinity`` /
    ``-Infinity`` tokens: a ``ValueError``, answered with 400."""
    raise ValueError(f"non-standard JSON token {token!r}")


class _Handler(BaseHTTPRequestHandler):
    """JSON-in/JSON-out request handler over a :class:`ServingApp`."""

    protocol_version = "HTTP/1.1"
    server_version = f"repro-serving/{__version__}"
    # Response header block and body leave in separate writes; with
    # Nagle on, the kernel holds the second segment for the client's
    # delayed ACK (~40ms per round trip on loopback).
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: Any) -> None:
        pass  # request logging is the metrics registry's job

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:
        if self.path == ROUTE_METRICS:
            self._send_text(200, get_metrics().render_prometheus())
            return
        self._dispatch("GET", None)

    def do_POST(self) -> None:
        try:
            body = self._read_body()
        except _BodyTooLarge as exc:
            # Refused unread: closing the connection discards whatever
            # of the body the client still sends.
            self.close_connection = True
            self._refuse(413, "too-large", str(exc))
            return
        except (ValueError, UnicodeDecodeError) as exc:
            self._refuse(400, "bad-request", f"undecodable body: {exc}")
            return
        self._dispatch("POST", body)

    def _refuse(self, status: int, code: str, message: str) -> None:
        get_metrics().counter("serving.http.bad_requests",
                              role=self._app().role).inc()
        self._send_json(status, error_doc(code, message))

    def _app(self) -> ServingApp:
        return self.server.app  # type: ignore[attr-defined]

    def _dispatch(self, method: str, body: Optional[Dict[str, Any]]
                  ) -> None:
        app = self._app()
        try:
            status, doc, headers = app.handle(method, self.path, body)
        except Exception as exc:  # route bug: answer 500, keep serving
            get_metrics().counter("serving.http.errors",
                                  role=app.role).inc()
            status, doc, headers = 500, error_doc(
                "internal", f"unhandled server error: {exc!r}"), None
        self._send_json(status, doc, headers)

    # ------------------------------------------------------------------ #
    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(f"request body of {length} bytes exceeds "
                                f"the {MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length > 0 else b""
        # Injectable torn/mangled request: the decode below must turn
        # it into a 400, never a handler crash.
        get_faults().check("serving.read")
        text = get_faults().corrupt("serving.read", raw.decode("utf-8"))
        if not text:
            return {}
        doc = json.loads(text, parse_constant=_refuse_constant)
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got "
                             f"{type(doc).__name__}")
        return doc

    def _send_json(self, status: int, doc: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        role = self._app().role
        try:
            text = json.dumps(doc, allow_nan=False)
        except (TypeError, ValueError) as exc:  # NaN, inf, non-JSON type
            get_metrics().counter("serving.http.errors", role=role).inc()
            status, headers = 500, None
            text = json.dumps(error_doc(
                "internal", f"unencodable response document: {exc}"))
        get_metrics().counter("serving.http.responses", role=role,
                              status=str(status)).inc()
        self._send_bytes(status, text.encode("utf-8"), "application/json",
                         headers)

    def _send_text(self, status: int, text: str) -> None:
        self._send_bytes(status, text.encode("utf-8"),
                         "text/plain; charset=utf-8", None)

    def _send_bytes(self, status: int, body: bytes, content_type: str,
                    headers: Optional[Dict[str, str]]) -> None:
        # Injectable write failure: a raised error or a dropped write
        # looks to the client exactly like a server killed mid-flight
        # (connection closed, no/partial response).
        get_faults().check("serving.write")
        if get_faults().drop("serving.write"):
            self.close_connection = True
            return
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)


class ServingHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`ServingApp`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], app: ServingApp) -> None:
        super().__init__(address, _Handler)
        self.app = app

    def get_request(self):  # type: ignore[override]
        get_faults().check("serving.accept")
        return super().get_request()

    @property
    def bound_addr(self) -> str:
        """The actual ``host:port`` (port 0 resolved to the real one)."""
        host, port = self.server_address[0], self.server_address[1]
        return format_addr(str(host), int(port))

    def handle_error(self, request, client_address) -> None:
        # A client hanging up mid-response (or an injected write fault)
        # must not spray tracebacks; count it and move on.
        get_metrics().counter("serving.http.aborted",
                              role=self.app.role).inc()


class ServerThread:
    """A :class:`ServingHTTPServer` on a background thread.

    Context-manager shaped so tests and embedded servers (benchmarks,
    the property suite) get deterministic startup/teardown::

        with ServerThread(ServingHTTPServer(addr, app)) as addr:
            ...  # server answering on addr
    """

    def __init__(self, server: ServingHTTPServer) -> None:
        self.server = server
        self._thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True, name=f"repro-{server.app.role}-http")

    def start(self) -> str:
        self._thread.start()
        return self.server.bound_addr

    def stop(self) -> None:
        # shutdown() waits for serve_forever to acknowledge: on a loop
        # that never started it would wait forever.
        if self._thread.is_alive():
            self.server.shutdown()
            self._thread.join(timeout=5.0)
        self.server.server_close()
        self.server.app.close()

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


__all__ = ["Response", "ServerThread", "ServingApp", "ServingHTTPServer"]
