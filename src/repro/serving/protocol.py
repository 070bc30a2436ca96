"""The serving tier's wire protocol: one small versioned JSON dialect.

Every HTTP endpoint in :mod:`repro.serving` speaks JSON documents built
from the helpers here, stamped with :data:`PROTOCOL_VERSION` so clients
and servers from different checkouts refuse each other loudly instead
of mis-parsing silently.  The protocol is deliberately tiny:

=======================  ==============================================
``GET /healthz``          liveness: ``{"ok", "role", "protocol"}``
``GET /version``          protocol + schema versions, cache dir, and an
                          engine-capabilities snapshot
``GET /metrics``          Prometheus exposition of the server process's
                          :class:`~repro.obs.metrics.MetricsRegistry`
``POST /v1/fit``          fit a batch of canonical job documents
                          (:meth:`repro.api.FitRequest.to_dict`) and
                          return cache-entry result documents
``POST /v1/infer``        run one inference request through the
                          micro-batching daemon (``serve-infer``)
``GET /v1/models``        the models ``serve-infer`` holds hot
=======================  ==============================================

Array payloads travel as ``{"shape", "dtype", "data"}`` documents whose
``data`` is the standard base64 of the array's C-order little-endian
bytes, so a round trip reconstructs the exact ndarray bit for bit (NaN
payloads and signed zeros included) and the JSON carries one string per
array instead of one number text per element.  Only bool, integer and
float arrays cross the wire; :func:`decode_array` refuses anything else
with a ``ValueError`` (a 400 upstream).  Documents are strict JSON: the
servers never emit, and refuse to read, ``NaN`` / ``Infinity`` tokens,
and refuse a request body longer than :data:`MAX_BODY_BYTES` unread.

This module is a leaf: stdlib + numpy only, importable from both the
``repro.api`` client side and the ``repro.service`` daemon side without
cycles.
"""

from __future__ import annotations

import base64
import math
from typing import Any, Dict, Optional, Tuple

import numpy as np

#: Bump when a request/response document changes shape.  Version 2
#: carries array data as base64 bytes (version 1 sent number lists).
PROTOCOL_VERSION = 2

#: Largest request body a server reads, in bytes.  A longer declared
#: ``Content-Length`` is answered with 413 before any of it is read.
#: A 64-sample 3x32x32 float64 zoo feed is about 2 MiB on the wire.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Environment variables the serving tier reads.
ENV_SERVE_ADDR = "REPRO_SERVE_ADDR"          # fit server host:port
ENV_INFER_ADDR = "REPRO_INFER_ADDR"          # infer server host:port
ENV_INFER_BATCH_MS = "REPRO_INFER_BATCH_MS"  # micro-batch window

#: Default bind/connect ports (fit and infer tiers are distinct
#: daemons and may share a host).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_FIT_PORT = 8173
DEFAULT_INFER_PORT = 8174

#: Route table (shared by servers, clients, and the docs).
ROUTE_HEALTH = "/healthz"
ROUTE_VERSION = "/version"
ROUTE_METRICS = "/metrics"
ROUTE_FIT = "/v1/fit"
ROUTE_INFER = "/v1/infer"
ROUTE_MODELS = "/v1/models"


def parse_addr(text: Optional[str],
               default_port: int = DEFAULT_FIT_PORT) -> Tuple[str, int]:
    """``"host:port"`` / ``"host"`` / ``":port"`` into ``(host, port)``.

    Raises ``ValueError`` on a malformed port so a typo'd
    ``REPRO_SERVE_ADDR`` fails at startup, not at first request.
    """
    if not text:
        return DEFAULT_HOST, default_port
    text = text.strip()
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        host = host or DEFAULT_HOST
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(
                f"malformed serving address {text!r}: port "
                f"{port_text!r} is not an integer") from None
    else:
        host, port = text, default_port
    if not (0 <= port <= 65535):
        raise ValueError(f"malformed serving address {text!r}: "
                         f"port {port} out of range")
    return host, port


def format_addr(host: str, port: int) -> str:
    """The canonical ``host:port`` rendering of a bound address."""
    return f"{host}:{port}"


def error_doc(code: str, message: str, **extra: Any) -> Dict[str, Any]:
    """The error envelope every non-2xx response carries."""
    doc: Dict[str, Any] = {"ok": False, "error": code, "message": message,
                           "protocol": PROTOCOL_VERSION}
    doc.update(extra)
    return doc


def check_protocol(doc: Dict[str, Any]) -> Optional[str]:
    """``None`` when the document's protocol matches; else the reason.

    A missing field is accepted (same-version clients may omit it on
    GETs); a *different* version is refused.
    """
    got = doc.get("protocol", PROTOCOL_VERSION)
    if got != PROTOCOL_VERSION:
        return (f"protocol version {got!r} incompatible with server "
                f"protocol {PROTOCOL_VERSION}")
    return None


# --------------------------------------------------------------------- #
# Array documents
# --------------------------------------------------------------------- #
#: Element kinds an array document may carry: bool, signed and
#: unsigned integers, floats.
_ARRAY_KINDS = "biuf"


def encode_array(arr: np.ndarray) -> Dict[str, Any]:
    """An ndarray as a JSON-native document: shape, native dtype name,
    and the base64 of its C-order little-endian bytes (lossless)."""
    arr = np.asarray(arr)
    wire = np.asarray(arr, dtype=arr.dtype.newbyteorder("<"))
    return {"shape": list(arr.shape),
            "dtype": str(arr.dtype.newbyteorder("=")),
            "data": base64.b64encode(wire.tobytes()).decode("ascii")}


def decode_array(doc: Dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`encode_array`: an owned, writable,
    native-endian array.

    The one validation point for arrays from the wire: raises
    ``ValueError`` unless the shape is a list of non-negative integers,
    the dtype names a bool/int/uint/float type, and ``data`` is strict
    base64 of exactly ``prod(shape) * itemsize`` bytes.
    """
    try:
        shape, name, data = doc["shape"], doc["dtype"], doc["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed array document: {exc!r}") from None
    if not isinstance(shape, list) or not all(
            type(d) is int and d >= 0 for d in shape):
        raise ValueError(f"array shape must be a list of non-negative "
                         f"integers, got {shape!r}")
    try:
        dtype = np.dtype(name) if isinstance(name, str) else None
    except (TypeError, ValueError, SyntaxError):
        # numpy parses comma-separated field lists as Python literals.
        dtype = None
    if dtype is None or dtype.kind not in _ARRAY_KINDS:
        raise ValueError(f"array dtype must be bool, int, uint or float, "
                         f"got {name!r}")
    if not isinstance(data, str):
        raise ValueError(f"array data must be a base64 string (protocol "
                         f"{PROTOCOL_VERSION}), got {type(data).__name__}")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error: bad padding or alphabet
        raise ValueError(f"array data is not strict base64: {exc}") from None
    expected = math.prod(shape) * dtype.itemsize
    if len(raw) != expected:
        raise ValueError(
            f"array document declares shape {tuple(shape)} of {dtype} "
            f"({expected} bytes) but carries {len(raw)} bytes")
    wire = np.frombuffer(raw, dtype=dtype.newbyteorder("<"))
    return wire.reshape(shape).astype(dtype.newbyteorder("="))


__all__ = [
    "DEFAULT_FIT_PORT",
    "DEFAULT_HOST",
    "DEFAULT_INFER_PORT",
    "ENV_INFER_ADDR",
    "ENV_INFER_BATCH_MS",
    "ENV_SERVE_ADDR",
    "MAX_BODY_BYTES",
    "PROTOCOL_VERSION",
    "ROUTE_FIT",
    "ROUTE_HEALTH",
    "ROUTE_INFER",
    "ROUTE_METRICS",
    "ROUTE_MODELS",
    "ROUTE_VERSION",
    "check_protocol",
    "decode_array",
    "encode_array",
    "error_doc",
    "format_addr",
    "parse_addr",
]
