"""The network serving tier: HTTP front-ends for fitting and inference.

Submodules (imported directly, on purpose — this package initialiser
only re-exports the leaf protocol so ``repro.service`` ↔
``repro.serving`` stays cycle-free):

* :mod:`repro.serving.protocol` — the versioned JSON wire protocol;
* :mod:`repro.serving.http` — shared server machinery (threaded HTTP
  server, ``/healthz`` / ``/version`` / ``/metrics``, fault sites);
* :mod:`repro.serving.client` — :class:`ServingClient`, the one HTTP
  client, used by the remote engine, the CLI, and the benchmarks;
* :mod:`repro.serving.fit_server` — the fit daemon's HTTP listener
  (``repro serve --addr``: the fit service over the network);
* :mod:`repro.serving.infer_server` — ``repro serve-infer`` (hot
  compiled Programs with micro-batching).
"""

from .protocol import (DEFAULT_FIT_PORT, DEFAULT_HOST, DEFAULT_INFER_PORT,
                       ENV_INFER_ADDR, ENV_INFER_BATCH_MS, ENV_SERVE_ADDR,
                       PROTOCOL_VERSION, format_addr, parse_addr)

__all__ = [
    "DEFAULT_FIT_PORT",
    "DEFAULT_HOST",
    "DEFAULT_INFER_PORT",
    "ENV_INFER_ADDR",
    "ENV_INFER_BATCH_MS",
    "ENV_SERVE_ADDR",
    "PROTOCOL_VERSION",
    "format_addr",
    "parse_addr",
]
