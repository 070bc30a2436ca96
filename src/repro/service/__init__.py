"""Fit service: shared fitting behind a durable file-backed queue.

The Section-IV fitting loop is the reproduction's hot path, and every
sweep (Fig. 5 budget grids, Table II/III rows, zoo ablations) used to
bring its own process pool and refit what another process had already
fitted.  This subsystem centralises that:

* :mod:`~repro.service.daemon` — ``repro serve``: one long-running
  process fits every claimed batch through one
  :class:`~repro.api.Session` on the ``pool`` engine (a process pool
  per batch) against the shared on-disk fit cache, and with ``--addr``
  serves the same fits over HTTP (:mod:`repro.serving.fit_server`);
* :mod:`~repro.service.queue` — the durable job queue (atomic claim via
  ``os.replace``, deduplicated by fit-cache key);
* :mod:`~repro.service.client` — ``submit`` / ``wait``, the primitives
  the queue transport of :class:`repro.api.RemoteEngine` builds on;
* :mod:`~repro.service.spec` — :class:`FunctionSpec`, the serialisable
  function description that lets unregistered (``make_custom``-built)
  activations travel to worker processes and be cache-keyed by content.

Each public name loads its submodule on first access (see
:mod:`repro`): the engines import :mod:`~repro.service.retry` alone,
so a process that never touches the queue loads neither it nor the
daemon.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .client import submit, wait
    from .daemon import FitService, ServiceConfig
    from .queue import JobQueue, default_service_dir
    from .spec import FunctionSpec, as_spec

#: Public name -> defining submodule.
_LAZY = {
    "submit": "client",
    "wait": "client",
    "FitService": "daemon",
    "ServiceConfig": "daemon",
    "JobQueue": "queue",
    "default_service_dir": "queue",
    "FunctionSpec": "spec",
    "as_spec": "spec",
}

__getattr__, __dir__ = _lazy_exports(__name__, _LAZY)

__all__ = [
    "FitService",
    "FunctionSpec",
    "JobQueue",
    "ServiceConfig",
    "as_spec",
    "default_service_dir",
    "submit",
    "wait",
]
