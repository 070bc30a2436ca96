"""In-process metrics: counters, gauges, histograms; Prometheus + JSON.

One :class:`MetricsRegistry` holds named instruments, each optionally
labelled::

    m = get_metrics()
    m.counter("session.cache.hit").inc()
    m.gauge("service.queue.depth", state="pending").set(12)
    m.histogram("fit.wall_s").observe(0.81)

``registry.snapshot()`` is the JSON-native view (what the service
daemon exports next to its heartbeat); ``registry.render_prometheus()``
is the text exposition format, dots mapped to underscores — the
serving tier exposes it verbatim on ``GET /metrics``.

Instruments are memoised by ``(name, labels)`` — an instrument handle
can be cached by hot callers, making an increment one lock + one add.
The registry is process-wide (:func:`get_metrics`) and always exists;
recording is cheap enough that metrics, unlike tracing and histogram
capture, need no enable switch.

The resilience layer (retries, circuit breakers, dead-lettering,
quarantine) reports through these families:

* ``service.jobs.dead`` — jobs moved to the terminal ``dead/`` state
  after exhausting their claim budget (poison jobs);
* ``service.jobs.retries`` / ``service.client.retries`` — daemon-side
  and client-side ``RetryPolicy`` attempts beyond the first;
* ``service.loop.io_errors`` — serve-loop cycles skipped on transient
  queue I/O failures;
* ``cache.quarantined`` — cache entries moved aside as corrupt
  (torn write, checksum mismatch, foreign schema);
* ``session.engine.failover`` — failover-chain steps taken past a
  failed engine, labelled by the engine that failed;
* ``session.breaker.opened`` / ``session.breaker.skipped`` /
  ``session.breaker.state`` — circuit-breaker trips, engines skipped
  while a breaker was open, and the per-engine state gauge
  (0=closed, 1=half-open, 2=open).

The network serving tier adds:

* ``serving.http.responses`` (``role``, ``status``) /
  ``serving.http.bad_requests`` / ``serving.http.errors`` /
  ``serving.http.aborted`` — per-daemon HTTP outcomes;
* ``serving.fit.requests`` / ``serving.fit.jobs`` /
  ``serving.fit.jobs_failed`` / ``serving.fit.batch_jobs`` /
  ``serving.fit.latency_s`` / ``serving.fit.rejected`` — fit batches
  served by the ``repro serve --addr`` listener and its 429
  backpressure rejections;
* ``serving.infer.requests`` / ``serving.infer.batches`` /
  ``serving.infer.batch_size`` / ``serving.infer.batch_occupancy`` /
  ``serving.infer.batch_latency_s`` / ``serving.infer.latency_s`` /
  ``serving.infer.batch_failures`` / ``serving.infer.rejected``
  (per ``model``) — micro-batching shape and latency of
  ``serve-infer``;
* ``serving.client.requests`` / ``serving.client.retries`` /
  ``serving.client.latency_s`` (per ``route``) — the client side, as
  seen by :class:`~repro.serving.client.ServingClient`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_metrics",
    "reset_metrics",
]

#: Default histogram bucket upper bounds (seconds-flavoured, but any
#: positive quantity works; +inf is implicit).
DEFAULT_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_suffix(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing value."""

    kind = "counter"

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self.value += n

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """Point-in-time value (set / add)."""

    kind = "gauge"

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, v: float) -> None:
        with self._lock:
            self.value = float(v)

    def add(self, n: float = 1.0) -> None:
        with self._lock:
            self.value += n

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value}


class Histogram:
    """Cumulative-bucket histogram with count / sum / min / max."""

    kind = "histogram"

    __slots__ = ("_lock", "bounds", "buckets", "count", "sum", "min", "max")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self._lock = threading.Lock()
        self.bounds: Tuple[float, ...] = tuple(sorted(buckets))
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)  # +inf last
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, v: float) -> None:
        v = float(v)
        with self._lock:
            # bisect_left: a value equal to a bound lands in that
            # bound's bucket (Prometheus ``le`` semantics).
            self.buckets[bisect_left(self.bounds, v)] += 1
            self.count += 1
            self.sum += v
            self.min = v if self.min is None else min(self.min, v)
            self.max = v if self.max is None else max(self.max, v)

    @property
    def mean(self) -> Optional[float]:
        return (self.sum / self.count) if self.count else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Named, labelled instruments with memoised handles."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> (kind, {label_key -> instrument})
        self._families: Dict[str, Tuple[str, Dict[LabelKey, Any]]] = {}

    def _get(self, name: str, kind: str, factory: Any,
             labels: Dict[str, Any]) -> Any:
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = (kind, {})
                self._families[name] = family
            elif family[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family[0]}, "
                    f"requested as {kind}")
            instrument = family[1].get(key)
            if instrument is None:
                instrument = factory()
                family[1][key] = instrument
            return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(name, Counter.kind, Counter, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(name, Gauge.kind, Gauge, labels)

    def histogram(self, name: str,
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        return self._get(name, Histogram.kind,
                         lambda: Histogram(buckets), labels)

    def clear(self) -> None:
        with self._lock:
            self._families.clear()

    # -- export -------------------------------------------------------- #
    def snapshot(self) -> Dict[str, Any]:
        """JSON-native dump: name -> {kind, series: [{labels, ...}]}."""
        out: Dict[str, Any] = {}
        with self._lock:
            families = {name: (kind, dict(series))
                        for name, (kind, series) in self._families.items()}
        for name in sorted(families):
            kind, series = families[name]
            out[name] = {
                "kind": kind,
                "series": [dict(labels=dict(key), **inst.to_dict())
                           for key, inst in sorted(series.items())],
            }
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition (dots become underscores)."""
        lines: List[str] = []
        with self._lock:
            families = {name: (kind, dict(series))
                        for name, (kind, series) in self._families.items()}
        for name in sorted(families):
            kind, series = families[name]
            prom = "repro_" + name.replace(".", "_").replace("-", "_")
            lines.append(f"# TYPE {prom} {kind}")
            for key, inst in sorted(series.items()):
                suffix = _label_suffix(key)
                if kind == Histogram.kind:
                    cumulative = 0
                    for bound, count in zip(
                            list(inst.bounds) + [float("inf")],
                            inst.buckets):
                        cumulative += count
                        label = dict(key)
                        label["le"] = ("+Inf" if bound == float("inf")
                                       else f"{bound:g}")
                        lines.append(
                            f"{prom}_bucket{_label_suffix(_label_key(label))}"
                            f" {cumulative}")
                    lines.append(f"{prom}_sum{suffix} {inst.sum:g}")
                    lines.append(f"{prom}_count{suffix} {inst.count}")
                else:
                    lines.append(f"{prom}{suffix} {inst.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------- #
# Process-wide registry
# --------------------------------------------------------------------- #
_registry = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide default registry."""
    return _registry


def reset_metrics() -> None:
    """Drop every instrument in the default registry (tests)."""
    _registry.clear()
