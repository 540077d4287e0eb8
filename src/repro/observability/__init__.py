"""Unified observability layer (ISSUE 10).

One subsystem, three concerns, threaded through every layer of the
engine:

* :mod:`repro.observability.metrics` — lock-cheap Counter and
  Histogram primitives (per-thread sharding, pre-bucketed latency
  histograms) behind a registry with Prometheus text exposition; the
  endpoint serves it at ``GET /metrics``.
* :mod:`repro.observability.tracing` — request ids (``X-Request-Id``),
  trace annotations for the structured access log, and the EXPLAIN
  ANALYZE probe that collects per-operator elapsed/rows/loops inside
  compiled plans; all three ride on the one per-request
  :class:`~repro.context.RequestContext`.
* :mod:`repro.observability.querylog` — the ring-buffered slow-query
  log behind ``GET /admin/slow-queries``.

Everything is engineered to cost nothing when disarmed: incrementing a
counter is one thread-local cell update, the trace, probe, deadline and
fault checks share one context read per statement, and instance state
(WAL status, replica lag, admission depth) is read once per request
into the one gather ``/health``, ``/ready``, ``/admin/stats`` and
``/metrics`` render — monotonic counts typed as counters, levels as
gauges — instead of hot-path double bookkeeping.
"""

from .metrics import (
    Counter,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    REGISTRY,
    lint_exposition,
    render_exposition,
)
from .querylog import QueryLog
from .tracing import AnalyzeProbe, annotate, new_request_id, request_scope

__all__ = [
    "AnalyzeProbe",
    "Counter",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "QueryLog",
    "REGISTRY",
    "annotate",
    "lint_exposition",
    "new_request_id",
    "render_exposition",
    "request_scope",
]
