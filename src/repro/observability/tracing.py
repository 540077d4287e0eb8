"""Request ids, trace annotations and EXPLAIN ANALYZE instrumentation
(ISSUE 10).

All three ride on the one per-request
:class:`~repro.context.RequestContext`, installed at the serving
boundary and read deep in the stack for the cost of one thread-local
read:

* **Request id** — :func:`request_scope` carries the ``X-Request-Id``
  (caller-supplied or :func:`new_request_id`) through
  Session → executor → error responses, so one id joins the client's
  retries, the server's access-log line, and the slow-query entry.
* **Trace record** — the endpoint gives each admitted request a mutable
  dict that any layer may :func:`annotate` (rows, used_sql, backend);
  it becomes the structured JSON access-log line.  ``annotate`` is a
  no-op when no trace is active.
* **Analyze probe** — a context entered with an :class:`AnalyzeProbe`
  arms per-operator timing/row/loop collection inside the planner's
  compiled plans (the EXPLAIN ANALYZE machinery).  Disarmed, plans pay
  one context read per *statement*, never per row.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from ..context import RequestContext, current_context

__all__ = [
    "AnalyzeProbe",
    "OperatorStats",
    "annotate",
    "new_request_id",
    "request_scope",
]


# ---------------------------------------------------------------------------
# request ids and trace annotations
# ---------------------------------------------------------------------------

def new_request_id() -> str:
    """A fresh 16-hex-char request id."""
    return uuid.uuid4().hex[:16]


def sanitize_request_id(raw: Optional[str]) -> Optional[str]:
    """A header-safe version of a caller-supplied id, or None.

    Ids are echoed into response headers and log lines, so control
    characters are stripped and length is capped.
    """
    if not raw:
        return None
    cleaned = "".join(ch for ch in raw if 32 <= ord(ch) < 127)[:128].strip()
    return cleaned or None


@contextmanager
def request_scope(request_id: Optional[str] = None) -> Iterator[str]:
    """Install a request id for the ``with`` block (generated if None).

    Nested scopes keep the outer id: a client helper that opens a scope
    around a logical operation keeps one id across retries and failover.
    """
    with RequestContext(request_id=request_id or new_request_id()) as context:
        yield context.request_id


def annotate(**fields: Any) -> None:
    """Merge fields into the active trace record (no-op without one)."""
    trace = current_context().trace
    if trace is not None:
        trace.update(fields)


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE probe
# ---------------------------------------------------------------------------

class OperatorStats:
    """Timing and cardinality for one plan operator.

    ``elapsed_s`` is *inclusive* pipeline time: how long callers spent
    pulling rows out of this operator, including everything beneath it —
    the same convention EXPLAIN ANALYZE uses elsewhere.  ``loops``
    counts how many times the operator was (re)opened.
    """

    __slots__ = ("describe", "elapsed_s", "rows", "loops")

    def __init__(self, describe: str) -> None:
        self.describe = describe
        self.elapsed_s = 0.0
        self.rows = 0
        self.loops = 0

    def report(self) -> Dict[str, Any]:
        return {
            "operator": self.describe,
            "elapsed_us": round(self.elapsed_s * 1e6, 3),
            "rows": self.rows,
            "loops": self.loops,
        }


class AnalyzeProbe:
    """Collects per-operator stats for the statements run under it."""

    def __init__(self) -> None:
        self._stats: Dict[Any, OperatorStats] = {}
        self._order: List[OperatorStats] = []
        self._plans_seen: Dict[int, bool] = {}
        self.plan: List[str] = []
        self.elapsed_s = 0.0
        self.rows = 0

    def operator(self, key: Any, describe: str) -> OperatorStats:
        """The stats cell for one operator, keyed by identity, so a
        re-executed plan accumulates loops instead of duplicating."""
        stats = self._stats.get(key)
        if stats is None:
            stats = OperatorStats(describe)
            self._stats[key] = stats
            self._order.append(stats)
        return stats

    def note_plan(self, plan: Any, lines: List[str]) -> None:
        """Record a plan's EXPLAIN tree once, even when re-executed."""
        if id(plan) not in self._plans_seen:
            self._plans_seen[id(plan)] = True
            self.plan.extend(lines)

    def timed(self, iterator: Iterator, stats: OperatorStats) -> Iterator:
        """Wrap an operator's output iterator with timing/row counting."""
        stats.loops += 1
        clock = time.perf_counter
        while True:
            start = clock()
            try:
                item = next(iterator)
            except StopIteration:
                stats.elapsed_s += clock() - start
                return
            stats.elapsed_s += clock() - start
            stats.rows += 1
            yield item

    def operators(self) -> List[Dict[str, Any]]:
        return [stats.report() for stats in self._order]

    def report(self) -> Dict[str, Any]:
        return {
            "plan": list(self.plan),
            "operators": self.operators(),
            "rows": self.rows,
            "elapsed_us": round(self.elapsed_s * 1e6, 3),
        }
