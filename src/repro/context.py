"""One per-request context, carried in one thread-local.

A request's state — its id, its deadline, its trace record and its
EXPLAIN ANALYZE probe — has to reach every layer, from the HTTP
endpoint down to the executor's row loops.  Rather than being threaded
through every call signature it lives in one :class:`RequestContext`
per thread: the endpoint enters a context around each request, nested
callers (``Session.query(timeout=)``, ``explain_analyze``, the
client's :func:`~repro.observability.tracing.request_scope`) enter
child contexts, and the engine reads :func:`current_context` once per
statement.

Entering a context applies the nesting rules against the one it
replaces, which is restored on exit (an exception included):

* **request id** — an outer id is kept, so a client's retries and
  failover share one id;
* **deadline** — whichever expires first is kept, so an inner call can
  never loosen the request's budget;
* **trace** and **probe** — a given one replaces the outer one for the
  block, otherwise the outer one is inherited.

:meth:`RequestContext.cooperative` is the one cancellation guard: it
wraps a row iterator so the deadline is checked, and the statement's
fault-injection site (:mod:`repro.faults`) fired, every few hundred
rows.  Disarmed — no deadline and no armed fault rule — it returns the
iterator unchanged, so the fast path costs one context read per
statement.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, Optional, Union

from .deadline import Deadline
from .faults import INJECTOR

if TYPE_CHECKING:  # pragma: no cover
    from .observability.tracing import AnalyzeProbe

__all__ = ["RequestContext", "current_context"]

#: Rows between cancellation checks.  Must be a power of two (the guard
#: uses ``count & (_CHECK_EVERY - 1)``).
_CHECK_EVERY = 256
_CHECK_MASK = _CHECK_EVERY - 1


class RequestContext:
    """The state of one request: id, deadline, trace record, analyze
    probe and — for an admitted endpoint request — its op name and
    ``perf_counter`` start time.

    ``with RequestContext(deadline=0.5) as context:`` installs it for
    the block.  Enter an instance once, and mutate only one you entered.
    """

    __slots__ = (
        "request_id", "deadline", "trace", "probe", "op", "started", "_outer",
    )

    def __init__(
        self,
        request_id: Optional[str] = None,
        deadline: Union[None, float, Deadline] = None,
        trace: Optional[Dict[str, Any]] = None,
        probe: Optional["AnalyzeProbe"] = None,
    ) -> None:
        if deadline is not None and not isinstance(deadline, Deadline):
            deadline = Deadline(deadline)
        self.request_id = request_id
        self.deadline: Optional[Deadline] = deadline
        self.trace = trace
        self.probe = probe
        self.op: Optional[str] = None
        self.started = 0.0
        self._outer: Optional[RequestContext] = None

    def __enter__(self) -> "RequestContext":
        outer = self._outer = _slot.context
        self.request_id = outer.request_id or self.request_id
        if outer.deadline is not None and (
            self.deadline is None
            or outer.deadline.expires_at < self.deadline.expires_at
        ):
            self.deadline = outer.deadline
        if self.trace is None:
            self.trace = outer.trace
        if self.probe is None:
            self.probe = outer.probe
        _slot.context = self
        return self

    def __exit__(self, *exc_info: Any) -> None:
        _slot.context = self._outer

    def cooperative(self, rows: Iterable, site: str) -> Iterable:
        """``rows`` with the deadline checked, and fault site ``site``
        fired, before the first row and every ``_CHECK_EVERY`` after it."""
        if self.deadline is None and not INJECTOR.armed:
            return rows
        return _guarded(rows, site, self.deadline)


def _guarded(rows: Iterable, site: str, deadline: Optional[Deadline]) -> Iterator:
    for count, item in enumerate(rows):
        if not count & _CHECK_MASK:
            if INJECTOR.armed:
                INJECTOR.fire(site)
            if deadline is not None:
                deadline.check()
        yield item


class _Slot(threading.local):
    """The one per-request thread-local: each thread starts with an
    empty context of its own."""

    def __init__(self) -> None:
        self.context = RequestContext()


_slot = _Slot()


def current_context() -> RequestContext:
    """The context governing this thread (an empty one outside any)."""
    return _slot.context
