"""The OntoAccess HTTP endpoint (paper Section 6) on stdlib http.server.

Usage::

    from repro.server import OntoAccessEndpoint
    endpoint = OntoAccessEndpoint(mediator, port=0)   # 0 = ephemeral port
    endpoint.start()
    ...  # clients POST SPARQL to http://localhost:{endpoint.port}/update
    endpoint.stop()

The endpoint is intentionally small: request routing, content negotiation
and HTTP concerns live here, all semantics live in the mediator's
:class:`~repro.core.session.Session`.  The endpoint drives one shared
session: update requests serialize on the backend's write-tier lock,
while query requests run lock-free against the engine's committed MVCC
snapshot — so the ``ThreadingHTTPServer``'s handler threads genuinely
answer reads concurrently with each other and with at most one writer.
One route table maps each request to its handler, and every response is
counted once, in two per-instance metric counters (per-thread cells, no
shared lock on the hot path).  ``handle_update`` / ``handle_query`` /
``handle_batch`` are also callable directly (no network) so tests can
exercise the protocol logic in isolation.

Resilience (ISSUE 6) — the endpoint degrades gracefully instead of
falling over:

* **Deadlines** — every work request gets a budget: the tighter of the
  server-wide ``default_timeout`` and what the client asked for via
  ``?timeout=`` / ``X-Request-Deadline``.  The budget is installed as a
  thread-local :func:`~repro.deadline.deadline_scope`; the executor's
  cooperative cancellation checks turn a runaway query into a typed
  :class:`~repro.errors.QueryTimeout` → HTTP 408 with ``Retry-After``.
* **Admission control** — a bounded in-flight gate with a short bounded
  wait queue.  When full, requests are shed *fast* with 503 +
  ``Retry-After`` + a JSON error body, keeping p99 bounded for the
  requests that are admitted.  A connection-level cap on the threading
  server bounds total live threads even under keep-alive.
* **Health** — ``GET /health`` (always 200, ``status: ok|degraded``)
  and ``GET /ready`` (503 while degraded) surface durability state:
  WAL refusing mode, last checkpoint age.  Both bypass admission so a
  probe can never be starved by load.

Replica mode (ISSUE 8) — constructed with ``replica=`` (a
:class:`~repro.replication.replica.Replica`), the endpoint serves the
read side of WAL-shipping replication:

* writes (``/update``, ``/batch``, ``/admin/checkpoint``) answer 403 —
  they belong on the primary;
* reads carry an ``X-Replica-Lag`` header (seconds of staleness) and are
  refused with 503 while the replica is bootstrapping or once its lag
  exceeds ``max_replica_lag`` — the client's cue to fall back to the
  primary;
* ``/ready`` is 503 until bootstrap replay has caught up to the
  primary's watermark, so load balancers only route to synced replicas.

Observability (ISSUE 10) — the serving tier is inspectable end to end:

* Every stateful component (admission gate, plan cache, durable
  store, replica, log shipper, slow-query ring) has one snapshot of raw
  values.  :meth:`OntoAccessEndpoint._state` reads them all once per
  request, and ``/health``, ``/ready``, ``/admin/stats`` and
  ``/metrics`` are renderers over that one gather: the JSON renderer
  maps non-finite floats (an ``inf`` lag) to ``null``, the exposition
  renderer turns the :data:`_SCRAPE_FAMILIES` table into families.
* ``GET /metrics`` renders the process-wide metric registry, then the
  endpoint's own state, in the Prometheus text format.  Like the probes
  it bypasses admission, and a failing exposition (chaos site
  ``obs:export``) maps to a 503 without touching serving.
* Every request carries an ``X-Request-Id`` (caller-supplied or
  generated) that is installed thread-local for the whole dispatch, so
  it appears in the access-log line, the slow-query entry, and the
  response header — including error responses.
* Work requests emit one structured JSON access-log line (op, status,
  queue wait, execute, serialize, rows, shed/timeout cause) and are
  teed into a ring-buffered slow-query log served at
  ``GET /admin/slow-queries``.
* ``GET /query?…&explain=analyze`` (and POST with the same parameter)
  answers the EXPLAIN tree with per-operator elapsed/rows/loops
  instead of the result rows.
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..deadline import Deadline, deadline_scope
from ..errors import (
    DurabilityError,
    FaultError,
    QueryTimeout,
    ReadOnlyDatabaseError,
    ReplicationError,
    ReproError,
    SPARQLParseError,
    TranslationError,
)
from ..faults import INJECTOR
from ..core.feedback import error_graph
from ..core.mediator import OntoAccess
from ..observability.metrics import (
    QUEUE_WAIT_SECONDS,
    REGISTRY,
    REQUEST_SECONDS,
    REQUESTS,
    Counter,
    render_exposition,
)
from ..observability.querylog import QueryLog
from ..observability.tracing import (
    analyze_scope,
    annotate,
    current_request_id,
    request_scope,
    sanitize_request_id,
    trace_scope,
)
from ..rdf.graph import Graph
from ..r3m.serialize import mapping_to_turtle
from . import protocol
from .protocol import Response

__all__ = ["OntoAccessEndpoint"]

#: Seconds between ``serve_forever``'s shutdown checks, which bounds how
#: long :meth:`OntoAccessEndpoint.stop` waits for the accept loop.
_STOP_POLL_S = 0.05


class _AdmissionGate:
    """Bounded in-flight counter plus a short bounded wait queue.

    ``admit`` returns True when a slot was claimed (release it!), False
    when the request must be shed.  A waiter gives up after
    ``queue_timeout`` seconds (or the request deadline, whichever is
    sooner) or immediately when the queue itself is full — shedding must
    be *fast*, the whole point is never to accumulate unbounded work.
    """

    def __init__(
        self, max_in_flight: int, max_queue: int, queue_timeout: float
    ) -> None:
        self.max_in_flight = max_in_flight
        self.max_queue = max_queue
        self.queue_timeout = queue_timeout
        self._cond = threading.Condition(threading.Lock())
        self.in_flight = 0
        self.waiting = 0
        self.admitted_total = 0
        self.shed_total = 0

    def admit(self, deadline: Optional[Deadline] = None) -> bool:
        budget = self.queue_timeout
        if deadline is not None:
            budget = min(budget, max(0.0, deadline.remaining()))
        give_up = time.monotonic() + budget
        with self._cond:
            while self.in_flight >= self.max_in_flight:
                remaining = give_up - time.monotonic()
                if remaining <= 0.0 or self.waiting >= self.max_queue:
                    self.shed_total += 1
                    return False
                self.waiting += 1
                try:
                    self._cond.wait(remaining)
                finally:
                    self.waiting -= 1
            self.in_flight += 1
            self.admitted_total += 1
            return True

    def release(self) -> None:
        with self._cond:
            self.in_flight -= 1
            self._cond.notify()

    def stats(self) -> Dict[str, Any]:
        with self._cond:
            return {
                "in_flight": self.in_flight,
                "waiting": self.waiting,
                "max_in_flight": self.max_in_flight,
                "max_queue": self.max_queue,
                "admitted_total": self.admitted_total,
                "shed_total": self.shed_total,
            }


class _BoundedThreadingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer with a hard cap on live connections.

    Under HTTP/1.1 keep-alive every open connection owns a handler
    thread, so the connection cap is the thread cap.  Over the cap a new
    connection is answered with a minimal 503 + ``Retry-After`` and
    closed *before* a handler thread is spawned — overload can slow the
    accept loop, never grow threads without bound.
    """

    #: listen(2) backlog: an overload burst parks in the kernel's accept
    #: queue (cheap) instead of being RST at the default backlog of 5 —
    #: shedding must reach the client as a readable 503, not a reset.
    request_queue_size = 128

    def __init__(self, endpoint: "OntoAccessEndpoint") -> None:
        #: the endpoint whose handlers every :class:`_Handler` dispatches to
        self.endpoint = endpoint
        self._conn_lock = threading.Lock()
        self.live_connections = 0
        self.rejected_connections = 0
        super().__init__((endpoint.host, endpoint._requested_port), _Handler)

    def process_request(self, request, client_address) -> None:
        with self._conn_lock:
            reject = self.live_connections >= self.endpoint.max_connections
            if reject:
                self.rejected_connections += 1
            else:
                self.live_connections += 1
        if reject:
            self._reject(request)
            return
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._conn_lock:
                self.live_connections -= 1

    def _reject(self, request) -> None:
        body = (
            b'{"error": "overloaded", '
            b'"message": "connection limit reached; retry after backoff"}\n'
        )
        retry_after = max(1, int(self.endpoint.retry_after))
        try:
            request.sendall(
                b"HTTP/1.1 503 Service Unavailable\r\n"
                b"Content-Type: application/json\r\n"
                b"Retry-After: " + str(retry_after).encode("ascii") + b"\r\n"
                b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
                b"Connection: close\r\n"
                b"\r\n" + body
            )
            # Drain the unread request before closing: closing a socket
            # with received-but-unread bytes sends RST, which would
            # destroy the 503 sitting in the peer's receive buffer.
            request.settimeout(0.2)
            while request.recv(65536):
                pass
        except OSError:
            pass  # the peer is already gone; nothing to tell it
        finally:
            self.shutdown_request(request)


#: Exception type → response; the first matching type wins, as in an
#: ``except`` ladder.
_ErrorMap = Dict[type, Callable[["OntoAccessEndpoint", Exception], Response]]


def _json_error(code: str, status: int, retry: bool = False) -> Callable:
    """An error-map entry answering a JSON error body with ``code``;
    ``retry`` advertises the endpoint's ``Retry-After``."""
    return lambda e, x: protocol.error_json(
        code, str(x), status, retry_after=e.retry_after if retry else None
    )


#: The write paths (``/update``, ``/batch``).
_WRITE_ERRORS: _ErrorMap = {
    TranslationError: lambda e, x: Response.turtle(error_graph(x), status=400),
    SPARQLParseError: lambda e, x: Response.turtle(
        error_graph(_parse_error(x)), status=400
    ),
    QueryTimeout: _json_error("timeout", 408, retry=True),
    # Fenced/deposed primary: the write provably did not execute, so the
    # client may safely re-route it.
    ReadOnlyDatabaseError: _json_error("read-only", 403),
    # Semi-sync barrier timed out: durable here, unacknowledged by the
    # replica quorum.  NOT safe to blindly retry.
    ReplicationError: _json_error("replication-degraded", 503, retry=True),
    DurabilityError: _json_error("storage-degraded", 503),
    json.JSONDecodeError: lambda e, x: Response.text(
        f"invalid JSON body: {x}", status=400
    ),
}

#: ``/query``, with or without ``explain=analyze``: besides a timeout,
#: any mediator error is the client's 400.
_QUERY_ERRORS: _ErrorMap = {
    QueryTimeout: _json_error("timeout", 408, retry=True),
    ReproError: lambda e, x: Response.text(f"error: {x}", status=400),
}

#: SELECT result formats in order of preference: JSON first, so a client
#: listing both sparql-results+json and another format keeps getting the
#: richer format it always got; XML outranks CSV/TSV for the same reason.
_SELECT_FORMATS = (
    (protocol.CONTENT_SPARQL_JSON, protocol.iter_select_json),
    (protocol.CONTENT_SPARQL_XML, protocol.iter_select_xml),
    (protocol.CONTENT_CSV, protocol.iter_select_csv),
    (protocol.CONTENT_TSV, protocol.iter_select_tsv),
)


def _answers(errors: _ErrorMap) -> Callable:
    """Answer the exceptions a handler raises through the map ``errors``."""

    def wrap(method: Callable[..., Response]) -> Callable[..., Response]:
        @functools.wraps(method)
        def answer(self: "OntoAccessEndpoint", *args, **kwargs) -> Response:
            try:
                return method(self, *args, **kwargs)
            except tuple(errors) as exc:
                kind = next(k for k in errors if isinstance(exc, k))
                return errors[kind](self, exc)

        return answer

    return wrap


def _counted(method: Callable[..., Response]) -> Callable[..., Response]:
    """The endpoint's one counting point, around every ``handle_*`` method
    so HTTP and direct calls count alike.  A request counts as served on
    entry — so ``/health`` and ``/admin/stats`` include themselves — and
    as an error once its status is known to be >= 400."""

    @functools.wraps(method)
    def counted(self: "OntoAccessEndpoint", *args, **kwargs) -> Response:
        self._served.inc()
        response = method(self, *args, **kwargs)
        if response.status >= 400:
            self._errors.inc()
        return response

    return counted


class OntoAccessEndpoint:
    """Serves a mediator over HTTP (SPARQL-Protocol-shaped)."""

    def __init__(
        self,
        mediator: OntoAccess,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_in_flight: int = 32,
        max_queue: int = 64,
        queue_timeout: float = 0.25,
        default_timeout: Optional[float] = 30.0,
        max_body_bytes: int = 8 * 1024 * 1024,
        max_connections: int = 128,
        retry_after: float = 1.0,
        replica: Optional[Any] = None,
        max_replica_lag: Optional[float] = None,
        promoter: Optional[Callable[[], Dict[str, Any]]] = None,
        shipper: Optional[Any] = None,
        slow_query_threshold: Optional[float] = 1.0,
        access_log: Optional[Any] = None,
    ) -> None:
        self.mediator = mediator
        #: replication (ISSUE 8): serving the read side of a replica
        self.replica = replica
        self.max_replica_lag = max_replica_lag
        #: failover (ISSUE 9): callable that promotes this replica to
        #: primary (``POST /admin/promote``); None on endpoints that
        #: cannot be promoted (true primaries, or replicas launched
        #: without a promotion path).
        self.promoter = promoter
        self._promote_lock = threading.Lock()
        #: One session shared by all handler threads: writes serialize on
        #: its write-tier lock, reads run against committed snapshots, and
        #: its prepared cache amortizes repeated texts across threads.
        self.session = mediator.session()
        self.host = host
        self._requested_port = port
        self._server: Optional[_BoundedThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        #: Per-instance counts (several endpoints may share a process):
        #: responses answered, those with status >= 400 (both counted by
        #: ``_counted``), and responses whose streaming was cut short
        #: (client disconnect or deadline expiry mid-stream).
        self._served = Counter("served", "Responses answered.")
        self._errors = Counter("errors", "Responses with status >= 400.")
        self._aborts = Counter("aborts", "Responses cut short mid-stream.")
        # -- resilience knobs (ISSUE 6) --------------------------------
        self._gate = _AdmissionGate(max_in_flight, max_queue, queue_timeout)
        #: server-wide request budget; a client may only tighten it
        self.default_timeout = default_timeout
        self.max_body_bytes = max_body_bytes
        self.max_connections = max_connections
        #: seconds advertised in Retry-After on 503/408
        self.retry_after = retry_after
        # -- observability (ISSUE 10) ----------------------------------
        #: the primary's log shipper, when this endpoint fronts one; a
        #: promoted replica's runner assigns the new shipper here so the
        #: /metrics replication families follow the role change.
        self.shipper = shipper
        #: ring-buffered log of requests over the slow threshold
        self.query_log = QueryLog(threshold=slow_query_threshold)
        #: writable text stream for JSON access-log lines (None = off)
        self.access_log = access_log
        self._access_log_lock = threading.Lock()

    @property
    def requests_served(self) -> int:
        return int(self._served.value())

    @property
    def errors_returned(self) -> int:
        return int(self._errors.value())

    @property
    def stream_aborts(self) -> int:
        return int(self._aborts.value())

    def serving_stats(self) -> Dict[str, Any]:
        """Admission/connection statistics for /health and the serving
        benchmark: in-flight, queue depth, shed and reject totals."""
        stats = self._gate.stats()
        stats["stream_aborts"] = self.stream_aborts
        server = self._server
        if server is not None:
            stats["live_connections"] = server.live_connections
            stats["rejected_connections"] = server.rejected_connections
            stats["max_connections"] = self.max_connections
        return stats

    # ------------------------------------------------------------------
    # observability (ISSUE 10)
    # ------------------------------------------------------------------

    def _state(self) -> Dict[str, Any]:
        """One snapshot of every stateful component, read once per request:
        ``/health``, ``/ready``, ``/admin/stats`` and ``/metrics`` all
        render this gather, so no two views can disagree.  ``replication``
        and ``shipper`` are None where the component is absent.

        Role and epoch (failover discovery) are worked out here once: a
        replica endpoint reports its replica's; a primary reports its
        store's, as ``"fenced"`` once a higher epoch flipped it read-only,
        so clients stop routing writes into 403s.
        """
        db = self.mediator.db
        replication = None if self.replica is None else self.replica.status()
        if replication is not None:
            role, epoch = replication["role"], replication["epoch"]
        else:
            role, epoch = ("fenced" if db.read_only else "primary"), db.epoch
        return {
            "role": role,
            "epoch": epoch,
            "serving": self.serving_stats(),
            "requests": {
                "served": self.requests_served,
                "errors": self.errors_returned,
            },
            "plan_cache": dict(db.planner.stats),
            "backend": self.session.health(),
            "replication": replication,
            "shipper": None if self.shipper is None else self.shipper.status(),
            "slow_queries": self.query_log.status(),
        }

    @_counted
    @_answers({ReproError: _json_error("metrics-unavailable", 503)})
    def handle_metrics(self) -> Response:
        """GET /metrics: Prometheus text exposition, admission-exempt: the
        process-wide :data:`~repro.observability.metrics.REGISTRY`, then
        this endpoint's state as the families of :data:`_SCRAPE_FAMILIES`.

        The chaos site ``obs:export`` fires inside the renderer; an
        injected failure maps to a 503 here — a broken or slow scrape
        can degrade monitoring, never serving.
        """
        families = _instance_families(self._state())
        return Response(
            status=200,
            body=render_exposition([REGISTRY], families),
            content_type=protocol.CONTENT_PROMETHEUS,
        )

    @_counted
    def handle_stats(self) -> Response:
        """GET /admin/stats: serving statistics as JSON (admission-exempt,
        like /health — saturation is exactly when you need it)."""
        state = self._state()
        return Response.json(
            {key: state[key] for key in ("serving", "requests", "slow_queries")}
        )

    @_counted
    def handle_slow_queries(self) -> Response:
        """GET /admin/slow-queries: the slow-query ring, newest first."""
        return Response.json(
            {**self.query_log.status(), "entries": self.query_log.snapshot()}
        )

    @_counted
    @_answers(_QUERY_ERRORS)
    def handle_query_analyze(self, body: str) -> Response:
        """``/query`` with ``explain=analyze``: execute the query with the
        operator probe armed and answer the instrumented plan instead of
        the result rows."""
        blocked = self._replica_gate()
        if blocked is not None:
            return blocked
        with analyze_scope() as probe:
            result = self.session.query(body)
        report = probe.report()
        if isinstance(result, bool):
            report["result"] = result
        elif not isinstance(result, Graph):
            report["result_rows"] = len(result.solutions)
            annotate(rows=len(result.solutions))
        return self._tag_replica(Response.json(report))

    @_counted
    def _refuse(self, response: Response) -> Response:
        """Count a response the HTTP layer answers on its own: unknown
        path, unreadable body, bad timeout, shed request."""
        return response

    def _finish_request(
        self, op: str, status: int, trace: Dict[str, Any], total_s: float
    ) -> None:
        """Latency histograms + access log + slow-query tee for one work
        request, once its response has been flushed."""
        _LATENCY[op].observe(total_s)
        queue_wait = trace.get("queue_wait_s")
        if queue_wait is not None:
            QUEUE_WAIT_SECONDS.observe(queue_wait)
        entry: Dict[str, Any] = {
            "request_id": trace.get("request_id"),
            "op": op,
            "status": status,
            "total_s": round(total_s, 6),
        }
        for key in ("queue_wait_s", "execute_s", "serialize_s"):
            if trace.get(key) is not None:
                entry[key] = round(trace[key], 6)
        for key, value in trace.items():
            if key not in entry and not key.endswith("_s"):
                entry[key] = value
        self._log_access(entry)
        self.query_log.record(entry)

    def _log_access(self, entry: Dict[str, Any]) -> None:
        stream = self.access_log
        if stream is None:
            return
        line = json.dumps(entry, default=str, sort_keys=False)
        try:
            with self._access_log_lock:
                stream.write(line + "\n")
                stream.flush()
        except (OSError, ValueError):
            pass  # a broken log sink must never fail the request

    # ------------------------------------------------------------------
    # deadlines
    # ------------------------------------------------------------------

    def _request_deadline(
        self, params: Dict[str, List[str]], headers
    ) -> Optional[Deadline]:
        """The budget for one request: the tighter of the server default
        and any client-requested ``timeout=`` param / ``X-Request-
        Deadline`` header.  Raises ValueError on a malformed value (the
        HTTP layer answers 400)."""
        requested: List[float] = []
        if "timeout" in params:
            requested.append(
                _positive_seconds(params["timeout"][0], "timeout parameter")
            )
        header = headers.get("X-Request-Deadline") if headers is not None else None
        if header is not None:
            requested.append(
                _positive_seconds(header, "X-Request-Deadline header")
            )
        budget = self.default_timeout
        if requested:
            tightest = min(requested)
            budget = tightest if budget is None else min(tightest, budget)
        return None if budget is None else Deadline(budget)

    # ------------------------------------------------------------------
    # replica staleness gate (ISSUE 8)
    # ------------------------------------------------------------------

    def _serving_replica(self) -> Optional[Any]:
        """The replica this endpoint is serving reads for, or None when
        the endpoint serves a primary.  A promoted replica (its ``role``
        flipped to ``"primary"``) stops counting: write refusals and
        staleness gates lift the moment :meth:`handle_promote` returns,
        with no endpoint reconfiguration."""
        replica = self.replica
        if getattr(replica, "role", "replica") == "primary":
            return None
        return replica

    def _replica_gate(self) -> Optional[Response]:
        """None when a read may be served here; a 503 when this endpoint
        is a replica that is still syncing or too stale (``max_replica_
        lag`` exceeded) — the client retries against the primary."""
        replica = self._serving_replica()
        if replica is None:
            return None
        if not replica.ready:
            return protocol.error_json(
                "replica-syncing",
                "replica has not finished bootstrap replay; retry on "
                "the primary",
                503,
                retry_after=self.retry_after,
            )
        lag = replica.lag()
        if self.max_replica_lag is not None and lag > self.max_replica_lag:
            response = protocol.error_json(
                "replica-lagging",
                f"replica lag {lag:.3f}s exceeds the bound of "
                f"{self.max_replica_lag:g}s; retry on the primary",
                503,
                retry_after=self.retry_after,
                lag_s=round(lag, 3),
            )
            response.headers["X-Replica-Lag"] = f"{lag:.3f}"
            return response
        return None

    def _tag_replica(self, response: Response) -> Response:
        """Attach the staleness measurement to a replica-served read."""
        replica = self._serving_replica()
        if replica is not None:
            lag = replica.lag()
            if math.isfinite(lag):
                response.headers["X-Replica-Lag"] = f"{lag:.3f}"
        return response

    def _refuse_write(self, what: str) -> Response:
        return protocol.error_json(
            "read-only-replica",
            f"{what} must go to the primary; this endpoint serves a "
            "read replica",
            403,
        )

    # ------------------------------------------------------------------
    # protocol handlers (network-independent)
    # ------------------------------------------------------------------

    @_counted
    @_answers(_WRITE_ERRORS)
    def handle_update(self, body: str) -> Response:
        """POST /update: translate + execute, answer with RDF feedback.

        Placeholders are rejected at parse time (the wire protocol has no
        bindings), preserving the submission's concreteness rule.
        """
        if self._serving_replica() is not None:
            return self._refuse_write("updates")
        result = self.session.prepare_update(
            body, allow_placeholders=False
        ).execute()
        return Response.turtle(result.feedback(), status=200)

    @_counted
    @_answers(_WRITE_ERRORS)
    def handle_batch(self, body: str, content_type: Optional[str] = None) -> Response:
        """POST /batch: all operations inside one database transaction.

        ``application/json`` bodies carry an array of SPARQL/Update
        request strings; anything else is one (possibly multi-operation)
        SPARQL/Update request.  On error nothing is persisted.
        """
        if self._serving_replica() is not None:
            return self._refuse_write("batches")
        requests = [body]
        if (
            content_type
            and content_type.split(";")[0].strip().lower()
            == protocol.CONTENT_JSON
        ):
            requests = json.loads(body)
            if not isinstance(requests, list) or not all(
                isinstance(r, str) for r in requests
            ):
                return Response.text(
                    "batch body must be a JSON array of SPARQL/Update "
                    "strings",
                    status=400,
                )
        result = self.session.execute_all(requests)
        return Response.turtle(result.feedback(), status=200)

    @_counted
    def handle_query(self, body: str, accept: Optional[str] = None) -> Response:
        """POST /query (or GET): SELECT/ASK/CONSTRUCT over the mediated
        database, content-negotiated via ``accept``.

        SELECT results are serialized incrementally (JSON / CSV / TSV /
        text table) and streamed with chunked transfer encoding, so a
        large result never needs to exist as one response string.

        On a replica the query is refused with 503 while syncing or past
        the lag bound, and a served result carries ``X-Replica-Lag``.
        """
        blocked = self._replica_gate()
        if blocked is not None:
            return blocked
        return self._tag_replica(self._handle_query(body, accept))

    @_answers(_QUERY_ERRORS)
    def _handle_query(self, body: str, accept: Optional[str] = None) -> Response:
        if not protocol.acceptable(accept):
            return protocol.error_json(
                "not-acceptable",
                f"cannot satisfy Accept: {accept!r}; supported result "
                "formats are listed under 'supported'",
                406,
                supported=list(protocol.QUERY_RESULT_TYPES),
            )
        result = self.session.query(body)
        if not isinstance(result, (bool, Graph)):
            annotate(rows=len(result.solutions))
        if isinstance(result, bool):
            if protocol.accepts(accept, protocol.CONTENT_SPARQL_JSON):
                return Response.json(
                    protocol.render_ask_json(result),
                    content_type=protocol.CONTENT_SPARQL_JSON,
                )
            if protocol.accepts(accept, protocol.CONTENT_SPARQL_XML):
                return Response(
                    status=200,
                    body=protocol.render_ask_xml(result),
                    content_type=protocol.CONTENT_SPARQL_XML,
                )
            return Response.text("true" if result else "false")
        if isinstance(result, Graph):
            return Response.turtle(result)
        for content_type, render in _SELECT_FORMATS:
            if protocol.accepts(accept, content_type):
                return Response.stream(render(result), content_type)
        return Response.stream(
            protocol.iter_select_result(result), protocol.CONTENT_TEXT
        )

    @_counted
    def handle_dump(self) -> Response:
        blocked = self._replica_gate()
        if blocked is not None:
            return blocked
        return self._tag_replica(Response.turtle(self.session.dump()))

    @_counted
    @_answers({ReproError: lambda e, x: Response.text(f"error: {x}", status=409)})
    def handle_checkpoint(self) -> Response:
        """POST /admin/checkpoint: serialize the committed state and
        truncate the write-ahead log (no-op answer when the endpoint
        serves an in-memory database)."""
        if self._serving_replica() is not None:
            return self._refuse_write("checkpoints")
        path = self.session.checkpoint()
        if path is None:
            return Response.json(
                {"checkpoint": None, "error": "database has no data_dir"},
                status=409,
            )
        return Response.json({"checkpoint": path})

    @_counted
    @_answers({ReproError: _json_error("promotion-failed", 500)})
    def handle_promote(self) -> Response:
        """POST /admin/promote: promote this replica to primary (ISSUE 9).

        Answers 200 with the promotion record (new epoch, drained flag,
        applied position) — idempotently on repeat calls, since
        :meth:`Replica.promote` is.  409 ``not-promotable`` when the
        endpoint has no promotion path (it already serves a primary, or
        was launched without one); 500 ``promotion-failed`` when the
        promotion itself errored (the replica is stopped but writable
        state was not reached — operator attention required)."""
        promoter = self.promoter
        if promoter is None:
            return protocol.error_json(
                "not-promotable",
                "this endpoint has no promotion path; it either already "
                "serves a primary or was started without one",
                409,
            )
        with self._promote_lock:
            record = promoter()
        return Response.json({"promoted": True, **record})

    @_counted
    def handle_mapping(self) -> Response:
        return Response(
            status=200,
            body=mapping_to_turtle(self.mediator.mapping),
            content_type=protocol.CONTENT_TURTLE,
        )

    @_counted
    def handle_health(self) -> Response:
        """GET /health: always 200; ``status`` is ``"degraded"`` when the
        WAL is refusing commits.  Includes durability detail (sync mode,
        WAL bytes, last checkpoint age), serving statistics, request
        counts, role and epoch (clients pick a new primary by probing for
        role ``"primary"`` with the highest epoch), and on a replica its
        replication state."""
        state = self._state()
        degraded = state["backend"].get("wal_refusing")
        doc = {"status": "degraded" if degraded else "ok"}
        for key in ("backend", "serving", "requests", "role", "epoch"):
            doc[key] = state[key]
        if state["replication"] is not None:
            doc["replication"] = state["replication"]
        return Response.json(doc)

    @_counted
    def handle_ready(self) -> Response:
        """GET /ready: 200 while the endpoint can accept writes (or, on a
        replica, serve synced reads), 503 while degraded — durable store
        refusing commits, or replica bootstrap replay still running
        (load balancers drain on this)."""
        state = self._state()
        replication = state["replication"]
        if replication is not None and not replication["ready"]:
            return protocol.error_json(
                "replica-syncing",
                "replica has not finished bootstrap replay",
                503,
                retry_after=self.retry_after,
                replica=replication,
            )
        if state["backend"].get("wal_refusing"):
            return protocol.error_json(
                "degraded",
                "write-ahead log is refusing commits; restart the process "
                "to recover the durable prefix",
                503,
            )
        doc: Dict[str, Any] = {"ready": True}
        if replication is not None:
            doc["replica"] = replication
        return Response.json(doc)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            return self._requested_port
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        if self._server is not None:
            return
        self._server = _BoundedThreadingHTTPServer(self)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": _STOP_POLL_S},
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            self._thread = None

    def __enter__(self) -> "OntoAccessEndpoint":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class _Handler(BaseHTTPRequestHandler):
    """One HTTP connection: frames requests, looks each up in
    :data:`_ROUTES`, and writes the answer.  It reaches its endpoint
    through ``self.server.endpoint``."""

    # HTTP/1.1 so streamed responses can use chunked transfer
    # encoding (fixed-length responses still send Content-Length).
    protocol_version = "HTTP/1.1"
    server: _BoundedThreadingHTTPServer

    def log_message(self, *args) -> None:  # keep tests quiet
        pass

    def _dispatch(self) -> None:
        method = self.command
        with request_scope(
            sanitize_request_id(self.headers.get("X-Request-Id"))
        ):
            # The body is read (or refused) before routing, so even a 404
            # leaves a keep-alive connection in sync.
            self.body = self._read_body() if method == "POST" else ""
            if self.body is None:
                return
            split = urllib.parse.urlsplit(self.path)
            self.params = urllib.parse.parse_qs(split.query)
            route = _ROUTES.get((method, split.path), _NOT_FOUND)
            if route[0] is _query and method == "GET" and "query" not in self.params:
                route = _MISSING_QUERY  # a protocol error: refused unadmitted
            handler, admitted, op = route
            if admitted:
                self._admitted(handler, op)
            else:
                self._send(handler(self.server.endpoint, self))

    do_GET = do_POST = _dispatch

    def _read_body(self) -> Optional[str]:
        """The request body, or None once it has been refused.

        Bodies are read via Content-Length only.  A refused body is never
        read, so the connection is closed rather than resynchronized by
        swallowing it — under HTTP/1.1 keep-alive an unread payload
        (chunked, or of unknown or excessive length) would desync it.
        """
        endpoint = self.server.endpoint
        length_header = self.headers.get("Content-Length", "0")
        if "chunked" in (self.headers.get("Transfer-Encoding") or "").lower():
            refusal = Response.text(
                "chunked request bodies are not supported; "
                "send Content-Length",
                status=411,
            )
        else:
            try:
                length = int(length_header)
            except ValueError:
                refusal = protocol.error_json(
                    "bad-request",
                    f"invalid Content-Length: {length_header!r}",
                    400,
                )
            else:
                if length <= endpoint.max_body_bytes:
                    return self.rfile.read(length).decode("utf-8")
                refusal = protocol.error_json(
                    "body-too-large",
                    f"request body of {length} bytes exceeds the "
                    f"limit of {endpoint.max_body_bytes} bytes",
                    413,
                )
        self.close_connection = True
        self._send(endpoint._refuse(refusal))
        return None

    def _admitted(self, handler: "_RouteHandler", op: str) -> None:
        """Run one work request under admission control and its
        deadline; sends the response (or the 400/503 refusal).

        The whole dispatch runs inside a trace scope: the phase
        timings (queue wait, execute, serialize) and any annotations
        from deeper layers feed one access-log line, the request
        counters, and the slow-query tee."""
        endpoint = self.server.endpoint
        started = time.perf_counter()
        with trace_scope(request_id=current_request_id(), op=op) as trace:
            try:
                deadline = endpoint._request_deadline(self.params, self.headers)
            except ValueError as exc:
                trace["cause"] = "bad-timeout"
                refusal = protocol.error_json("bad-timeout", str(exc), 400)
            else:
                admit_start = time.perf_counter()
                admitted = endpoint._gate.admit(deadline)
                trace["queue_wait_s"] = time.perf_counter() - admit_start
                if admitted:
                    try:
                        self._execute(handler, deadline, op, trace, started)
                    finally:
                        endpoint._gate.release()
                    return
                trace["cause"] = "shed"
                refusal = protocol.error_json(
                    "overloaded",
                    "server is at capacity; retry after backoff",
                    503,
                    retry_after=endpoint.retry_after,
                )
            self._send_traced(
                endpoint._refuse(refusal), None, op, trace, started
            )

    def _execute(self, handler, deadline, op, trace, started) -> None:
        with deadline_scope(deadline):
            # Streaming happens inside both the scope and the admission
            # slot: serialization is request work.
            exec_start = time.perf_counter()
            response = handler(self.server.endpoint, self)
            trace["execute_s"] = time.perf_counter() - exec_start
            if response.status == 408:
                trace["cause"] = "timeout"
            self._send_traced(response, deadline, op, trace, started)

    def _send_traced(self, response, deadline, op, trace, started) -> None:
        # Counted before the status line goes out, so a client holding
        # the response already finds it in a scrape; the rest of the
        # bookkeeping lands after the flush, off the client's clock.
        REQUESTS.labels(op, str(response.status)).inc()
        serialize_start = time.perf_counter()
        self._send(response, deadline)
        trace["serialize_s"] = time.perf_counter() - serialize_start
        self.server.endpoint._finish_request(
            op, response.status, trace, time.perf_counter() - started
        )

    def _request_headers(self, response: Response) -> None:
        for name, value in response.headers.items():
            self.send_header(name, value)
        # Echo the request id on every response — errors too — so one id
        # joins client retries, server logs, and the slow-query entry.
        if "X-Request-Id" not in response.headers:
            rid = current_request_id()
            if rid:
                self.send_header("X-Request-Id", rid)

    def _send(
        self, response: Response, deadline: Optional[Deadline] = None
    ) -> None:
        if response.body_iter is not None:
            if self.request_version == "HTTP/1.0":
                # RFC 7230: no chunked framing toward a 1.0 peer;
                # reading .body drains the iterator into one
                # buffered payload sent with Content-Length.
                pass
            else:
                self._send_chunked(response, deadline)
                return
        payload = response.body.encode("utf-8")
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self._request_headers(response)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        try:
            self.wfile.write(payload)
        except OSError:
            # Client went away mid-response: close our side; the
            # shared session is untouched (it already returned).
            self.server.endpoint._aborts.inc()
            self.close_connection = True

    def _send_chunked(
        self, response: Response, deadline: Optional[Deadline] = None
    ) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self._request_headers(response)
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        write = self.wfile.write
        try:
            for chunk in response.body_iter:
                if INJECTOR.armed:
                    INJECTOR.fire("endpoint:stream")
                if deadline is not None:
                    deadline.check()
                data = chunk.encode("utf-8")
                if not data:
                    continue  # an empty chunk would end the body
                write(f"{len(data):X}\r\n".encode("ascii"))
                write(data)
                write(b"\r\n")
            write(b"0\r\n\r\n")
        except (QueryTimeout, FaultError, OSError):
            # Truncate without the terminating 0-chunk so the
            # client sees an aborted body, and close the
            # connection — never leave a desynced keep-alive.
            self.server.endpoint._aborts.inc()
            self.close_connection = True


_RouteHandler = Callable[[OntoAccessEndpoint, _Handler], Response]


def _query(endpoint: OntoAccessEndpoint, request: _Handler) -> Response:
    """``/query`` over GET and POST alike: the text is the POST body or the
    SPARQL Protocol's ``query`` parameter; ``explain=analyze`` answers the
    instrumented plan instead of the result rows."""
    params = request.params
    text = request.body if request.command == "POST" else params["query"][0]
    if params.get("explain") == ["analyze"]:
        return endpoint.handle_query_analyze(text)
    return endpoint.handle_query(text, accept=request.headers.get("Accept"))


#: ``(method, path) → (handler, admitted?, op)``.  Admitted routes run
#: under the admission gate, a deadline and a trace scope named ``op``.
#: Probes, monitoring and admin actions bypass admission: they must
#: answer exactly when the server is saturated or degraded.
_ROUTES: Dict[Tuple[str, str], Tuple[_RouteHandler, bool, Optional[str]]] = {
    ("POST", protocol.UPDATE_PATH): (
        lambda e, r: e.handle_update(r.body), True, "update"),
    ("POST", protocol.BATCH_PATH): (lambda e, r: e.handle_batch(
        r.body, content_type=r.headers.get("Content-Type")), True, "batch"),
    ("POST", protocol.QUERY_PATH): (_query, True, "query"),
    ("GET", protocol.QUERY_PATH): (_query, True, "query"),
    ("GET", protocol.DUMP_PATH): (lambda e, r: e.handle_dump(), True, "dump"),
    ("POST", protocol.CHECKPOINT_PATH): (
        lambda e, r: e.handle_checkpoint(), False, None),
    ("POST", protocol.PROMOTE_PATH): (lambda e, r: e.handle_promote(), False, None),
    ("GET", protocol.HEALTH_PATH): (lambda e, r: e.handle_health(), False, None),
    ("GET", protocol.READY_PATH): (lambda e, r: e.handle_ready(), False, None),
    ("GET", protocol.METRICS_PATH): (lambda e, r: e.handle_metrics(), False, None),
    ("GET", protocol.STATS_PATH): (lambda e, r: e.handle_stats(), False, None),
    ("GET", protocol.SLOW_QUERIES_PATH): (
        lambda e, r: e.handle_slow_queries(), False, None),
    ("GET", protocol.MAPPING_PATH): (lambda e, r: e.handle_mapping(), False, None),
}
_NOT_FOUND = (lambda e, r: e._refuse(Response.text("not found", 404)), False, None)
_MISSING_QUERY = (
    lambda e, r: e._refuse(Response.text("missing query parameter", 400)), False, None
)

#: The latency histogram of every admitted op, resolved once, so each
#: series is scraped (at zero) from the start — a histogram observed
#: after the flush must not be missing from a scrape its client races.
_LATENCY = {op: REQUEST_SECONDS.labels(op) for _, _, op in _ROUTES.values() if op}


#: Instance families that only ever grow, exported as TYPE counter; every
#: other family of :data:`_SCRAPE_FAMILIES` is a gauge.
_COUNTER_FAMILIES = frozenset((
    "serving_admitted_total", "serving_shed_total", "serving_stream_aborts",
    "serving_rejected_connections",
    "endpoint_requests_served", "endpoint_request_errors",
    "plan_cache_hits", "plan_cache_misses", "plan_cache_invalidations",
    "wal_appends", "wal_commits", "wal_syncs", "wal_group_commit_riders",
    "replica_connects", "replica_frames_applied", "replica_snapshots_loaded",
    "replica_wire_errors", "replica_fenced_messages", "replica_acks_sent",
    "shipper_connections_served", "shipper_snapshots_sent",
    "shipper_frames_shipped", "shipper_barrier_timeouts",
))

#: The instance families of ``/metrics`` in exposition order, as
#: ``(family, help, section, key)``: the sample is ``key`` of the named
#: section of :meth:`OntoAccessEndpoint._state`, and a missing or
#: non-numeric value leaves the family out of the scrape.  A row without
#: a key exports every entry of its section, as ``family`` + entry name
#: (``_s`` spelled ``_seconds``), with that name formatted into the help.
_SCRAPE_FAMILIES = (
    ("serving_", "Serving-gate statistic {key!r} (see /admin/stats).",
     "serving", None),
    ("endpoint_requests_served",
     "Requests answered by this endpoint since start.", "requests", "served"),
    ("endpoint_request_errors",
     "Error responses returned by this endpoint since start.",
     "requests", "errors"),
    ("plan_cache_", "Plan-cache {key} since process start.",
     "plan_cache", None),
    ("storage_durable",
     "1 when the store runs with a write-ahead log attached.",
     "backend", "durable"),
    ("wal_refusing", "1 while the WAL refuses commits (degraded).",
     "backend", "wal_refusing"),
    ("wal_bytes", "Bytes in the live write-ahead log segment.",
     "backend", "wal_bytes"),
    ("generation", "Checkpoint generation of the store.",
     "backend", "generation"),
    ("last_checkpoint_age_seconds", "Seconds since the last checkpoint.",
     "backend", "last_checkpoint_age_s"),
    ("wal_appends", "WAL records appended (across rotations).",
     "backend", "wal_appends"),
    ("wal_commits", "Commit barriers reaching the WAL.",
     "backend", "wal_commits"),
    ("wal_syncs",
     "Physical WAL flushes (group commit folds several commits into one).",
     "backend", "wal_syncs"),
    ("wal_group_commit_riders", "Commits that rode another commit's flush.",
     "backend", "wal_group_commit_riders"),
    ("replica_role_primary", "1 when this endpoint serves the primary.",
     "failover", "role_primary"),
    ("replica_epoch", "Failover epoch of the served store.",
     "failover", "epoch"),
    ("replica_", "Replica statistic {key!r} (see /health).",
     "replication", None),
    ("shipper_", "Log-shipper statistic {key!r}.", "shipper", None),
    ("slow_query_log_entries",
     "Entries currently held in the slow-query ring buffer.",
     "slow_queries", "count"),
    ("slow_query_threshold_seconds",
     "Threshold above which a request is logged as slow.",
     "slow_queries", "threshold_s"),
)


def _instance_families(state: Dict[str, Any]):
    """The rows of :data:`_SCRAPE_FAMILIES` over one gather, as the
    ``(name, help, kind, value)`` families of ``render_exposition``."""
    sections = dict(state)
    # Role and epoch: among a replica's own statistics, and on their own
    # rows for a primary, so dashboards track failover from either side.
    failover = {
        "role_primary": state["role"] == "primary", "epoch": state["epoch"]
    }
    if state["replication"] is None:
        sections["failover"] = failover
    else:
        sections["replication"] = {**state["replication"], **failover}
    for family, help_text, section, key in _SCRAPE_FAMILIES:
        values = sections.get(section) or {}
        for entry in [key] if key else list(values):
            value = values.get(entry)
            if not isinstance(value, (int, float)):
                continue  # absent here, or not a number: no sample
            # A spanning row names each family after its entry, with
            # seconds spelled out (``lag_s`` → ``lag_seconds``).
            suffix = "" if key else entry
            if suffix.endswith("_s"):
                suffix = suffix[:-2] + "_seconds"
            name = family + suffix
            kind = "counter" if name in _COUNTER_FAMILIES else "gauge"
            yield (
                f"repro_{name}", help_text.format(key=suffix), kind, float(value)
            )


def _positive_seconds(text: str, what: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise ValueError(f"invalid {what}: {text!r} is not a number") from None
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(
            f"invalid {what}: {text!r} must be a positive finite number "
            "of seconds"
        )
    return value


def _parse_error(exc: SPARQLParseError) -> TranslationError:
    return TranslationError(
        f"cannot parse request: {exc}",
        code=TranslationError.UNSUPPORTED,
    )
