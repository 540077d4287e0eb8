"""The one per-request context: its nesting rules, and that nothing of
one request leaks into the next on a keep-alive connection.

Deterministic by construction — run in CI with ``-p no:randomly``.
"""

import http.client
import threading
import time

import pytest

from repro import OntoAccess
from repro.context import RequestContext, current_context
from repro.errors import FaultError
from repro.faults import INJECTOR
from repro.observability.tracing import AnalyzeProbe, annotate, request_scope
from repro.server import OntoAccessEndpoint
from repro.workloads.generator import WorkloadConfig, build_populated_database
from repro.workloads.publication import build_mapping

SCAN_QUERY = (
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
    "SELECT ?n WHERE { ?x foaf:family_name ?n . }"
)


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.clear()
    yield
    INJECTOR.clear()


class _Boom(Exception):
    pass


class TestRequestId:
    def test_nested_id_keeps_the_outer_one(self):
        assert current_context().request_id is None
        with RequestContext(request_id="outer"):
            with RequestContext(request_id="inner") as inner:
                assert inner.request_id == "outer"
            with request_scope("retry") as request_id:
                assert request_id == "outer"  # one id across retries
        assert current_context().request_id is None

    def test_request_scope_generates_and_restores_after_an_exception(self):
        with pytest.raises(_Boom):
            with request_scope() as request_id:
                assert len(request_id) == 16
                assert current_context().request_id == request_id
                raise _Boom
        assert current_context().request_id is None


class TestDeadline:
    def test_nested_deadline_keeps_whichever_expires_first(self):
        with RequestContext(deadline=0.5) as outer:
            with RequestContext(deadline=100.0) as looser:
                assert looser.deadline is outer.deadline
            with RequestContext(deadline=0.01) as tighter:
                assert tighter.deadline is not outer.deadline
                assert tighter.deadline.budget == 0.01
            with RequestContext() as bare:
                assert bare.deadline is outer.deadline

    def test_restored_after_an_exception(self):
        with RequestContext(deadline=5.0) as outer:
            with pytest.raises(_Boom):
                with RequestContext(deadline=0.01):
                    raise _Boom
            assert current_context().deadline is outer.deadline
        assert current_context().deadline is None


class TestTraceAndProbe:
    def test_given_ones_replace_and_are_restored(self):
        outer_trace, inner_trace = {}, {}
        outer_probe, inner_probe = AnalyzeProbe(), AnalyzeProbe()
        with RequestContext(trace=outer_trace, probe=outer_probe):
            with RequestContext(trace=inner_trace, probe=inner_probe):
                annotate(rows=3)
                assert current_context().probe is inner_probe
            with RequestContext() as inherited:
                assert inherited.trace is outer_trace
                assert inherited.probe is outer_probe
            annotate(backend="sql")
        assert inner_trace == {"rows": 3}
        assert outer_trace == {"backend": "sql"}
        assert current_context().trace is None
        assert current_context().probe is None
        annotate(ignored=True)  # no trace: a no-op

    def test_restored_after_an_exception(self):
        outer_trace, outer_probe = {}, AnalyzeProbe()
        with RequestContext(trace=outer_trace, probe=outer_probe):
            with pytest.raises(_Boom):
                with RequestContext(trace={}, probe=AnalyzeProbe()):
                    raise _Boom
            assert current_context().trace is outer_trace
            assert current_context().probe is outer_probe
        assert current_context().trace is None
        assert current_context().probe is None


class TestInjectorIsProcessWide:
    def test_rule_armed_here_fires_in_another_threads_context(self):
        INJECTOR.inject("executor:scan", fail=True)
        raised = []

        def scan():
            with RequestContext(request_id="elsewhere") as context:
                try:
                    list(context.cooperative(iter(range(3)), "executor:scan"))
                except FaultError:
                    raised.append(True)

        worker = threading.Thread(target=scan)
        worker.start()
        worker.join(timeout=10.0)
        assert raised == [True]

    def test_contexts_are_per_thread(self):
        seen = []
        with RequestContext(request_id="main", deadline=5.0):
            worker = threading.Thread(
                target=lambda: seen.append(
                    (current_context().request_id, current_context().deadline)
                )
            )
            worker.start()
            worker.join(timeout=10.0)
        assert seen == [(None, None)]


@pytest.fixture(scope="module")
def big_mediator():
    """600 authors: a scan crosses three cancellation checks."""
    db = build_populated_database(
        WorkloadConfig(authors=600, publications=900, seed=7)
    )
    return OntoAccess(db, build_mapping(db))


class TestKeepAliveConnection:
    def test_second_request_gets_a_fresh_id_and_no_deadline(self, big_mediator):
        """Two requests on one connection run on one handler thread; the
        first's id and ``?timeout=`` must not carry over to the second."""
        seen = []
        # 0.25 s at each of the scan's three checks: 0.75 s per scan,
        # past the first request's 0.5 s budget.
        INJECTOR.inject(
            "executor:scan",
            latency=0.25,
            call=lambda _site: seen.append(
                (current_context().request_id, current_context().deadline)
            ),
        )
        endpoint = OntoAccessEndpoint(big_mediator, default_timeout=None)
        with endpoint:
            conn = http.client.HTTPConnection(
                "127.0.0.1", endpoint.port, timeout=10.0
            )
            try:
                conn.request(
                    "POST", "/query?timeout=0.5", body=SCAN_QUERY.encode(),
                    headers={"X-Request-Id": "a"},
                )
                first = conn.getresponse()
                first.read()
                sock = conn.sock
                start = time.monotonic()
                conn.request("POST", "/query", body=SCAN_QUERY.encode())
                second = conn.getresponse()
                second.read()
                elapsed = time.monotonic() - start
                assert conn.sock is sock  # the same keep-alive connection
            finally:
                conn.close()
        assert first.status == 408
        assert first.getheader("X-Request-Id") == "a"
        assert second.status == 200
        assert elapsed > 0.5
        fresh = second.getheader("X-Request-Id")
        assert fresh and fresh != "a"
        # inside the executor: the first request's id and budget until
        # it timed out, then the second's fresh id and no deadline at
        # each of its three checks
        first_checks, second_checks = seen[:-3], seen[-3:]
        assert first_checks
        assert all(
            rid == "a" and deadline.budget == 0.5
            for rid, deadline in first_checks
        )
        assert second_checks == [(fresh, None)] * 3
