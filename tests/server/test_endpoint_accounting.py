"""The endpoint's accounting surface: metric types on /metrics, one count
per response (protocol-level refusals included), GET and POST /query
through one dispatch, and a bounded stop."""

import http.client
import json
import socket
import time
import urllib.parse

import pytest

from repro import OntoAccess
from repro.observability import lint_exposition
from repro.replication.replica import Replica
from repro.replication.shipper import LogShipper
from repro.server import OntoAccessEndpoint
from repro.workloads.publication import (
    build_database,
    build_mapping,
    seed_feasibility_data,
)

#: Instance families that only ever grow and must be exported as counters.
MONOTONIC = (
    "serving_admitted_total", "serving_shed_total", "serving_stream_aborts",
    "serving_rejected_connections",
    "endpoint_requests_served", "endpoint_request_errors",
    "plan_cache_hits", "plan_cache_misses", "plan_cache_invalidations",
    "wal_appends", "wal_commits", "wal_syncs", "wal_group_commit_riders",
    "shipper_connections_served", "shipper_snapshots_sent",
    "shipper_frames_shipped", "shipper_barrier_timeouts",
)
REPLICA_MONOTONIC = (
    "replica_connects", "replica_frames_applied", "replica_snapshots_loaded",
    "replica_wire_errors", "replica_fenced_messages", "replica_acks_sent",
)
#: Point-in-time families that stay gauges.
GAUGES = (
    "serving_in_flight", "serving_max_connections", "wal_bytes",
    "storage_durable", "replica_role_primary", "shipper_replicas_connected",
    "slow_query_log_entries",
)


def _mediator(data_dir=None):
    db = build_database()
    if data_dir is not None:
        db.enable_durability(str(data_dir))
    seed_feasibility_data(db)
    return OntoAccess(db, build_mapping(db))


def _types(text):
    return {
        line.split(" ")[2]: line.split(" ")[3]
        for line in text.splitlines()
        if line.startswith("# TYPE ")
    }


class TestMetricTypes:
    def test_monotonic_families_are_counters(self, tmp_path):
        mediator = _mediator(tmp_path / "primary")
        shipper = LogShipper(mediator.db)
        endpoint = OntoAccessEndpoint(mediator, shipper=shipper)
        try:
            with endpoint:  # a running server adds the connection families
                endpoint.handle_query("SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 1")
                endpoint.handle_update("not sparql")
                response = endpoint.handle_metrics()
        finally:
            mediator.db.close()
        assert response.status == 200
        assert lint_exposition(response.body) == []
        types = _types(response.body)
        for family in MONOTONIC:
            assert types.get(f"repro_{family}") == "counter", family
        for family in GAUGES:
            assert types.get(f"repro_{family}") == "gauge", family

    def test_replica_families_are_counters(self):
        replica = Replica(("127.0.0.1", 9))  # never started: metrics only
        endpoint = OntoAccessEndpoint(_mediator(), replica=replica)
        response = endpoint.handle_metrics()
        assert response.status == 200
        assert lint_exposition(response.body) == []
        types = _types(response.body)
        for family in REPLICA_MONOTONIC:
            assert types.get(f"repro_{family}") == "counter", family
        for family in ("replica_lag_seconds", "replica_ready", "replica_epoch"):
            assert types.get(f"repro_{family}") == "gauge", family


def _exchange(port, raw):
    """Send raw request bytes; return the status of the response."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        conn.sendall(raw)
        reply = b""
        while b"\r\n" not in reply:
            chunk = conn.recv(4096)
            if not chunk:
                break
            reply += chunk
    return int(reply.split(b" ", 2)[1])


class TestEveryResponseCounts:
    @pytest.fixture
    def endpoint(self):
        with OntoAccessEndpoint(_mediator()) as endpoint:
            yield endpoint

    def test_unknown_path_counts_as_error(self, endpoint):
        statuses = []
        conn = http.client.HTTPConnection("127.0.0.1", endpoint.port, timeout=10)
        try:
            for path in ("/health", "/nope"):
                conn.request("GET", path)
                response = conn.getresponse()
                response.read()
                statuses.append(response.status)
        finally:
            conn.close()
        assert statuses == [200, 404]
        assert endpoint.requests_served == 2
        assert endpoint.errors_returned == 1

    def test_unreadable_bodies_count_as_errors(self, endpoint):
        statuses = [
            _exchange(
                endpoint.port,
                b"POST /update HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            ),
            _exchange(
                endpoint.port,
                b"POST /update HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: lots\r\n\r\n",
            ),
            _exchange(
                endpoint.port,
                b"POST /update HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n" % (endpoint.max_body_bytes + 1),
            ),
        ]
        assert statuses == [411, 400, 413]
        assert endpoint.requests_served == 3
        assert endpoint.errors_returned == 3


SELECT_NAMES = (
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
    "SELECT ?n WHERE { ?x foaf:family_name ?n . }"
)


class TestQueryRoute:
    """GET and POST /query share one dispatch, ``explain=analyze`` included."""

    @pytest.fixture
    def endpoint(self):
        with OntoAccessEndpoint(_mediator()) as endpoint:
            yield endpoint

    def _request(self, endpoint, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", endpoint.port, timeout=10)
        try:
            conn.request(method, path, body=body, headers={
                "Accept": "application/sparql-results+json",
            })
            response = conn.getresponse()
            return response.status, response.read().decode()
        finally:
            conn.close()

    def test_get_and_post_answer_alike(self, endpoint):
        query = urllib.parse.quote(SELECT_NAMES)
        got = self._request(endpoint, "GET", f"/query?query={query}")
        posted = self._request(endpoint, "POST", "/query", SELECT_NAMES)
        assert got == posted
        assert got[0] == 200 and "Hert" in got[1]

    def test_explain_analyze_on_both_methods(self, endpoint):
        query = urllib.parse.quote(SELECT_NAMES)
        for method, path, body in (
            ("GET", f"/query?query={query}&explain=analyze", None),
            ("POST", "/query?explain=analyze", SELECT_NAMES),
        ):
            status, text = self._request(endpoint, method, path, body)
            assert status == 200, method
            assert "operators" in json.loads(text), method

    def test_get_without_query_parameter(self, endpoint):
        status, text = self._request(endpoint, "GET", "/query")
        assert (status, text) == (400, "missing query parameter")
        assert endpoint.errors_returned == 1


def test_stop_is_bounded():
    endpoint = OntoAccessEndpoint(_mediator())
    endpoint.start()
    started = time.monotonic()
    endpoint.stop()
    # a few accept-loop poll intervals, well under serve_forever's 0.5 s default
    assert time.monotonic() - started < 0.25
