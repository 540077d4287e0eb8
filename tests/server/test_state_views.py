"""One state gather, several views: ``/health``, ``/ready`` and
``/metrics`` render the same per-request snapshot, as strict JSON and as
Prometheus samples that agree value for value, and a work request is
counted before its client can see the status line."""

import http.client
import json
import math
import threading

import pytest

from repro import OntoAccess
from repro.faults import INJECTOR
from repro.replication.replica import Replica
from repro.replication.shipper import LogShipper
from repro.server import OntoAccessEndpoint
from repro.workloads.publication import (
    build_database,
    build_mapping,
    seed_feasibility_data,
)

SELECT_NAMES = (
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
    "SELECT ?n WHERE { ?x foaf:family_name ?n . }"
)
QUERY_200 = 'repro_requests_total{op="query",status="200"}'


def _mediator(data_dir=None):
    db = build_database()
    if data_dir is not None:
        db.enable_durability(str(data_dir))
    seed_feasibility_data(db)
    return OntoAccess(db, build_mapping(db))


def _samples(text):
    """``{sample (name plus labels): value}`` of an exposition."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
    return samples


def _strict(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.clear()
    yield
    INJECTOR.clear()


def test_request_is_counted_before_its_status_line():
    """A client that already holds the 200 of a query whose body is still
    stalled mid-stream finds the request in a scrape, with no polling."""
    release = threading.Event()
    with OntoAccessEndpoint(_mediator()) as endpoint:
        before = _samples(endpoint.handle_metrics().body).get(QUERY_200, 0.0)
        INJECTOR.inject("endpoint:stream", stall=release, times=1)
        conn = http.client.HTTPConnection("127.0.0.1", endpoint.port, timeout=10)
        try:
            conn.request("POST", "/query", body=SELECT_NAMES)
            response = conn.getresponse()  # status line + headers only
            assert response.status == 200
            scrape = http.client.HTTPConnection(
                "127.0.0.1", endpoint.port, timeout=10
            )
            try:
                scrape.request("GET", "/metrics")
                text = scrape.getresponse().read().decode()
            finally:
                scrape.close()
            release.set()
            assert "Hert" in response.read().decode()
        finally:
            release.set()
            conn.close()
    assert _samples(text).get(QUERY_200) == before + 1


#: Sections of /health whose numeric values /metrics also exports.
PARITY_SECTIONS = ("serving", "requests", "backend", "replication")
#: (section, key) pairs whose family is not ``prefix + key``.
IRREGULAR = {
    ("requests", "served"): "repro_endpoint_requests_served",
    ("requests", "errors"): "repro_endpoint_request_errors",
    ("backend", "durable"): "repro_storage_durable",
    ("backend", "epoch"): "repro_replica_epoch",
}
PREFIX = {"serving": "serving_", "backend": "", "replication": "replica_"}


def _family(section, key):
    if (section, key) in IRREGULAR:
        return IRREGULAR[section, key]
    if key.endswith("_s"):
        key = key[:-2] + "_seconds"
    return f"repro_{PREFIX[section]}{key}"


@pytest.fixture(params=["memory", "durable-shipper", "replica"])
def endpoint(request, tmp_path):
    if request.param == "memory":
        yield OntoAccessEndpoint(_mediator())
    elif request.param == "durable-shipper":
        mediator = _mediator(tmp_path / "primary")
        mediator.session().checkpoint()  # a finite checkpoint age
        with OntoAccessEndpoint(mediator, shipper=LogShipper(mediator.db)) as ep:
            ep.handle_update("not sparql")  # one error response
            yield ep
        mediator.db.close()
    else:
        yield OntoAccessEndpoint(_mediator(), replica=Replica(("127.0.0.1", 9)))


def test_health_and_metrics_agree(endpoint):
    """Every numeric value /health shows is the sample of its family when
    both render the same gather."""
    state = endpoint._state()
    endpoint._state = lambda: state
    health = _strict(endpoint.handle_health().body)
    samples = _samples(endpoint.handle_metrics().body)
    checked = 0
    for section in PARITY_SECTIONS:
        for key, value in (health.get(section) or {}).items():
            if isinstance(value, (bool, int, float)):
                assert samples[_family(section, key)] == float(value), (
                    section, key,
                )
                checked += 1
    assert samples["repro_replica_epoch"] == health["epoch"]
    assert samples["repro_replica_role_primary"] == (health["role"] == "primary")
    assert checked >= 10


def test_never_synced_replica_is_strict_json():
    """An unbounded lag is ``null`` in JSON and ``+Inf`` in the scrape."""
    endpoint = OntoAccessEndpoint(_mediator(), replica=Replica(("127.0.0.1", 9)))
    health = endpoint.handle_health()
    ready = endpoint.handle_ready()
    assert (health.status, ready.status) == (200, 503)
    replication = _strict(health.body)["replication"]
    assert replication["lag_s"] is None
    assert replication["silence_s"] is None
    assert _strict(ready.body)["replica"]["lag_s"] is None
    metrics = endpoint.handle_metrics().body
    assert "\nrepro_replica_lag_seconds +Inf\n" in metrics
    assert math.isinf(_samples(metrics)["repro_replica_silence_seconds"])
