"""Fault-injection harness and cooperative-cancellation tests (ISSUE 6).

The :class:`~repro.faults.FaultInjector` generalizes PR 5's WAL kill
points to the whole request path; these tests cover the injector itself,
the deadline machinery, executor-level cancellation, and the WAL chaos
path (flipping the refusing state via an injected I/O error and
asserting the actionable error surface).

Deterministic by construction — run in CI with ``-p no:randomly``.
"""

import threading
import time

import pytest

from repro import OntoAccess
from repro.context import RequestContext, current_context
from repro.deadline import Deadline
from repro.errors import DurabilityError, FaultError, QueryTimeout
from repro.faults import INJECTOR, FaultInjector
from repro.workloads.generator import WorkloadConfig, build_populated_database
from repro.workloads.publication import build_mapping


@pytest.fixture(autouse=True)
def clean_injector():
    """Chaos rules never leak between tests."""
    INJECTOR.clear()
    yield
    INJECTOR.clear()


class TestFaultInjector:
    def test_disarmed_fire_is_noop(self):
        injector = FaultInjector()
        assert not injector.armed
        injector.fire("anything")  # no rule: silently nothing

    def test_error_injection_raises(self):
        injector = FaultInjector()
        boom = RuntimeError("boom")
        injector.inject("site", error=boom)
        with pytest.raises(RuntimeError, match="boom"):
            injector.fire("site")

    def test_fail_flag_raises_default_fault_error(self):
        injector = FaultInjector()
        injector.inject("site", fail=True)
        with pytest.raises(FaultError, match="injected fault at site"):
            injector.fire("site")

    def test_latency_injection_sleeps(self):
        injector = FaultInjector()
        injector.inject("site", latency=0.05)
        start = time.monotonic()
        injector.fire("site")
        assert time.monotonic() - start >= 0.045

    def test_times_budget_exhausts(self):
        injector = FaultInjector()
        injector.inject("site", error=RuntimeError("boom"), times=2)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                injector.fire("site")
        injector.fire("site")  # budget spent: inert
        assert injector.fired("site") == 2

    def test_callback_rule(self):
        injector = FaultInjector()
        seen = []
        injector.inject("site", call=seen.append)
        injector.fire("site")
        assert seen == ["site"]

    def test_stall_until_event(self):
        injector = FaultInjector()
        release = threading.Event()
        injector.inject("site", stall=release)
        done = threading.Event()

        def fire():
            injector.fire("site")
            done.set()

        thread = threading.Thread(target=fire, daemon=True)
        thread.start()
        assert not done.wait(0.05)  # stalled
        release.set()
        assert done.wait(2.0)
        thread.join(timeout=2.0)

    def test_clear_disarms(self):
        injector = FaultInjector()
        injector.inject("a", fail=True)
        injector.inject("b", fail=True)
        injector.clear("a")
        assert injector.armed  # b still armed
        injector.fire("a")  # cleared: no-op
        injector.clear()
        assert not injector.armed
        injector.fire("b")

    def test_injector_is_a_valid_crash_hook(self):
        """``__call__`` aliases fire, so an injector drops into the
        durability layer's ``_crash_hook`` seam unchanged."""
        injector = FaultInjector()
        injector.inject("wal:pre-append", fail=True)
        with pytest.raises(FaultError):
            injector("wal:pre-append")


class TestDeadline:
    def test_scope_installs_and_restores(self):
        assert current_context().deadline is None
        with RequestContext(deadline=5.0) as context:
            deadline = context.deadline
            assert current_context().deadline is deadline
            assert deadline.remaining() > 4.0
        assert current_context().deadline is None

    def test_nested_scope_keeps_tighter(self):
        with RequestContext(deadline=0.05) as outer:
            with RequestContext(deadline=100.0) as inner:
                assert inner.deadline is outer.deadline  # never loosened
            with RequestContext(deadline=0.001) as inner:
                assert inner.deadline is not outer.deadline  # tightened

    def test_none_scope_is_transparent(self):
        with RequestContext(deadline=1.0) as outer:
            with RequestContext(deadline=None) as inner:
                assert inner.deadline is outer.deadline

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_expired_check_raises_typed_timeout(self):
        deadline = Deadline(0.001)
        time.sleep(0.005)
        assert deadline.expired()
        with pytest.raises(QueryTimeout) as excinfo:
            deadline.check()
        assert excinfo.value.timeout_seconds == 0.001

    def test_cooperative_is_passthrough_when_disarmed(self):
        rows = iter(range(10))
        assert current_context().cooperative(rows, "executor:scan") is rows

    def test_cooperative_raises_on_expiry(self):
        with RequestContext(deadline=0.001) as context:
            time.sleep(0.005)
            with pytest.raises(QueryTimeout):
                list(context.cooperative(iter(range(1000)), "executor:scan"))

    def test_tick_fires_fault_site(self):
        INJECTOR.inject("executor:dml", fail=True)
        with pytest.raises(FaultError):
            list(current_context().cooperative(iter([0]), "executor:dml"))


@pytest.fixture(scope="module")
def big_mediator():
    """A populated database large enough that scans cross several
    cancellation-check intervals (ticks run every 256 base rows)."""
    db = build_populated_database(
        WorkloadConfig(authors=600, publications=900, seed=7)
    )
    return OntoAccess(db, build_mapping(db))


SCAN_QUERY = (
    "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
    "SELECT ?n WHERE { ?x foaf:family_name ?n . }"
)


class TestExecutorCancellation:
    def test_query_timeout_is_typed(self, big_mediator):
        session = big_mediator.session()
        with pytest.raises(QueryTimeout):
            # An already-minuscule budget: the first cancellation check
            # inside the scan raises before the query completes.
            session.query(SCAN_QUERY, timeout=1e-7)

    def test_query_without_timeout_is_unaffected(self, big_mediator):
        session = big_mediator.session()
        result = session.query(SCAN_QUERY)
        assert len(result.solutions) == 600

    def test_stalled_scan_exceeds_deadline(self, big_mediator):
        """Latency injected at the executor scan site makes a healthy
        query blow its budget — the timeout is cooperative, raised from
        inside the scan loop."""
        session = big_mediator.session()
        INJECTOR.inject("executor:scan", latency=0.05)
        start = time.monotonic()
        with pytest.raises(QueryTimeout):
            session.query(SCAN_QUERY, timeout=0.02)
        # cancelled at the next check, not after scanning everything
        assert time.monotonic() - start < 2.0

    def test_dml_cancellation_rolls_back(self, big_mediator):
        """A deadline expiring mid-update cancels the statement and the
        transaction rolls back: no partial mutation is visible."""
        session = big_mediator.session()
        before = len(session.query(SCAN_QUERY).solutions)
        update = (
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
            "PREFIX ex:   <http://example.org/db/> "
            "PREFIX ont:  <http://example.org/ontology#> "
            "INSERT DATA { ex:author9901 foaf:firstName \"T\" ; "
            "foaf:family_name \"Timeout\" . }"
        )
        with RequestContext(deadline=1e-7):
            with pytest.raises(QueryTimeout):
                session.execute(update)
        assert len(session.query(SCAN_QUERY).solutions) == before
        # the session is not poisoned: the same update applies cleanly
        session.execute(update)
        assert len(session.query(SCAN_QUERY).solutions) == before + 1


class TestWalChaos:
    """Flip the WAL refusing state via fault injection (ISSUE 6
    satellite): the error surface must be actionable and /health-visible
    (the endpoint half is covered in tests/server/test_resilience.py)."""

    def _durable_mediator(self, tmp_path):
        from repro.rdb import Database
        from repro.workloads.publication import PUBLICATION_DDL

        db = Database(data_dir=str(tmp_path / "dd"))
        db.execute_script(PUBLICATION_DDL)
        return db, OntoAccess(db, build_mapping(db))

    UPDATE = (
        "PREFIX foaf: <http://xmlns.com/foaf/0.1/> "
        "PREFIX ont:  <http://example.org/ontology#> "
        "INSERT DATA { <http://example.org/db/team7> "
        "foaf:name \"Chaos Engineering\" ; ont:teamCode \"CHAOS\" . }"
    )

    def test_injected_wal_error_flips_refusing_state(self, tmp_path):
        db, mediator = self._durable_mediator(tmp_path)
        session = mediator.session()
        INJECTOR.inject("wal:pre-append", error=OSError(28, "injected ENOSPC"))
        db._durability._crash_hook = INJECTOR
        db._durability.wal._crash_hook = INJECTOR
        with pytest.raises(DurabilityError) as excinfo:
            session.execute(self.UPDATE)
        # actionable message: names the refusing mode and the way out
        message = str(excinfo.value).lower()
        assert "refusing" in message
        assert "restart" in message
        assert db.durability_status()["wal_refusing"] is True
        assert session.health()["wal_refusing"] is True
        # clearing the fault does NOT clear the refusing state: commits
        # appended after a torn frame would be silently truncated away.
        # (A *distinct* update — re-inserting team7 is a no-op against the
        # surviving in-memory commit, producing an empty change batch.)
        INJECTOR.clear()
        with pytest.raises(DurabilityError, match="refusing"):
            session.execute(
                self.UPDATE.replace("team7", "team9").replace("CHAOS", "CH9")
            )
        db.close()

    def test_restart_recovers_the_intact_prefix(self, tmp_path):
        from repro.rdb import Database

        db, mediator = self._durable_mediator(tmp_path)
        session = mediator.session()
        session.execute(self.UPDATE)  # durable before the fault
        INJECTOR.inject("wal:pre-append", error=OSError(5, "injected EIO"))
        db._durability._crash_hook = INJECTOR
        db._durability.wal._crash_hook = INJECTOR
        with pytest.raises(DurabilityError):
            session.execute(
                self.UPDATE.replace("team7", "team8").replace("CHAOS", "CH8")
            )
        db.close()
        INJECTOR.clear()
        recovered = Database(data_dir=str(tmp_path / "dd"))
        rows = recovered.query("SELECT name FROM team WHERE id = 7").rows
        assert rows == [("Chaos Engineering",)]
        assert recovered.query("SELECT name FROM team WHERE id = 8").rows == []
        assert recovered.durability_status()["wal_refusing"] is False
        recovered.close()

    def test_checkpoint_age_is_reported(self, tmp_path):
        db, mediator = self._durable_mediator(tmp_path)
        session = mediator.session()
        assert db.durability_status()["last_checkpoint_age_s"] is None
        session.execute(self.UPDATE)
        session.checkpoint()
        age = db.durability_status()["last_checkpoint_age_s"]
        assert age is not None and 0.0 <= age < 60.0
        db.close()
