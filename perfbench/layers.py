"""Per-layer numbers for the traced run, measured from outside ``src``.

Three sources, none of which adds code to the program:

* **in-process replays** time calls into each layer's public functions
  (``Session``, the SPARQL parsers, the ``repro.core`` translators, the
  ``repro.rdb`` engine, ``repro.server.protocol``) on the same generated
  inputs the server received;
* **``/metrics`` deltas** around a fixed-count block of requests give
  the counts (rows, plan-cache hits, WAL commits/syncs/bytes);
* the **request-id join** pairs each client wall time with the server's
  phase times from ``/admin/slow-queries`` for the same ``X-Request-Id``.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import (
    OntoAccess,
    plan_modify,
    translate_delete_data,
    translate_insert_data,
    translate_pattern,
)
from repro.server import protocol
from repro.sparql.query_parser import parse_query
from repro.sparql.update_ast import DeleteData, InsertData, Modify
from repro.sparql.update_parser import parse_update
from repro.workloads import build_database, build_mapping

_clock = time.perf_counter


def p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


class InProcess:
    """The mediator the server runs, built in this process from the same
    data script: the reference for answers and the subject of the
    in-process layer timings (in-memory, so no WAL)."""

    def __init__(self, script: str) -> None:
        self.db = build_database()
        self.db.execute_script(script)
        self.mediator = OntoAccess(self.db, build_mapping(self.db))
        self.session = self.mediator.session()

    def update(self, text: str) -> None:
        """Apply one write exactly as ``POST /update`` does."""
        result = self.session.prepare_update(text, allow_placeholders=False)
        result.execute()

    def select_json(self, text: str) -> dict:
        return protocol.render_select_json(self.session.query(text))


def read_layers(
    inproc: InProcess, warm: Iterable[str], texts: Iterable[str]
) -> Dict[str, float]:
    """Replay reads in order, after ``warm`` has filled the session and
    plan caches to their steady state: first whole ``Session.query``
    calls with the protocol layer's JSON serialization of each result,
    then each layer alone."""
    for text in warm:
        inproc.session.query(text)
    texts = list(texts)
    session_us, serialize_us = [], []
    out_bytes = out_rows = 0
    for text in texts:
        start = _clock()
        result = inproc.session.query(text)
        session_us.append((_clock() - start) * 1e6)
        start = _clock()
        body = "".join(protocol.iter_select_json(result)).encode("utf-8")
        serialize_us.append((_clock() - start) * 1e6)
        out_bytes += len(body)
        out_rows += len(result.solutions)
    parse_us, translate_us, execute_us = [], [], []
    mapping, db = inproc.mediator.mapping, inproc.db
    for text in texts:
        start = _clock()
        query = parse_query(text)
        parse_us.append((_clock() - start) * 1e6)
        start = _clock()
        translated = translate_pattern(mapping, db, query.where)
        translate_us.append((_clock() - start) * 1e6)
        start = _clock()
        db.execute(translated.select)
        execute_us.append((_clock() - start) * 1e6)
    return {
        "session.query_p50_us": p50(session_us),
        "sparql.parse_query_p50_us": p50(parse_us),
        "core.translate_select_p50_us": p50(translate_us),
        "rdb.execute_p50_us": p50(execute_us),
        "protocol.serialize_p50_us": p50(serialize_us),
        "protocol.bytes_per_row": out_bytes / max(out_rows, 1),
    }


def write_layers(inproc: InProcess, texts: Iterable[str]) -> Dict[str, float]:
    """Replay writes in order.  Before each write is applied, its parse
    and its translation (Algorithm 1 for INSERT/DELETE DATA, Algorithm 2
    for MODIFY, WHERE evaluation included) are timed against the state
    it will run on; then the write is applied through the session."""
    parse_us, algorithm1_us, modify_us, update_us = [], [], [], []
    mapping, db = inproc.mediator.mapping, inproc.db
    for text in texts:
        start = _clock()
        request = parse_update(text, allow_placeholders=False)
        parse_us.append((_clock() - start) * 1e6)
        for operation in request.operations:
            start = _clock()
            if isinstance(operation, InsertData):
                translate_insert_data(mapping, db, operation.triples)
                algorithm1_us.append((_clock() - start) * 1e6)
            elif isinstance(operation, DeleteData):
                translate_delete_data(mapping, db, operation.triples)
                algorithm1_us.append((_clock() - start) * 1e6)
            elif isinstance(operation, Modify):
                plan_modify(mapping, db, operation)
                modify_us.append((_clock() - start) * 1e6)
        start = _clock()
        inproc.update(text)
        update_us.append((_clock() - start) * 1e6)
    return {
        "session.update_p50_us": p50(update_us),
        "sparql.parse_update_p50_us": p50(parse_us),
        "core.translate_update_p50_us": p50(algorithm1_us),
        "core.modify_p50_us": p50(modify_us),
    }


def count_layers(
    before: Dict[str, float], after: Dict[str, float], rows_returned: int, writes: int
) -> Dict[str, float]:
    """Count-based layer metrics from two ``/metrics`` scrapes around a
    block whose queries returned ``rows_returned`` rows in all and which
    acknowledged ``writes`` writes.

    Rows produced are the rows the queries returned plus the rows the
    writes affected: the server's select-row counter does not see the
    snapshot read path the endpoint's queries take, so it stays 0.
    """

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    produced = rows_returned + sum(
        delta(f'repro_executor_rows_total{{op="{op}"}}')
        for op in ("insert", "update", "delete")
    )
    scanned = delta("repro_executor_rows_scanned_total")
    hits = delta("repro_plan_cache_hits")
    misses = delta("repro_plan_cache_misses")
    commits = delta("repro_wal_commits")
    syncs = delta("repro_wal_syncs")
    wal_bytes = delta("repro_wal_bytes")
    return {
        "rdb.rows_scanned": scanned,
        "rdb.rows_produced": produced,
        "rdb.rows_scanned_per_row": scanned / produced if produced else 0.0,
        "rdb.plan_cache_hits": hits,
        "rdb.plan_cache_misses": misses,
        "rdb.plan_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "wal.commits": commits,
        "wal.syncs": syncs,
        "wal.bytes": wal_bytes,
        "wal.syncs_per_commit": syncs / commits if commits else 0.0,
        "wal.bytes_per_write": wal_bytes / writes if writes else 0.0,
    }


def join_requests(
    walls: List[Tuple[str, float]], entries: Dict[str, dict]
) -> Tuple[Dict[str, float], List[dict], int]:
    """Pair client wall times with the server's slow-query entries.

    Returns the endpoint metrics, one span record per request (client
    wall time and the server's phases, in milliseconds) and the number
    of requests the server's log had no entry for.
    """
    spans: List[dict] = []
    unmatched = 0
    for request_id, wall_s in walls:
        entry: Optional[dict] = entries.get(request_id)
        if entry is None:
            unmatched += 1
            continue
        spans.append(
            {
                "request_id": request_id,
                "op": entry.get("op"),
                "client_ms": wall_s * 1e3,
                "server_total_ms": entry["total_s"] * 1e3,
                "residual_ms": (wall_s - entry["total_s"]) * 1e3,
                "queue_wait_ms": entry.get("queue_wait_s", 0.0) * 1e3,
                "execute_ms": entry.get("execute_s", 0.0) * 1e3,
                "serialize_ms": entry.get("serialize_s", 0.0) * 1e3,
            }
        )

    def median_of(key: str) -> float:
        return p50([span[key] for span in spans])

    metrics = {
        "endpoint.residual_p50_ms": median_of("residual_ms"),
        "endpoint.server_total_p50_ms": median_of("server_total_ms"),
        "endpoint.queue_wait_p50_ms": median_of("queue_wait_ms"),
        "endpoint.execute_p50_ms": median_of("execute_ms"),
        "endpoint.serialize_p50_ms": median_of("serialize_ms"),
        "endpoint.unmatched": float(unmatched),
    }
    return metrics, spans, unmatched
