#!/usr/bin/env python3
"""End-to-end benchmark of OntoAccess over HTTP, one workload per run.

    python3 perfbench/run.py --workload point-read --seed 1 --seconds 15 --trace 0

Generates a seeded publication dataset, spawns real ``repro serve``
processes over it (fresh ``--data-dir``, ``--sync-mode fsync``), drives
them with the real ``OntoAccessClient`` in a closed loop, checks every
answer, and prints each metric by name with its unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
    sys.exit(f"error: no program to benchmark: {ROOT}/src/repro is missing")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.observability.tracing import request_scope  # noqa: E402
from repro.server.client import OntoAccessClient  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from server import Server, Servers, get_json, scrape_metrics  # noqa: E402

#: Fresh spawns per run; ``setup_s`` is the median of their start times.
SETUPS = 3
#: Kill-and-respawn cycles per run, about half before the timed window
#: and half after it; ``recover_s`` is their median.  The traced run
#: times ``TRACE_RECOVERIES`` cycles of its traced server.
RECOVERIES = 5
TRACE_RECOVERIES = 3
#: Acknowledged writes in the WAL that write-mix's recovery replays: a
#: fixed count, so a faster write path is never handed a longer log.
RECOVERY_WRITES = 48
#: Requests per client before the timed window (excluded from it).
WARMUP = 32
#: Requests per client in the traced run's fixed-count block.
TRACE_BLOCK = 160
#: The traced block drains the server's 128-entry slow-query ring after
#: at most this many requests per client, so it never drops one.
DRAIN_EVERY = 32
#: Reads replayed in-process for the layer timings (after as many more
#: of the same stream have warmed the caches).
INPROC_READS = 1000
INPROC_SCANS = 200
#: Fresh-connection ``/health`` probes behind ``client.connect_p50_ms``.
CONNECT_PROBES = 20
#: Upper end of the uniform think time a client waits before each
#: measured request.  Without it a closed loop sends the instant a reply
#: lands, which phase-locks every request to the kernel's timer tick
#: (the ~44 ms delayed-ACK stall ends on a tick), so latencies fall on
#: whole 4 ms ticks and a percentile jumps a tick whenever the share of
#: requests in one tick crosses it.  A random send phase spreads them.
THINK_MAX_S = 0.005
#: Generated requests per second of run time; streams that run out are
#: cycled (reads) or end the writer's loop (writes).
READS_PER_S = 2500
WRITES_PER_S = 400


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

@dataclass
class Loop:
    """One client's closed loop: latencies of correct operations."""

    latencies: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    errors: List[str] = field(default_factory=list)
    #: (request id, wall seconds) per request, when traced
    walls: List[Tuple[str, float]] = field(default_factory=list)

    def ops_per_s(self) -> float:
        """Correct operations per second the client spent waiting on
        them (think time excluded)."""
        busy = sum(self.latencies)
        return len(self.latencies) / busy if busy else 0.0

    def quantile_ms(self, q: float) -> float:
        ordered = sorted(self.latencies)
        if not ordered:
            return 0.0
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e3

    def p50_ms(self) -> float:
        return statistics.median(self.latencies) * 1e3 if self.latencies else 0.0


def drive(
    call: Callable[[object], object],
    check: Callable[[object, object], bool],
    requests: Iterator,
    until: Optional[float] = None,
    count: Optional[int] = None,
    trace_tag: Optional[str] = None,
    drain: Optional[Callable[[], None]] = None,
    think: Optional[random.Random] = None,
) -> Loop:
    """Send ``requests`` one at a time until the ``until`` clock time or
    ``count`` requests; each is timed from send to the last byte read.
    With ``think``, wait a random think time before each request.
    A refused, failed or wrong answer counts as failed."""
    loop = Loop()
    clock = time.perf_counter
    for index, request in enumerate(requests):
        if count is not None and index >= count:
            break
        if until is not None and clock() >= until:
            break
        if think is not None:
            time.sleep(think.uniform(0.0, THINK_MAX_S))
        loop.attempted += 1
        request_id = f"{trace_tag}-{index}" if trace_tag else None
        try:
            with request_scope(request_id):
                start = clock()
                reply = call(request)
                wall = clock() - start
        except Exception as exc:  # the loop must survive any failed request
            loop.failed += 1
            if len(loop.errors) < 5:
                loop.errors.append(f"{type(exc).__name__}: {exc}")
            continue
        if check(request, reply):
            loop.latencies.append(wall)
        else:
            loop.failed += 1
            loop.wrong += 1
        if request_id is not None:
            loop.walls.append((request_id, wall))
            if drain is not None and (index + 1) % DRAIN_EVERY == 0:
                drain()
    return loop


# ---------------------------------------------------------------------------
# workload definitions: what a client sends and how its answer is checked
# ---------------------------------------------------------------------------

def point_check(request: workloads.PointRead, doc: dict) -> bool:
    bindings = doc["results"]["bindings"]
    return (
        len(bindings) == 1
        and bindings[0].get("n") == {"type": "literal", "value": request.family_name}
    )


def canonical_rows(doc: dict) -> Counter:
    return Counter(
        json.dumps(binding, sort_keys=True) for binding in doc["results"]["bindings"]
    )


@dataclass
class Inputs:
    """Everything one run sends, generated before any timing starts."""

    workload: str
    seed: int
    script: str
    reads: List  # PointRead or scan query text, in send order
    warmup_reads: List
    writes: List[str]
    scan_expected: Dict[str, Counter] = field(default_factory=dict)
    scan_rows: Dict[str, int] = field(default_factory=dict)


def make_inputs(workload: str, seed: int, seconds: int) -> Inputs:
    data = workloads.dataset(seed)
    script = workloads.data_script(data)
    # generated on every workload: the traced run replays them in-process
    writes = workloads.write_stream(
        data, seed + 3, WARMUP + max(TRACE_BLOCK, seconds * WRITES_PER_S)
    )
    if workload == "scan-read":
        queries = workloads.scan_queries(data, seed + 2)
        texts = [text for text, _ in queries]
        reads = texts * max(1, seconds * READS_PER_S // len(texts))
        warmup = texts * (WARMUP // len(texts))
        inputs = Inputs(workload, seed, script, reads, warmup, writes)
        inputs.scan_rows = dict(queries)
        return inputs
    stream = workloads.point_stream(data, seed + 1, WARMUP + seconds * READS_PER_S)
    return Inputs(workload, seed, script, stream[WARMUP:], stream[:WARMUP], writes)


def expect_scans(inputs: Inputs, inproc: layers.InProcess) -> bool:
    """Fill in each scan query's expected rows from an in-process
    ``Session.query``; False when a row count differs from the dataset's."""
    for text, rows in inputs.scan_rows.items():
        inputs.scan_expected[text] = canonical_rows(inproc.select_json(text))
    return all(
        sum(inputs.scan_expected[text].values()) == rows
        for text, rows in inputs.scan_rows.items()
    )


def write_ok(_text: str, feedback) -> bool:
    return bool(feedback.ok)


class Clients:
    """The run's keep-alive connections and how their answers are
    checked: one reader, plus a writer on write-mix.  The two closed
    loops run in at most two threads, each on its own connection."""

    def __init__(self, url: str, inputs: Inputs) -> None:
        self.inputs = inputs
        self.reader = OntoAccessClient(url, timeout=30.0)
        self.writer = (
            OntoAccessClient(url, timeout=30.0)
            if inputs.workload == "write-mix" else None
        )

    def read(self, request) -> dict:
        text = request if isinstance(request, str) else request.text
        return self.reader.query_json(text)

    def read_ok(self, request, doc: dict) -> bool:
        if isinstance(request, str):
            return canonical_rows(doc) == self.inputs.scan_expected[request]
        return point_check(request, doc)

    def warm_up(self) -> int:
        """Untimed requests that fill the caches; returns how many were
        refused or answered wrongly."""
        failed = drive(self.read, self.read_ok, iter(self.inputs.warmup_reads)).failed
        if self.writer is not None:
            writes = iter(self.inputs.writes[:WARMUP])
            failed += drive(self.writer.update, write_ok, writes).failed
        return failed

    def run(
        self,
        reads: Iterator,
        writes: Iterator,
        traced: Optional["Ring"] = None,
        **limits,
    ) -> Tuple[Loop, Optional[Loop]]:
        """The measured closed loops, each with seeded think times: the
        reader alone, or on write-mix the writer on this thread and the
        reader on one more.  ``limits`` are ``drive``'s ``until``/``count``.
        With ``traced``, requests carry ids and the server's log is drained."""
        seed = self.inputs.seed
        if traced is not None:
            limits["drain"] = traced.drain

        def reader_loop() -> Loop:
            return drive(
                self.read, self.read_ok, reads, think=random.Random(seed * 2),
                trace_tag="r" if traced else None, **limits,
            )

        if self.writer is None:
            return reader_loop(), None
        box: List[Loop] = []
        reader = threading.Thread(
            target=lambda: box.append(reader_loop()), name="perfbench-reader"
        )
        reader.start()
        try:
            written = drive(
                self.writer.update, write_ok, writes,
                think=random.Random(seed * 2 + 1),
                trace_tag="w" if traced else None, **limits,
            )
        finally:
            reader.join(timeout=120.0)
        if reader.is_alive() or not box:
            raise RuntimeError("the reader loop did not finish")
        return box[0], written

    def close(self) -> None:
        for client in (self.reader, self.writer):
            if client is not None:
                client.close()


# ---------------------------------------------------------------------------
# the untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def spawn_setups(servers: Servers) -> Tuple[List[Server], List[float]]:
    """Start ``SETUPS`` servers on fresh data dirs, one after another;
    all but the last are killed once ready (their dirs stay).  Returns
    the servers and their spawn-to-ready times."""
    spawned, times = [], []
    for index in range(SETUPS):
        server = servers.new(f"setup{index}")
        times.append(server.start())
        spawned.append(server)
        if index < SETUPS - 1:
            server.kill()
    return spawned, times


def recover(server: Server, count: int) -> List[float]:
    """``count`` crash-recovery cycles on a stopped server's data dir:
    each respawns it, timed from spawn to the first 200 on /ready (WAL
    replay included), and SIGKILLs it again."""
    samples = []
    for _ in range(count):
        samples.append(server.start())
        server.kill()
    return samples


def dump_matches(url: str, expected) -> bool:
    client = OntoAccessClient(url, timeout=120.0)
    try:
        return client.dump() == expected
    finally:
        client.close()


class Replay:
    """The in-process state after the first ``n`` writes of a stream."""

    def __init__(self, script: str, writes: List[str]) -> None:
        self.script = script
        self.writes = writes
        self.inproc = layers.InProcess(script)
        self.applied = 0

    def dump_after(self, count: int):
        if count < self.applied:
            self.inproc, self.applied = layers.InProcess(self.script), 0
        for text in self.writes[self.applied:count]:
            self.inproc.update(text)
        self.applied = count
        return self.inproc.session.dump()


def crash_writes(server: Server, inputs: Inputs, replay: Replay) -> Tuple[float, Dict[str, bool]]:
    """Acknowledged-write durability on a loaded data dir: apply exactly
    ``RECOVERY_WRITES`` writes, check ``/dump`` against the in-process
    replay, SIGKILL, respawn (one ``recover_s`` sample) and check again."""
    expected = replay.dump_after(RECOVERY_WRITES)
    server.start()
    client = OntoAccessClient(server.url, timeout=30.0)
    try:
        fixed = drive(client.update, write_ok, iter(inputs.writes[:RECOVERY_WRITES]))
    finally:
        client.close()
    checks = {
        "recovery_writes_acknowledged": fixed.failed == 0,
        "dump_before_kill": dump_matches(server.url, expected),
    }
    server.kill()
    sample = server.start()
    checks["dump_after_restart"] = dump_matches(server.url, expected)
    server.kill()
    return sample, checks


def run_untraced(inputs: Inputs, servers: Servers, seconds: int, notes: List[str]):
    replay = None
    checks: Dict[str, bool] = {}
    if inputs.workload == "scan-read":
        checks["scan_row_counts"] = expect_scans(inputs, layers.InProcess(inputs.script))
    elif inputs.workload == "write-mix":
        replay = Replay(inputs.script, inputs.writes)
    spawned, setup_times = spawn_setups(servers)
    durable, main = spawned[0], spawned[-1]
    # recovery samples on the first setup's data dir, spread over the
    # run so that their median is not one moment's machine speed
    before = RECOVERIES // 2
    if replay is not None:
        sample, durability = crash_writes(durable, inputs, replay)
        checks.update(durability)
        recover_times = [sample] + recover(durable, before - 1)
    else:
        recover_times = recover(durable, before)
    clients = Clients(main.url, inputs)
    try:
        checks["warm_up_answers"] = clients.warm_up() == 0
        reads, writes = clients.run(
            itertools.cycle(inputs.reads), iter(inputs.writes[WARMUP:]),
            until=time.perf_counter() + seconds,
        )
    finally:
        clients.close()
    if replay is not None:
        applied = WARMUP + writes.attempted
        if applied >= len(inputs.writes):
            notes.append("the writer ran out of generated writes")
        checks["dump_after_window"] = dump_matches(main.url, replay.dump_after(applied))
    main.kill()
    recover_times += recover(durable, RECOVERIES - before)
    primary = writes if writes is not None else reads
    return primary, reads, setup_times, recover_times, checks


def end_to_end(inputs, servers, seconds, notes):
    primary, reads, setup_times, recover_times, checks = run_untraced(
        inputs, servers, seconds, notes
    )
    loops = [primary] if primary is reads else [primary, reads]
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    for loop in loops:
        notes.extend(loop.errors)
    notes.extend(f"check failed: {name}" for name, ok in checks.items() if not ok)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (primary.ops_per_s(), "1/s"),
        "p50_ms": (primary.p50_ms(), "ms"),
        "p90_ms": (primary.quantile_ms(0.9), "ms"),
        "read_p50_ms": (reads.p50_ms(), "ms"),
        "read_p90_ms": (reads.quantile_ms(0.9), "ms"),
        "success_frac": ((attempted - failed) / attempted if attempted else 0.0, "ratio"),
    }
    info = {
        "recover_s": statistics.median(recover_times),
        "failed_frac": failed / attempted if attempted else 1.0,
        "samples": len(primary.latencies),
        "read_samples": len(reads.latencies),
    }
    correct = all(checks.values()) and not any(loop.wrong for loop in loops)
    return metrics, info, attempted, failed, correct


# ---------------------------------------------------------------------------
# the traced run: per-layer metrics
# ---------------------------------------------------------------------------

class Ring:
    """Drains a server's slow-query ring (threshold 0: every request)
    into one dict keyed by request id."""

    def __init__(self, url: str) -> None:
        self.url = url
        self.entries: Dict[str, dict] = {}
        self._lock = threading.Lock()

    def drain(self) -> None:
        doc = get_json(self.url, "/admin/slow-queries")
        with self._lock:
            for entry in doc["entries"]:
                if entry.get("request_id"):
                    self.entries[entry["request_id"]] = entry

    def settle(self, ids: Iterable[str], timeout: float = 3.0) -> None:
        """The server records a request after its response is flushed:
        poll until every id is in, or the timeout passes."""
        wanted = set(ids)
        deadline = time.perf_counter() + timeout
        while True:
            self.drain()
            if wanted <= self.entries.keys() or time.perf_counter() > deadline:
                return
            time.sleep(0.01)


def connect_probe(url: str) -> float:
    """Wall seconds of ``/health`` on a brand-new connection."""
    client = OntoAccessClient(url, timeout=30.0)
    try:
        start = time.perf_counter()
        client.health()
        return time.perf_counter() - start
    finally:
        client.close()


def per_layer(inputs, servers, seconds, notes, spans_out):
    inproc = layers.InProcess(inputs.script)
    counts_ok = inputs.workload != "scan-read" or expect_scans(inputs, inproc)
    # an untraced phase (default server) and a traced phase (every request
    # logged and joined): the difference is the tracing overhead
    warm_failed = 0
    plain = servers.new("plain")
    plain.start()
    clients = Clients(plain.url, inputs)
    try:
        warm_failed += clients.warm_up()
        base_reads, base_writes = clients.run(
            itertools.cycle(inputs.reads), iter(inputs.writes[WARMUP:]),
            until=time.perf_counter() + seconds,
        )
    finally:
        clients.close()
        plain.kill()
    traced = servers.new("traced", ("--slow-query-threshold", "0"))
    traced.start()
    ring = Ring(traced.url)
    clients = Clients(traced.url, inputs)
    try:
        warm_failed += clients.warm_up()
        before = scrape_metrics(traced.url)
        reads, writes = clients.run(
            iter(inputs.reads[:TRACE_BLOCK]),
            iter(inputs.writes[WARMUP:WARMUP + TRACE_BLOCK]),
            traced=ring, count=TRACE_BLOCK,
        )
        ring.settle(rid for loop in (reads, writes) if loop for rid, _ in loop.walls)
        after = scrape_metrics(traced.url)
        connects = [connect_probe(traced.url) for _ in range(CONNECT_PROBES)]
    finally:
        clients.close()
        traced.kill()
    recover_times = recover(traced, TRACE_RECOVERIES)
    # on write-mix the writer's requests, as for p50_ms
    primary = writes if writes is not None else reads
    base = base_writes if base_writes is not None else base_reads
    loops = [loop for loop in (base_reads, base_writes, reads, writes) if loop]

    metrics: Dict[str, float] = {}
    endpoint, spans, unmatched = layers.join_requests(primary.walls, ring.entries)
    metrics.update(endpoint)
    if writes is not None:
        # the reader's spans go to the trace file too
        _, read_spans, read_unmatched = layers.join_requests(reads.walls, ring.entries)
        spans += read_spans
        unmatched += read_unmatched
        metrics["endpoint.unmatched"] = float(unmatched)
    if unmatched:
        notes.append(f"{unmatched} traced request(s) had no server log entry")
    metrics["client.connect_p50_ms"] = layers.p50(connects) * 1e3
    metrics["wal.recover_s"] = layers.p50(recover_times)
    metrics["client.e2e_p50_ms"] = base_reads.p50_ms()
    metrics["trace.p50_ms"] = primary.p50_ms()
    metrics["trace.overhead_frac"] = (
        primary.p50_ms() / base.p50_ms() - 1.0 if base.p50_ms() else 0.0
    )
    metrics["endpoint.residual_share"] = (
        metrics["endpoint.residual_p50_ms"] / primary.p50_ms() if primary.p50_ms() else 0.0
    )
    rows_returned = sum(
        inputs.scan_rows[r] if inputs.workload == "scan-read" else 1
        for r in inputs.reads[:reads.attempted]
    )
    metrics.update(layers.count_layers(
        before, after, rows_returned, len(writes.latencies) if writes else 0
    ))
    texts = [r if isinstance(r, str) else r.text for r in inputs.reads]
    sample = INPROC_SCANS if inputs.workload == "scan-read" else INPROC_READS
    metrics.update(layers.read_layers(inproc, texts[sample:2 * sample], texts[:sample]))
    # on write-mix these are the writes the server ran; the read
    # workloads replay the same seed's write stream in-process only
    metrics.update(layers.write_layers(inproc, inputs.writes[:WARMUP + TRACE_BLOCK]))
    metrics["endpoint.e2e_over_inproc"] = (
        metrics["client.e2e_p50_ms"] * 1e3 / metrics["session.query_p50_us"]
        if metrics["session.query_p50_us"] else 0.0
    )
    spans_out.extend(spans)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    for loop in loops:
        notes.extend(loop.errors)
    if not counts_ok:
        notes.append("check failed: scan_row_counts")
    correct = counts_ok and not warm_failed and not any(loop.wrong for loop in loops)
    return metrics, attempted, failed, correct


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name's suffix or the name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return {
        "protocol.bytes_per_row": "B/row",
        "wal.bytes": "B",
        "wal.bytes_per_write": "B/write",
        "rdb.rows_scanned": "count",
        "rdb.rows_produced": "count",
        "rdb.plan_cache_hits": "count",
        "rdb.plan_cache_misses": "count",
        "wal.commits": "count",
        "wal.syncs": "count",
        "endpoint.unmatched": "count",
    }.get(name, "ratio")


# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--service-latency", type=float, default=None, metavar="SECONDS",
        help="forwarded to every repro serve (the benchmark's self-check "
        "uses it to show a slowdown trips the bounds)",
    )
    args = parser.parse_args(argv)

    work = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    about = workloads.WORKLOADS[args.workload]
    print(f"workload {args.workload}: {about['load']}")
    print(f"  why: {about['why']}")
    inputs = make_inputs(args.workload, args.seed, args.seconds)
    data_file = os.path.join(work, "data.sql")
    with open(data_file, "w", encoding="utf-8") as handle:
        handle.write(inputs.script)
    extra = ("--service-latency", str(args.service_latency)) if args.service_latency else ()
    servers = Servers(ROOT, work, data_file, extra)
    notes: List[str] = []
    try:
        if args.trace:
            spans: List[dict] = []
            values, attempted, failed, correct = per_layer(
                inputs, servers, args.seconds, notes, spans
            )
            metrics = {name: (value, layer_unit(name)) for name, value in sorted(values.items())}
            trace_file = os.path.join(
                ROOT, ".perfbench", f"trace-{args.workload}-seed{args.seed}.json"
            )
            with open(trace_file, "w", encoding="utf-8") as handle:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "metrics": values, "spans": spans}, handle, indent=1)
            print(f"  spans written to {os.path.relpath(trace_file, ROOT)}")
        else:
            metrics, info, attempted, failed, correct = end_to_end(
                inputs, servers, args.seconds, notes
            )
            # reported, not gated: see README.md ("recover_s")
            print(f"  recover_s {info['recover_s']:.6g} s")
            print(f"  failed_frac {info['failed_frac']:.6f} ratio")
            print(f"  samples {info['samples']} count")
            print(f"  read_samples {info['read_samples']} count")
    finally:
        servers.close()
        shutil.rmtree(work, ignore_errors=True)
    for note in notes:
        print(f"  note: {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
