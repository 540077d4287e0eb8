"""Self-check: the benchmark trips when the program slows down.

Runs a short scan-read twice on the same seed: once against plain
servers, once against servers started with ``--service-latency`` (a
fixed delay at the row-scan fault site).  The slowed run must still pass
every correctness check, and its ``p50_ms`` must exceed the plain run's
by more than the bound ``BENCHMARK.json`` fixes for ``p50_ms``.

    python3 perfbench/selfcheck.py        # or: python3 -m pytest perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Seconds of injected delay per row-scan check: every scan-read query
#: passes at least one, so its latency grows by at least this much.
INJECTED_S = 0.02


def _run(*extra: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "scan-read",
         "--seed", "7", "--seconds", "2", "--trace", "0", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def _bound(metric: str) -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric)


def test_scan_read_slowdown_trips_the_bound() -> None:
    plain = _run()
    slowed = _run("--service-latency", str(INJECTED_S))
    assert plain["correct"] and slowed["correct"]
    assert plain["failed"] == 0 and slowed["failed"] == 0
    before = plain["metrics"]["p50_ms"]["value"]
    after = slowed["metrics"]["p50_ms"]["value"]
    worse = after / before - 1.0
    print(f"p50_ms {before:.3f} -> {after:.3f} ms: {worse:+.1%} "
          f"(bound {_bound('p50_ms'):.0%})")
    assert worse > _bound("p50_ms")


if __name__ == "__main__":
    test_scan_read_slowdown_trips_the_bound()
    print("ok: the slowdown trips the p50_ms bound and every answer checks")
