"""Spawning, probing and killing ``repro serve`` subprocesses.

Every server the benchmark starts runs from the checkout's ``src`` on an
ephemeral port, with a ``--data-dir`` under the benchmark's work
directory and the default ``--sync-mode fsync`` (each commit is flushed
to the device before it is acknowledged).
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
import urllib.parse
from typing import Dict, List, Optional, Tuple

#: Longest a server may take to announce itself and answer /ready.
START_TIMEOUT_S = 60.0

_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    # A server must not outlive the benchmark, even when the benchmark
    # itself is killed: ask the kernel to SIGKILL it when we exit.
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            _PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0
        )
    except (OSError, AttributeError):
        pass


class Server:
    """One ``repro serve`` process over a durable data directory.

    ``start`` may be called again after ``kill``: the new process recovers
    the same directory (the data script is not reapplied).
    """

    def __init__(
        self,
        root: str,
        data_dir: str,
        data_file: str,
        log_file: str,
        extra_args: Tuple[str, ...] = (),
    ) -> None:
        self.root = root
        self.data_dir = data_dir
        self.data_file = data_file
        self.log_file = log_file
        self.extra_args = tuple(extra_args)
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self) -> float:
        """Spawn the server; returns seconds from spawn to its first 200
        on ``/ready`` (data-script load or WAL recovery included)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        cmd = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--data", self.data_file, "--data-dir", self.data_dir,
            "--sync-mode", "fsync", *self.extra_args,
        ]
        with open(self.log_file, "ab") as log:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log, stdin=subprocess.DEVNULL,
                preexec_fn=_die_with_parent,
            )
        self.url = self._announced_url(started)
        while True:
            if _get(self.url, "/ready")[0] == 200:
                return time.perf_counter() - started
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited; see {self.log_file}")
            if time.perf_counter() - started > START_TIMEOUT_S:
                raise RuntimeError(f"{self.url} never answered /ready with 200")
            time.sleep(0.002)

    def _announced_url(self, started: float) -> str:
        stdout = self.proc.stdout
        while True:
            remaining = START_TIMEOUT_S - (time.perf_counter() - started)
            if remaining <= 0 or not select.select([stdout], [], [], remaining)[0]:
                raise RuntimeError("repro serve did not announce its address")
            line = stdout.readline().decode("utf-8", "replace")
            if not line:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.wait()}; "
                    f"see {self.log_file}"
                )
            if " at http://" in line:
                return line.split(" at ", 1)[1].strip()

    def kill(self) -> None:
        """SIGKILL the process (a crash) and reap it."""
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            self.proc = None


class Servers:
    """Owns every server of a run, so all are killed and reaped on exit."""

    def __init__(
        self, root: str, work: str, data_file: str, common_args: Tuple[str, ...] = ()
    ) -> None:
        self.root = root
        self.work = work
        self.data_file = data_file
        #: flags every server of the run gets
        self.common_args = tuple(common_args)
        self._all: List[Server] = []

    def new(self, name: str, extra_args: Tuple[str, ...] = ()) -> Server:
        server = Server(
            self.root,
            os.path.join(self.work, f"data-{name}"),
            self.data_file,
            os.path.join(self.work, f"server-{name}.log"),
            self.common_args + tuple(extra_args),
        )
        self._all.append(server)
        return server

    def close(self) -> None:
        for server in self._all:
            server.kill()


# ---------------------------------------------------------------------------
# admin probes: each on a fresh connection, outside the measured requests
# ---------------------------------------------------------------------------

def _get(url: str, path: str, timeout: float = 30.0) -> Tuple[int, str]:
    parts = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    except OSError:
        return 0, ""
    finally:
        conn.close()


def get_json(url: str, path: str) -> dict:
    status, body = _get(url, path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


def scrape_metrics(url: str) -> Dict[str, float]:
    """``/metrics`` as ``{"name{labels}": value}``."""
    status, body = _get(url, "/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    samples: Dict[str, float] = {}
    for line in body.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples
