"""Server processes: launch through ``repro-phases serve``, read their
CPU and memory from ``/proc``, read counters from the public surface,
and drain them with SIGTERM.
"""

from __future__ import annotations

import glob
import http.client
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional

clock = time.perf_counter

_LISTENING = re.compile(rb"listening on ([0-9.]+):(\d+)")
_GATEWAY = re.compile(rb"http gateway on http://([0-9.]+):(\d+)/")


class ServerError(RuntimeError):
    """The server failed to start, answer, or drain."""


def serve_argv(shape, max_sessions: int, data_dir: Optional[str],
               runtime_dir: Optional[str]) -> List[str]:
    """The ``serve`` command line: deployment and capacity flags only."""
    argv = [
        sys.executable, "-m", "repro.harness.cli", "serve",
        "--port", "0", "--http-port", "0",
        "--max-sessions", str(max_sessions),
    ]
    if data_dir is not None:
        argv += ["--data-dir", data_dir]
    if shape.workers:
        argv += ["--workers", str(shape.workers), "--runtime-dir", runtime_dir]
    return argv


class Server:
    """One running ``serve`` process (plus its cluster worker, if any)."""

    def __init__(self, argv: List[str], env: Dict[str, str], cwd: str,
                 log_path: str, limit: float = 90.0) -> None:
        self.log = open(log_path, "ab")
        spawned = clock()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
            stderr=self.log,
        )
        self.banner = b""
        self.worker_pids: List[int] = []
        try:
            self.port = self._await_line(_LISTENING, limit)
            self.http_port = self._await_line(_GATEWAY, limit)
            self._ping(limit)
        except BaseException:
            self.kill()
            raise
        self.setup_s = clock() - spawned

    def _await_line(self, pattern: "re.Pattern", limit: float) -> int:
        deadline = clock() + limit
        while True:
            match = pattern.search(self.banner)
            if match:
                return int(match.group(2))
            remaining = deadline - clock()
            if remaining <= 0 or self.proc.poll() is not None:
                raise ServerError(
                    f"serve did not print its banner (exit "
                    f"{self.proc.poll()}): {self.banner[-500:]!r}"
                )
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 65536)
                if not chunk:
                    raise ServerError("serve closed stdout before its "
                                      "banner")
                self.banner += chunk

    def _ping(self, limit: float) -> None:
        with Control(("127.0.0.1", self.port), limit) as control:
            control.call({"op": "ping"})

    def pids(self) -> List[int]:
        return [self.proc.pid] + self.worker_pids

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids())

    def stop(self, limit: float = 60.0) -> bool:
        """SIGTERM and wait for the drain; True when it exited cleanly
        and printed its drain line."""
        if not self.worker_pids:
            self.worker_pids = _children(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=limit)
        except subprocess.TimeoutExpired:
            self.kill()
            return False
        finally:
            self._reap_workers(limit)
            self.log.close()
        self.banner += out or b""
        return self.proc.returncode == 0 and b"drained cleanly" in out

    def kill(self) -> None:
        """SIGKILL the server, then its workers, and wait for all."""
        if not self.worker_pids:
            self.worker_pids = _children(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._reap_workers(5.0)
        if not self.log.closed:
            self.log.close()

    def _reap_workers(self, limit: float) -> None:
        """Cluster workers are the dispatcher's children; make sure none
        outlives the run: wait up to ``limit`` seconds for each to exit,
        then SIGKILL it and wait until it is gone."""
        deadline = clock() + limit
        for pid in self.worker_pids:
            while _alive(pid) and clock() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    continue
                while _alive(pid):
                    time.sleep(0.02)


def _children(pid: int) -> List[int]:
    children: List[int] = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path, "rb") as handle:
                children += [int(child) for child in handle.read().split()]
        except OSError:
            continue
    return children


def _alive(pid: int) -> bool:
    return os.path.exists(f"/proc/{pid}") and not _is_zombie(pid)


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            return handle.read().rsplit(b")", 1)[1].split()[0] == b"Z"
    except (OSError, IndexError):
        return True


def cpu_seconds(pid: int) -> float:
    """On-CPU time (user + system) of every thread of ``pid``, from the
    scheduler's nanosecond accounting."""
    total = 0
    for path in glob.glob(f"/proc/{pid}/task/*/schedstat"):
        try:
            with open(path, "rb") as handle:
                total += int(handle.read().split()[0])
        except (OSError, ValueError, IndexError):
            continue
    return total / 1e9


def steal_ticks() -> tuple:
    """``(steal, total)`` CPU ticks of the whole machine so far, from
    ``/proc/stat``: time a hypervisor ran something else on our CPUs."""
    with open("/proc/stat", "rb") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", "rb") as handle:
        for line in handle:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ServerError(f"no VmHWM for pid {pid}")


class Control:
    """A blocking request/response connection (counters, ping, closes)
    to a TCP ``(host, port)`` or a Unix socket path."""

    def __init__(self, address, limit: float = 30.0) -> None:
        deadline = clock() + limit
        while True:
            try:
                self.sock = _connect(address)
                break
            except OSError:
                if clock() > deadline:
                    raise
                time.sleep(0.02)
        self.sock.settimeout(limit)
        self.reader = self.sock.makefile("rb")
        self._ids = 10 ** 9

    def call(self, payload: dict) -> dict:
        return self.pipeline([payload])[0]

    def pipeline(self, payloads: List[dict]) -> List[dict]:
        """Send every request, then read every response (in order)."""
        lines = []
        for payload in payloads:
            self._ids += 1
            lines.append(json.dumps(dict(payload, id=self._ids),
                                    separators=(",", ":")).encode() + b"\n")
        self.sock.sendall(b"".join(lines))
        results = []
        for payload in payloads:
            answer = json.loads(self.reader.readline())
            if not answer.get("ok"):
                raise ServerError(f"{payload['op']} refused: {answer}")
            results.append(answer["result"])
        return results

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def __enter__(self) -> "Control":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _connect(address) -> socket.socket:
    if not isinstance(address, str):
        return socket.create_connection(address, timeout=5)
    sock = socket.socket(socket.AF_UNIX)
    try:
        sock.settimeout(5)
        sock.connect(address)
    except OSError:
        sock.close()
        raise
    return sock


def scrape(http_port: int) -> Dict[str, float]:
    """One ``/metrics`` scrape as ``{series: value}``."""
    conn = http.client.HTTPConnection("127.0.0.1", http_port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        body = response.read().decode("utf-8")
    finally:
        conn.close()
    series: Dict[str, float] = {}
    for line in body.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            series[name] = float(value)
        except ValueError:
            continue
    return series


def counters(control: Control, http_port: int,
             workers: Dict[str, Control]) -> dict:
    """``stats``, the ``cluster`` op's ``diagnostics`` action, one
    ``/metrics`` scrape, and, for a cluster, ``stats`` and
    ``diagnostics`` straight from each worker's socket."""
    return {
        "stats": control.call({"op": "stats"}),
        "diagnostics": control.call(
            {"op": "cluster", "action": "diagnostics"}
        ),
        "metrics": scrape(http_port),
        "workers": {
            worker: {
                "stats": link.call({"op": "stats"}),
                "diagnostics": link.call(
                    {"op": "cluster", "action": "diagnostics"}
                ),
            }
            for worker, link in workers.items()
        },
    }


def close_sessions(control: Control, names: List[str]) -> dict:
    """Close ``names`` and total what each session reports having
    ingested: ``{"branches": n, "intervals": n}``."""
    totals = {"branches": 0, "intervals": 0}
    for result in control.pipeline(
        [{"op": "close", "session": name} for name in names]
    ):
        totals["branches"] += result["branches"]
        totals["intervals"] += result["intervals"]
    return totals
