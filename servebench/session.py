"""One server session: launch, drive one closed-loop connection, tear down.

The server runs in its own process group (``start_new_session``), so its
cluster worker and any helper process can be found, measured (peak RSS
from ``/proc/<pid>/status``) and checked for survivors at teardown.

Client and server always share one CPU.  A driven sequence is cut into
rounds that move every thread of both onto the next CPU of the run, so a
measurement averages over the box's CPUs instead of riding on whichever
one a co-tenant slows at the time.
"""

from __future__ import annotations

import gc
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BANNER = re.compile(r"serving \S+ on ([\d.]+):(\d+) ")

BOOT_TIMEOUT = 90.0
STOP_TIMEOUT = 30.0
IO_TIMEOUT = 60.0


class SessionError(RuntimeError):
    """The server failed to start, answer, or stop cleanly."""


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2 :].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class Session:
    """A running ``servebench/launch.py`` server and one client connection."""

    def __init__(self, processes: int, cpus: list[int], trace_dir: Path | None = None):
        self.processes = processes
        self.cpus = cpus
        self.trace_dir = trace_dir
        self.stderr_lines: list[str] = []
        self._banner = threading.Event()
        self._address: tuple[str, int] | None = None
        self.proc: subprocess.Popen | None = None
        self.sock: socket.socket | None = None
        self.rfile = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> float:
        """Launch the server on ``cpus[0]``; returns the launch instant
        (perf_counter).  The server and its workers inherit the affinity."""
        os.sched_setaffinity(0, {self.cpus[0]})
        cmd = [sys.executable, str(HERE / "launch.py"), "--processes", str(self.processes)]
        if self.trace_dir is not None:
            cmd += ["--trace-dir", str(self.trace_dir)]
        env = dict(os.environ, PYTHONHASHSEED="0")
        launched = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=str(HERE.parent),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        threading.Thread(target=self._drain_stderr, daemon=True).start()
        return launched

    def _drain_stderr(self) -> None:
        assert self.proc is not None and self.proc.stderr is not None
        for raw in self.proc.stderr:
            line = raw.decode("utf-8", errors="replace").rstrip()
            self.stderr_lines.append(line)
            match = BANNER.search(line)
            if match and self._address is None:
                self._address = (match.group(1), int(match.group(2)))
                self._banner.set()
        self._banner.set()  # EOF: the server exited

    def connect(self) -> None:
        """Wait for the banner, then open the client connection."""
        if not self._banner.wait(BOOT_TIMEOUT) or self._address is None:
            raise SessionError("server did not start:\n" + "\n".join(self.stderr_lines[-20:]))
        self.sock = socket.create_connection(self._address, timeout=IO_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def members(self) -> list[int]:
        assert self.proc is not None
        return group_members(self.proc.pid)

    def pin(self, cpu: int) -> None:
        """Move every thread of the server's group, and this process, to ``cpu``."""
        for pid in self.members():
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tids:
                try:
                    os.sched_setaffinity(int(tid), {cpu})
                except OSError:  # the thread ended meanwhile
                    pass
        os.sched_setaffinity(0, {cpu})

    def stop(self) -> None:
        """Close the connection, SIGINT the server, and require that every
        process of its group ends; survivors are killed and reported."""
        if self.rfile is not None:
            self.rfile.close()
        if self.sock is not None:
            self.sock.close()
        if self.proc is None:
            return
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + STOP_TIMEOUT
        survivors = group_members(pgid)
        while survivors and time.monotonic() < deadline:
            time.sleep(0.02)
            survivors = group_members(pgid)
        if survivors:
            for pid in survivors:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self.proc.wait(STOP_TIMEOUT)
            raise SessionError(f"processes {survivors} of the server survived teardown")
        if self.proc.returncode != 0:
            raise SessionError(
                f"server exited with code {self.proc.returncode}:\n"
                + "\n".join(self.stderr_lines[-20:])
            )

    # -- the closed loop ------------------------------------------------------

    def call(self, line: bytes) -> bytes:
        """Send one request line and read its response line."""
        assert self.sock is not None and self.rfile is not None
        self.sock.sendall(line)
        response = self.rfile.readline()
        if not response:
            raise SessionError("server closed the connection")
        return response

    def drive(
        self, lines: list[bytes], rounds: int = 1, between=None
    ) -> tuple[list[bytes], list[int], int]:
        """Closed loop over ``lines`` in ``rounds`` consecutive slices, each
        on the next CPU and preceded by ``between(r)`` if given; returns raw
        responses, per-request latencies (ns, send to response read) and
        the summed elapsed ns of the slices.

        Only socket I/O runs between the clock reads; the client's garbage
        collector is paused so it cannot stall the loop.
        """
        assert self.sock is not None and self.rfile is not None
        sendall, readline, clock = self.sock.sendall, self.rfile.readline, time.perf_counter_ns
        n = len(lines)
        responses: list[bytes] = [b""] * n
        latencies = [0] * n
        elapsed = 0
        bounds = [n * r // rounds for r in range(rounds + 1)]
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for r in range(rounds):
                if between is not None:
                    between(r)
                self.pin(self.cpus[r % len(self.cpus)])
                began = clock()
                for i in range(bounds[r], bounds[r + 1]):
                    sent = clock()
                    sendall(lines[i])
                    responses[i] = readline()
                    latencies[i] = clock() - sent
                elapsed += clock() - began
        finally:
            if gc_was_enabled:
                gc.enable()
        if not all(responses):
            raise SessionError("server closed the connection mid-window")
        return responses, latencies, elapsed
