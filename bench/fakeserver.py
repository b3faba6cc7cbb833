"""Single-threaded event loop: fake model servers plus the child under test.

One `Loop` owns a selector. It serves the fake Ollama (`/api/chat`) and
OpenAI-compatible (`/chat/completions`) endpoints, delays each reply by the
latency the responder chose, and watches the child process (through a pidfd)
and, optionally, its output file. Everything runs on the caller's thread, so
the servers add no threads and the timings they take (first request, exit,
first output line) are read from one clock, `time.perf_counter`, which on
Linux is CLOCK_MONOTONIC and therefore shared with the child.

Replies are scheduled, not slept: a slow call holds no server resource, and
any number of calls can be in flight at once, as with a real model server.

Given two or more CPUs, the loop keeps to the first and runs each child on
the last. The servers then never take CPU from the program under test, and
the child's threads, which hand the GIL back and forth when replies come
back at once, stay on one CPU. Left free to move between the two vCPUs of a
small VM, where each hand-off can wake an idle vCPU through the hypervisor,
the same infer-replay passes ran 2-4x slower, with 20-40% steal time, and
varied with the load of the host far more than with the program. The child
gets one CPU, which is what its GIL-bound threads can use.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import selectors
import signal
import socket
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Responder: (path, request JSON) -> (HTTP status, reply JSON, delay in seconds)
Responder = Callable[[str, dict], tuple[int, dict, float]]

_REASONS = {200: "OK", 404: "Not Found", 400: "Bad Request", 503: "Service Unavailable"}
_OUTPUT_POLL_S = 0.010


@dataclass
class ServerStats:
    calls: int = 0
    connections: int = 0
    first_request: float | None = None
    last_reply: float | None = None
    inflight: int = 0
    inflight_area: float = 0.0  # integral of calls in flight over time
    _changed: float = 0.0

    def _move(self, now: float, delta: int) -> None:
        self.inflight_area += self.inflight * (now - self._changed)
        self._changed = now
        self.inflight += delta


class _Conn:
    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = b""
        self.busy = False  # a request on this connection awaits its reply


class FakeModelServer:
    """HTTP/1.1 JSON endpoint with keep-alive, on 127.0.0.1 and a free port."""

    def __init__(self, loop: "Loop", responder: Responder):
        self.loop = loop
        self.responder = responder
        self.stats = ServerStats()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(128)
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._conns: set[_Conn] = set()
        loop.selector.register(self._listener, selectors.EVENT_READ, self._accept)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def reset(self) -> ServerStats:
        """Close leftover connections and start counting afresh."""
        for conn in list(self._conns):
            self._close(conn)
        old, self.stats = self.stats, ServerStats()
        return old

    def close(self) -> None:
        self.reset()
        self.loop.selector.unregister(self._listener)
        self._listener.close()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except BlockingIOError:
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Conn(sock)
            self._conns.add(conn)
            self.stats.connections += 1
            self.loop.selector.register(sock, selectors.EVENT_READ, lambda c=conn: self._read(c))

    def _close(self, conn: _Conn) -> None:
        if conn in self._conns:
            self._conns.discard(conn)
            self.loop.selector.unregister(conn.sock)
            conn.sock.close()

    def _read(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            self._close(conn)
            return
        conn.buf += data
        self._parse(conn)

    def _parse(self, conn: _Conn) -> None:
        if conn.busy:
            return
        end = conn.buf.find(b"\r\n\r\n")
        if end < 0:
            return
        head = conn.buf[:end].decode("latin-1").split("\r\n")
        headers = {}
        for line in head[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        if len(conn.buf) < end + 4 + length:
            return
        body = conn.buf[end + 4:end + 4 + length]
        conn.buf = conn.buf[end + 4 + length:]
        conn.busy = True
        parts = head[0].split(" ")
        path = parts[1] if len(parts) > 1 else "/"
        keep_alive = headers.get("connection", "").lower() != "close"
        now = time.perf_counter()
        stats = self.stats
        stats.calls += 1
        if stats.first_request is None:
            stats.first_request = now
        stats._move(now, +1)
        try:
            status, reply, delay = self.responder(path, json.loads(body or b"{}"))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            status, reply, delay = 400, {"error": f"bad request: {exc}"}, 0.0
        self.loop.call_at(now + delay,
                          lambda: self._reply(conn, stats, status, reply, keep_alive))

    def _reply(self, conn: _Conn, stats: ServerStats, status: int, reply: dict,
               keep_alive: bool) -> None:
        now = time.perf_counter()
        stats._move(now, -1)
        stats.last_reply = now
        if conn not in self._conns:
            return
        body = json.dumps(reply).encode("utf-8")
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n")
        try:
            conn.sock.setblocking(True)
            conn.sock.sendall(head.encode("latin-1") + body)
            conn.sock.setblocking(False)
        except OSError:
            self._close(conn)
            return
        conn.busy = False
        if keep_alive:
            self._parse(conn)
        else:
            self._close(conn)


@dataclass
class ChildRun:
    argv: list[str]
    exit_code: int
    spawned: float          # perf_counter just before spawning
    exited: float           # perf_counter when the exit was seen
    cpu_s: float            # user + system CPU of the child
    peak_rss_mb: float
    first_output: float | None  # perf_counter when the watched file first held a line
    timed_out: bool = False

    @property
    def wall_s(self) -> float:
        return self.exited - self.spawned


class Loop:
    def __init__(self):
        cpus = sorted(os.sched_getaffinity(0))
        self.child_cpus = {cpus[-1]} if len(cpus) > 1 else None
        if self.child_cpus:
            os.sched_setaffinity(0, {cpus[0]})
        self.selector = selectors.DefaultSelector()
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def call_at(self, due: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._timers, (due, next(self._seq), fn))

    def close(self) -> None:
        self.selector.close()

    def _fire_due(self) -> float | None:
        while self._timers and self._timers[0][0] <= time.perf_counter():
            heapq.heappop(self._timers)[2]()
        return self._timers[0][0] if self._timers else None

    def run_child(self, argv: list[str], *, cwd: Path, env: dict[str, str],
                  log_prefix: Path, watch: Path | None = None,
                  timeout_s: float = 120.0) -> ChildRun:
        """Spawn argv, serve the fake endpoints until it exits, and reap it
        with wait4 so its CPU time and peak RSS are its own."""
        exited: list[float] = []
        first_output: float | None = None
        with open(f"{log_prefix}.out", "wb") as out, open(f"{log_prefix}.err", "wb") as err:
            spawned = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
        if self.child_cpus:  # before the interpreter in the child starts a thread
            try:
                os.sched_setaffinity(proc.pid, self.child_cpus)
            except ProcessLookupError:
                pass  # already gone; wait4 below still reaps it
        pidfd = os.pidfd_open(proc.pid)
        self.selector.register(pidfd, selectors.EVENT_READ,
                               lambda: exited.append(time.perf_counter()))
        timed_out = False
        try:
            while not exited:
                next_due = self._fire_due()
                now = time.perf_counter()
                if now - spawned > timeout_s and not timed_out:
                    timed_out = True
                    proc.send_signal(signal.SIGKILL)
                wait = 0.5 if next_due is None else max(0.0, next_due - now)
                if watch is not None and first_output is None:
                    wait = min(wait, _OUTPUT_POLL_S)
                for key, _ in self.selector.select(wait):
                    key.data()
                if watch is not None and first_output is None and _has_line(watch):
                    first_output = time.perf_counter()
        finally:
            self.selector.unregister(pidfd)
            os.close(pidfd)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if watch is not None and first_output is None and _has_line(watch):
            first_output = exited[0]
        return ChildRun(argv=argv, exit_code=proc.returncode, spawned=spawned,
                        exited=exited[0], cpu_s=usage.ru_utime + usage.ru_stime,
                        peak_rss_mb=usage.ru_maxrss / 1024.0, first_output=first_output,
                        timed_out=timed_out)


def _has_line(path: Path) -> bool:
    """Whether the file holds a complete line; a stat call while it is empty."""
    try:
        if os.stat(path).st_size == 0:
            return False
        with open(path, "rb") as fh:
            return b"\n" in fh.read(1 << 16)
    except FileNotFoundError:
        return False
