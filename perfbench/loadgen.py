"""Open-loop RANK load generator: one thread, a fixed arrival schedule, and
a pool of a few persistent connections. Like an HTTP/1.1 client pool it
never pipelines: a due request goes out on an idle connection, or waits in
the client until one frees up. Each request is timed from its due time, so
any wait (in the client pool, the socket or the server) counts; how late the
generator itself noticed a due request is reported separately."""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass


@dataclass
class Outcome:
    line: str
    due: float
    noticed: float = float("nan")
    sent: float = float("nan")
    received: float = float("nan")
    reply: str | None = None

    @property
    def latency_ms(self) -> float:
        return (self.received - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.noticed - self.due) * 1e3


def connect(port: int, n: int) -> list[socket.socket]:
    socks = []
    for _ in range(n):
        s = socket.create_connection(("127.0.0.1", port), timeout=30)
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        socks.append(s)
    return socks


def request_once(sock: socket.socket, line: str) -> str:
    """Closed-loop: send one line and wait for its reply line."""
    sock.sendall((line + "\n").encode("utf-8"))
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
    return buf.decode("utf-8").rstrip("\n")


def run_open_loop(socks: list[socket.socket], schedule: list[tuple[float, str]],
                  timeout_s: float = 30.0) -> list[Outcome]:
    """Issue each (due offset, line) at its due time and collect replies.
    Requests without a reply ``timeout_s`` after the last due time keep
    ``reply=None``."""
    clock = time.perf_counter
    sel = selectors.DefaultSelector()
    for i, s in enumerate(socks):
        sel.register(s, selectors.EVENT_READ, i)
    busy: list[int | None] = [None] * len(socks)
    buffers = [b""] * len(socks)
    waiting: deque[int] = deque()
    start = clock() + 0.05
    outcomes = [Outcome(line, start + off) for off, line in schedule]
    deadline = (outcomes[-1].due if outcomes else start) + timeout_s
    nxt = received = 0
    try:
        while received < len(outcomes):
            now = clock()
            if now > deadline:
                break
            while nxt < len(outcomes) and outcomes[nxt].due <= now:
                outcomes[nxt].noticed = now
                waiting.append(nxt)
                nxt += 1
            for c in range(len(socks)):
                if busy[c] is None and waiting:
                    i = busy[c] = waiting.popleft()
                    socks[c].sendall((outcomes[i].line + "\n").encode("utf-8"))
                    outcomes[i].sent = clock()
            wait = outcomes[nxt].due - clock() if nxt < len(outcomes) else deadline - clock()
            for key, _ in sel.select(max(0.0, wait)):
                c = key.data
                chunk = socks[c].recv(65536)
                t = clock()
                if not chunk:
                    raise ConnectionError("server closed the connection")
                buffers[c] += chunk
                if buffers[c].endswith(b"\n"):
                    o = outcomes[busy[c]]
                    o.received, o.reply = t, buffers[c].decode("utf-8").rstrip("\n")
                    buffers[c], busy[c] = b"", None
                    received += 1
    finally:
        sel.close()
    return outcomes
