"""Open-loop HTTP/1.1 load generator for the serve benchmark.

One process, one asyncio event loop, a fixed number of keep-alive
connections and no other threads.  Every request is *due* at a time
fixed before the phase starts (seeded Poisson arrivals, see
:func:`poisson_schedule`); when all connections are busy it waits in a
client-side FIFO.  Latency is measured from the due time, so a server
stall is charged to every request queued behind it -- the generator
never slows down to match the server (no coordinated omission).

Each :class:`Outcome` keeps four timestamps on the monotonic clock:
``due``, ``enqueued`` (when the generator got round to it; the gap is
generator lateness), ``sent`` (when a connection took it; the gap from
``due`` is client queue time) and ``done`` (last body byte read).
"""

from __future__ import annotations

import asyncio
import math
import random
import selectors
import time
from collections import deque
from typing import Deque, List, Optional, Sequence


def new_event_loop() -> asyncio.AbstractEventLoop:
    """An event loop whose timers wake with microsecond resolution.

    The default epoll selector rounds every timeout up to a whole
    millisecond, which would make the generator up to 1 ms late on
    every arrival; ``select()`` takes microseconds, and the benchmark
    holds only a handful of sockets.
    """
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


def run(coroutine):
    """Run ``coroutine`` to completion on a fresh :func:`new_event_loop`."""
    loop = new_event_loop()
    try:
        return loop.run_until_complete(coroutine)
    finally:
        loop.close()


def poisson_schedule(rate: float, duration: float,
                     rng: random.Random) -> List[float]:
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    offsets = []
    t = rng.expovariate(rate)
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


class Outcome:
    """One request's fate; ``status`` 0 means the connection failed."""

    __slots__ = ("index", "due", "enqueued", "sent", "done", "status", "body")

    def __init__(self, index: int, due: float) -> None:
        self.index = index
        self.due = due
        self.enqueued = math.nan
        self.sent = math.nan
        self.done = math.nan
        self.status = 0
        self.body = b""

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def queue(self) -> float:
        return self.sent - self.due

    @property
    def lag(self) -> float:
        return self.enqueued - self.due


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class OpenLoopClient:
    """Persistent keep-alive connections to one HTTP server."""

    def __init__(self, host: str, port: int, connections: int,
                 path: str = "/execute") -> None:
        if connections < 1:
            raise ValueError("need at least one connection")
        self.host = host
        self.port = port
        self.connections = connections
        self._head = (f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
                      "Content-Type: application/json\r\n"
                      "Content-Length: ").encode("latin-1")
        self._streams: List[Optional[tuple]] = [None] * connections

    async def close(self) -> None:
        for slot, stream in enumerate(self._streams):
            if stream is not None:
                await self._drop(slot)

    async def _drop(self, slot: int) -> None:
        _, writer = self._streams[slot]
        self._streams[slot] = None
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # the peer already went away; nothing left to close

    async def _exchange(self, slot: int, body: bytes):
        if self._streams[slot] is None:
            self._streams[slot] = await asyncio.open_connection(
                self.host, self.port)
        reader, writer = self._streams[slot]
        writer.write(self._head + b"%d\r\n\r\n" % len(body) + body)
        await writer.drain()
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(None, 2)[1])
        length = 0
        keep_alive = True
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                keep_alive = value.strip().lower() != b"close"
        payload = await reader.readexactly(length) if length else b""
        if not keep_alive:
            await self._drop(slot)
        return status, payload

    async def _worker(self, slot: int, queue: Deque[Outcome],
                      ready: asyncio.Event, bodies: Sequence[bytes],
                      state: dict) -> None:
        clock = time.monotonic
        while True:
            while not queue:
                if state["closed"]:
                    return
                ready.clear()
                await ready.wait()
            outcome = queue.popleft()
            outcome.sent = clock()
            try:
                outcome.status, outcome.body = await self._exchange(
                    slot, bodies[outcome.index])
            except (ConnectionError, OSError, asyncio.IncompleteReadError,
                    ValueError, IndexError):
                outcome.status = 0
                if self._streams[slot] is not None:
                    await self._drop(slot)
            outcome.done = clock()

    async def run(self, offsets: Sequence[float], bodies: Sequence[bytes],
                  lead: float = 0.005) -> List[Outcome]:
        """Send ``bodies[i]`` at phase start + ``offsets[i]``; await all.

        ``offsets`` must be non-decreasing.  The phase starts ``lead``
        seconds after the call so the first request is not born late.
        """
        if len(offsets) != len(bodies):
            raise ValueError("one offset per body")
        loop = asyncio.get_running_loop()
        clock = time.monotonic
        start = clock() + lead
        outcomes = [Outcome(i, start + offset)
                    for i, offset in enumerate(offsets)]
        queue: Deque[Outcome] = deque()
        ready = asyncio.Event()
        state = {"closed": False}
        workers = [loop.create_task(self._worker(slot, queue, ready, bodies,
                                                 state))
                   for slot in range(self.connections)]
        try:
            for outcome in outcomes:
                delay = outcome.due - clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                outcome.enqueued = clock()
                queue.append(outcome)
                ready.set()
            state["closed"] = True
            ready.set()
            await asyncio.gather(*workers)
        finally:
            for task in workers:
                task.cancel()
            await asyncio.gather(*workers, return_exceptions=True)
        return outcomes
