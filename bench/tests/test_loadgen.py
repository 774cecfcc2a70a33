"""The open-loop generator charges a server stall to every request
queued behind it (no coordinated omission)."""

import asyncio
import time

import loadgen

RATE = 100.0
REQUESTS = 60
STALL_ON = 5
STALL_S = 0.2


async def _stub_server(stall: dict):
    """HTTP stub answering ``{}``; the STALL_ON-th request freezes every
    response for STALL_S seconds."""
    loop = asyncio.get_running_loop()
    seen = 0

    async def handle(reader, writer):
        nonlocal seen
        try:
            while await reader.readline():
                length = 0
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b""):
                        break
                    if header.lower().startswith(b"content-length"):
                        length = int(header.split(b":")[1])
                await reader.readexactly(length)
                seen += 1
                if seen == STALL_ON:
                    stall["gate"] = loop.create_future()
                    stall["start"] = time.monotonic()
                    loop.call_later(STALL_S, stall["gate"].set_result, None)
                if "gate" in stall and not stall["gate"].done():
                    await stall["gate"]
                    stall.setdefault("end", time.monotonic())
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                await writer.drain()
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


async def _scenario():
    stall: dict = {}
    server = await _stub_server(stall)
    port = server.sockets[0].getsockname()[1]
    client = loadgen.OpenLoopClient("127.0.0.1", port, connections=2)
    try:
        offsets = [i / RATE for i in range(REQUESTS)]
        outcomes = await client.run(offsets, [b"{}"] * REQUESTS)
    finally:
        await client.close()
        server.close()
        await server.wait_closed()
    return outcomes, stall


def test_requests_queued_behind_a_stall_are_charged_the_wait():
    outcomes, stall = loadgen.run(_scenario())
    assert all(o.status == 200 for o in outcomes)
    start, end = stall["start"], stall["end"]
    behind = [o for o in outcomes if start + 0.01 < o.due < end - 0.01]
    assert len(behind) >= 0.8 * STALL_S * RATE
    for outcome in behind:
        # Nothing due during the stall can finish before it ends, and
        # the latency counts from the due time, not from the send.
        assert outcome.done >= end
        assert outcome.latency >= end - outcome.due - 1e-3
    # Beyond the two requests held by the server, the rest waited on
    # the client side, and that wait is recorded as queue time.
    queued = [o for o in behind if o.sent >= end]
    assert len(queued) >= len(behind) - 2
    assert all(o.queue >= end - o.due - 1e-3 for o in queued)
    # A closed-loop client would have reported at most one slow request
    # per connection; here every request due in the stall is slow.
    slow = [o for o in outcomes if o.latency > STALL_S / 2]
    assert len(slow) >= 0.4 * STALL_S * RATE
    # The generator itself stayed on schedule.
    assert loadgen.percentile([o.lag for o in outcomes], 99) < 0.005


def test_poisson_schedule_is_seeded_and_increasing():
    import random

    first = loadgen.poisson_schedule(500.0, 2.0, random.Random(7))
    again = loadgen.poisson_schedule(500.0, 2.0, random.Random(7))
    assert first == again
    assert all(a < b for a, b in zip(first, first[1:]))
    assert 800 < len(first) < 1200
