"""Self-clocked /execute coalescing, driven on a real event loop.

The batcher coalesces a key's requests only while there is something
to wait for: with no batch of that key executing, a new batch flushes
on the next loop turn; while one executes, arrivals accumulate and
flush when it delivers.  ``window_s`` bounds any wait.  The executor
here runs each batch on its own thread and can hold the first batches
shut, so a test decides when a batch delivers.
"""

import asyncio
import concurrent.futures
import threading

import pytest

from repro import obs
from repro.flowchart.interpreter import DEFAULT_FUEL
from repro.serve.batcher import ExecuteBatcher, execute_point_outcome
from repro.serve.schema import library_flowchart

MAX = library_flowchart("max")
GCD = library_flowchart("gcd")
KEY_MAX = ("max", DEFAULT_FUEL, None)
KEY_GCD = ("gcd", DEFAULT_FUEL, None)


class HeldExecutor:
    """Runs each call on its own thread; the first ``hold`` calls wait
    until :attr:`release` is set."""

    def __init__(self, hold: int = 0) -> None:
        self.release = threading.Event()
        self.hold = hold
        self.submitted = 0

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        held = self.submitted < self.hold
        self.submitted += 1

        def body():
            if held:
                self.release.wait(30)
            try:
                future.set_result(fn(*args))
            except BaseException as error:  # noqa: BLE001 - handed on
                future.set_exception(error)

        threading.Thread(target=body, daemon=True).start()
        return future


def scalar(flowchart, point):
    return execute_point_outcome(flowchart, point, DEFAULT_FUEL, None,
                                 "compiled")


async def until(predicate, timeout: float = 5.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0.001)


@pytest.fixture
def trace():
    sink = obs.RingBufferSink()
    obs.enable(metrics=False, sinks=[sink])
    try:
        yield sink
    finally:
        obs.disable()


def flushes(trace):
    """What flushed each traced batch, in the order the reasons sort."""
    return sorted(span["flushed_by"] for span in trace.events("span_start")
                  if span["op"] == "batch")


def run(executor, scenario, **options):
    async def main():
        batcher = ExecuteBatcher(asyncio.get_running_loop(), executor,
                                 **options)
        try:
            return await asyncio.wait_for(scenario(batcher), timeout=30)
        finally:
            executor.release.set()

    return asyncio.run(main())


class TestSelfClocking:
    def test_lone_submit_does_not_wait_for_the_window(self):
        """Nothing executes, so nothing is worth waiting for: a 5 s
        window must not delay a lone request."""
        async def scenario(batcher):
            loop = asyncio.get_running_loop()
            started = loop.time()
            outcome = await batcher.submit(KEY_MAX, MAX, (3, 4),
                                           DEFAULT_FUEL, None)
            return outcome, loop.time() - started

        outcome, elapsed = run(HeldExecutor(), scenario, window_s=5.0)
        assert outcome == scalar(MAX, (3, 4))
        assert elapsed < 0.5

    def test_burst_behind_a_held_batch_shares_one_batch(self, trace):
        """Same-key requests issued while that key's batch executes
        coalesce into one batch, which flushes when the held batch
        delivers, long before the window ends."""
        lanes = 6
        executor = HeldExecutor(hold=1)

        async def scenario(batcher):
            loop = asyncio.get_running_loop()
            first = asyncio.ensure_future(batcher.submit(
                KEY_MAX, MAX, (0, 0), DEFAULT_FUEL, None))
            await until(lambda: executor.submitted == 1)
            burst = [asyncio.ensure_future(batcher.submit(
                KEY_MAX, MAX, (i, 1), DEFAULT_FUEL, None))
                for i in range(lanes)]
            await asyncio.sleep(0.05)
            assert batcher.batches_flushed == 1
            assert not any(future.done() for future in burst)
            released = loop.time()
            executor.release.set()
            outcomes = await asyncio.gather(first, *burst)
            return outcomes, loop.time() - released, batcher

        outcomes, elapsed, batcher = run(executor, scenario, window_s=5.0)
        assert elapsed < 1.0
        assert batcher.batches_flushed == 2
        assert batcher.lanes_executed == lanes + 1
        assert outcomes == [scalar(MAX, (0, 0))] + [
            scalar(MAX, (i, 1)) for i in range(lanes)]
        assert [(span["flushed_by"], span["lanes"])
                for span in trace.events("span_start")
                if span["op"] == "batch"] == [("idle", 1),
                                              ("delivery", lanes)]

    def test_window_bounds_the_wait_on_a_batch_that_never_delivers(
            self, trace):
        window = 0.2
        executor = HeldExecutor(hold=1)

        async def scenario(batcher):
            loop = asyncio.get_running_loop()
            held = asyncio.ensure_future(batcher.submit(
                KEY_MAX, MAX, (0, 0), DEFAULT_FUEL, None))
            await until(lambda: executor.submitted == 1)
            started = loop.time()
            outcome = await asyncio.wait_for(batcher.submit(
                KEY_MAX, MAX, (5, 2), DEFAULT_FUEL, None), timeout=5.0)
            waited = loop.time() - started
            assert not held.done()
            assert batcher.batches_flushed == 2
            executor.release.set()
            await held
            return outcome, waited

        outcome, waited = run(executor, scenario, window_s=window)
        assert outcome == scalar(MAX, (5, 2))
        assert waited >= window - 0.05
        waits = {span["flushed_by"]: span["waited_ms"]
                 for span in trace.events("span_start")
                 if span["op"] == "batch"}
        assert set(waits) == {"idle", "window"}
        assert waits["window"] >= 1000 * (window - 0.05)
        assert waits["idle"] < 1000 * window

    def test_different_keys_never_wait_for_each_other(self):
        executor = HeldExecutor(hold=1)

        async def scenario(batcher):
            loop = asyncio.get_running_loop()
            held = asyncio.ensure_future(batcher.submit(
                KEY_MAX, MAX, (0, 0), DEFAULT_FUEL, None))
            await until(lambda: executor.submitted == 1)
            started = loop.time()
            outcome = await asyncio.wait_for(batcher.submit(
                KEY_GCD, GCD, (12, 18), DEFAULT_FUEL, None), timeout=5.0)
            elapsed = loop.time() - started
            assert not held.done()
            executor.release.set()
            return outcome, elapsed, await held

        outcome, elapsed, held = run(executor, scenario, window_s=5.0)
        assert outcome == scalar(GCD, (12, 18))
        assert held == scalar(MAX, (0, 0))
        assert elapsed < 0.5


class TestStaleTimer:
    def test_max_lanes_flush_disarms_its_window(self, trace):
        """A batch that ``max_lanes`` flushed must take its window timer
        with it; a timer left armed would flush whichever batch of the
        key is pending when it fires, long before that batch's turn."""
        window = 1.0
        executor = HeldExecutor(hold=1)

        async def scenario(batcher):
            loop = asyncio.get_running_loop()
            held = asyncio.ensure_future(batcher.submit(
                KEY_MAX, MAX, (0, 0), DEFAULT_FUEL, None))
            await until(lambda: executor.submitted == 1)
            # Two lanes behind the held batch: max_lanes flushes them at
            # once, with their window due at opened + 1 s.
            opened = loop.time()
            full = await asyncio.gather(*(batcher.submit(
                KEY_MAX, MAX, (i, 1), DEFAULT_FUEL, None) for i in (1, 2)))
            await asyncio.sleep(max(0.0, opened + 0.5 - loop.time()))
            late = asyncio.ensure_future(batcher.submit(
                KEY_MAX, MAX, (3, 1), DEFAULT_FUEL, None))
            # Past the flushed batch's window, inside the late one's.
            await asyncio.sleep(max(0.0, opened + window + 0.15
                                    - loop.time()))
            assert batcher.batches_flushed == 2
            assert not late.done()
            executor.release.set()
            return full, await held, await late

        full, held, late = run(executor, scenario, window_s=window,
                               max_lanes=2)
        assert full == [scalar(MAX, (1, 1)), scalar(MAX, (2, 1))]
        assert held == scalar(MAX, (0, 0))
        assert late == scalar(MAX, (3, 1))
        assert flushes(trace) == ["delivery", "idle", "max_lanes"]
