"""Hammer tests: the memo and metrics registry under server concurrency.

`repro serve` shares its `_LRUMemo`s (the response cache) and one
`MetricsRegistry` across every request thread, so torn reads that a
CLI run could never observe become routine: memo stats used to read
`len`/`hits`/`misses` without the memo lock and could report
`size > maxsize` mid-trim.  These tests drive many threads through the
shared structures and assert every observable snapshot is internally
consistent.
"""

import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.cache import _LRUMemo

THREADS = 8
ROUNDS = 400


def hammer(worker, threads=THREADS):
    """Run `worker(index)` across threads, re-raising the first error."""
    errors = []

    def run(index):
        try:
            worker(index)
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]


class TestMemoHammer:
    def test_stats_never_tear_under_put_get(self):
        memo = _LRUMemo(32)
        stop = threading.Event()

        def mutate(index):
            for round_ in range(ROUNDS):
                memo.put((index, round_), round_)
                memo.get((index, round_ - 1))

        def observe(_):
            while not stop.is_set():
                stats = memo.stats()
                assert 0 <= stats["size"] <= max(stats["maxsize"], 0), stats
                assert stats["hits"] >= 0 and stats["misses"] >= 0

        observer = threading.Thread(target=observe, args=(0,))
        observer.start()
        try:
            hammer(mutate)
        finally:
            stop.set()
            observer.join()
        final = memo.stats()
        assert final["size"] <= final["maxsize"]


class TestRegistryHammer:
    def test_counters_lose_no_increments(self):
        registry = MetricsRegistry()

        def bump(_):
            for _ in range(ROUNDS):
                registry.counter("serve.requests").inc()
                registry.histogram("serve.latency").observe(0.001)
                registry.gauge("serve.inflight").set(1)

        hammer(bump)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["serve.requests"] == THREADS * ROUNDS
        histogram = snapshot["histograms"]["serve.latency"]
        assert histogram["count"] == THREADS * ROUNDS

    def test_snapshot_while_mutating_is_well_formed(self):
        registry = MetricsRegistry()
        stop = threading.Event()

        def mutate(index):
            for round_ in range(ROUNDS):
                registry.counter(f"c{index % 3}").inc()
                registry.histogram("h").observe(float(round_ % 7))
                registry.gauge("g").set(float(round_))

        def observe(_):
            while not stop.is_set():
                snapshot = registry.snapshot()
                for histogram in snapshot["histograms"].values():
                    assert histogram["count"] >= 0
                    if histogram["count"]:
                        assert histogram["min"] <= histogram["max"]
                for value in snapshot["counters"].values():
                    assert value >= 0

        observer = threading.Thread(target=observe, args=(0,))
        observer.start()
        try:
            hammer(mutate)
        finally:
            stop.set()
            observer.join()
