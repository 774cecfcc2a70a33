"""The chaos ``lost`` fault kind: a hung worker only a timeout saves.

A ``lost`` decision makes the task attempt sleep ``lost_seconds`` —
far beyond any reasonable ``chunk_timeout`` — simulating a worker that
took the task and went silent.  Nothing inside the worker ever raises,
so the *only* recovery path is the parent's per-chunk timeout, which
resubmits the attempt; the re-roll at ``attempt + 1`` is a fresh coin
from the same seed, so a recovered sweep is still fully deterministic
and its rows bit-identical to the serial sweep's.
"""

import pytest

from repro import obs
from repro.flowchart import library
from repro.verify import FACTORIES, parallel_soundness_sweep, soundness_sweep
from repro.verify import chaos
from repro.verify.chaos import FaultPlan

FLOWCHARTS = [library.forgetting_program()]

# Chosen so attempt 0 of at least one task rolls lost but the retry
# rolls clean — asserted below, so a hash change cannot silently turn
# this into a no-op test.
SEED = 5
LOST = 0.35


def rows(results):
    return [(r.program_name, r.policy_name, r.mechanism_name,
             r.sound, r.accepts, r.domain_size) for r in results]


@pytest.fixture(autouse=True)
def clear_plan():
    yield
    chaos.clear()


def test_lost_decision_is_a_long_delay():
    plan = FaultPlan(seed=SEED, lost=1.0, lost_seconds=9.0)
    decision = plan.decide(0, 0, 0)
    assert not decision.crash
    assert decision.delay == 9.0


def test_lost_chunk_recovered_only_by_chunk_timeout():
    serial = soundness_sweep(FLOWCHARTS, FACTORIES["surveillance"])
    plan = FaultPlan(seed=SEED, lost=LOST, lost_seconds=2.0)
    # Chaos draws are per task: one chunk of the flowchart's 3x3 grid,
    # keyed by its first pair (pair 0).
    hit = [chunk for chunk in range(2)
           if plan.decide(0, chunk, 0).delay == 2.0]
    assert hit, "seed must lose at least one first attempt"
    chaos.install(plan)
    ring = obs.RingBufferSink()
    with obs.observed(sinks=[ring], reset=True):
        results = parallel_soundness_sweep(
            FLOWCHARTS, "surveillance", executor="thread", max_workers=2,
            chunk_size=5, chunk_timeout=0.2, max_chunk_retries=4)
    assert rows(results) == rows(serial)
    retries = ring.events("worker_retry")
    # A lost worker never raises — every retry it forces is a timeout.
    assert retries
    assert all("timeout" in event["reason"] for event in retries)


def test_lost_sweep_is_bit_identical_across_runs():
    chaos.install(FaultPlan(seed=SEED, lost=LOST, lost_seconds=2.0))
    first = parallel_soundness_sweep(
        FLOWCHARTS, "surveillance", executor="thread", max_workers=2,
        chunk_size=5, chunk_timeout=0.2, max_chunk_retries=4)
    second = parallel_soundness_sweep(
        FLOWCHARTS, "surveillance", executor="thread", max_workers=2,
        chunk_size=5, chunk_timeout=0.2, max_chunk_retries=4)
    assert rows(first) == rows(second)
