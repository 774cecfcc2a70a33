"""The runtime flag, the guarded hooks, and the instrumented hot layers.

These tests exercise the real integration: running flowcharts,
surveillance, and lint passes under ``obs.observed(...)`` and checking
the counters and events they leave behind.
"""

import pytest

from repro import obs
from repro.core.errors import FuelExhaustedError
from repro.core.policy import allow
from repro.flowchart import library
from repro.flowchart.fastpath import execute_compiled
from repro.flowchart.interpreter import execute
from repro.obs import runtime
from repro.verify.enumerate import default_grid


@pytest.fixture(autouse=True)
def _clean_runtime():
    """Every test starts and ends with observability off."""
    obs.disable()
    yield
    obs.disable()


class TestFlag:
    def test_off_by_default(self):
        assert runtime.active is False
        assert runtime.trace_active is False

    def test_emit_is_noop_when_off(self):
        runtime.emit("sweep_end", pairs=0, elapsed_s=0.0)  # must not raise

    def test_observed_toggles_and_restores(self):
        with obs.observed(reset=True):
            assert runtime.active is True
        assert runtime.active is False

    def test_reset_clears_previous_counters(self):
        with obs.observed(reset=True):
            runtime.inc("leftover")
        with obs.observed(reset=True):
            pass
        assert "leftover" not in obs.snapshot()["counters"]

    def test_unknown_event_kind_rejected_when_tracing(self):
        with obs.observed(sinks=[obs.RingBufferSink()], reset=True):
            with pytest.raises(ValueError, match="unknown event kind"):
                runtime.emit("telepathy")


class TestInterpreterInstrumentation:
    def test_run_counters_and_steps(self):
        flowchart = library.mixer_program()
        with obs.observed(reset=True):
            result = execute(flowchart, (2, 3))
        counters = obs.snapshot()["counters"]
        assert counters["run.count.interpreted"] == 1
        assert counters["run.steps_total"] == result.steps

    def test_fuel_exhaustion_recorded(self):
        flowchart = library.gcd_program()
        ring = obs.RingBufferSink()
        with obs.observed(sinks=[ring], reset=True):
            with pytest.raises(FuelExhaustedError):
                execute(flowchart, (12, 18), fuel=2)
        assert obs.snapshot()["counters"]["run.fuel_exhausted"] == 1
        events = ring.events("fuel_exhausted")
        assert events and events[0]["fuel"] == 2

    def test_box_step_sampling(self):
        flowchart = library.gcd_program()
        ring = obs.RingBufferSink()
        with obs.observed(sinks=[ring], box_sample_every=2, reset=True):
            result = execute(flowchart, (12, 18))
        sampled = ring.events("box_step")
        assert len(sampled) == result.steps // 2
        assert all(event["program"] == flowchart.name for event in sampled)

    def test_no_box_steps_without_sampling(self):
        ring = obs.RingBufferSink()
        with obs.observed(sinks=[ring], reset=True):
            execute(library.gcd_program(), (12, 18))
        assert ring.events("box_step") == []


class TestCompiledInstrumentation:
    def test_compiled_fuel_exhaustion_recorded(self):
        flowchart = library.gcd_program()
        with obs.observed(reset=True):
            with pytest.raises(FuelExhaustedError):
                execute_compiled(flowchart, (12, 18), fuel=2)
        assert obs.snapshot()["counters"]["run.fuel_exhausted"] == 1


class TestSurveillanceInstrumentation:
    def test_violations_and_runs_counted(self):
        from repro.surveillance.dynamic import surveil

        flowchart = library.forgetting_program()
        ring = obs.RingBufferSink()
        with obs.observed(sinks=[ring], reset=True):
            run = surveil(flowchart, (1, 1), frozenset())  # allow() -> Λ
        assert run.violated
        counters = obs.snapshot()["counters"]
        assert counters["surveillance.runs"] == 1
        assert counters["violations.raised"] == 1
        assert counters["violations.surveillance"] == 1
        assert ring.events("violation")

    def test_instrumented_mechanism_memo_and_violations(self):
        from repro.surveillance.instrument import instrumented_mechanism

        flowchart = library.forgetting_program()
        domain = default_grid(flowchart.arity)
        policy = allow(arity=flowchart.arity)
        with obs.observed(reset=True):
            mechanism = instrumented_mechanism(flowchart, policy, domain)
            mechanism(0, 0)
            instrumented_mechanism(flowchart, policy, domain)
        counters = obs.snapshot()["counters"]
        assert counters["memo.instrument.hits"] == 1
        assert counters["memo.instrument.misses"] == 1
        assert counters["violations.instrumented"] == 1


class TestLintInstrumentation:
    def test_lint_pass_events_and_counters(self):
        from repro.analysis import lint_flowchart

        ring = obs.RingBufferSink()
        with obs.observed(sinks=[ring], reset=True):
            report = lint_flowchart(library.mixer_program())
        counters = obs.snapshot()["counters"]
        assert counters["lint.runs"] == 1
        assert counters["lint.passes"] == len(report.pass_seconds)
        events = ring.events("lint_pass")
        assert {event["pass"] for event in events} == set(report.pass_seconds)
