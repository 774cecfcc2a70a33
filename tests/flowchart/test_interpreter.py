"""Unit tests for repro.flowchart.interpreter (step-counted execution)."""

import pytest

from repro.core import ProductDomain, VALUE_AND_TIME, VALUE_ONLY
from repro.core.errors import ArityMismatchError, FuelExhaustedError
from repro.flowchart.boxes import AssignBox, DecisionBox, HaltBox, StartBox
from repro.flowchart.expr import Const, var
from repro.flowchart.interpreter import (as_program, execute,
                                         initial_environment, running_time)
from repro.flowchart.library import timing_loop
from repro.flowchart.program import Flowchart


def straightline():
    boxes = {
        "start": StartBox("a1"),
        "a1": AssignBox("r", var("x1") * 2, "a2"),
        "a2": AssignBox("y", var("r") + var("x2"), "halt"),
        "halt": HaltBox(),
    }
    return Flowchart(boxes, ["x1", "x2"], name="line")


def looper():
    boxes = {
        "start": StartBox("init"),
        "init": AssignBox("r", var("x1"), "test"),
        "test": DecisionBox(var("r").ne(0), "dec", "out"),
        "dec": AssignBox("r", var("r") - 1, "test"),
        "out": AssignBox("y", Const(1), "halt"),
        "halt": HaltBox(),
    }
    return Flowchart(boxes, ["x1"], name="loop")


class TestExecution:
    def test_computes_value(self):
        result = execute(straightline(), (3, 4))
        assert result.value == 10

    def test_initialisation(self):
        env = initial_environment(straightline(), (3, 4))
        assert env == {"x1": 3, "x2": 4, "r": 0, "y": 0}

    def test_initialisation_never_shares_the_cached_template(self):
        flowchart = straightline()
        first = initial_environment(flowchart, (3, 4))
        first["r"] = 99
        assert initial_environment(flowchart, (5, 6)) == {
            "x1": 5, "x2": 6, "r": 0, "y": 0}
        assert list(first) == list(flowchart.start_environment())

    def test_output_defaults_to_zero(self):
        boxes = {"start": StartBox("halt"), "halt": HaltBox()}
        flowchart = Flowchart(boxes, ["x1"], name="empty")
        assert execute(flowchart, (9,)).value == 0

    def test_arity_checked(self):
        with pytest.raises(ArityMismatchError):
            execute(straightline(), (1,))

    def test_branching(self):
        assert execute(looper(), (0,)).value == 1
        assert execute(looper(), (5,)).value == 1


class TestStepCounting:
    def test_straightline_steps(self):
        # a1, a2, halt = 3 steps (start is free).
        assert execute(straightline(), (0, 0)).steps == 3

    def test_loop_steps_grow_linearly(self):
        """The timing channel: steps are 2 per iteration + constant."""
        steps = [execute(looper(), (n,)).steps for n in range(5)]
        deltas = [b - a for a, b in zip(steps, steps[1:])]
        assert deltas == [2, 2, 2, 2]

    def test_running_time_helper(self):
        assert running_time(straightline(), (0, 0)) == 3

    def test_steps_deterministic(self):
        flowchart = timing_loop()
        assert (execute(flowchart, (7,)).steps
                == execute(flowchart, (7,)).steps)


class TestFuel:
    def test_diverging_program_raises(self):
        boxes = {
            "start": StartBox("spin"),
            "spin": AssignBox("r", var("r") + 1, "test"),
            "test": DecisionBox(var("r").ge(0), "spin", "halt"),
            "halt": HaltBox(),
        }
        flowchart = Flowchart(boxes, ["x1"], name="spin")
        with pytest.raises(FuelExhaustedError) as info:
            execute(flowchart, (0,), fuel=50)
        assert info.value.fuel == 50

    def test_fuel_large_enough_succeeds(self):
        assert execute(looper(), (10,), fuel=100).value == 1


class TestTrace:
    def test_trace_records_box_order(self):
        result = execute(straightline(), (1, 1), record_trace=True)
        assert result.trace == ("a1", "a2", "halt")

    def test_trace_off_by_default(self):
        assert execute(straightline(), (1, 1)).trace is None

    def test_final_environment_opt_in(self):
        result = execute(straightline(), (3, 4), capture_env=True)
        assert result.env["r"] == 6
        assert result.env["y"] == 10

    def test_environment_not_captured_by_default(self):
        # The hot path (as_program, the sweep runners) needs only
        # (value, steps, faults); env snapshots are opt-in.
        assert execute(straightline(), (3, 4)).env is None


class TestAsProgram:
    GRID = ProductDomain.integer_grid(0, 3, 2)

    def test_value_only(self):
        q = as_program(straightline(), self.GRID, VALUE_ONLY)
        assert q(3, 3) == 9

    def test_value_and_time(self):
        q = as_program(straightline(), self.GRID, VALUE_AND_TIME)
        assert q(3, 3) == (9, 3)
        assert "time" in q.name

    def test_observation_projection_consistency(self):
        plain = as_program(straightline(), self.GRID, VALUE_ONLY)
        timed = as_program(straightline(), self.GRID, VALUE_AND_TIME)
        for point in self.GRID:
            assert timed(*point)[0] == plain(*point)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ArityMismatchError):
            as_program(straightline(), ProductDomain.integer_grid(0, 1, 3))


class TestMemoryFootprint:
    """The `touched` observable: the page-fault proxy of Section 6."""

    def test_touched_covers_reads_and_writes(self):
        result = execute(straightline(), (1, 2))
        assert result.touched == {"x1", "x2", "r", "y"}
        assert result.faults == 4

    def test_decision_variables_are_touched(self):
        result = execute(looper(), (0,))
        assert "r" in result.touched

    def test_output_always_touched(self):
        boxes = {"start": StartBox("halt"), "halt": HaltBox()}
        flowchart = Flowchart(boxes, ["x1"], name="empty")
        assert execute(flowchart, (9,)).touched == {"y"}

    def test_observation_carries_fault_attribute(self):
        observation = execute(straightline(), (1, 2)).observation()
        assert observation.attributes["faults"] == 4

    def test_fault_channel_program_separation(self):
        """Equal value and time, different footprint (experiment E27)."""
        from repro.flowchart.library import fault_channel_program

        flowchart = fault_channel_program()
        zero = execute(flowchart, (0,))
        nonzero = execute(flowchart, (1,))
        assert zero.value == nonzero.value
        assert zero.steps == nonzero.steps
        assert zero.faults != nonzero.faults
