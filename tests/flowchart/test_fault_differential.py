"""Differential fault testing: every engine, one observable outcome.

The Observability Postulate makes the *failure mode* part of a
program's observable behaviour: which typed fault fires (fuel vs cap),
with which payload, on which input.  These properties drive the
interpreter, the compiled fastpath, and the batch tier over the whole
figure library plus adversarial value-blowup programs, under randomly
drawn fuel and cap budgets, and require
bit-identical outcomes — value and step count on success, fault type
and payload on failure.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import FuelExhaustedError, ValueCapExceededError
from repro.flowchart import library as figure_library
from repro.flowchart.batchpath import K_CAP, K_FUEL, execute_batch
from repro.flowchart.expr import BoolConst, Const, var
from repro.flowchart.fastpath import execute_compiled
from repro.flowchart.interpreter import execute
from repro.flowchart.structured import (Assign, StructuredProgram, While)


def _doubling():
    return StructuredProgram(
        ["x1"],
        [Assign("y", var("x1") + Const(1)),
         While(BoolConst(True), [Assign("y", var("y") + var("y"))])],
        name="blowup-doubling").compile()


def _squaring():
    # Self-limiting uncapped (stops at 2**48) so the differential can
    # draw value_cap=None without materialising astronomically wide
    # integers; small caps still fault long before the loop exits.
    return StructuredProgram(
        ["x1"],
        [Assign("y", Const(3)),
         While(var("y").lt(Const(1 << 48)),
               [Assign("y", var("y") * var("y"))])],
        name="blowup-squaring").compile()


PROGRAMS = figure_library.extended_suite() + [_doubling(), _squaring()]


def outcome(engine, flowchart, inputs, fuel, value_cap):
    """A comparable fingerprint of one execution: result or typed fault."""
    try:
        result = engine(flowchart, inputs, fuel=fuel, value_cap=value_cap)
    except FuelExhaustedError as error:
        return ("fuel", error.fuel)
    except ValueCapExceededError as error:
        return ("cap", error.cap)
    return ("ok", result.value, result.steps)


def batch_lane_outcome(rows, i):
    kind = rows.kind(i)
    if kind == K_FUEL:
        return ("fuel", rows.fuel)
    if kind == K_CAP:
        return ("cap", rows.cap)
    return ("ok", rows.value(i), rows.steps(i))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_engines_agree_on_every_outcome(data):
    flowchart = data.draw(st.sampled_from(PROGRAMS))
    inputs = tuple(
        data.draw(st.integers(-6, 6), label=f"x{index + 1}")
        for index in range(flowchart.arity))
    fuel = data.draw(st.integers(1, 400), label="fuel")
    value_cap = data.draw(st.one_of(st.none(), st.integers(1, 16)),
                          label="value_cap")
    interpreted = outcome(execute, flowchart, inputs, fuel, value_cap)
    compiled = outcome(execute_compiled, flowchart, inputs, fuel,
                       value_cap)
    batch = batch_lane_outcome(execute_batch(
        flowchart, [inputs], fuel=fuel, value_cap=value_cap), 0)
    assert interpreted == compiled == batch, (
        f"{flowchart.name}{inputs} fuel={fuel} cap={value_cap}: "
        f"interpreter {interpreted} != compiled {compiled} "
        f"!= batch {batch}")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batch_lanes_agree_per_point(data):
    # One whole vector through execute_batch, every lane against the
    # interpreter: mixed OK/fuel/cap partitions (including vectors
    # where every lane faults) must agree point for point.
    flowchart = data.draw(st.sampled_from(PROGRAMS))
    points = data.draw(st.lists(
        st.tuples(*[st.integers(-6, 6)] * flowchart.arity),
        min_size=1, max_size=12), label="points")
    fuel = data.draw(st.integers(1, 400), label="fuel")
    value_cap = data.draw(st.one_of(st.none(), st.integers(1, 16)),
                          label="value_cap")
    expected = [outcome(execute, flowchart, point, fuel, value_cap)
                for point in points]
    rows = execute_batch(flowchart, points, fuel=fuel, value_cap=value_cap)
    actual = [batch_lane_outcome(rows, i) for i in range(len(points))]
    assert actual == expected, (
        f"{flowchart.name} fuel={fuel} cap={value_cap}: "
        f"{actual} != {expected}")


@settings(max_examples=60, deadline=None)
@given(x1=st.integers(1, 4), cap=st.integers(1, 10))
def test_blowup_always_faults_identically(x1, cap):
    # x1 >= 1 keeps the doubled value strictly growing (0 and -1 inputs
    # reach the loop's fixed point at 0 and never widen).
    # With generous fuel the doubling loop must hit the cap in both
    # engines — and the environments they observed up to the fault are
    # not part of the outcome, only the typed fault itself is.
    flowchart = _doubling()
    interpreted = outcome(execute, flowchart, (x1,), 100_000, cap)
    compiled = outcome(execute_compiled, flowchart, (x1,), 100_000, cap)
    assert interpreted == compiled == ("cap", cap)
