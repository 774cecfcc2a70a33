"""Differential fault testing: every engine, one observable outcome.

The Observability Postulate makes the *failure mode* part of a
program's observable behaviour: which typed fault fires (fuel vs cap),
with which payload, on which input.  These properties drive the
interpreter, the compiled fastpath, and the batch tier over the whole
figure library plus adversarial value-blowup programs and arbitrary
box graphs (:mod:`tests.flowchart.box_graphs`: irreducible loops,
self-looping decisions, programs that never halt), under randomly
drawn fuel and cap budgets, and require bit-identical outcomes —
value, step count and touched set on success, fault type and payload
(and, between the interpreter and the compiled tier, message) on
failure.
"""

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.errors import (ExecutionError, FuelExhaustedError,
                               ValueCapExceededError)
from repro.flowchart import library as figure_library
from repro.flowchart.batchpath import K_CAP, K_FUEL, execute_batch
from repro.flowchart.expr import BoolConst, Const, LoopExpr, var
from repro.flowchart.fastpath import (LABEL_RULES, compile_flowchart,
                                      execute_compiled)
from repro.flowchart.interpreter import execute
from repro.flowchart.structured import (Assign, If, StructuredProgram,
                                        While)
from repro.surveillance.dynamic import policy_free_runs
from tests.flowchart.box_graphs import SHAPES, box_graphs, shapes


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

#: The programs above, or a drawn box graph.
FLOWCHARTS = st.one_of(st.sampled_from(PROGRAMS), box_graphs())


def outcome(engine, flowchart, inputs, fuel, value_cap):
    """A comparable fingerprint of one execution: result or typed fault."""
    try:
        result = engine(flowchart, inputs, fuel=fuel, value_cap=value_cap)
    except FuelExhaustedError as error:
        return ("fuel", error.fuel, str(error))
    except ValueCapExceededError as error:
        return ("cap", error.cap, str(error))
    return ("ok", result.value, result.steps, result.touched)


def notice(fingerprint):
    """What a batch lane reports: a fault notice carries its kind and
    budget, not the message."""
    return fingerprint[:2] if fingerprint[0] != "ok" else fingerprint


def batch_lane_outcome(rows, i):
    kind = rows.kind(i)
    if kind == K_FUEL:
        return ("fuel", rows.fuel)
    if kind == K_CAP:
        return ("cap", rows.cap)
    return ("ok", rows.value(i), rows.steps(i), rows.touched(i))


@pytest.mark.parametrize("shape", SHAPES)
def test_box_graphs_draw_every_shape(shape):
    find(box_graphs(), lambda flowchart: shape in shapes(flowchart),
         settings=settings(max_examples=2000, database=None, deadline=None,
                           phases=[Phase.generate]))


# Twice the draws the programs alone had, so they keep their share.
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_engines_agree_on_every_outcome(data):
    flowchart = data.draw(FLOWCHARTS)
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
    assert interpreted == compiled and notice(interpreted) == batch, (
        f"{flowchart.name}{inputs} fuel={fuel} cap={value_cap}: "
        f"interpreter {interpreted} != compiled {compiled} "
        f"!= batch {batch}")


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_batch_lanes_agree_per_point(data):
    # One whole vector through execute_batch, every lane against the
    # interpreter: mixed OK/fuel/cap partitions (including vectors
    # where every lane faults) must agree point for point.
    flowchart = data.draw(FLOWCHARTS)
    points = data.draw(st.lists(
        st.tuples(*[st.integers(-6, 6)] * flowchart.arity),
        min_size=1, max_size=12), label="points")
    fuel = data.draw(st.integers(1, 400), label="fuel")
    value_cap = data.draw(st.one_of(st.none(), st.integers(1, 16)),
                          label="value_cap")
    expected = [notice(outcome(execute, flowchart, point, fuel, value_cap))
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
    assert interpreted == compiled
    assert notice(interpreted) == ("cap", cap)


def _squaring_chain(loop):
    # y := x1 + 2, then 40 straight-line y := y * y (the body of an
    # endless loop when ``loop``): 3 squared 40 times is 2^40 · 1.6
    # bits wide, so a machine that ran the boxes past a small budget
    # before checking it would not return.
    squarings = [Assign("y", var("y") * var("y"))] * 40
    body = [While(BoolConst(True), squarings)] if loop else squarings
    return StructuredProgram(
        ["x1"], [Assign("y", var("x1") + Const(2))] + body,
        name="squaring-loop" if loop else "squaring-chain").compile()


#: The faults a budget raises, by fault kind.
RAISES = {"fuel": FuelExhaustedError, "cap": ValueCapExceededError}


@pytest.mark.parametrize("loop, value_cap, faults", [
    pytest.param(loop, value_cap, faults, id=shape + suffix)
    for shape, loop in (("chain", False), ("loop", True))
    for suffix, value_cap, faults in (
        ("", None, ("fuel", "fuel", "fuel")),
        ("-cap64", 64, ("fuel", "fuel", "cap")))])
def test_no_box_past_the_fuel_runs(loop, value_cap, faults):
    # Fuel bounds time on every machine: a block of boxes that would
    # cross the budget runs none of them past it.  Under a 64-bit cap
    # the sixth squaring, inside a budget of 12, breaks the cap first.
    flowchart = _squaring_chain(loop)
    capped = value_cap is not None
    bound = 1 << value_cap if capped else None
    for fuel, fault in zip((1, 5, 12), faults):
        expected = outcome(execute, flowchart, (1,), fuel, value_cap)
        assert expected[0] == fault
        assert outcome(execute_compiled, flowchart, (1,), fuel,
                       value_cap) == expected
        rows = execute_batch(flowchart, [(1,), (2,)], fuel=fuel,
                             value_cap=value_cap)
        assert [batch_lane_outcome(rows, i) for i in range(2)] == [
            notice(expected)] * 2
        for rule in LABEL_RULES:
            with pytest.raises(RAISES[fault]):
                compile_flowchart(flowchart, rule, capped).function(
                    (1,), fuel, [], value_cap, bound)


def _edge_program(loop):
    # if x1 > 0 { y := x1 * 4096; y := y + 1 }: at input 1 and fuel 2
    # the two-box block after the decision crosses the budget, and its
    # first box, inside the budget, faults first: it breaks a cap of 8
    # bits, or (``loop``) runs a LoopExpr past its own fuel.
    first = (LoopExpr(BoolConst(True), {"y": var("y") + Const(1)}, "y",
                      fuel=3)
             if loop else var("x1") * Const(4096))
    return StructuredProgram(
        ["x1"], [If(var("x1").gt(Const(0)),
                    [Assign("y", first), Assign("y", var("y") + Const(1))])],
        name="edge-loop" if loop else "edge-cap").compile()


@pytest.mark.parametrize("fuel", [2, 3])
def test_a_cap_broken_inside_the_budget_wins(fuel):
    flowchart = _edge_program(loop=False)
    expected = outcome(execute, flowchart, (1,), fuel, 8)
    assert expected[0] == "cap"
    assert outcome(execute_compiled, flowchart, (1,), fuel, 8) == expected
    rows = execute_batch(flowchart, [(1,)], fuel=fuel, value_cap=8)
    assert batch_lane_outcome(rows, 0) == notice(expected)
    lanes = {rule: execute_batch(flowchart, [(1,)], fuel=fuel, value_cap=8,
                                 labels=rule) for rule in LABEL_RULES}
    assert [batch.kind(0) for batch in lanes.values()] == [K_CAP, K_CAP]
    # The timed lane keeps the test it made before the fault.
    walked = policy_free_runs(flowchart, [(1,)], timed=True, fuel=fuel,
                              value_cap=8)
    assert lanes["timed"].rows[0][6] == walked[0].first_test == [(1, 1)]


@pytest.mark.parametrize("value_cap", [None, 8])
@pytest.mark.parametrize("fuel", [2, 3])
def test_a_loop_fault_inside_the_budget_wins(fuel, value_cap):
    flowchart = _edge_program(loop=True)
    runs = [lambda: execute(flowchart, (1,), fuel=fuel, value_cap=value_cap),
            lambda: execute_compiled(flowchart, (1,), fuel=fuel,
                                     value_cap=value_cap),
            lambda: execute_batch(flowchart, [(1,)], fuel=fuel,
                                  value_cap=value_cap)]
    runs += [lambda rule=rule: execute_batch(
        flowchart, [(1,)], fuel=fuel, value_cap=value_cap, labels=rule)
        for rule in LABEL_RULES]
    faults = []
    for run in runs:
        with pytest.raises(ExecutionError) as error:
            run()
        faults.append((type(error.value), str(error.value)))
    assert faults == [(ExecutionError, "LoopExpr exceeded fuel 3")] * 5


def test_a_capped_budget_edge_counts_one_fault():
    flowchart = _edge_program(loop=False)
    with obs.observed(metrics=True, reset=True) as registry:
        with pytest.raises(ValueCapExceededError):
            execute_compiled(flowchart, (1,), fuel=2, value_cap=8)
        counters = registry.snapshot()["counters"]
    assert counters["run.value_cap_exceeded"] == 1
    assert "run.fuel_exhausted" not in counters
    assert not [name for name in counters if name.startswith("run.count.")]
