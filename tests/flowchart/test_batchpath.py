"""The batch tier: row-identical to the interpreter, per lane.

``execute_batch`` runs a whole vector of grid points through the
flowchart's compiled-tier function in one loop.  Its contract is
bit-identity with the per-point engines: value/steps/touched on
success and the same typed fault kind on fuel or cap exhaustion, for
inputs and values of any width.
"""

import pytest

from repro import obs
from repro.core.errors import (ArityMismatchError, FuelExhaustedError,
                               ReproError, ValueCapExceededError)
from repro.flowchart import library as figure_library
from repro.flowchart import fastpath
from repro.flowchart.batchpath import (K_CAP, K_FUEL, K_OK, compile_batch,
                                       execute_batch)
from repro.flowchart.expr import BoolConst, Const, var
from repro.flowchart.fastpath import (BACKENDS, compile_flowchart,
                                      resolve_backend, run_flowchart)
from repro.flowchart.interpreter import execute
from repro.flowchart.structured import Assign, StructuredProgram, While


def grid_points(arity, low=-2, high=3):
    if arity == 0:
        return [()]
    points = [(v,) for v in range(low, high + 1)]
    for _ in range(arity - 1):
        points = [p + (v,) for p in points for v in range(low, high + 1)]
    return points


def interpreter_row(flowchart, point, fuel, value_cap):
    try:
        result = execute(flowchart, point, fuel=fuel, value_cap=value_cap)
    except FuelExhaustedError:
        return ("fuel",)
    except ValueCapExceededError:
        return ("cap",)
    return ("ok", result.value, result.steps, result.touched)


def batch_row(rows, i):
    kind = rows.kind(i)
    if kind == K_FUEL:
        return ("fuel",)
    if kind == K_CAP:
        return ("cap",)
    return ("ok", rows.value(i), rows.steps(i), rows.touched(i))


def squaring_program():
    """y squares from 3 until it passes 2**48: loop-carried widening."""
    return StructuredProgram(
        ["x1"],
        [Assign("y", Const(3)),
         While(var("y").lt(Const(1 << 48)),
               [Assign("y", var("y") * var("y"))])],
        name="batch-widening").compile()


def wide_constant_program():
    """y := x1 + 2**70: every value wider than an int64."""
    return StructuredProgram(
        ["x1"],
        [Assign("y", var("x1") + Const(1 << 70))],
        name="batch-wide-const").compile()


#: Programs and points past int64: loop-carried widening, a 71-bit
#: literal, and an input of 2**200.
WIDE_CASES = [
    (squaring_program, [(0,), (1,)]),
    (wide_constant_program, [(1,), (2,), (-(1 << 200),)]),
    (figure_library.forgetting_program,
     [(1, 2), (1 << 200, 3), (4, 5), (6, 1 << 200)]),
]


def assert_rows_match(flowchart, points, fuel, value_cap, lanes):
    rows = execute_batch(flowchart, points, fuel=fuel,
                         value_cap=value_cap)
    assert len(rows) == len(points)
    for i, point in enumerate(points):
        expected = interpreter_row(flowchart, point, fuel, value_cap)
        actual = batch_row(rows, i)
        assert actual == expected, (
            f"{flowchart.name}{point} fuel={fuel} cap={value_cap} "
            f"lanes={lanes}: batch {actual} != interpreter {expected}")


class TestRowIdentity:
    def test_library_suite_uncapped(self, lanes):
        # The empty vector is an input too: an empty result.
        for flowchart in figure_library.extended_suite():
            for points in (grid_points(flowchart.arity), []):
                assert_rows_match(flowchart, points, 100_000, None, lanes)

    def test_library_suite_tight_fuel(self, lanes):
        # A tight budget retires different lanes at different boxes —
        # the mixed OK/fuel partition must match point-for-point.
        for flowchart in figure_library.extended_suite():
            points = grid_points(flowchart.arity)
            for fuel in (1, 3, 7):
                assert_rows_match(flowchart, points, fuel, None, lanes)

    def test_library_suite_tight_cap(self, lanes):
        for flowchart in figure_library.extended_suite():
            points = grid_points(flowchart.arity)
            for cap in (1, 4):
                assert_rows_match(flowchart, points, 100_000, cap, lanes)

    def test_all_lanes_fault(self, lanes):
        flowchart = figure_library.gcd_program()
        points = grid_points(2, 1, 6)
        rows = execute_batch(flowchart, points, fuel=1)
        assert all(rows.kind(i) == K_FUEL for i in range(len(points)))

    def test_wide_programs(self, lanes):
        # Widening loops, wide literals and wide inputs, under budgets
        # that halt, run dry and break the cap.
        for build, points in WIDE_CASES:
            flowchart = build()
            for fuel, cap in ((100_000, None), (3, None), (100_000, 40)):
                assert_rows_match(flowchart, points, fuel, cap, lanes)


class TestLaneFallback:
    """Lanes hold Python ints, so inputs and values wider than an int64
    keep their rows."""

    def test_oversized_inputs_retire_to_fallback(self):
        flowchart = figure_library.forgetting_program()
        points = [(1, 2), (1 << 200, 3), (4, 5)]
        rows = execute_batch(flowchart, points)
        for i, point in enumerate(points):
            assert batch_row(rows, i) == interpreter_row(
                flowchart, point, 100_000, None)

    def test_uncertifiable_widths_land_on_python_lanes(self):
        # A 71-bit literal makes every value wider than an int64.
        wide = wide_constant_program()
        rows = execute_batch(wide, [(1,), (2,)])
        for i, point in enumerate([(1,), (2,)]):
            assert batch_row(rows, i) == interpreter_row(
                wide, point, 100_000, None)


class TestRunMetrics:
    """A batch is one run: ``run.steps_total`` after it is
    ``sum(rows.steps(i))`` (a lane that ran dry reads 0 steps, as a
    faulted compiled-tier run records none), and no lane records a run
    or a fault of its own (its caller counts the fault)."""

    @staticmethod
    def assert_steps_total(flowchart, points, **kwargs):
        with obs.observed(metrics=True, reset=True) as registry:
            rows = execute_batch(flowchart, points, **kwargs)
            counters = registry.snapshot()["counters"]
            histogram = registry.snapshot()["histograms"]["run.steps"]
        assert counters["run.count.batch"] == 1
        assert "run.count.compiled" not in counters
        assert "run.fuel_exhausted" not in counters
        assert counters["run.steps_total"] == sum(
            rows.steps(i) for i in range(len(points)))
        assert histogram["count"] == 1
        return rows

    def test_certified_batch(self, lanes):
        # gcd halts on some points and runs dry at fuel 12 on others.
        rows = self.assert_steps_total(figure_library.gcd_program(),
                                       grid_points(2, 0, 6), fuel=12)
        kinds = {rows.kind(i) for i in range(len(rows))}
        assert kinds == {K_OK, K_FUEL}

    def test_oversized_input_lanes(self, lanes):
        rows = self.assert_steps_total(
            figure_library.forgetting_program(),
            [(1, 2), (1 << 200, 3), (4, 5), (6, 1 << 200)])
        assert rows.steps(1) == execute(figure_library.forgetting_program(),
                                        (1 << 200, 3)).steps

    def test_uncertifiable_width_batch(self):
        wide = StructuredProgram(
            ["x1"],
            [Assign("r", var("x1")),
             While(var("r").ne(0), [Assign("r", var("r") - 1)]),
             Assign("y", var("x1") + Const(1 << 70))],
            name="batch-wide-loop").compile()
        rows = self.assert_steps_total(wide, [(1,), (3,), (40,)], fuel=30)
        assert [rows.kind(i) for i in range(3)] == [K_OK, K_OK, K_FUEL]


class TestCachesAndStats:
    def test_compile_cache_hits(self):
        # Lanes call the compiled tier's function, compiled once per
        # flowchart and shared with every per-point run.
        flowchart = figure_library.gcd_program()
        execute_batch(flowchart, [(6, 4)])
        compiled = compile_batch(flowchart)
        execute_batch(flowchart, [(9, 6)])
        assert compile_batch(flowchart) is compiled
        assert compile_flowchart(flowchart) is compiled


class TestTierRegistry:
    def test_batch_tier_registered(self):
        assert "batch" in BACKENDS

    def test_alias_resolves(self):
        assert resolve_backend("interp") == "interpreted"

    def test_unknown_backend_raises(self):
        with pytest.raises(ReproError):
            resolve_backend("turbo")

    def test_env_selects_batch(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "batch")
        fastpath.reset_backend_cache()
        try:
            assert resolve_backend() == "batch"
        finally:
            monkeypatch.delenv("REPRO_BACKEND")
            fastpath.reset_backend_cache()

    def test_run_flowchart_batch_backend_matches_interpreter(self):
        flowchart = figure_library.gcd_program()
        batch = run_flowchart(flowchart, (6, 4), backend="batch")
        plain = execute(flowchart, (6, 4))
        assert (batch.value, batch.steps) == (plain.value, plain.steps)


class TestSingleLaneEntry:
    """One point under ``backend="batch"`` is one compiled-tier call,
    with the interpreter's exceptions and messages."""

    def test_single_point_runs_on_the_compiled_tier(self):
        with obs.observed(metrics=True, reset=True) as registry:
            run_flowchart(figure_library.gcd_program(), (6, 4),
                          backend="batch")
            counters = registry.snapshot()["counters"]
        assert counters["run.count.compiled"] == 1
        assert "run.count.batch" not in counters

    def test_declared_faults_reraise_with_interpreter_message(self):
        flowchart = figure_library.gcd_program()
        with pytest.raises(FuelExhaustedError) as batch_error:
            run_flowchart(flowchart, (6, 4), fuel=2, backend="batch")
        with pytest.raises(FuelExhaustedError) as interp_error:
            execute(flowchart, (6, 4), fuel=2)
        assert str(batch_error.value) == str(interp_error.value)

    def test_cap_fault_matches(self):
        doubling = StructuredProgram(
            ["x1"],
            [Assign("y", var("x1") + Const(1)),
             While(BoolConst(True), [Assign("y", var("y") + var("y"))])],
            name="batch-cap-single").compile()
        with pytest.raises(ValueCapExceededError) as batch_error:
            run_flowchart(doubling, (1,), value_cap=8, backend="batch")
        with pytest.raises(ValueCapExceededError) as interp_error:
            execute(doubling, (1,), value_cap=8)
        assert batch_error.value.cap == interp_error.value.cap == 8
        assert str(batch_error.value) == str(interp_error.value)

    def test_arity_checked(self):
        with pytest.raises(ArityMismatchError):
            run_flowchart(figure_library.gcd_program(), (1,),
                          backend="batch")
        with pytest.raises(ArityMismatchError):
            execute_batch(figure_library.gcd_program(), [(1,)])

    def test_need_env_exposes_columns(self):
        flowchart = figure_library.parity_program()
        rows = execute_batch(flowchart, [(3,)], need_env=True)
        assert rows.env(0) == execute(
            flowchart, (3,), capture_env=True).env
