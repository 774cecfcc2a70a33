"""Differential tests: the compiled backend against the interpreter.

The Observability Postulate makes ``(value, steps, faults)`` the
*output* of a flowchart program, so the compiled execution engine must
reproduce all three bit-for-bit — including when fuel exhaustion
strikes and what division by zero yields.  Every flowchart in the
figure library is checked over the default sweep grid, plus targeted
edge cases the library does not exercise.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import ProductDomain
from repro.core.errors import (ArityMismatchError, ExecutionError,
                               FuelExhaustedError, ReproError,
                               ValueCapExceededError)
from repro.core.observability import VALUE_AND_TIME, VALUE_ONLY
from repro.flowchart import (Assign, Ite, LoopExpr, StructuredProgram,
                             const, library, var)
from repro.flowchart import fastpath
from repro.flowchart.boxes import AssignBox, DecisionBox, HaltBox, StartBox
from repro.flowchart.fastpath import (LABEL_RULES, compile_flowchart,
                                      execute_compiled, resolve_backend,
                                      run_flowchart)
from repro.flowchart.interpreter import as_program, execute
from repro.flowchart.program import Flowchart
from repro.verify.enumerate import default_grid

SUITE = library.extended_suite()


def observed(result):
    return (result.value, result.steps, result.faults)


@pytest.mark.parametrize("flowchart", SUITE,
                         ids=[fc.name for fc in SUITE])
def test_backends_agree_on_library_over_default_grid(flowchart):
    grid = default_grid(flowchart.arity)
    for point in grid:
        interpreted = execute(flowchart, point, capture_env=True)
        compiled = execute_compiled(flowchart, point, capture_env=True)
        assert observed(interpreted) == observed(compiled)
        assert interpreted.touched == compiled.touched
        assert interpreted.env == compiled.env


@pytest.mark.parametrize("flowchart", SUITE,
                         ids=[fc.name for fc in SUITE])
def test_backends_agree_at_exact_fuel_boundary(flowchart):
    """Both complete at fuel = steps and both raise at fuel = steps - 1."""
    point = (2,) * flowchart.arity
    steps = execute(flowchart, point).steps
    assert execute_compiled(flowchart, point, fuel=steps).steps == steps
    with pytest.raises(FuelExhaustedError):
        execute(flowchart, point, fuel=steps - 1)
    with pytest.raises(FuelExhaustedError):
        execute_compiled(flowchart, point, fuel=steps - 1)


def test_fuel_exhaustion_on_diverging_input():
    flowchart = library.timing_loop()
    with pytest.raises(FuelExhaustedError) as interp:
        execute(flowchart, (10,), fuel=5)
    with pytest.raises(FuelExhaustedError) as comp:
        execute_compiled(flowchart, (10,), fuel=5)
    assert interp.value.fuel == comp.value.fuel == 5
    assert str(interp.value) == str(comp.value)


def test_deep_true_branch_chain_compiles_and_agrees():
    # Decision i's true branch holds decision i + 1, 150 deep.  Inline
    # emission nests each true branch one level deeper, so the deeper
    # blocks must get dispatch arms of their own: CPython refuses
    # source indented 100 levels.
    depth = 150
    boxes = {"start": StartBox("d0"), "halt": HaltBox(),
             "last": AssignBox("y", const(depth), "halt")}
    for level in range(depth):
        boxes[f"d{level}"] = DecisionBox(
            var("x1").gt(level),
            f"d{level + 1}" if level + 1 < depth else "last", f"a{level}")
        boxes[f"a{level}"] = AssignBox("y", const(level), "halt")
    flowchart = Flowchart(boxes, ["x1"], name="deep-chain")
    for rule in LABEL_RULES:
        compile_flowchart(flowchart, rule)

    def outcome(engine, point, **budget):
        try:
            return ("ok",) + observed(engine(flowchart, point, **budget))
        except (FuelExhaustedError, ValueCapExceededError) as error:
            return (type(error).__name__, str(error))

    for point in [(-1,), (0,), (40,), (75,), (149,), (150,), (400,)]:
        steps = execute(flowchart, point).steps
        for budget in [{}, {"fuel": steps}, {"fuel": steps - 1},
                       {"value_cap": 6}, {"fuel": steps - 1, "value_cap": 6}]:
            assert (outcome(execute, point, **budget)
                    == outcome(execute_compiled, point, **budget)), (
                point, budget)


def test_division_and_modulus_by_zero_are_total():
    flowchart = StructuredProgram(
        ["x1", "x2"],
        [Assign("y", (var("x1") // var("x2")) + (var("x1") % var("x2")))],
        name="divmod-total",
    ).compile()
    for point in [(5, 0), (0, 0), (-7, 0), (5, 2), (-7, 2), (7, -3)]:
        interpreted = execute(flowchart, point)
        compiled = execute_compiled(flowchart, point)
        assert observed(interpreted) == observed(compiled)
    assert execute_compiled(flowchart, (5, 0)).value == 0


def test_ite_expression_compiles():
    flowchart = StructuredProgram(
        ["x1"],
        [Assign("y", Ite(var("x1").gt(0), var("x1") * 2, const(9)))],
        name="ite-expr",
    ).compile()
    for point in [(-1,), (0,), (1,), (5,)]:
        assert observed(execute(flowchart, point)) == observed(
            execute_compiled(flowchart, point))


class TestLoopExpr:
    def flowchart(self, loop_fuel=10_000):
        summation = LoopExpr(
            var("r").gt(0),
            {"r": var("r") - 1, "acc": var("acc") + var("r")},
            "acc", fuel=loop_fuel)
        return StructuredProgram(
            ["x1"],
            [Assign("r", var("x1")), Assign("y", summation)],
            name="loopexpr-sum",
        ).compile()

    def test_agreement(self):
        flowchart = self.flowchart()
        for point in [(0,), (1,), (5,), (30,)]:
            interpreted = execute(flowchart, point, capture_env=True)
            compiled = execute_compiled(flowchart, point, capture_env=True)
            assert observed(interpreted) == observed(compiled)
            assert interpreted.env == compiled.env

    def test_loop_fuel_error_reproduced(self):
        flowchart = self.flowchart(loop_fuel=3)
        with pytest.raises(ExecutionError):
            execute(flowchart, (10,))
        with pytest.raises(ExecutionError):
            execute_compiled(flowchart, (10,))


@settings(max_examples=60, deadline=None)
@given(x1=st.integers(-50, 200), x2=st.integers(-50, 200))
def test_property_gcd_agreement(x1, x2):
    # gcd diverges on negative inputs; cap fuel so divergence shows up
    # as FuelExhaustedError and both backends must agree on *that* too.
    flowchart = library.gcd_program()

    def outcome(runner):
        try:
            return ("ok",) + observed(runner())
        except FuelExhaustedError as error:
            return ("fuel", str(error))

    assert outcome(lambda: execute(flowchart, (x1, x2), fuel=2000)) == \
        outcome(lambda: execute_compiled(flowchart, (x1, x2), fuel=2000))


class TestAsProgramBackends:
    GRID = ProductDomain.integer_grid(0, 3, 2)

    def test_explicit_backends_agree(self):
        flowchart = library.forgetting_program()
        compiled_q = as_program(flowchart, self.GRID, VALUE_AND_TIME,
                                backend="compiled")
        interpreted_q = as_program(flowchart, self.GRID, VALUE_AND_TIME,
                                   backend="interpreted")
        for point in self.GRID:
            assert compiled_q(*point) == interpreted_q(*point)

    def test_env_var_override(self, monkeypatch):
        # The env default is cached at first use; a mid-process change
        # is honoured only after reset_backend_cache() (the documented
        # protocol, mirroring reset_value_cap_cache).
        monkeypatch.setenv(fastpath.BACKEND_ENV, "interpreted")
        fastpath.reset_backend_cache()
        try:
            assert resolve_backend() == "interpreted"
            monkeypatch.setenv(fastpath.BACKEND_ENV, "compiled")
            assert resolve_backend() == "interpreted"  # cached
            fastpath.reset_backend_cache()
            assert resolve_backend() == "compiled"
            # Explicit argument beats the environment.
            assert resolve_backend("interpreted") == "interpreted"
        finally:
            monkeypatch.delenv(fastpath.BACKEND_ENV)
            fastpath.reset_backend_cache()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            resolve_backend("jit")
        with pytest.raises(ReproError):
            as_program(library.mixer_program(), self.GRID,
                       backend="jit")(0, 0)

    def test_value_only_projection(self):
        q = as_program(library.mixer_program(), self.GRID, VALUE_ONLY,
                       backend="compiled")
        assert q(1, 2) == 6


class TestCompilationCache:
    def test_compiled_function_reused(self):
        flowchart = library.parity_program()
        first = compile_flowchart(flowchart)
        second = compile_flowchart(flowchart)
        assert first is second

    def test_distinct_flowcharts_compile_separately(self):
        assert (compile_flowchart(library.parity_program())
                is not compile_flowchart(library.parity_program()))

    def test_source_is_inspectable(self):
        compiled = compile_flowchart(library.accumulate_program())
        assert "def _compiled" in compiled.source
        assert "_touched" in compiled.source

    @pytest.mark.parametrize("rule", [None, *LABEL_RULES])
    def test_only_a_capped_function_tests_the_cap(self, rule):
        flowchart = library.gcd_program()
        plain = compile_flowchart(flowchart, rule).source
        capped = compile_flowchart(flowchart, rule, capped=True).source
        # ``_capb`` is in every signature; only the capped body reads it.
        assert "_capb" not in plain.split("\n", 1)[1]
        assert "_capb" in capped.split("\n", 1)[1]
        for source in (plain, capped):
            assert "_steps >= _fuel" not in source

    def test_capped_function_compiled_on_the_first_capped_run(self):
        flowchart = library.gcd_program()
        execute_compiled(flowchart, (12, 18))
        functions = fastpath._COMPILED[flowchart]
        assert list(functions) == [(None, False)]
        execute_compiled(flowchart, (12, 18), value_cap=8)
        assert list(functions) == [(None, False), (None, True)]
        capped = compile_flowchart(flowchart, capped=True)
        assert capped is functions[None, True]
        assert capped is not compile_flowchart(flowchart)

    def test_compiled_functions_do_not_keep_their_flowchart(self):
        flowchart = library.gcd_program()
        for rule in (None, *LABEL_RULES):
            for capped in (False, True):
                compile_flowchart(flowchart, rule, capped)
        assert len(fastpath._COMPILED[flowchart]) == 6
        graph = weakref.ref(flowchart)
        del flowchart
        gc.collect()
        assert graph() is None


class TestDispatchAndFallback:
    def test_env_captured_only_on_request(self):
        flowchart = library.mixer_program()
        with_env = execute_compiled(flowchart, (1, 2), capture_env=True)
        bare = execute_compiled(flowchart, (1, 2))
        assert with_env.env is not None
        assert bare.env is None

    def test_record_trace_falls_back_to_interpreter(self):
        flowchart = library.forgetting_program()
        traced = execute_compiled(flowchart, (1, 0), record_trace=True)
        assert traced.trace is not None
        assert traced.trace == execute(flowchart, (1, 0),
                                       record_trace=True).trace

    def test_arity_mismatch_matches_interpreter(self):
        flowchart = library.mixer_program()
        with pytest.raises(ArityMismatchError):
            execute_compiled(flowchart, (1,))

    def test_run_flowchart_dispatches(self):
        flowchart = library.max_program()
        compiled = run_flowchart(flowchart, (3, 5), backend="compiled")
        interpreted = run_flowchart(flowchart, (3, 5), backend="interpreted")
        assert observed(compiled) == observed(interpreted)
