"""Tests for the dynamic-policy IR: policy_change and downgrade boxes.

Construction/validation, parser round-trips, builder wiring, dot
rendering, and the cross-engine agreement obligation: the two new box
kinds are label-layer effects, so every execution tier must treat them
as single-step no-ops with identical (value, steps, touched) rows.
"""

import pytest

from repro.core.errors import FlowchartError
from repro.flowchart import (Downgrade, DowngradeBox, FlowchartBuilder,
                             PolicyChange, PolicyChangeBox)
from repro.flowchart.batchpath import execute_batch
from repro.flowchart.dot import to_dot
from repro.flowchart.expr import var
from repro.flowchart.fastpath import run_flowchart
from repro.flowchart.interpreter import execute
from repro.flowchart.library import dynamic_policy_suite
from repro.flowchart.parser import parse_program, unparse_program

GRID = [(a, b) for a in range(3) for b in range(3)]


class TestBoxes:
    def test_policy_change_normalises_indices(self):
        box = PolicyChangeBox((2, 1, 2), "next")
        assert box.allowed == (1, 2)
        assert box.successors() == ("next",)
        assert box.read_variables() == frozenset()

    def test_policy_change_rejects_nonpositive_indices(self):
        with pytest.raises(FlowchartError):
            PolicyChangeBox((0,), "next")

    def test_downgrade_reads_its_variable(self):
        box = DowngradeBox("y", (1,), "next")
        assert box.read_variables() == frozenset(("y",))
        assert box.indices == (1,)

    def test_downgrade_requires_indices(self):
        with pytest.raises(FlowchartError):
            DowngradeBox("y", (), "next")

    def test_validation_rejects_indices_beyond_arity(self):
        builder = FlowchartBuilder(["x1"], name="p")
        builder.start()
        builder.assign("y", var("x1"))
        builder.policy_change((2,))
        builder.halt()
        with pytest.raises(FlowchartError):
            builder.build()


class TestParser:
    def test_policy_statement_round_trips(self):
        source = ("program p(x1, x2) { y := x1; policy allow(2) }")
        rendered = unparse_program(parse_program(source))
        assert "policy allow(2)" in rendered
        assert unparse_program(parse_program(rendered)) == rendered

    def test_downgrade_statement_round_trips(self):
        source = "program p(x1, x2) { y := x1 + x2; downgrade y(1, 2) }"
        rendered = unparse_program(parse_program(source))
        assert "downgrade y(1, 2)" in rendered
        assert unparse_program(parse_program(rendered)) == rendered

    def test_empty_policy_allowed(self):
        fc = parse_program(
            "program p(x1) { y := x1; policy allow() }").compile()
        assert fc.has_dynamic_policy()
        (change_id,) = fc.policy_change_ids()
        assert fc.boxes[change_id].allowed == ()

    def test_downgrade_requires_an_index(self):
        from repro.flowchart.parser import ParseError

        with pytest.raises(ParseError):
            parse_program("program p(x1) { downgrade y() }")


class TestStructured:
    def test_stmt_compile(self):
        from repro.flowchart.structured import StructuredProgram

        program = StructuredProgram(
            ("x1",), (PolicyChange((1,)), Downgrade("y", (1,))),
            name="dyn")
        fc = program.compile()
        assert len(fc.policy_change_ids()) == 1
        assert len(fc.downgrade_ids()) == 1
        assert fc.has_dynamic_policy()


class TestDot:
    def test_both_kinds_render(self):
        fc = parse_program(
            "program p(x1, x2) { y := x1; policy allow(2); "
            "downgrade y(1) }").compile()
        rendered = to_dot(fc)
        assert "policy allow(2)" in rendered
        assert "downgrade y(1)" in rendered
        assert "hexagon" in rendered and "parallelogram" in rendered


class TestEngineAgreement:
    """interp == compiled == batch on every dynamic program and point."""

    @pytest.mark.parametrize("flowchart", dynamic_policy_suite(),
                             ids=lambda fc: fc.name)
    def test_rows_identical_across_tiers(self, flowchart):
        interp = [execute(flowchart, point) for point in GRID]
        compiled = [run_flowchart(flowchart, point, backend="compiled")
                    for point in GRID]
        batch = execute_batch(flowchart, GRID)
        for index, (point, reference) in enumerate(zip(GRID, interp)):
            row = compiled[index]
            assert (row.value, row.steps) == (reference.value,
                                              reference.steps), point
            assert row.touched == reference.touched, point
            assert batch.value(index) == reference.value, point
            assert batch.steps(index) == reference.steps, point
            assert batch.touched(index) == reference.touched, point

    def test_new_boxes_count_one_step_each(self):
        fc = parse_program(
            "program p(x1) { y := x1; policy allow(1); "
            "downgrade y(1) }").compile()
        plain = parse_program("program p(x1) { y := x1 }").compile()
        assert (execute(fc, (5,)).steps
                == execute(plain, (5,)).steps + 2)
        assert execute(fc, (5,)).value == 5
