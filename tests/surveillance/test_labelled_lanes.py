"""Labelled lanes == the interpreter's policy-free label walk.

``execute_batch(..., labels=rule)`` runs each point through the
compiled tier's labelled function.  Every field of each lane must equal
:func:`~repro.surveillance.dynamic.policy_free_runs` for the same rule:
the fault, value, steps, the ȳ ∪ C̄ mask, the active policy, the epoch,
the early stop and the first-test steps — those of a lane that ran out
of fuel or broke the cap included, since J's first failing guard comes
before the fault.  Inputs: the library suites at fixed budgets, and
generated dynamic-policy programs and arbitrary box graphs
(:mod:`tests.flowchart.box_graphs`: irreducible loops, self-looping
decisions, programs that never halt) over fuel 1–40 and cap none or
1–6.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import ProductDomain
from repro.core.errors import ReproError
from repro.flowchart import library
from repro.flowchart.batchpath import K_CAP, K_FUEL, K_OK, execute_batch
from repro.flowchart.fastpath import (LABEL_RULES, compile_flowchart,
                                      generate_source)
from repro.flowchart.interpreter import DEFAULT_FUEL
from repro.robustness.faults import cap_notice, fuel_notice
from repro.surveillance.dynamic import policy_free_runs
from tests.flowchart.box_graphs import box_graphs
from tests.integration.test_dynamic_policy_properties import (
    GRID, dynamic_programs)

SUITE = [flowchart for flowchart in (library.paper_figures()
                                     + library.extended_suite()
                                     + library.dynamic_policy_suite())
         if not flowchart.has_channels()]

FUELS = (1, 2, 3, 5, 8, 12, 40, DEFAULT_FUEL)
CAPS = (None, 1, 2, 3, 6)


def lane_fields(flowchart, points, rule, fuel, cap):
    """Each labelled lane as the policy-free run's fields."""
    batch = execute_batch(flowchart, points, fuel=fuel, value_cap=cap,
                          labels=rule)
    notices = {K_OK: None, K_FUEL: fuel_notice(fuel),
               K_CAP: cap_notice(batch.cap)}
    return [(notices[kind],) + tuple(row)
            for kind, row in zip(batch.kinds, batch.rows)]


def walk_fields(flowchart, points, rule, fuel, cap):
    timed, forgetting = LABEL_RULES[rule]
    return [(run.fault, run.value, run.steps, run.mask, run.active,
             run.epoch, run.early, run.first_test)
            for run in policy_free_runs(flowchart, points, timed=timed,
                                        forgetting=forgetting, fuel=fuel,
                                        value_cap=cap)]


@pytest.mark.parametrize("rule", sorted(LABEL_RULES))
@pytest.mark.parametrize("flowchart", SUITE, ids=lambda f: f.name)
def test_library_lanes_equal_the_walk(flowchart, rule):
    points = list(ProductDomain.integer_grid(
        0, 4 if flowchart.arity < 3 else 2, flowchart.arity))
    for fuel in FUELS:
        for cap in CAPS:
            assert (lane_fields(flowchart, points, rule, fuel, cap)
                    == walk_fields(flowchart, points, rule, fuel, cap)), (
                fuel, cap)


# Twice the draws the generated programs alone had, so they keep their
# share.
@settings(max_examples=120, deadline=None)
@given(st.one_of(dynamic_programs().map(lambda program: program.compile()),
                 box_graphs()),
       st.sampled_from(sorted(LABEL_RULES)),
       st.integers(min_value=1, max_value=40),
       st.one_of(st.none(), st.integers(min_value=1, max_value=6)))
def test_generated_lanes_equal_the_walk(flowchart, rule, fuel, cap):
    assert (lane_fields(flowchart, GRID, rule, fuel, cap)
            == walk_fields(flowchart, GRID, rule, fuel, cap))


def test_a_faulted_lane_keeps_its_first_tests():
    # gcd tests both inputs at its first decision and then loops: at
    # fuel 5 every lane that has not halted runs dry after recording
    # that test.
    flowchart = library.gcd_program()
    points = [(4, 6), (9, 6)]
    fields = lane_fields(flowchart, points, "timed", 5, None)
    assert [field[0] for field in fields] == [fuel_notice(5)] * 2
    assert all(field[-1] for field in fields)
    assert fields == walk_fields(flowchart, points, "timed", 5, None)


class TestCompiledLabels:
    def test_each_rule_compiles_once_beside_the_plain_function(self):
        flowchart = library.policy_loop_program()
        plain = compile_flowchart(flowchart)
        labelled = {rule: compile_flowchart(flowchart, rule)
                    for rule in LABEL_RULES}
        assert plain.labels is None
        for rule, compiled in labelled.items():
            assert compiled.labels == rule
            assert compile_flowchart(flowchart, rule) is compiled
            assert compiled is not plain
        assert compile_flowchart(flowchart) is plain

    def test_plain_source_keeps_no_labels(self):
        source, _, _ = generate_source(library.policy_loop_program())
        assert "_lC" not in source and "_tests" not in source
        labelled, _, _ = generate_source(library.policy_loop_program(),
                                         "timed")
        assert "_lC" in labelled and "_touched" not in labelled

    def test_unknown_rule_is_refused(self):
        with pytest.raises(ReproError, match="unknown label rule"):
            generate_source(library.gcd_program(), "surveillance")

    def test_channel_programs_keep_the_walk(self):
        from repro.flowchart.parser import parse_program

        relay = parse_program("program p(x1) { send ch(x1); recv ch(u); "
                              "y := u }").compile()
        with pytest.raises(ReproError, match="has channels"):
            execute_batch(relay, [(1,)], labels="timed")
