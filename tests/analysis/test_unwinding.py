"""Tests for the unwinding checker (INT000–INT002).

Obligations:

- the exact reachable-state enumeration agrees with the influence
  verdict on certification across the whole dynamic suite × every policy (the
  fixpoint is an approximation; on this finite label space the two
  must coincide on the library);
- INT001 (local respect) fires exactly when some reachable observation
  point carries undischarged influence;
- INT002 (step consistency) fires when the downgrade occurrence is
  conditioned on secrets outside the policy and the admitted edge;
- state-space size and iteration counts are recorded and positive.
"""

from repro.analysis import (UnwindingPass, lint_flowchart, static_verdict,
                            unwinding_check)
from repro.core.policy import AllowPolicy
from repro.flowchart.library import (downgrade_guarded_program,
                                     downgrade_launder_program,
                                     downgrade_partial_program,
                                     dynamic_policy_suite,
                                     forgetting_program)
from repro.verify.enumerate import all_allow_policies


#: The dynamic suite's unwinding results per policy: states explored,
#: and each violation as (condition, node, excess, in force, pc).
SUITE_RESULTS = {
    "policy-tighten": {policy: (4, [("local-respect", "s0", [1], [], [])])
                       for policy in ("allow()", "allow(1)", "allow(2)",
                                      "allow(1, 2)")},
    "policy-loosen": {"allow()": (4, []), "allow(1)": (4, []),
                      "allow(2)": (4, []), "allow(1, 2)": (4, [])},
    "policy-branch": {
        "allow()": (7, [("local-respect", "s0", [1, 2], [], [2])]),
        "allow(1)": (7, [("local-respect", "s0", [2], [1], [2])]),
        "allow(2)": (7, [("local-respect", "s0", [1], [2], [2])]),
        "allow(1, 2)": (5, [])},
    "policy-loop": {
        "allow()": (11, [("local-respect", "s0", [1, 2], [], [2]),
                         ("local-respect", "s0", [2], [1], [2])]),
        "allow(1)": (8, [("local-respect", "s0", [2], [1], [2])]),
        "allow(2)": (11, [("local-respect", "s0", [1], [2], [2]),
                          ("local-respect", "s0", [2], [1], [2])]),
        "allow(1, 2)": (11, [("local-respect", "s0", [2], [1], [2])])},
    "downgrade-launder": {"allow()": (4, []), "allow(1)": (4, []),
                          "allow(2)": (4, []), "allow(1, 2)": (4, [])},
    "downgrade-guarded": {
        "allow()": (6, [("local-respect", "s0", [1, 2], [], [1])]),
        "allow(1)": (6, [("local-respect", "s0", [2], [1], [1])]),
        "allow(2)": (6, [("local-respect", "s0", [1], [2], [1])]),
        "allow(1, 2)": (6, [])},
    "downgrade-partial": {
        "allow()": (4, [("local-respect", "s0", [1], [], [])]),
        "allow(1)": (4, []),
        "allow(2)": (4, [("local-respect", "s0", [1], [2], [])]),
        "allow(1, 2)": (4, [])},
    "downgrade-then-tighten": {"allow()": (5, []), "allow(1)": (5, []),
                               "allow(2)": (5, []), "allow(1, 2)": (5, [])},
}


class TestUnwindingCheck:
    def test_suite_results_are_pinned(self):
        # The label codec is the surveillance one; the violations it
        # decodes, and hence INT001/INT002, stay as recorded.
        actual = {}
        for fc in dynamic_policy_suite():
            for policy in all_allow_policies(fc.arity):
                result = unwinding_check(fc, policy)
                violations = [(v.condition, v.node, sorted(v.excess),
                               sorted(v.in_force), sorted(v.pc))
                              for v in (result.local_respect
                                        + result.step_consistency)]
                assert result.certified == (not result.local_respect)
                actual.setdefault(fc.name, {})[policy.name] = (
                    result.states_explored, violations)
        assert actual == SUITE_RESULTS

    def test_agrees_with_epoch_verdict_on_the_suite(self):
        for fc in dynamic_policy_suite():
            for policy in all_allow_policies(fc.arity):
                unwinding = unwinding_check(fc, policy)
                epoch = static_verdict(fc, policy)
                assert unwinding.certified == epoch.certified, \
                    (fc.name, policy.name)

    def test_records_state_space_and_iterations(self):
        for fc in dynamic_policy_suite():
            result = unwinding_check(fc, AllowPolicy([1], 2))
            assert result.states_explored >= len(fc.boxes) - 1
            assert result.iterations >= result.states_explored
            payload = result.to_dict()
            assert payload["states_explored"] == result.states_explored
            assert payload["iterations"] == result.iterations

    def test_local_respect_violation_names_the_excess(self):
        # y := x1 + x2; downgrade y(2) under allow(2): index 1 is
        # neither admitted nor discharged.
        result = unwinding_check(downgrade_partial_program(),
                                 AllowPolicy([2], 2))
        assert not result.certified
        assert any(v.excess == frozenset((1,))
                   for v in result.local_respect)

    def test_step_consistency_on_guarded_downgrade(self):
        # if x1 > 0 { downgrade y(1) } under allow(2): the occurrence
        # of the downgrade is conditioned on x1 — but index 1 IS the
        # discharged edge, so the leak through the decision is index 1
        # itself... which the edge admits.  Under allow() the PC at the
        # downgrade carries {1} and the edge drops {1}: still admitted.
        # The witness needs a *third* index or a test on the
        # non-discharged input; build one inline.
        from repro.flowchart.parser import parse_program

        fc = parse_program(
            "program guard_on_secret(x1, x2) {"
            "  if x2 > 0 { downgrade y(1) } else { y := x1 }"
            "}").compile()
        result = unwinding_check(fc, AllowPolicy([1], 2))
        assert result.step_consistency
        assert any(v.excess == frozenset((2,))
                   for v in result.step_consistency)

    def test_launder_certified_under_allow_none(self):
        result = unwinding_check(downgrade_launder_program(),
                                 AllowPolicy([], 2))
        assert result.certified
        assert not result.local_respect
        assert not result.step_consistency


class TestUnwindingPass:
    def test_skips_flowcharts_without_downgrades(self):
        lint_pass = UnwindingPass()
        from repro.analysis import AnalysisContext

        context = AnalysisContext(forgetting_program(), AllowPolicy([1], 2))
        assert lint_pass.run(context) == []
        assert lint_pass.iterations is None

    def test_int001_in_lint_report(self):
        report = lint_flowchart(downgrade_guarded_program(),
                                AllowPolicy([2], 2))
        assert any(d.code == "INT001" for d in report.diagnostics)
        assert report.exit_code == 1

    def test_int000_info_when_certified(self):
        report = lint_flowchart(downgrade_launder_program(),
                                AllowPolicy([], 2))
        int000 = [d for d in report.diagnostics if d.code == "INT000"]
        assert len(int000) == 1
        assert int000[0].data["states_explored"] >= 1
        assert report.exit_code == 0

    def test_int002_does_not_fail_the_lint(self):
        # The PC persists to the halt, so under a constant policy every
        # INT002 drags an INT001 along; only a later loosening
        # policy_change leaves the secret-guarded downgrade occurrence
        # as the sole finding — and a warning must not fail the lint.
        from repro.flowchart.parser import parse_program

        fc = parse_program(
            "program guard_on_secret(x1, x2) {"
            "  y := x1;"
            "  if x2 > 0 { downgrade y(1) };"
            "  policy allow(1, 2)"
            "}").compile()
        report = lint_flowchart(fc, AllowPolicy([1], 2))
        assert any(d.code == "INT002" for d in report.diagnostics)
        assert all(d.code != "INT001" for d in report.diagnostics)
        assert report.exit_code == 0


class TestDeterminism:
    def test_report_order_is_stable_across_runs(self):
        # The bugfix sweep target: two passes emitting the same
        # (severity, code, node) must still order deterministically —
        # pass_name is the final sort tiebreak.
        fc = downgrade_guarded_program()
        policy = AllowPolicy([2], 2)
        first = [d.to_dict() for d in
                 lint_flowchart(fc, policy).diagnostics]
        for _ in range(5):
            again = [d.to_dict() for d in
                     lint_flowchart(fc, policy).diagnostics]
            assert again == first

    def test_reversed_registration_yields_same_order(self):
        from repro.analysis import PassManager, default_passes

        fc = downgrade_guarded_program()
        policy = AllowPolicy([2], 2)
        forward = PassManager(default_passes()).run(fc, policy)
        backward = PassManager(
            list(reversed(default_passes()))).run(fc, policy)
        assert ([d.to_dict() for d in forward.diagnostics]
                == [d.to_dict() for d in backward.diagnostics])
