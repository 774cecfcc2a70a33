"""Tests for the influence verdict on dynamic policies (DYN001–DYN003).

The core obligations:

- the verdict judges each flow by the policy in force when it
  *completes* (van Delft/Hunt/Sands), so a tightening policy change is
  rejected even though the write was licensed when it happened;
- per-epoch static labels dominate the dynamic monitor's labels at
  every program counter the monitor visits, under the matching
  in-force policy bucket;
- the diagnostics fire on the designed witnesses: DYN001 on the
  completion-time failure, DYN002 on retroactive disallowing, DYN003
  on epoch-ambiguous halts.
"""

import pytest

from repro.analysis import (DynamicPolicyPass, influence_analysis,
                            lint_flowchart, static_verdict)
from repro.core.policy import AllowPolicy
from repro.flowchart.library import (downgrade_guarded_program,
                                     downgrade_launder_program,
                                     downgrade_partial_program,
                                     dynamic_policy_suite,
                                     policy_branch_program,
                                     policy_loop_program,
                                     policy_loosen_program,
                                     policy_tighten_program)
from repro.surveillance.dynamic import surveil
from repro.verify.enumerate import all_allow_policies

GRID = [(a, b) for a in range(3) for b in range(3)]


def codes(flowchart, policy):
    report = lint_flowchart(flowchart, policy)
    return {d.code for d in report.diagnostics}, report


class TestEpochVerdict:
    def test_tightening_rejected_under_every_policy(self):
        # y := x1; policy allow(): the flow completes under allow(),
        # so no initial policy can license it.
        fc = policy_tighten_program()
        for policy in all_allow_policies(2):
            assert not static_verdict(fc, policy).certified

    def test_loosening_certified_under_every_policy(self):
        # y := x1 + x2; policy allow(1, 2): completion-time policy
        # admits everything regardless of the initial one.
        fc = policy_loosen_program()
        for policy in all_allow_policies(2):
            assert static_verdict(fc, policy).certified

    def test_fixed_policy_influence_would_be_unsound_here(self):
        # A verdict that checked every halt against the initial J
        # would certify the tightening program against allow(1), yet
        # the dynamic monitor rejects every input.  The one verdict
        # checks the halt against the policy in force there.
        fc = policy_tighten_program()
        policy = AllowPolicy([1], 2)
        assert not influence_analysis(fc).verdict(policy).certified
        assert not influence_analysis(
            fc, policy.allowed).verdict(policy).certified
        assert all(surveil(fc, point, policy.allowed).violated
                   for point in GRID)

    def test_verdict_does_not_depend_on_the_epoch0_key(self):
        # Epoch 0 is keyed by whatever J the analysis ran with, or by
        # None; every key gives every J the same checks.
        for fc in dynamic_policy_suite():
            policies = all_allow_policies(fc.arity)
            unkeyed = influence_analysis(fc)
            for policy in policies:
                expected = unkeyed.verdict(policy).observations
                for other in policies:
                    keyed = influence_analysis(fc, other.allowed)
                    assert keyed.verdict(policy).observations == expected, (
                        fc.name, policy.name, other.name)

    def test_downgrade_discharges_designated_indices(self):
        # y := x1 + x2; downgrade y(2): statically certified for
        # allow(1) because the admitted edge dropped index 2.
        fc = downgrade_partial_program()
        assert static_verdict(fc, AllowPolicy([1], 2)).certified
        assert not static_verdict(fc, AllowPolicy([2], 2)).certified

    def test_certified_implies_monitor_accepts_grid(self):
        # Static-epoch certification must imply the dynamic monitor
        # never fires — the family's soundness obligation.
        for fc in dynamic_policy_suite():
            for policy in all_allow_policies(fc.arity):
                if static_verdict(fc, policy).certified:
                    for point in GRID:
                        assert not surveil(fc, point,
                                           policy.allowed).violated, \
                            (fc.name, policy.name, point)


class TestDiagnostics:
    def test_dyn001_on_completion_time_failure(self):
        found, report = codes(policy_tighten_program(), AllowPolicy([1], 2))
        assert "DYN001" in found
        assert report.exit_code == 1

    def test_dyn002_on_retroactive_disallow(self):
        # y was licensed under allow(1) when written, then the policy
        # tightened to allow() — the warning names the variable.
        found, report = codes(policy_tighten_program(), AllowPolicy([1], 2))
        assert "DYN002" in found
        dyn002 = [d for d in report.diagnostics if d.code == "DYN002"]
        assert any(d.data["variable"] == "y" for d in dyn002)

    def test_dyn003_on_epoch_ambiguous_halt(self):
        # The branch installs allow(1, 2) on one path only, so the
        # halt is reachable under two distinct in-force policies.
        found, _ = codes(policy_branch_program(), AllowPolicy([1], 2))
        assert "DYN003" in found

    def test_flow002_on_certified_dynamic_program(self):
        found, report = codes(policy_loosen_program(), AllowPolicy([], 2))
        assert "FLOW002" in found
        assert "DYN001" not in found
        assert report.exit_code == 0
        flow002 = [d for d in report.diagnostics if d.code == "FLOW002"]
        # The certification came from the epochs pass; the influence
        # pass stays silent on dynamic flowcharts.
        assert all(d.pass_name == "epochs" for d in flow002)

    def test_influence_pass_defers_on_dynamic_flowcharts(self):
        report = lint_flowchart(policy_tighten_program(),
                                AllowPolicy([1], 2))
        assert all(d.pass_name != "influence" for d in report.diagnostics)

    def test_classic_flowcharts_skip_the_epoch_pass(self):
        from repro.flowchart.library import forgetting_program

        report = lint_flowchart(forgetting_program(), AllowPolicy([1], 2))
        assert all(not d.code.startswith("DYN")
                   for d in report.diagnostics)


class TestPerEpochContainment:
    """Static per-epoch labels ⊇ dynamic labels at every visited PC."""

    @pytest.mark.parametrize("flowchart", dynamic_policy_suite(),
                             ids=lambda fc: fc.name)
    def test_static_dominates_dynamic_per_bucket(self, flowchart):
        for policy in all_allow_policies(flowchart.arity):
            analysis = influence_analysis(flowchart, policy.allowed)
            observed = []

            def observer(node, labels, pc_label, active, epoch):
                observed.append((node, dict(labels), pc_label,
                                 frozenset(active)))

            for point in GRID:
                observed.clear()
                surveil(flowchart, point, policy.allowed,
                        policy_observer=observer)
                for node, labels, pc_label, active in observed:
                    static_pc = analysis.pc_at(node, active)
                    assert pc_label <= static_pc, (
                        flowchart.name, policy.name, point, node)
                    for name, label in labels.items():
                        assert label <= analysis.label_at(
                            node, name, active), (
                            flowchart.name, policy.name, point, node, name)

    def test_loop_buckets_cover_both_policies(self):
        # The loop body re-installs allow(1) every iteration, so the
        # post-loop assignment is reachable under the initial policy
        # (zero iterations) and under allow(1).
        fc = policy_loop_program()
        analysis = influence_analysis(fc, frozenset((2,)))
        halt = next(iter(fc.halt_ids()))
        assert len(analysis.policies_at(halt)) == 2


class TestPassPlumbing:
    def test_pass_reports_iterations(self):
        lint_pass = DynamicPolicyPass()
        from repro.analysis import AnalysisContext

        context = AnalysisContext(policy_tighten_program(),
                                  AllowPolicy([1], 2))
        lint_pass.run(context)
        assert lint_pass.iterations >= 1

    def test_lint_report_carries_pass_stats(self):
        report = lint_flowchart(downgrade_guarded_program(),
                                AllowPolicy([2], 2))
        payload = report.to_dict()
        assert "pass_stats" in payload
        assert payload["pass_stats"]["epochs"]["iterations"] >= 1
        assert payload["pass_stats"]["unwinding"]["states_explored"] >= 1
        for stats in payload["pass_stats"].values():
            assert stats["seconds"] >= 0

    def test_launder_is_the_intransitive_witness(self):
        # y := x1; downgrade y(1): certified even under allow() — the
        # admitted edge is the only thing separating this from the
        # tightening rejection above.
        fc = downgrade_launder_program()
        for policy in all_allow_policies(2):
            assert static_verdict(fc, policy).certified
