"""Violation provenance: influence chains, verdicts, and event payloads."""

import pytest

from repro import obs
from repro.core.policy import allow
from repro.flowchart import library
from repro.verify.enumerate import default_grid


@pytest.fixture(autouse=True)
def _clean_runtime():
    obs.disable()
    yield
    obs.disable()


class TestDynamicExplain:
    def test_violation_chain_ends_at_violating_site(self):
        flowchart = library.mixer_program()
        explanation = obs.explain(flowchart, allow(1, arity=2), (1, 2))
        assert explanation.verdict == "violation"
        assert explanation.violated
        assert explanation.disallowed == [2]
        # The chain's final step is the halt check at the verdict site.
        assert explanation.chain[-1].kind == "check"
        assert explanation.chain[-1].node == explanation.site
        assert explanation.site in flowchart.boxes

    def test_chain_traces_disallowed_input_to_output(self):
        flowchart = library.mixer_program()
        explanation = obs.explain(flowchart, allow(1, arity=2), (1, 2))
        kinds = [step.kind for step in explanation.chain]
        assert kinds[0] == "input"
        assert "assign" in kinds
        # The slice keeps only the disallowed index's path: x2 seeds it,
        # x1 (allowed) does not appear as an input introduction.
        inputs = [step for step in explanation.chain
                  if step.kind == "input"]
        assert [step.target for step in inputs] == ["x2"]
        assert inputs[0].label == [2]
        # Every step after the introduction carries the offending index.
        for step in explanation.chain[1:]:
            assert 2 in step.label

    def test_accepted_point_explained(self):
        flowchart = library.mixer_program()
        explanation = obs.explain(flowchart, allow(1, 2, arity=2), (1, 2))
        assert explanation.verdict == "accepted"
        assert not explanation.violated
        assert explanation.disallowed == []
        assert explanation.chain  # full influence history, not empty

    def test_timed_variant_blames_the_guarded_test(self):
        flowchart = library.gcd_program()
        explanation = obs.explain(flowchart, allow(arity=2), (6, 4),
                                  timed=True)
        assert explanation.verdict == "violation"
        assert explanation.clause.startswith("timed guard")
        assert explanation.chain[-1].kind == "check"

    def test_fuel_exhaustion_verdict(self):
        flowchart = library.gcd_program()
        explanation = obs.explain(flowchart, allow(arity=2), (12, 18),
                                  fuel=2)
        assert explanation.verdict == "fuel_exhausted"
        assert explanation.fuel["exhausted"] is True
        assert explanation.fuel["budget"] == 2
        assert explanation.chain == []

    def test_replay_does_not_touch_metrics(self):
        flowchart = library.mixer_program()
        with obs.observed(reset=True):
            obs.explain(flowchart, allow(arity=2), (1, 2))
            counters = obs.snapshot()["counters"]
        assert "violations.raised" not in counters
        assert "surveillance.runs" not in counters


class TestStaticExplain:
    def test_static_violation_lists_carrying_sites(self):
        flowchart = library.mixer_program()
        explanation = obs.explain_static(flowchart, allow(1, arity=2))
        assert explanation.mode == "static"
        assert explanation.point is None
        assert explanation.verdict == "violation"
        assert explanation.disallowed == [2]
        kinds = {step.kind for step in explanation.chain}
        assert "input" in kinds and "assign" in kinds and "check" in kinds

    def test_static_accept_when_policy_covers_output(self):
        flowchart = library.mixer_program()
        explanation = obs.explain_static(flowchart, allow(1, 2, arity=2))
        assert explanation.verdict == "accepted"

    def test_static_reject_implies_chain_for_every_program(self):
        for flowchart in library.extended_suite():
            policy = allow(1, arity=flowchart.arity)
            explanation = obs.explain_static(flowchart, policy)
            if explanation.verdict == "violation":
                assert explanation.chain, flowchart.name

    def test_static_accept_agrees_with_dynamic(self):
        # Static certification is sound: wherever flowlint accepts,
        # every concrete replay must accept too.
        for flowchart in library.extended_suite():
            policy = allow(1, arity=flowchart.arity)
            if obs.explain_static(flowchart, policy).verdict != "accepted":
                continue
            grid = default_grid(flowchart.arity)
            for point in list(grid)[:6]:
                dynamic = obs.explain(flowchart, policy, point)
                assert dynamic.verdict == "accepted", (
                    flowchart.name, point)


class TestOneStaticVerdict:
    """``explain --static`` reads the analysis and the verdict lint does."""

    def test_accepts_exactly_what_lint_certifies(self):
        from repro.analysis import lint_flowchart
        from repro.cli import LIBRARY
        from repro.verify.enumerate import all_allow_policies

        disagreements = []
        for name, build in sorted(LIBRARY.items()):
            flowchart = build()
            for policy in all_allow_policies(flowchart.arity):
                accepted = (obs.explain_static(flowchart, policy).verdict
                            == "accepted")
                codes = {diagnostic.code for diagnostic in
                         lint_flowchart(flowchart, policy).diagnostics}
                if accepted != ("FLOW002" in codes):
                    disagreements.append((name, policy.name))
        assert not disagreements

    def test_certified_dynamic_pairs_never_fire_the_monitor(self):
        from repro.surveillance.dynamic import surveil
        from repro.verify.enumerate import all_allow_policies

        fired = []
        for flowchart in library.dynamic_policy_suite():
            for policy in all_allow_policies(flowchart.arity):
                if obs.explain_static(flowchart,
                                      policy).verdict != "accepted":
                    continue
                for point in default_grid(flowchart.arity):
                    if surveil(flowchart, point, policy.allowed).violated:
                        fired.append((flowchart.name, policy.name, point))
        assert not fired

    def test_checks_name_the_policy_in_force(self):
        explanation = obs.explain_static(library.policy_tighten_program(),
                                         allow(1, arity=2))
        assert explanation.verdict == "violation"
        assert explanation.disallowed == [1]
        assert explanation.clause == ("static verdict: ȳ = {1} ⊄ "
                                      "J = {} (in force)")
        assert explanation.chain[-1].detail == (
            "halt: observable label {1} ⊄ J = {} (in force)")

    def test_downgrade_discharges_the_checked_label(self):
        explanation = obs.explain_static(library.downgrade_partial_program(),
                                         allow(1, arity=2))
        assert explanation.verdict == "accepted"
        assert explanation.clause == "static verdict: ȳ = {1} ⊆ J = {1}"


class TestDynamicPolicySteps:
    """The static chain shows the boxes that change labels or policies."""

    def test_downgrade_step_names_the_dropped_indices(self):
        flowchart = library.downgrade_partial_program()
        explanation = obs.explain_static(flowchart, allow(1, arity=2))
        assert [step.kind for step in explanation.chain] == [
            "input", "assign", "downgrade", "check"]
        step = explanation.chain[2]
        assert step.detail == "downgrade y drops {2}, leaves {1}"
        assert step.label == [1] and step.target == "y"
        assert type(flowchart.boxes[step.node]).__name__ == "DowngradeBox"
        assert "[downgrade] downgrade y drops {2}, leaves {1}  -> {1}" in (
            explanation.render())

    def test_policy_step_names_the_box_that_put_the_policy_in_force(self):
        flowchart = library.policy_tighten_program()
        explanation = obs.explain_static(flowchart, allow(1, arity=2))
        assert [step.kind for step in explanation.chain] == [
            "input", "assign", "policy", "check"]
        step = explanation.chain[2]
        assert step.detail == "policy change puts J = {} in force"
        assert type(flowchart.boxes[step.node]).__name__ == "PolicyChangeBox"
        assert explanation.chain[3].detail.endswith("J = {} (in force)")

    def test_policy_change_no_listed_check_ran_against_is_left_out(self):
        # policy-branch under allow(1) fails only its epoch-0 check.
        explanation = obs.explain_static(library.policy_branch_program(),
                                         allow(1, arity=2))
        assert explanation.verdict == "violation"
        assert "policy" not in {step.kind for step in explanation.chain}

    def test_classic_programs_show_neither(self):
        from repro.verify.enumerate import all_allow_policies

        for flowchart in library.extended_suite():
            for policy in all_allow_policies(flowchart.arity):
                kinds = {step.kind for step in
                         obs.explain_static(flowchart, policy).chain}
                assert kinds <= {"input", "assign", "decision", "check"}


class TestExplanationEvents:
    def test_event_round_trips_through_renderer(self):
        flowchart = library.mixer_program()
        explanation = obs.explain(flowchart, allow(1, arity=2), (1, 2))
        fields = explanation.event_fields()
        assert obs.render_explanation_event(fields) == explanation.render()

    def test_surveillance_mechanism_emits_explanations(self):
        from repro.surveillance.dynamic import surveillance_mechanism

        flowchart = library.mixer_program()
        policy = allow(1, arity=2)
        domain = default_grid(flowchart.arity)
        ring = obs.RingBufferSink()
        with obs.observed(sinks=[ring], reset=True, explain=True):
            mechanism = surveillance_mechanism(flowchart, policy, domain)
            for point in domain:
                mechanism(*point)
        violations = ring.events("violation")
        explanations = ring.events("explanation")
        assert violations and len(explanations) == len(violations)
        for event in explanations:
            assert event["program"] == flowchart.name
            assert event["chain"]

    def test_instrumented_mechanism_emits_equal_explanations(self):
        from repro.surveillance.instrument import instrumented_mechanism

        flowchart = library.mixer_program()
        policy = allow(1, arity=2)
        domain = default_grid(flowchart.arity)
        ring = obs.RingBufferSink()
        with obs.observed(sinks=[ring], reset=True, explain=True):
            mechanism = instrumented_mechanism(flowchart, policy, domain)
            for point in domain:
                mechanism(*point)
        explanations = ring.events("explanation")
        assert explanations
        direct = obs.explain(flowchart, policy,
                             explanations[0]["point"])
        assert explanations[0]["chain"] == [
            step.to_dict() for step in direct.chain]

    def test_lint_emits_static_explanation_on_flow001(self):
        from repro.analysis import PassManager

        manager = PassManager.with_default_passes()
        ring = obs.RingBufferSink()
        with obs.observed(sinks=[ring], reset=True, explain=True):
            manager.run(library.mixer_program(), allow(1, arity=2))
        explanations = ring.events("explanation")
        assert explanations and explanations[0]["mode"] == "static"
