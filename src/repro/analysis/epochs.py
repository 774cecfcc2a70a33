"""Dynamic-policy diagnostics: each flow judged by the policy in force
when it *completes*.

Van Delft, Hunt, and Sands ("Very Static Enforcement of Dynamic
Policies") observe that under a policy that changes mid-program, the
natural security criterion judges each flow by the policy in force at
the moment the flow reaches the observer — not the policy under which
the data was written.  The influence fixpoint
(:mod:`repro.analysis.influence`) already keeps its states per (box,
policy in force) and its verdict checks every halt against the policy
in force there; this pass reports that verdict on flowcharts with
``policy_change``/``downgrade`` boxes, one diagnostic per failing
(halt, policy in force) check, plus what only a policy change shows.

Diagnostics:

========  ========  =====================================================
code      severity  meaning
========  ========  =====================================================
DYN001    error     a halt is reachable under an in-force policy that
                    does not admit the observable label there (the
                    completion-time criterion fails)
DYN002    warning   a flow licensed at write time is retroactively
                    disallowed: at a policy change, a live variable's
                    label fits the outgoing policy but not the incoming
                    one
DYN003    info      a halt is reachable under several distinct in-force
                    policies (epoch-ambiguous observation point)
========  ========  =====================================================
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set

from ..flowchart.boxes import HaltBox, NodeId
from ..flowchart.program import Flowchart
from .diagnostics import Diagnostic, Severity
from .manager import AnalysisContext, AnalysisPass


def _live_after(flowchart: Flowchart, node: NodeId) -> FrozenSet[str]:
    """Variables read by any box reachable from ``node``'s successors."""
    live: Set[str] = set()
    seen: Set[NodeId] = set()
    stack = list(flowchart.boxes[node].successors())
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        box = flowchart.boxes[current]
        live |= box.read_variables()
        if isinstance(box, HaltBox):
            live.add(flowchart.output_variable)
        stack.extend(box.successors())
    return frozenset(live)


class DynamicPolicyPass(AnalysisPass):
    """The influence verdict on dynamic-policy flowcharts.

    Reports certification whenever the flowchart contains
    ``policy_change``/``downgrade`` boxes (the influence pass reports
    the others): DYN001 per failing (halt, policy in force) check,
    DYN002/DYN003, and a FLOW002 certification info when every epoch
    checks out.  Skips classic flowcharts entirely.
    """

    name = "epochs"
    requires_policy = True

    def __init__(self) -> None:
        self.iterations: Optional[int] = None

    def run(self, context: AnalysisContext) -> List[Diagnostic]:
        flowchart = context.flowchart
        if not flowchart.has_dynamic_policy():
            return []
        analysis = context.influence()
        self.iterations = analysis.iterations
        verdict = analysis.verdict(context.policy)
        diagnostics: List[Diagnostic] = []

        observations = verdict.observations
        for halt_id in sorted(observations, key=str):
            row = observations[halt_id]
            in_force_order = sorted(row, key=sorted)
            for in_force in in_force_order:
                label = row[in_force]
                excess = label - in_force
                if excess:
                    diagnostics.append(Diagnostic(
                        "DYN001", Severity.ERROR, self.name,
                        f"flow completes under policy "
                        f"allow({sorted(in_force)}) which does not admit "
                        f"input(s) {sorted(excess)} "
                        f"(observable influence {sorted(label)})",
                        node=halt_id,
                        data={"in_force": sorted(in_force),
                              "influence": sorted(label),
                              "excess": sorted(excess)}))
            if len(row) > 1:
                policies = [sorted(key) for key in in_force_order]
                diagnostics.append(Diagnostic(
                    "DYN003", Severity.INFO, self.name,
                    f"halt reachable under {len(row)} distinct in-force "
                    f"policies: {policies}",
                    node=halt_id, data={"policies": policies}))

        inputs = frozenset(flowchart.input_variables)
        for change_id in sorted(flowchart.policy_change_ids(), key=str):
            box = flowchart.boxes[change_id]
            new_policy = frozenset(box.allowed)
            live = _live_after(flowchart, change_id) - inputs
            for old_policy in analysis.policies_at(change_id):
                for variable in sorted(live):
                    label = analysis.label_at(change_id, variable,
                                              old_policy)
                    if (label and label <= old_policy
                            and not label <= new_policy):
                        diagnostics.append(Diagnostic(
                            "DYN002", Severity.WARNING, self.name,
                            f"{variable!r} (influence {sorted(label)}) was "
                            f"licensed under allow({sorted(old_policy)}) "
                            f"but is retroactively disallowed by "
                            f"allow({sorted(box.allowed)})",
                            node=change_id,
                            data={"variable": variable,
                                  "influence": sorted(label),
                                  "old_policy": sorted(old_policy),
                                  "new_policy": sorted(box.allowed)}))

        if verdict.certified:
            diagnostics.append(Diagnostic(
                "FLOW002", Severity.INFO, self.name,
                f"statically certified across all epochs: every halt's "
                f"observable influence fits the policy in force there "
                f"(output influence {sorted(verdict.output_label)})",
                data={"output_label": sorted(verdict.output_label),
                      "initial_allowed": sorted(verdict.allowed),
                      "iterations": analysis.iterations}))
        return diagnostics
