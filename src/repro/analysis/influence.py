"""The influence pass: a static fixpoint over the surveillance lattice.

Section 3's surveillance mechanism computes, *at run time*, an
over-approximation of which inputs influenced each variable and the
program counter.  This module computes the compile-time counterpart: an
iterative forward dataflow over the same powerset-of-inputs labels,
joining over all paths instead of following one.

States are kept per (box, policy in force).  Van Delft, Hunt and Sands
("Very Static Enforcement of Dynamic Policies") judge each flow by the
policy in force when it *completes*, so the fixpoint tracks, for every
box, the label environment under every policy regime that can be in
force when control reaches it.  Epoch 0 is keyed by the caller's
initial policy when it has one, and by ``None`` otherwise; the labels
never depend on that key.  The transfers mirror the dynamic
surveillance semantics:

- assignment: high-water accumulate of operand ∪ PC ∪ implicit labels;
- decision: PC accumulates the test label;
- ``policy_change(P)``: the state flows into the successor's ``P``
  bucket — the policy key changes, the labels do not;
- ``downgrade v(D)``: ``v``'s label drops D pointwise;
- ``send``/``recv``: through a channel pseudo-variable.

Invariant (the static-soundness property the test suite checks on every
concrete run): at any box ``n`` and any point of any execution that
reaches ``n`` with policy ``P`` in force,

- ``pc_at(n, P)`` ⊇ the dynamic C̄ at that moment, and
- ``label_at(n, v, P)`` ⊇ the dynamic *high-water* label of ``v``
  (and hence ⊇ the forgetting surveillance label, since high-water
  dominates it pointwise).

To guarantee the high-water half, the transfer function itself is
high-water style — an assignment *accumulates* into the old label
rather than replacing it — and the PC component is the monotone
forward union of test labels.  Implicit flows are additionally folded
in through :func:`repro.staticflow.cfgcertify.control_dependencies`
(the Ferrante–Ottenstein–Warren criterion over
:func:`repro.flowchart.analysis.postdominators`), matching the paper's
rule 2: an assignment reached under a decision carries that decision's
test label.

The verdict: a flowchart is *statically certified* for ``allow(J)``
iff every (halt, policy in force) observation ``ȳ ∪ C̄`` fits that
policy, with J itself in epoch 0.  Without ``policy_change`` boxes
this is ``ȳ ∪ C̄ ⊆ J`` at every halt.  Soundness argument (no execution
needed): static labels dominate dynamic surveillance labels bucket by
bucket, so a certified program can never trip surveillance's rule-4
check — the surveillance mechanism equals Q everywhere, and by
Theorem 3 that mechanism is sound, hence Q itself is sound for the
policy.  The price is completeness: the join over paths rejects
programs the dynamic mechanism (let alone Theorem 2's maximal
mechanism) accepts — the gap :mod:`repro.analysis.precision` measures.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.errors import PolicyError
from ..core.policy import AllowPolicy
from ..flowchart.boxes import (AssignBox, DecisionBox, DowngradeBox, NodeId,
                               PolicyChangeBox, RecvBox, SendBox)
from ..flowchart.program import Flowchart
from ..staticflow.cfgcertify import control_dependencies

Label = FrozenSet[int]
#: The policy in force on entry to a box; ``None`` keys epoch 0 of an
#: analysis run without an initial policy.
PolicyKey = Optional[FrozenSet[int]]

EMPTY: Label = frozenset()


class StaticVerdict:
    """Outcome of checking the influence fixpoint against a policy.

    ``observations[h][P]`` is the observable label ``ȳ ∪ C̄`` at halt
    ``h`` with ``P`` in force (``allowed`` in epoch 0).  ``excess`` is
    the union of what each of those checks rejects.
    """

    __slots__ = ("certified", "output_label", "allowed", "halt_labels",
                 "observations", "excess")

    def __init__(self, allowed: Label,
                 observations: Dict[NodeId, Dict[Label, Label]]) -> None:
        self.allowed = allowed
        self.observations = observations
        self.halt_labels: Dict[NodeId, Label] = {}
        self.output_label: Label = EMPTY
        self.excess: Label = EMPTY
        for halt_id, row in observations.items():
            union = EMPTY
            for in_force, label in row.items():
                union |= label
                self.excess |= label - in_force
            self.halt_labels[halt_id] = union
            self.output_label |= union
        self.certified = not self.excess

    def __bool__(self) -> bool:
        return self.certified

    def __repr__(self) -> str:
        verdict = "CERTIFIED" if self.certified else "REJECTED"
        return (f"StaticVerdict({verdict}: ȳ={sorted(self.output_label)} "
                f"vs J={sorted(self.allowed)})")


class InfluenceAnalysis:
    """Fixpoint result: entry states per (box, policy in force).

    ``var_states[n][P]`` / ``pc_states[n][P]`` describe the moment
    control is about to execute box ``n`` with ``P`` in force.
    ``var_influence`` / ``pc_influence`` join each box's buckets — the
    epoch-blind view; a flowchart without ``policy_change`` boxes has
    one bucket per box.  ``iterations`` counts fixpoint sweeps.
    """

    def __init__(self, flowchart: Flowchart, initial_allowed: PolicyKey,
                 var_states: Dict[NodeId, Dict[PolicyKey, Dict[str, Label]]],
                 pc_states: Dict[NodeId, Dict[PolicyKey, Label]],
                 iterations: int) -> None:
        self.flowchart = flowchart
        self.initial_allowed = initial_allowed
        self.var_states = var_states
        self.pc_states = pc_states
        self.iterations = iterations
        self.var_influence: Dict[NodeId, Dict[str, Label]] = {}
        self.pc_influence: Dict[NodeId, Label] = {}
        for node, buckets in var_states.items():
            joined: Dict[str, Label] = {}
            for state in buckets.values():
                for name, label in state.items():
                    joined[name] = joined.get(name, EMPTY) | label
            self.var_influence[node] = joined
            pc = EMPTY
            for label in pc_states[node].values():
                pc |= label
            self.pc_influence[node] = pc

    def policies_at(self, node: NodeId) -> List[PolicyKey]:
        """The in-force policies under which ``node`` is reachable."""
        return sorted(self.var_states.get(node, {}),
                      key=lambda policy: (policy is not None,
                                          sorted(policy or ())))

    def label_at(self, node: NodeId, variable: str,
                 policy: PolicyKey = None) -> Label:
        """Entry label of ``variable`` at ``node``.

        With ``policy``, the label in that bucket; without, the join
        over every policy in force there.
        """
        if policy is None:
            return self.var_influence.get(node, {}).get(variable, EMPTY)
        buckets = self.var_states.get(node, {})
        return buckets.get(frozenset(policy), {}).get(variable, EMPTY)

    def pc_at(self, node: NodeId, policy: PolicyKey = None) -> Label:
        """Entry PC label at ``node``, per bucket or joined as above."""
        if policy is None:
            return self.pc_influence.get(node, EMPTY)
        return self.pc_states.get(node, {}).get(frozenset(policy), EMPTY)

    def test_label(self, decision_id: NodeId) -> Label:
        """The static label of a decision's test, at its own state."""
        box = self.flowchart.boxes[decision_id]
        assert isinstance(box, DecisionBox)
        state = self.var_influence.get(decision_id, {})
        label: Label = EMPTY
        for name in box.predicate.variables():
            label |= state.get(name, EMPTY)
        return label

    def halt_observations(self) -> Dict[NodeId, Dict[PolicyKey, Label]]:
        """Per-halt, per-bucket observable label ``ȳ ∪ C̄``."""
        output = self.flowchart.output_variable
        return {
            halt_id: {policy: state.get(output, EMPTY)
                      | self.pc_states[halt_id][policy]
                      for policy, state in self.var_states.get(halt_id,
                                                               {}).items()}
            for halt_id in self.flowchart.halt_ids()}

    def halt_labels(self) -> Dict[NodeId, Label]:
        """Per-halt observable label: ``label(y) ∪ pc`` at that halt."""
        output = self.flowchart.output_variable
        return {halt_id: (self.label_at(halt_id, output)
                          | self.pc_at(halt_id))
                for halt_id in self.flowchart.halt_ids()}

    def output_label(self) -> Label:
        """Join over halts of ``label(y) ∪ pc`` — what the user may learn."""
        label: Label = EMPTY
        for halt_label in self.halt_labels().values():
            label |= halt_label
        return label

    def verdict(self, policy: AllowPolicy) -> StaticVerdict:
        """Certify the flowchart for ``allow(J)`` without executing it.

        Every (halt, policy in force) observation must fit that policy,
        J itself in epoch 0.
        """
        if not isinstance(policy, AllowPolicy):
            raise PolicyError(
                "the influence verdict is defined for allow(...) policies")
        if policy.arity != self.flowchart.arity:
            raise PolicyError(
                f"policy arity {policy.arity} != flowchart arity "
                f"{self.flowchart.arity}")
        allowed = frozenset(policy.allowed)
        epoch0 = self.initial_allowed
        if epoch0 is not None and epoch0 != allowed:
            # Epoch 0 shares its bucket with later epochs under the
            # same policy, so another J needs its own fixpoint.
            return influence_analysis(self.flowchart, allowed).verdict(policy)
        observations: Dict[NodeId, Dict[Label, Label]] = {}
        for halt_id, row in self.halt_observations().items():
            checks: Dict[Label, Label] = {}
            for key, label in row.items():
                in_force = allowed if key is None else key
                checks[in_force] = checks.get(in_force, EMPTY) | label
            observations[halt_id] = checks
        return StaticVerdict(allowed, observations)

    def __repr__(self) -> str:
        buckets = sum(len(row) for row in self.var_states.values())
        return (f"InfluenceAnalysis({self.flowchart.name}: "
                f"{len(self.var_states)} boxes, {buckets} states, "
                f"iterations={self.iterations})")


def influence_analysis(flowchart: Flowchart,
                       initial_allowed: Optional[Label] = None
                       ) -> InfluenceAnalysis:
    """Run the forward influence fixpoint over a flowchart.

    Entry states per (box, policy in force), epoch 0 keyed by
    ``initial_allowed``.  Merging is pointwise union within a bucket and
    bucket creation across policies.  The lattice (powerset of input
    indices, per variable, per bucket, per box) is finite and every
    transfer monotone in the entry state (the downgrade's constant
    set-difference included), so the iteration terminates.
    """
    order = flowchart.reachable_from(flowchart.start_id)
    predecessors = flowchart.predecessors()
    dependencies = control_dependencies(flowchart)
    initial_policy: PolicyKey = (None if initial_allowed is None
                                 else frozenset(initial_allowed))

    var_states: Dict[NodeId, Dict[PolicyKey, Dict[str, Label]]] = {
        node: {} for node in order}
    pc_states: Dict[NodeId, Dict[PolicyKey, Label]] = {
        node: {} for node in order}
    var_states[flowchart.start_id] = {initial_policy: {
        name: frozenset((position,))
        for position, name in enumerate(flowchart.input_variables, 1)}}
    pc_states[flowchart.start_id] = {initial_policy: EMPTY}

    def read_label(state: Dict[str, Label], names) -> Label:
        label: Label = EMPTY
        for name in names:
            label |= state.get(name, EMPTY)
        return label

    def implicit_label(node: NodeId) -> Label:
        """Rule-2 implicit flows via FOW control dependence, joined over
        the controlling tests' buckets."""
        label: Label = EMPTY
        for decision_id in dependencies[node]:
            decision = flowchart.boxes[decision_id]
            for state in var_states[decision_id].values():
                label |= read_label(state, decision.predicate.variables())
        return label

    def out_states(node: NodeId
                   ) -> List[Tuple[PolicyKey, Dict[str, Label], Label]]:
        """Transfer every bucket of ``node`` through its box."""
        box = flowchart.boxes[node]
        results = []
        for policy, entry in var_states[node].items():
            state = dict(entry)
            pc = pc_states[node][policy]
            out_policy = policy
            if isinstance(box, AssignBox):
                incoming = (read_label(state, box.expression.variables())
                            | pc | implicit_label(node))
                # High-water transfer: accumulate, never forget — this
                # is what makes the fixpoint dominate the dynamic labels.
                state[box.target] = state.get(box.target, EMPTY) | incoming
            elif isinstance(box, DecisionBox):
                pc = pc | read_label(state, box.predicate.variables())
            elif isinstance(box, PolicyChangeBox):
                out_policy = frozenset(box.allowed)
            elif isinstance(box, DowngradeBox):
                state[box.variable] = (state.get(box.variable, EMPTY)
                                       - frozenset(box.indices))
            elif isinstance(box, SendBox):
                # Channels are pseudo-variables ("#chan:ch"): a send
                # pours its envelope label (v̄ ∪ C̄ ∪ implicit) into the
                # channel's static upper bound.  Any message a recv
                # consumes was sent on some CFG path reaching it, so
                # path propagation of the pseudo-variable conservatively
                # covers the queue.
                key = f"#chan:{box.channel}"
                incoming = (read_label(state, (box.variable,))
                            | pc | implicit_label(node))
                state[key] = state.get(key, EMPTY) | incoming
            elif isinstance(box, RecvBox):
                key = f"#chan:{box.channel}"
                incoming = state.get(key, EMPTY) | pc | implicit_label(node)
                state[box.variable] = (state.get(box.variable, EMPTY)
                                       | incoming)
            results.append((out_policy, state, pc))
        return results

    iterations = 0
    changed = True
    while changed:
        iterations += 1
        changed = False
        for node in order:
            if node == flowchart.start_id:
                continue
            for predecessor in predecessors[node]:
                for policy, state, pc in out_states(predecessor):
                    bucket = var_states[node].setdefault(policy, {})
                    for name, label in state.items():
                        combined = bucket.get(name, EMPTY) | label
                        if combined != bucket.get(name):
                            bucket[name] = combined
                            changed = True
                    old_pc = pc_states[node].get(policy)
                    combined_pc = (old_pc or EMPTY) | pc
                    if combined_pc != old_pc:
                        pc_states[node][policy] = combined_pc
                        changed = True

    return InfluenceAnalysis(flowchart, initial_policy, var_states,
                             pc_states, iterations)


def static_verdict(flowchart: Flowchart, policy: AllowPolicy,
                   analysis: Optional[InfluenceAnalysis] = None
                   ) -> StaticVerdict:
    """Convenience: fixpoint + verdict in one call."""
    if analysis is None:
        analysis = influence_analysis(flowchart)
    return analysis.verdict(policy)
