"""Unwinding-based verification of intransitive declassification.

Eggert, van der Meyden, Schnoor, and Wilke ("The Complexity of
Intransitive Noninterference") characterise intransitive
noninterference by *unwinding conditions* — local properties of a
transition system that together imply the global hypersafety property.
This module adapts the two classic conditions to the surveillance
monitor's own state space:

- **local respect** (INT001): at every reachable observation point
  (halt), the observable influence must lie within the policy in force
  there.  A ``downgrade`` box is the *only* admitted intransitive edge
  — it discharges the designated indices from a label before the check.
- **step consistency** (INT002): the *occurrence* of a declassification
  step must not itself depend on secrets outside the admitted edge.  A
  reachable ``downgrade`` state whose PC label carries indices neither
  allowed by the in-force policy nor discharged by the downgrade leaks
  through the decision to declassify.

Unlike the influence fixpoint (:mod:`repro.analysis.influence`), which
merges states per (box, policy in force), the unwinding checker
enumerates the monitor's *exact* reachable abstract states — no
merging — so it is a decision procedure for the finite label space
rather than an approximation.  It records the explored state-space
size and worklist iteration count; the precision harness persists both
per pair.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.errors import PolicyError
from ..core.policy import AllowPolicy
from ..flowchart.boxes import (AssignBox, DecisionBox, DowngradeBox, HaltBox,
                               NodeId, PolicyChangeBox, StartBox)
from ..flowchart.program import Flowchart
from ..surveillance.labels import from_mask, to_mask
from .diagnostics import Diagnostic, Severity
from .manager import AnalysisContext, AnalysisPass

#: Exact abstract monitor state: (node, sorted nonzero variable label
#: masks, PC label mask, in-force policy mask).
AbstractState = Tuple[NodeId, Tuple[Tuple[str, int], ...], int, int]


class UnwindingViolation:
    """One failed unwinding condition at one reachable abstract state."""

    __slots__ = ("condition", "node", "excess", "in_force", "pc")

    def __init__(self, condition: str, node: NodeId,
                 excess: FrozenSet[int], in_force: FrozenSet[int],
                 pc: FrozenSet[int]) -> None:
        self.condition = condition
        self.node = node
        self.excess = excess
        self.in_force = in_force
        self.pc = pc

    def __repr__(self) -> str:
        return (f"UnwindingViolation({self.condition} at {self.node!r}: "
                f"excess={sorted(self.excess)})")


class UnwindingResult:
    """Outcome of the exact reachable-state unwinding check."""

    def __init__(self, flowchart_name: str, certified: bool,
                 local_respect: List[UnwindingViolation],
                 step_consistency: List[UnwindingViolation],
                 states_explored: int, iterations: int) -> None:
        self.flowchart_name = flowchart_name
        self.certified = certified
        self.local_respect = local_respect
        self.step_consistency = step_consistency
        self.states_explored = states_explored
        self.iterations = iterations

    def __bool__(self) -> bool:
        return self.certified

    def to_dict(self) -> dict:
        return {
            "flowchart": self.flowchart_name,
            "certified": self.certified,
            "local_respect_violations": len(self.local_respect),
            "step_consistency_violations": len(self.step_consistency),
            "states_explored": self.states_explored,
            "iterations": self.iterations,
        }

    def __repr__(self) -> str:
        verdict = "CERTIFIED" if self.certified else "REJECTED"
        return (f"UnwindingResult({verdict}: {self.flowchart_name}, "
                f"states={self.states_explored}, "
                f"iterations={self.iterations})")


def unwinding_check(flowchart: Flowchart,
                    policy: AllowPolicy) -> UnwindingResult:
    """Enumerate the monitor's reachable abstract states and check both
    unwinding conditions at every one of them.

    The abstract transition relation mirrors the dynamic surveillance
    semantics exactly (forgetting variant: assignment *sets* the label
    to operands ∪ C̄), except decisions take both branches — the value
    state is abstracted away, label state is kept exact.  The state
    space is finite (nodes × label assignments × PC × policies), so the
    worklist terminates; no widening, no merging.
    """
    if not isinstance(policy, AllowPolicy):
        raise PolicyError(
            "the unwinding check is defined for allow(...) policies")
    if policy.arity != flowchart.arity:
        raise PolicyError(
            f"policy arity {policy.arity} != flowchart arity "
            f"{flowchart.arity}")

    output = flowchart.output_variable
    initial_labels = tuple(sorted(
        (name, 1 << (position - 1))
        for position, name in enumerate(flowchart.input_variables, 1)))
    initial: AbstractState = (flowchart.start_id, initial_labels,
                              0, to_mask(policy.allowed))

    def label_of(labels: Tuple[Tuple[str, int], ...], name: str) -> int:
        for entry_name, mask in labels:
            if entry_name == name:
                return mask
        return 0

    def with_label(labels: Tuple[Tuple[str, int], ...], name: str,
                   mask: int) -> Tuple[Tuple[str, int], ...]:
        kept = [(n, m) for n, m in labels if n != name]
        if mask:
            kept.append((name, mask))
        return tuple(sorted(kept))

    local_respect: List[UnwindingViolation] = []
    step_consistency: List[UnwindingViolation] = []
    flagged: Set[Tuple[str, NodeId, int]] = set()

    seen: Set[AbstractState] = {initial}
    worklist: List[AbstractState] = [initial]
    iterations = 0
    while worklist:
        iterations += 1
        node, labels, pc, allowed = worklist.pop()
        box = flowchart.boxes[node]
        successors: List[AbstractState] = []
        if isinstance(box, StartBox):
            successors.append((box.next, labels, pc, allowed))
        elif isinstance(box, AssignBox):
            incoming = pc
            for name in box.expression.variables():
                incoming |= label_of(labels, name)
            successors.append((box.next,
                               with_label(labels, box.target, incoming),
                               pc, allowed))
        elif isinstance(box, DecisionBox):
            test = pc
            for name in box.predicate.variables():
                test |= label_of(labels, name)
            successors.append((box.true_next, labels, test, allowed))
            successors.append((box.false_next, labels, test, allowed))
        elif isinstance(box, PolicyChangeBox):
            successors.append((box.next, labels, pc,
                               to_mask(box.allowed)))
        elif isinstance(box, DowngradeBox):
            dropped = to_mask(box.indices)
            # Step consistency: the occurrence of this declassification
            # step is conditioned on the PC; indices there that are
            # neither in force nor discharged by the admitted edge make
            # the *decision to declassify* an unlicensed channel.
            excess = pc & ~(allowed | dropped)
            if excess and ("INT002", node, excess) not in flagged:
                flagged.add(("INT002", node, excess))
                step_consistency.append(UnwindingViolation(
                    "step-consistency", node, from_mask(excess),
                    from_mask(allowed), from_mask(pc)))
            current = label_of(labels, box.variable)
            successors.append((box.next,
                               with_label(labels, box.variable,
                                          current & ~dropped),
                               pc, allowed))
        elif isinstance(box, HaltBox):
            # Local respect: at the observation point the observable
            # influence (output label ∪ PC) must fit the policy in
            # force *now* — downgrades already discharged their edge.
            observable = label_of(labels, output) | pc
            excess = observable & ~allowed
            if excess and ("INT001", node, excess) not in flagged:
                flagged.add(("INT001", node, excess))
                local_respect.append(UnwindingViolation(
                    "local-respect", node, from_mask(excess),
                    from_mask(allowed), from_mask(pc)))
        for successor in successors:
            if successor not in seen:
                seen.add(successor)
                worklist.append(successor)

    certified = not local_respect
    return UnwindingResult(flowchart.name, certified, local_respect,
                           step_consistency, len(seen), iterations)


class UnwindingPass(AnalysisPass):
    """Flowlint pass wrapping :func:`unwinding_check`.

    Only meaningful for flowcharts with an admitted intransitive edge
    (a ``downgrade`` box); skipped otherwise so classic programs see no
    new diagnostics.  INT001 is an error (local respect fails at an
    observation point); INT002 is a warning (secret-dependent
    declassification occurrence).
    """

    name = "unwinding"
    requires_policy = True

    def __init__(self) -> None:
        self.iterations: Optional[int] = None
        self.states_explored: Optional[int] = None

    def run(self, context: AnalysisContext) -> List[Diagnostic]:
        flowchart = context.flowchart
        if not flowchart.downgrade_ids():
            return []
        assert context.policy is not None
        result = context.unwinding()
        self.iterations = result.iterations
        self.states_explored = result.states_explored
        diagnostics: List[Diagnostic] = []
        for violation in result.local_respect:
            diagnostics.append(Diagnostic(
                "INT001", Severity.ERROR, self.name,
                f"local respect fails: observable influence carries "
                f"input(s) {sorted(violation.excess)} not admitted by the "
                f"in-force policy allow({sorted(violation.in_force)}) and "
                f"not discharged by any downgrade edge",
                node=violation.node,
                data={"excess": sorted(violation.excess),
                      "in_force": sorted(violation.in_force),
                      "pc": sorted(violation.pc)}))
        for violation in result.step_consistency:
            diagnostics.append(Diagnostic(
                "INT002", Severity.WARNING, self.name,
                f"step consistency at risk: the downgrade occurrence is "
                f"conditioned on input(s) {sorted(violation.excess)} "
                f"outside the in-force policy and the admitted edge "
                f"(PC influence {sorted(violation.pc)})",
                node=violation.node,
                data={"excess": sorted(violation.excess),
                      "in_force": sorted(violation.in_force),
                      "pc": sorted(violation.pc)}))
        if result.certified:
            diagnostics.append(Diagnostic(
                "INT000", Severity.INFO, self.name,
                f"unwinding conditions verified over "
                f"{result.states_explored} reachable abstract state(s) "
                f"({result.iterations} iteration(s))",
                data=result.to_dict()))
        return diagnostics
