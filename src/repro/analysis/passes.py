"""The built-in flowlint passes (influence verdict + hygiene).

Diagnostic codes:

========  ========  =====================================================
code      severity  meaning
========  ========  =====================================================
FLOW001   error     static influence verdict: output may depend on a
                    disallowed input (per offending halt box)
FLOW002   info      static influence verdict: certified (every halt's
                    label within the policy in force there) — emitted
                    by the influence pass on fixed-policy flowcharts and
                    by the epochs pass on dynamic-policy ones
DYN001    error     the same verdict on a dynamic-policy flowchart: a
                    flow completes under an in-force policy that does
                    not admit its influence (see
                    :mod:`repro.analysis.epochs`)
DYN002    warning   a flow licensed at write time is retroactively
                    disallowed by a later policy change
DYN003    info      a halt is reachable under several distinct in-force
                    policies (epoch-ambiguous observation point)
INT000    info      unwinding conditions verified; data records the
                    explored state-space size and iteration count
INT001    error     unwinding: local respect fails at an observation
                    point (see :mod:`repro.analysis.unwinding`)
INT002    warning   unwinding: a downgrade occurrence is conditioned on
                    secrets outside the policy and the admitted edge
TIME001   warning   decision on disallowed data whose arms have unequal
                    static step counts (Theorem 3's observable-time
                    caveat) — see :mod:`repro.analysis.timing`
TIME002   warning   decision on disallowed data whose arm step counts
                    are not statically bounded (loop / nested branch)
HYG001    warning   variable read before any assignment on some path
                    (the semantics supplies 0, but it is usually a bug)
HYG002    warning   box unreachable once constant predicates are folded
HYG003    info      decision with a constant predicate (one arm dead)
HYG004    warning   dead assignment (value never read before overwrite
                    or halt)
HYG005    warning   division/modulus by a constant-zero divisor (the
                    total semantics defines it as 0)
========  ========  =====================================================

The hygiene passes deliberately report at *warning* severity: the
Section 3 semantics keeps all of these total and well-defined (implicit
zero initialisation, total division), so none is an execution error —
but each is a smell the figure-library reconstructions should be and
are clean of at error level.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Union

from ..flowchart.boxes import (AssignBox, DecisionBox, HaltBox, NodeId,
                               StartBox)
from ..flowchart.expr import (And, BinOp, BoolConst, Compare, Const, Expr,
                              Ite, LoopExpr, Neg, Not, Or, Pred, Var)
from .diagnostics import Diagnostic, Severity
from .manager import AnalysisContext, AnalysisPass
from .timing import TimingChannelPass


class InfluencePass(AnalysisPass):
    """The static soundness verdict against the provided allow policy."""

    name = "influence"
    requires_policy = True

    def __init__(self) -> None:
        self.iterations: Optional[int] = None

    def run(self, context: AnalysisContext) -> List[Diagnostic]:
        if context.flowchart.has_dynamic_policy():
            # The epochs pass reports this verdict per (halt, policy in
            # force) on flowcharts that change or downgrade policies.
            return []
        analysis = context.influence()
        self.iterations = analysis.iterations
        verdict = analysis.verdict(context.policy)
        if verdict.certified:
            return [Diagnostic(
                "FLOW002", Severity.INFO, self.name,
                f"statically certified: output influence "
                f"{sorted(verdict.output_label)} within "
                f"{context.policy.name}",
                data={"output_label": sorted(verdict.output_label),
                      "allowed": sorted(verdict.allowed)})]
        diagnostics: List[Diagnostic] = []
        for halt_id, label in sorted(verdict.halt_labels.items()):
            excess = label - verdict.allowed
            if not excess:
                continue
            diagnostics.append(Diagnostic(
                "FLOW001", Severity.ERROR, self.name,
                f"output at this halt may depend on disallowed "
                f"input(s) {sorted(excess)} (influence {sorted(label)}, "
                f"policy {context.policy.name})",
                node=halt_id,
                data={"influence": sorted(label),
                      "allowed": sorted(verdict.allowed),
                      "excess": sorted(excess)}))
        return diagnostics


class UninitializedReadPass(AnalysisPass):
    """Reads of variables not definitely assigned on every path (HYG001)."""

    name = "uninit"

    def run(self, context: AnalysisContext) -> List[Diagnostic]:
        flowchart = context.flowchart
        order = flowchart.reachable_from(flowchart.start_id)
        predecessors = context.predecessors()
        inputs = frozenset(flowchart.input_variables)

        # Forward must-analysis: variables assigned on *every* path to
        # the box.  Merge is intersection, so seed non-start boxes with
        # "everything" (top) and shrink.
        everything = frozenset(
            name for box in flowchart.boxes.values()
            for name in ((box.written_variable(),)
                         if box.written_variable() else ())) | inputs
        assigned: Dict[NodeId, FrozenSet[str]] = {
            node: everything for node in order}
        assigned[flowchart.start_id] = inputs

        def out_set(node: NodeId) -> FrozenSet[str]:
            box = flowchart.boxes[node]
            target = box.written_variable()
            return assigned[node] | {target} if target else assigned[node]

        changed = True
        while changed:
            changed = False
            for node in order:
                if node == flowchart.start_id:
                    continue
                incoming = [out_set(p) for p in predecessors[node]]
                merged = (frozenset.intersection(*incoming)
                          if incoming else frozenset())
                if merged != assigned[node]:
                    assigned[node] = merged
                    changed = True

        diagnostics: List[Diagnostic] = []
        for node in order:
            box = flowchart.boxes[node]
            reads = set(box.read_variables())
            if isinstance(box, HaltBox):
                reads.add(flowchart.output_variable)
            for name in sorted(reads - assigned[node] - inputs):
                message = (f"halt reached with output {name!r} possibly "
                           f"unassigned (defaults to 0)"
                           if isinstance(box, HaltBox) else
                           f"read of {name!r} before any assignment on "
                           f"some path (defaults to 0)")
                diagnostics.append(Diagnostic(
                    "HYG001", Severity.WARNING, self.name, message,
                    node=node, data={"variable": name}))
        return diagnostics


def _constant_truth(predicate: Pred) -> Optional[bool]:
    """Evaluate a variable-free predicate, None when not constant."""
    if not predicate.variables() and not _contains_loop(predicate):
        return bool(predicate.eval({}))
    return None


class UnreachableCodePass(AnalysisPass):
    """Boxes dead once constant predicates are folded (HYG002/HYG003)."""

    name = "unreachable"

    def run(self, context: AnalysisContext) -> List[Diagnostic]:
        flowchart = context.flowchart
        diagnostics: List[Diagnostic] = []
        seen: Set[NodeId] = set()
        stack = [flowchart.start_id]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            box = flowchart.boxes[current]
            if isinstance(box, DecisionBox):
                truth = _constant_truth(box.predicate)
                if truth is not None:
                    diagnostics.append(Diagnostic(
                        "HYG003", Severity.INFO, self.name,
                        f"decision predicate {box.predicate!r} is "
                        f"constant; always takes the "
                        f"{'true' if truth else 'false'} arm",
                        node=current,
                        data={"constant": truth}))
                    stack.append(box.true_next if truth else box.false_next)
                    continue
            stack.extend(box.successors())
        for node in sorted(set(flowchart.boxes) - seen, key=str):
            diagnostics.append(Diagnostic(
                "HYG002", Severity.WARNING, self.name,
                f"box {flowchart.boxes[node]!r} is unreachable once "
                f"constant predicates are folded",
                node=node))
        return diagnostics


class DeadAssignmentPass(AnalysisPass):
    """Assignments whose value can never be observed (HYG004)."""

    name = "dead-assign"

    def run(self, context: AnalysisContext) -> List[Diagnostic]:
        flowchart = context.flowchart
        order = flowchart.reachable_from(flowchart.start_id)
        # Backward liveness: live_in[n] = variables whose value on entry
        # to n may still be read before being overwritten.
        live_in: Dict[NodeId, FrozenSet[str]] = {
            node: frozenset() for node in order}

        def transfer(node: NodeId) -> FrozenSet[str]:
            box = flowchart.boxes[node]
            live: FrozenSet[str] = frozenset()
            for successor in box.successors():
                live |= live_in[successor]
            if isinstance(box, HaltBox):
                return frozenset((flowchart.output_variable,))
            if isinstance(box, AssignBox):
                return (live - {box.target}) | box.expression.variables()
            if isinstance(box, DecisionBox):
                return live | box.predicate.variables()
            return live

        changed = True
        while changed:
            changed = False
            for node in reversed(order):
                updated = transfer(node)
                if updated != live_in[node]:
                    live_in[node] = updated
                    changed = True

        diagnostics: List[Diagnostic] = []
        for node in order:
            box = flowchart.boxes[node]
            if not isinstance(box, AssignBox):
                continue
            live_out: FrozenSet[str] = frozenset()
            for successor in box.successors():
                live_out |= live_in[successor]
            if box.target not in live_out:
                diagnostics.append(Diagnostic(
                    "HYG004", Severity.WARNING, self.name,
                    f"assignment to {box.target!r} is dead: the value "
                    f"is never read before being overwritten or halting",
                    node=node, data={"variable": box.target}))
        return diagnostics


def _subexpressions(node: Union[Expr, Pred]) -> Iterator[Union[Expr, Pred]]:
    """Every expression/predicate node in a box label, root included."""
    yield node
    if isinstance(node, (BinOp, Compare, And, Or)):
        yield from _subexpressions(node.left)
        yield from _subexpressions(node.right)
    elif isinstance(node, (Neg, Not)):
        yield from _subexpressions(node.operand)
    elif isinstance(node, Ite):
        yield from _subexpressions(node.predicate)
        yield from _subexpressions(node.then_value)
        yield from _subexpressions(node.else_value)
    elif isinstance(node, LoopExpr):
        yield from _subexpressions(node.predicate)
        for update in node.updates.values():
            yield from _subexpressions(update)


def _contains_loop(node: Union[Expr, Pred]) -> bool:
    return any(isinstance(sub, LoopExpr) for sub in _subexpressions(node))


def _fold_constant(node: Expr) -> Optional[int]:
    """Constant-fold a total, variable-free arithmetic subtree."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Neg):
        operand = _fold_constant(node.operand)
        return None if operand is None else -operand
    if isinstance(node, BinOp):
        left = _fold_constant(node.left)
        right = _fold_constant(node.right)
        if left is None or right is None:
            return None
        return node.eval({})
    return None


class DivisionByZeroPass(AnalysisPass):
    """Statically-reachable division/modulus by zero (HYG005)."""

    name = "div-by-zero"

    def run(self, context: AnalysisContext) -> List[Diagnostic]:
        flowchart = context.flowchart
        diagnostics: List[Diagnostic] = []
        for node in flowchart.reachable_from(flowchart.start_id):
            box = flowchart.boxes[node]
            if isinstance(box, AssignBox):
                roots: List[Union[Expr, Pred]] = [box.expression]
            elif isinstance(box, DecisionBox):
                roots = [box.predicate]
            else:
                continue
            for root in roots:
                for sub in _subexpressions(root):
                    if (isinstance(sub, BinOp) and sub.op in ("//", "%")
                            and _fold_constant(sub.right) == 0):
                        diagnostics.append(Diagnostic(
                            "HYG005", Severity.WARNING, self.name,
                            f"{'division' if sub.op == '//' else 'modulus'}"
                            f" by constant zero in {sub!r} (the total "
                            f"semantics yields 0)",
                            node=node, data={"operator": sub.op}))
        return diagnostics


def default_passes() -> List[AnalysisPass]:
    """The standard flowlint pass set, in execution order."""
    from .epochs import DynamicPolicyPass
    from .unwinding import UnwindingPass

    return [
        InfluencePass(),
        DynamicPolicyPass(),
        UnwindingPass(),
        TimingChannelPass(),
        UninitializedReadPass(),
        UnreachableCodePass(),
        DeadAssignmentPass(),
        DivisionByZeroPass(),
    ]
