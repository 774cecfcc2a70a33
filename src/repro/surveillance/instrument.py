"""The literal Section 3 construction: surveillance as a flowchart transform.

The paper defines the surveillance mechanism *as a program*: transform
``Q`` into a new flowchart ``M`` whose variables are Q's variables plus
the surveillance variables, via four rules:

1. after the START box, set ``x̄_i := {i}`` and every other surveillance
   variable to ∅;
2. replace ``v := E(w1..wp)`` with ``v̄ := w̄1 ∪ ... ∪ w̄p ∪ C̄`` followed
   by the original assignment;
3. replace the decision on ``B(w1..wp)`` with ``C̄ := C̄ ∪ w̄1 ∪ ... ∪ w̄p``
   followed by the decision;
4. replace each HALT with a test of ``ȳ ∪ C̄ ⊆ J``: halt normally when
   it holds, emit the violation notice Λ otherwise (C̄ participates so
   the notice decision depends only on allowed data — Example 4).

Flowchart variables hold integers, so labels are encoded as bitmasks
(bit i-1 ⇔ index i); set union is bitwise-or and the subset test is
``(v̄ | J) == J``.  A violation is signalled by setting the flag
variable ``_viol`` to 1 before halting; the mechanism wrapper reads it
from the final environment.

The timed variant (Theorem 3′) adds rule 3′: before each decision,
test the *would-be* C̄ against J and halt with a violation immediately
when it fails.

The instrumented flowchart is itself a wellformed flowchart — it can be
executed, printed, analysed, or instrumented again.  Bench E04 checks
it agrees with the interpreter-level mechanism on every input and
measures the overhead of the extra boxes.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Optional
from weakref import WeakKeyDictionary

from ..core.domains import ProductDomain
from ..core.errors import ArityMismatchError, FlowchartError
from ..core.mechanism import ProtectionMechanism, ViolationNotice
from ..core.observability import VALUE_ONLY, OutputModel
from ..core.policy import AllowPolicy
from ..core.program import Program
from ..flowchart.boxes import (AssignBox, Box, DecisionBox, DowngradeBox,
                               HaltBox, NodeId, PolicyChangeBox, StartBox)
from ..flowchart.expr import BinOp, Compare, Const, Var
from ..flowchart.fastpath import run_flowchart
from ..flowchart.interpreter import DEFAULT_FUEL, as_program, execute
from ..flowchart.program import Flowchart
from ..obs import runtime as _obs
from .labels import to_mask

#: Name of the surveillance variable of ``v``.
VIOLATION_FLAG = "_viol"
PC_LABEL = "_s_C"
#: Dynamic-policy state: the mask of the policy in force, and the epoch
#: counter (number of policy changes executed).  Only materialised when
#: the flowchart contains policy_change/downgrade boxes — classic
#: programs instrument to exactly the same boxes as before.
POLICY_MASK = "_s_J"
EPOCH_VAR = "_s_epoch"

_ids = itertools.count()

#: flowchart -> {(allowed_mask, timed): instrumented flowchart}.  The
#: transform is pure, so repeated (Q, J) instrumentations — one per
#: policy per sweep rep — can share one result; crucially this keeps
#: the instrumented flowchart's *identity* stable, which is what the
#: compiled-backend cache (`repro.flowchart.fastpath`) is keyed on.
_INSTRUMENT_MEMO: "WeakKeyDictionary" = WeakKeyDictionary()
_instrument_lock = threading.Lock()


def surveillance_variable(variable: str) -> str:
    """The name of v̄ in the instrumented flowchart."""
    return f"_s_{variable}"


def _fresh(hint: str) -> NodeId:
    return f"__{hint}{next(_ids)}"


def _label_union(names, include_pc: bool) -> "BinOp":
    """The expression ``w̄1 | ... | w̄p [| C̄]`` (0 when empty)."""
    terms = [Var(surveillance_variable(name)) for name in sorted(names)]
    if include_pc:
        terms.append(Var(PC_LABEL))
    expression = terms[0] if terms else Const(0)
    for term in terms[1:]:
        expression = BinOp("|", expression, term)
    return expression


def _subset_of_mask(expression, allowed_mask: int) -> Compare:
    """The predicate ``(expression | J) == J``."""
    return Compare("==", BinOp("|", expression, Const(allowed_mask)),
                   Const(allowed_mask))


def _subset_of_policy(expression, dynamic: bool,
                      allowed_mask: int) -> Compare:
    """Subset test against the policy in force.

    Fixed-policy flowcharts keep the constant-folded ``(e | J) == J``
    shape (bit-identical codegen to before); dynamic ones test against
    the ``_s_J`` register so every check honours the policy installed
    by the most recent ``policy_change``.
    """
    if not dynamic:
        return _subset_of_mask(expression, allowed_mask)
    return Compare("==", BinOp("|", expression, Var(POLICY_MASK)),
                   Var(POLICY_MASK))


def instrument(flowchart: Flowchart, policy: AllowPolicy,
               timed: bool = False,
               name: Optional[str] = None) -> Flowchart:
    """Apply the four transformation rules, yielding the flowchart M.

    The result has the same input variables and output variable as Q;
    after it halts, ``_viol == 1`` in the final environment iff the run
    ended in a violation notice.
    """
    if policy.arity != flowchart.arity:
        raise ArityMismatchError(
            f"policy arity {policy.arity} != flowchart arity {flowchart.arity}"
        )
    if flowchart.has_channels():
        # Literal instrumentation encodes labels as integer variables of
        # the instrumented flowchart; channel messages carry labels
        # inside their envelopes, which the integer environment cannot
        # model.  Channel programs are surveilled interpreter-level
        # (repro.surveillance.dynamic.surveil) only.
        raise FlowchartError(
            f"flowchart {flowchart.name!r} has channel boxes; literal "
            "instrumentation does not support send/recv — use the "
            "interpreter-level surveillance mechanism")
    allowed_mask = to_mask(policy.allowed)
    dynamic = flowchart.has_dynamic_policy()
    arity_mask = (1 << flowchart.arity) - 1

    memo_key = (allowed_mask, timed) if name is None else None
    if memo_key is not None:
        with _instrument_lock:
            cached = _INSTRUMENT_MEMO.get(flowchart, {}).get(memo_key)
        if cached is not None:
            if _obs.active:
                _obs.record_instrument_memo(hit=True)
            return cached
        if _obs.active:
            _obs.record_instrument_memo(hit=False)

    boxes: Dict[NodeId, Box] = {}

    # Each original box id is preserved as the entry point of its
    # replacement structure, so all original edges stay valid.
    for node_id, box in flowchart.boxes.items():
        if isinstance(box, StartBox):
            # Rule 1: initialise surveillance variables right after START.
            chain_targets = []
            for position, input_name in enumerate(flowchart.input_variables, 1):
                chain_targets.append(
                    (surveillance_variable(input_name), Const(1 << (position - 1))))
            for program_variable in flowchart.program_variables():
                chain_targets.append(
                    (surveillance_variable(program_variable), Const(0)))
            chain_targets.append(
                (surveillance_variable(flowchart.output_variable), Const(0)))
            chain_targets.append((PC_LABEL, Const(0)))
            chain_targets.append((VIOLATION_FLAG, Const(0)))
            if dynamic:
                chain_targets.append((POLICY_MASK, Const(allowed_mask)))
                chain_targets.append((EPOCH_VAR, Const(0)))

            current = node_id
            boxes[node_id] = StartBox("__patch__")
            previous = node_id
            for target, expression in chain_targets:
                assign_id = _fresh("i")
                boxes[assign_id] = AssignBox(target, expression, "__patch__")
                _patch(boxes, previous, assign_id)
                previous = assign_id
            _patch(boxes, previous, box.next)

        elif isinstance(box, AssignBox):
            # Rule 2: v̄ := w̄1 ∪ ... ∪ w̄p ∪ C̄ ; then the assignment.
            label_id = node_id
            assign_id = _fresh("a")
            boxes[label_id] = AssignBox(
                surveillance_variable(box.target),
                _label_union(box.expression.variables(), include_pc=True),
                assign_id,
            )
            boxes[assign_id] = AssignBox(box.target, box.expression, box.next)

        elif isinstance(box, DecisionBox):
            test_union = _label_union(box.predicate.variables(),
                                      include_pc=False)
            if timed:
                # Rule 3': guard the test; halt with a violation the
                # moment a disallowed variable is about to be tested.
                guard_id = node_id
                temp = _fresh("g")
                update_id = _fresh("c")
                decide_id = _fresh("d")
                viol_id = _fresh("v")
                halt_id = _fresh("h")
                boxes[guard_id] = AssignBox("_s_test", test_union, temp)
                boxes[temp] = DecisionBox(
                    _subset_of_policy(Var("_s_test"), dynamic, allowed_mask),
                    update_id, viol_id,
                )
                boxes[update_id] = AssignBox(
                    PC_LABEL, BinOp("|", Var(PC_LABEL), Var("_s_test")),
                    decide_id,
                )
                boxes[decide_id] = DecisionBox(box.predicate, box.true_next,
                                               box.false_next)
                boxes[viol_id] = AssignBox(VIOLATION_FLAG, Const(1), halt_id)
                boxes[halt_id] = HaltBox()
            else:
                # Rule 3: C̄ := C̄ ∪ w̄s ; then the decision.
                update_id = node_id
                decide_id = _fresh("d")
                boxes[update_id] = AssignBox(
                    PC_LABEL, BinOp("|", Var(PC_LABEL), test_union), decide_id)
                boxes[decide_id] = DecisionBox(box.predicate, box.true_next,
                                               box.false_next)

        elif isinstance(box, HaltBox):
            # Rule 4: halt normally iff ȳ ∪ C̄ ⊆ J, else flag a violation
            # (C̄ participates so the notice decision itself never
            # depends on disallowed data — Example 4).
            check_id = node_id
            ok_id = _fresh("k")
            viol_id = _fresh("v")
            halt_id = _fresh("h")
            boxes[check_id] = DecisionBox(
                _subset_of_policy(
                    BinOp("|",
                          Var(surveillance_variable(flowchart.output_variable)),
                          Var(PC_LABEL)),
                    dynamic, allowed_mask),
                ok_id, viol_id,
            )
            boxes[ok_id] = HaltBox()
            boxes[viol_id] = AssignBox(VIOLATION_FLAG, Const(1), halt_id)
            boxes[halt_id] = HaltBox()

        elif isinstance(box, PolicyChangeBox):
            # Dynamic-policy rule: install the new mask, bump the epoch.
            bump_id = _fresh("p")
            boxes[node_id] = AssignBox(
                POLICY_MASK, Const(to_mask(frozenset(box.allowed))), bump_id)
            boxes[bump_id] = AssignBox(
                EPOCH_VAR, BinOp("+", Var(EPOCH_VAR), Const(1)), box.next)

        elif isinstance(box, DowngradeBox):
            # Declassifier rule: clear the dropped bits of v̄.  Labels
            # only ever hold bits below the arity, so masking with the
            # arity-wide complement is an exact set difference.
            keep_mask = arity_mask & ~to_mask(frozenset(box.indices))
            shadow = surveillance_variable(box.variable)
            boxes[node_id] = AssignBox(
                shadow, BinOp("&", Var(shadow), Const(keep_mask)), box.next)

        else:  # pragma: no cover - closed box hierarchy
            raise TypeError(f"unknown box type {type(box).__name__}")

    suffix = "M'-inst" if timed else "M-inst"
    instrumented = Flowchart(boxes, flowchart.input_variables,
                             flowchart.output_variable,
                             name=name or f"{suffix}({flowchart.name})")
    if memo_key is not None:
        with _instrument_lock:
            _INSTRUMENT_MEMO.setdefault(flowchart, {})[memo_key] = instrumented
    return instrumented


def _patch(boxes: Dict[NodeId, Box], node_id: NodeId, target: NodeId) -> None:
    """Point the single successor slot of ``node_id`` at ``target``."""
    box = boxes[node_id]
    if isinstance(box, StartBox):
        boxes[node_id] = StartBox(target)
    elif isinstance(box, AssignBox):
        boxes[node_id] = AssignBox(box.target, box.expression, target)
    else:  # pragma: no cover - only single-successor boxes are patched
        raise TypeError(f"cannot patch {box!r}")


def instrumented_mechanism(flowchart: Flowchart, policy: AllowPolicy,
                           domain: ProductDomain,
                           output_model: OutputModel = VALUE_ONLY,
                           timed: bool = False,
                           fuel: int = DEFAULT_FUEL,
                           program: Optional[Program] = None,
                           name: Optional[str] = None,
                           value_cap: Optional[int] = None,
                           backend: Optional[str] = None) -> ProtectionMechanism:
    """Wrap the instrumented flowchart as a ProtectionMechanism.

    Executes M and reads the violation flag from the final environment.
    Under a time-observable model, the *protected program's* time is the
    step count of Q itself (re-measured on pass), and notices carry the
    number of original-program steps completed before the violation —
    mirroring the interpreter-level mechanism so the two are
    extensionally equal.
    """
    instrumented = instrument(flowchart, policy, timed=timed)
    protected = program if program is not None else as_program(
        flowchart, domain, output_model, fuel=fuel, value_cap=value_cap,
        backend=backend)
    time_observable = output_model.time_observable
    has_epochs = bool(flowchart.policy_change_ids())

    def mechanism_fn(*inputs):
        result = run_flowchart(instrumented, inputs, fuel=fuel,
                               capture_env=True, value_cap=value_cap,
                               backend=backend)
        violated = result.env.get(VIOLATION_FLAG, 0) == 1
        if violated:
            if _obs.active:
                _obs.record_violation(flowchart.name, "instrumented",
                                      timed=timed)
            if _obs.explain_active:
                # The instrumented flowchart (on whichever fastpath
                # backend executed it) only sets _viol; derive the
                # influence chain from the semantically-equal
                # interpreter-level run (they agree input-for-input —
                # bench E04), so provenance is backend-independent.
                from ..obs.provenance import explain
                explanation = explain(flowchart, policy, inputs,
                                      timed=timed, fuel=fuel,
                                      value_cap=value_cap)
                _obs.emit("explanation", **explanation.event_fields())
            if time_observable:
                original_steps = _original_steps(flowchart, inputs,
                                                 policy, timed, fuel,
                                                 value_cap)
                return ViolationNotice(f"Λ@{original_steps}")
            if has_epochs:
                # Epoch-tagged notice, read from the _s_epoch register —
                # agrees with the interpreter-level mechanism's Λ@e.
                return ViolationNotice(f"Λ@e{result.env.get(EPOCH_VAR, 0)}")
            return ViolationNotice("Λ")
        if time_observable:
            original = run_flowchart(flowchart, inputs, fuel=fuel,
                                     value_cap=value_cap, backend=backend)
            return (result.value, original.steps)
        return result.value

    label = name or instrumented_name(flowchart, policy, timed)
    return ProtectionMechanism(mechanism_fn, protected, name=label)


def instrumented_name(flowchart: Flowchart, policy: AllowPolicy,
                      timed: bool = False) -> str:
    """The name :func:`instrumented_mechanism` gives its mechanism."""
    variant = "M'-inst" if timed else "M-inst"
    return f"{variant}({flowchart.name}, {policy.name})"


def _original_steps(flowchart: Flowchart, inputs, policy: AllowPolicy,
                    timed: bool, fuel: int, value_cap: Optional[int]) -> int:
    """Steps of Q completed before the violation (for notice stamping).

    Delegates to the interpreter-level surveillance run, which counts
    original boxes directly.
    """
    from .dynamic import surveil

    run = surveil(flowchart, inputs, policy.allowed, timed=timed, fuel=fuel,
                  record=False, value_cap=value_cap)
    return run.steps
