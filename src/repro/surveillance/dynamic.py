"""The surveillance protection mechanism, interpreter-level (Section 3).

This is the semantic twin of the literal flowchart instrumentation in
:mod:`repro.surveillance.instrument` (their outputs agree input-for-input
— an ablation the test suite and bench E04 verify).  The interpreter
tracks, alongside each variable's value, its surveillance label, plus
the label of the program counter C:

- start box: ``x̄_i = {i}``, every other label ∅, ``C̄ = ∅``;
- assignment ``v := E(w1..wp)``: ``v̄ := w̄1 ∪ ... ∪ w̄p ∪ C̄``
  (labels *replace* — surveillance "allows forgetting"; the high-water
  variant accumulates instead);
- decision ``B(w1..wp)``: ``C̄ := C̄ ∪ w̄1 ∪ ... ∪ w̄p``;
- halt: output ``y`` if ``ȳ ∪ C̄ ⊆ J`` else the violation notice Λ.
  (C̄ participates in the halt check: *which* halt is reached — and
  hence whether a notice appears at all — is itself information, and a
  sound mechanism's notice decisions may depend only on allowed data,
  Example 4.)

The *timed* variant (Theorem 3′) additionally halts with Λ the moment a
test involving a disallowed label is about to be taken — before
evaluating it — so the mechanism's running time never depends on
disallowed data.

Violation notices and observable time: when the protecting mechanism is
built for a time-observable program, a notice issued after t steps is
the notice ``Λ@t`` — notices issued at different times are different
outputs, exactly as the Observability Postulate demands.  This is what
makes the untimed mechanism demonstrably unsound under observable time
(Theorem 3's proviso) and the timed one sound (Theorem 3′).

Sweeps of the timed and high-water families walk each grid point once
with no policy (:func:`policy_free_runs`) and decide every allow-policy
from the run's final labels.  The sweep task that holds a chunk of a
flowchart's grid asks for its runs once, so no walk is cached.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.domains import ProductDomain
from ..core.errors import (ArityMismatchError, FuelExhaustedError,
                           MessageError, ValueCapExceededError)
from ..core.mechanism import ProtectionMechanism, ViolationNotice
from ..core.observability import VALUE_AND_TIME, VALUE_ONLY, OutputModel
from ..core.policy import AllowPolicy
from ..core.program import Program
from ..flowchart.boxes import (AssignBox, DecisionBox, DowngradeBox, HaltBox,
                               PolicyChangeBox, RecvBox, SendBox)
from ..flowchart.interpreter import DEFAULT_FUEL, as_program, initial_environment
from ..flowchart.program import Flowchart
from ..obs import runtime as _obs
from ..robustness.faults import (cap_notice, default_value_cap, fuel_notice,
                                 message_notice, resolve_value_cap)
from .labels import Label, from_mask, to_mask


class SurveillanceRun:
    """One surveilled execution: outcome, timing, and final labels.

    ``epoch`` counts the policy changes executed before termination
    (0 for classic fixed-policy programs); ``final_allowed`` is the
    policy in force when the run ended — the one the halt check used.
    """

    __slots__ = ("outcome", "steps", "labels", "pc_label", "halted_early",
                 "epoch", "final_allowed")

    def __init__(self, outcome: Union[int, ViolationNotice], steps: int,
                 labels: Dict[str, Label], pc_label: Label,
                 halted_early: bool, epoch: int = 0,
                 final_allowed: Optional[Label] = None) -> None:
        self.outcome = outcome
        self.steps = steps
        self.labels = labels
        self.pc_label = pc_label
        self.halted_early = halted_early
        self.epoch = epoch
        self.final_allowed = final_allowed

    @property
    def violated(self) -> bool:
        return isinstance(self.outcome, ViolationNotice)

    def __repr__(self) -> str:
        return (f"SurveillanceRun(outcome={self.outcome!r}, "
                f"steps={self.steps}, early={self.halted_early})")


Observer = Callable[[str, Dict[str, Label], Label], None]

#: Epoch-aware observer: ``(node_id, labels, pc_label, allowed, epoch)``
#: — also told which policy is in force on arrival.
PolicyObserver = Callable[[str, Dict[str, Label], Label, Label, int], None]


def _walk(flowchart: Flowchart, inputs: Sequence[int], allowed: Optional[int],
          timed: bool, forgetting: bool, fuel: int,
          value_cap: Optional[int], record: bool,
          first_test: Optional[List[Tuple[int, int]]] = None,
          watch: Optional[Callable] = None):
    """The box rules over bitmask labels (bit i-1 ⇔ input index i).

    The labels x̄ and C̄ never depend on the policy: J is read only by
    the rule-4 halt check and the timed rule-3′ guard, and only until a
    ``policy_change`` installs a policy of the program's own.  So
    ``allowed`` is J's mask for a run under one policy, or None for the
    *policy-free* walk that serves every J at once: until the first
    policy change it takes no guard, appends ``(step, indices)`` to
    ``first_test`` when input indices first enter a test label, and
    leaves the halt check to the caller.

    Returns ``(steps, value, labels, pc, active, epoch, early)``:
    ``active`` is the policy mask in force at the end (None while a
    policy-free walk is still in epoch 0), ``early`` is True when a
    timed guard stopped the run (``value`` is then None).  Declared
    faults raise.  ``watch(node, labels, pc, active, epoch)`` sees each
    box on arrival, before it acts.
    """
    if len(inputs) != flowchart.arity:
        raise ArityMismatchError(
            f"flowchart {flowchart.name} takes {flowchart.arity} inputs, "
            f"got {len(inputs)}"
        )
    cap = (default_value_cap() if value_cap is None
           else resolve_value_cap(value_cap))
    bound = (1 << cap) if cap is not None else None
    env = initial_environment(flowchart, inputs)
    labels: Dict[str, int] = dict.fromkeys(env, 0)
    for position, name in enumerate(flowchart.input_variables):
        labels[name] = 1 << position
    boxes = flowchart.boxes
    reads = flowchart.box_reads()
    pc = 0
    active = allowed
    epoch = 0
    tested = 0  # indices already in an epoch-0 test label
    # Typed channels under surveillance: each message carries its label
    # (v̄ ∪ C̄ at the send site) inside the envelope — the distributed-
    # setting soundness requirement (Almeida Matos & Cederquist).
    channels: Dict[str, List[Tuple[int, int]]] = {}
    steps = 0
    current = boxes[flowchart.start_id].successors()[0]
    while True:
        if steps >= fuel:
            if _obs.active and record:
                _obs.record_fuel_exhausted(flowchart.name, fuel)
            raise FuelExhaustedError(fuel,
                                     f"surveilled {flowchart.name} exceeded "
                                     f"{fuel} steps on {tuple(inputs)!r}")
        box = boxes[current]
        if watch is not None:
            watch(current, labels, pc, active, epoch)
        steps += 1
        if isinstance(box, AssignBox):
            # v̄ := w̄1 ∪ ... ∪ w̄p ∪ C̄ — replacing (surveillance allows
            # forgetting) or accumulating (high-water mark).
            incoming = pc
            for name in reads[current]:
                incoming |= labels[name]
            target = box.target
            labels[target] = (incoming if forgetting
                              else labels[target] | incoming)
            value = box.expression.eval(env)
            env[target] = value
            if bound is not None and (value >= bound or value <= -bound):
                if _obs.active and record:
                    _obs.record_value_cap_exceeded(flowchart.name, cap)
                raise ValueCapExceededError(
                    cap, f"surveilled {flowchart.name} assigned a value "
                         f"wider than {cap} bits on {tuple(inputs)!r}")
            current = box.next
        elif isinstance(box, DecisionBox):
            test = 0
            for name in reads[current]:
                test |= labels[name]
            if timed:
                if active is None:
                    fresh = test & ~tested
                    if fresh:
                        tested |= fresh
                        first_test.append((steps, fresh))
                elif test & ~active:
                    # Theorem 3′: a disallowed variable is about to be
                    # tested — halt immediately with a violation notice.
                    return steps, None, labels, pc, active, epoch, True
            pc |= test
            current = box.true_next if box.predicate.eval(env) else box.false_next
        elif isinstance(box, HaltBox):
            return (steps, env[flowchart.output_variable], labels, pc,
                    active, epoch, False)
        elif isinstance(box, PolicyChangeBox):
            active = to_mask(box.allowed)
            epoch += 1
            if _obs.active and record:
                _obs.emit("policy_changed", program=flowchart.name,
                          epoch=epoch, allowed=sorted(box.allowed))
            current = box.next
        elif isinstance(box, DowngradeBox):
            labels[box.variable] &= ~to_mask(box.indices)
            if _obs.active and record:
                _obs.emit("downgrade_applied", program=flowchart.name,
                          variable=box.variable,
                          dropped=sorted(box.indices))
            current = box.next
        elif isinstance(box, SendBox):
            # The envelope label is v̄ ∪ C̄: a receive learns both the
            # sent value and the control context that reached the send.
            channels.setdefault(box.channel, []).append(
                (env[box.variable], labels[box.variable] | pc))
            current = box.next
        elif isinstance(box, RecvBox):
            queue = channels.get(box.channel)
            if not queue:
                raise MessageError(
                    f"empty:{box.channel}",
                    f"surveilled {flowchart.name} received on empty channel "
                    f"{box.channel!r} on {tuple(inputs)!r}")
            value, message_label = queue.pop(0)
            env[box.variable] = value
            incoming = message_label | pc
            labels[box.variable] = (incoming if forgetting
                                    else labels[box.variable] | incoming)
            current = box.next
        else:  # pragma: no cover - StartBox is never re-entered
            current = box.successors()[0]


def _notice(epoch: int, has_epochs: bool) -> ViolationNotice:
    """Λ, epoch-tagged (``Λ@e<n>``) only where the program has epochs:
    classic programs keep the paper's plain Λ bit-for-bit."""
    return ViolationNotice(f"Λ@e{epoch}" if has_epochs else "Λ")


def surveil(flowchart: Flowchart, inputs: Sequence[int], allowed: Label,
            timed: bool = False, forgetting: bool = True,
            fuel: int = DEFAULT_FUEL,
            observer: Optional[Observer] = None,
            record: bool = True,
            value_cap: Optional[int] = None,
            policy_observer: Optional[PolicyObserver] = None) -> SurveillanceRun:
    """Run ``flowchart`` under surveillance for ``allow(allowed)``.

    Parameters
    ----------
    allowed:
        The policy's J — the set of 1-based input indices the user may
        learn.
    timed:
        Theorem 3′ behaviour: halt with a violation *before* evaluating
        any test whose variables carry a disallowed label.
    forgetting:
        True gives the paper's surveillance (assignment replaces the
        label); False gives the high-water-mark mechanism (labels only
        accumulate) for the page-48 comparison.
    observer:
        Optional callback invoked as ``observer(node_id, labels,
        pc_label)`` when control *arrives* at each box, before the box
        acts — the dynamic counterpart of a static analysis's entry
        state.  ``labels`` maps every variable to its label set.
        Used by the flowlint test suite to check the static influence
        fixpoint dominates every dynamic label at every visited PC.
    record:
        False suppresses the observability hooks for this run.  The
        provenance replay (:mod:`repro.obs.provenance`) re-executes a
        point that the mechanism already recorded; counting the replay
        again would double every surveillance metric.
    policy_observer:
        Like ``observer`` but epoch-aware: called as
        ``policy_observer(node_id, labels, pc_label, allowed, epoch)``
        with the policy in force on arrival.  The per-epoch static
        containment property tests use this.

    Dynamic policies (van Delft/Hunt/Sands): a ``policy_change`` box
    replaces the policy in force for every *later* check — flows are
    judged by the policy at completion time, not at write time.  A
    ``downgrade`` box strips its indices from one variable's label (the
    admitted intransitive edge).  Violation notices on flowcharts that
    contain policy changes are epoch-tagged (``Λ@e<n>``): a notice
    issued under a different policy regime is a different output.

    The walk itself is the policy-free one of :func:`policy_free_runs`
    with J fixed, so the guard stops at J's first failing test.
    """
    watch = None
    if observer is not None or policy_observer is not None:
        def watch(node, masks, pc, active, epoch):
            labels = {name: from_mask(mask) for name, mask in masks.items()}
            pc_label = from_mask(pc)
            if observer is not None:
                observer(node, labels, pc_label)
            if policy_observer is not None:
                policy_observer(node, labels, pc_label,
                                allowed if epoch == 0 else from_mask(active),
                                epoch)

    steps, value, labels, pc, active, epoch, early = _walk(
        flowchart, inputs, to_mask(allowed), timed, forgetting, fuel,
        value_cap, record, watch=watch)
    # Rule 4: the halt check is ȳ ∪ C̄ ⊆ J.  C̄ must participate:
    # reaching *this* halt (rather than issuing a notice on some other
    # path) is itself information, and Example 4 demands that "any
    # decision made by M to output a violation notice can depend only
    # on allowed data".  J is the policy *in force now* — the van Delft
    # et al. completion-time rule.
    violated = early or bool(
        (labels[flowchart.output_variable] | pc) & ~active)
    has_epochs = bool(flowchart.policy_change_ids())
    outcome: Union[int, ViolationNotice] = (
        _notice(epoch, has_epochs) if violated else value)
    if _obs.active and record:
        if violated and has_epochs:
            _obs.emit("epoch_violation", program=flowchart.name, epoch=epoch)
        _obs.record_surveil_run(flowchart.name, steps, violated=violated,
                                timed=timed, halted_early=early)
    return SurveillanceRun(
        outcome, steps,
        {name: from_mask(mask) for name, mask in labels.items()},
        from_mask(pc), halted_early=early, epoch=epoch,
        final_allowed=allowed if epoch == 0 else from_mask(active))


class PolicyFreeRun:
    """One point's policy-free labelled run: it decides every allow(J).

    ``fault`` is the run's declared-fault notice (``Λ!fuel[N]``,
    ``Λ!cap[C]``, ``Λ!msg[...]``) or None.  Otherwise the run stopped
    after ``steps`` steps at a halt with output ``value``, or — after a
    policy change — at a failing timed guard (``early``).  ``mask`` is
    the halt's ȳ ∪ C̄; ``active`` is the policy in force at the end
    (None: still epoch 0, so the halt check is J's own);
    ``first_test`` lists, in step order, the steps at which input
    indices first entered an epoch-0 test label (timed runs only).
    """

    __slots__ = ("fault", "value", "steps", "mask", "active", "epoch",
                 "early", "first_test", "has_epochs")

    def output(self, allowed: int, time_observable: bool):
        """The mechanism's output under allow(J), J given as a mask.

        Exactly what :func:`surveillance_mechanism` returns for J (a
        time-observable mechanism stamps notices ``Λ@t`` and passes
        ``(value, steps)``), with declared faults as their notices.
        """
        for step, indices in self.first_test:
            if indices & ~allowed:
                # J's first failing timed guard, ahead of anything later.
                if time_observable:
                    return ViolationNotice(f"Λ@{step}")
                return _notice(0, self.has_epochs)
        if self.fault is not None:
            return self.fault
        if self.early:
            violated = True
        else:
            in_force = allowed if self.active is None else self.active
            violated = self.mask & ~in_force
        if violated:
            if time_observable:
                return ViolationNotice(f"Λ@{self.steps}")
            return _notice(self.epoch, self.has_epochs)
        if time_observable:
            return (self.value, self.steps)
        return self.value


def _policy_free_run(flowchart: Flowchart, point: Tuple[int, ...],
                     timed: bool, forgetting: bool, fuel: int,
                     value_cap: Optional[int]) -> PolicyFreeRun:
    run = PolicyFreeRun()
    first_test: List[Tuple[int, int]] = []
    run.fault = run.value = run.active = None
    run.steps = run.mask = run.epoch = 0
    run.early = False
    run.first_test = first_test
    run.has_epochs = bool(flowchart.policy_change_ids())
    try:
        (run.steps, run.value, labels, pc, run.active, run.epoch,
         run.early) = _walk(flowchart, point, None, timed, forgetting, fuel,
                            value_cap, False, first_test=first_test)
    except FuelExhaustedError as error:
        run.fault = fuel_notice(error.fuel)
    except ValueCapExceededError as error:
        run.fault = cap_notice(error.cap)
    except MessageError as error:
        run.fault = message_notice(error.detail)
    else:
        run.mask = labels[flowchart.output_variable] | pc
    return run


def policy_free_runs(flowchart: Flowchart, points: Sequence[Tuple[int, ...]],
                     timed: bool = False, forgetting: bool = True,
                     fuel: int = DEFAULT_FUEL,
                     value_cap: Optional[int] = None) -> List[PolicyFreeRun]:
    """One policy-free labelled run per point, shared by every policy.

    A timed or high-water sweep on any backend but ``interpreted``
    decides all 2^k allow-policies of a flowchart from these runs by
    bitmask tests (:meth:`PolicyFreeRun.output`) instead of re-walking
    each point once per policy: one sweep task asks for a chunk's runs
    once and decides every policy from them.  ``points`` must be
    tuples.
    """
    cap = (default_value_cap() if value_cap is None
           else resolve_value_cap(value_cap))
    return [_policy_free_run(flowchart, point, timed, forgetting, fuel, cap)
            for point in points]


def _allowed_of(policy: AllowPolicy) -> Label:
    if not isinstance(policy, AllowPolicy):
        raise TypeError(
            "the surveillance mechanism is defined for allow(...) policies; "
            f"got {type(policy).__name__}"
        )
    return policy.allowed


def surveillance_name(flowchart: Flowchart, policy: AllowPolicy,
                      timed: bool = False, forgetting: bool = True) -> str:
    """The name :func:`surveillance_mechanism` gives its mechanism."""
    variant = "M'" if timed else ("M-hw" if not forgetting else "M-s")
    return f"{variant}({flowchart.name}, {policy.name})"


def surveillance_mechanism(flowchart: Flowchart, policy: AllowPolicy,
                           domain: ProductDomain,
                           output_model: OutputModel = VALUE_ONLY,
                           timed: bool = False, forgetting: bool = True,
                           fuel: int = DEFAULT_FUEL,
                           program: Optional[Program] = None,
                           name: Optional[str] = None,
                           value_cap: Optional[int] = None,
                           backend: Optional[str] = None) -> ProtectionMechanism:
    """Build the surveillance protection mechanism for (Q, allow(J)).

    ``output_model`` declares what the user observes of the *protected
    program* Q: with :data:`VALUE_AND_TIME`, Q's output is
    ``(value, steps)`` and the mechanism's violation notices are
    time-stamped (``Λ@t``), so time leaks through either channel are
    visible to the soundness checker.

    ``program`` may supply an existing Program wrapper for Q (so several
    mechanisms protect the *same* Program object); otherwise one is
    created from the flowchart.  ``backend`` selects Q's execution tier
    explicitly (the surveillance walk itself is interpreter-level);
    ``None`` defers to the process-wide default.
    """
    allowed = _allowed_of(policy)
    if policy.arity != flowchart.arity:
        raise ArityMismatchError(
            f"policy arity {policy.arity} != flowchart arity {flowchart.arity}"
        )
    protected = program if program is not None else as_program(
        flowchart, domain, output_model, fuel=fuel, value_cap=value_cap,
        backend=backend)

    time_observable = output_model.time_observable

    def mechanism_fn(*inputs):
        run = surveil(flowchart, inputs, allowed, timed=timed,
                      forgetting=forgetting, fuel=fuel, value_cap=value_cap)
        if run.violated:
            if _obs.explain_active:
                # Provenance mode: replay the point with an observer and
                # emit the input-index influence chain behind this Λ.
                from ..obs.provenance import explain
                explanation = explain(flowchart, policy, inputs,
                                      timed=timed, forgetting=forgetting,
                                      fuel=fuel, value_cap=value_cap)
                _obs.emit("explanation", **explanation.event_fields())
            if time_observable:
                # Notices issued at different times are different
                # outputs (Observability Postulate).
                return ViolationNotice(f"Λ@{run.steps}")
            return run.outcome
        if time_observable:
            return (run.outcome, run.steps)
        return run.outcome

    label = name or surveillance_name(flowchart, policy, timed, forgetting)
    return ProtectionMechanism(mechanism_fn, protected, name=label)


def timed_surveillance_mechanism(flowchart: Flowchart, policy: AllowPolicy,
                                 domain: ProductDomain,
                                 output_model: OutputModel = VALUE_AND_TIME,
                                 fuel: int = DEFAULT_FUEL,
                                 program: Optional[Program] = None,
                                 name: Optional[str] = None,
                                 value_cap: Optional[int] = None,
                                 backend: Optional[str] = None) -> ProtectionMechanism:
    """Theorem 3′'s M′ — sound even when running times are observable."""
    return surveillance_mechanism(flowchart, policy, domain,
                                  output_model=output_model, timed=True,
                                  fuel=fuel, program=program, name=name,
                                  value_cap=value_cap, backend=backend)
