"""Step-counted execution of flowchart programs.

The paper's observability discussion (Sections 2-3) requires that
"running time" be a first-class, exactly reproducible quantity; we
define it as the **number of boxes executed after the start box**
(decision and assignment boxes count 1 each, the final halt box counts
1).  The start box's variable initialisation is free.  Any such
convention works, as the paper notes — what matters is that it is fixed
and deterministic.

Because the theory requires *total* functions, the interpreter takes a
``fuel`` bound and raises :class:`~repro.core.errors.FuelExhaustedError`
when exceeded.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import (ArityMismatchError, FuelExhaustedError,
                           MessageError, ValueCapExceededError)
from ..core.observability import (VALUE_AND_TIME, VALUE_ONLY, Observation,
                                  OutputModel)
from ..core.domains import ProductDomain
from ..core.program import Program
from ..obs import runtime as _obs
from ..robustness.faults import default_value_cap, resolve_value_cap
from .boxes import (AssignBox, DecisionBox, DowngradeBox, HaltBox, NodeId,
                    PolicyChangeBox, RecvBox, SendBox, StartBox)
from .program import Flowchart

DEFAULT_FUEL = 100_000


class ExecutionResult:
    """One complete run: value, step count, memory footprint, trace.

    ``touched`` is the set of variables the run read or wrote — the
    interpreter's "page" footprint.  The paper names page faults as
    exactly the kind of observable other models forget; ``faults``
    (= number of distinct variables touched) is the attribute the
    :func:`~repro.core.observability.with_extras` output models expose.
    """

    __slots__ = ("value", "steps", "trace", "env", "touched")

    def __init__(self, value: int, steps: int,
                 trace: Optional[Tuple[NodeId, ...]] = None,
                 env: Optional[Dict[str, int]] = None,
                 touched: Optional[frozenset] = None) -> None:
        self.value = value
        self.steps = steps
        self.trace = trace
        self.env = env
        self.touched = touched if touched is not None else frozenset()

    @property
    def faults(self) -> int:
        """Distinct variables touched — the page-fault count proxy."""
        return len(self.touched)

    def observation(self) -> Observation:
        return Observation(self.value, self.steps,
                           attributes={"faults": self.faults})

    def __repr__(self) -> str:
        return f"ExecutionResult(value={self.value}, steps={self.steps})"


def initial_environment(flowchart: Flowchart,
                        inputs: Sequence[int]) -> Dict[str, int]:
    """The start-box initialisation: inputs bound, everything else 0."""
    if len(inputs) != flowchart.arity:
        raise ArityMismatchError(
            f"flowchart {flowchart.name} takes {flowchart.arity} inputs, "
            f"got {len(inputs)}"
        )
    env = flowchart.start_environment()
    for name, value in zip(flowchart.input_variables, inputs):
        env[name] = int(value)
    return env


def execute(flowchart: Flowchart, inputs: Sequence[int],
            fuel: int = DEFAULT_FUEL,
            record_trace: bool = False,
            capture_env: bool = False,
            value_cap: Optional[int] = None) -> ExecutionResult:
    """Run a flowchart to its halt box.

    Returns an :class:`ExecutionResult`; raises
    :class:`FuelExhaustedError` if the run exceeds ``fuel`` steps, and
    :class:`ValueCapExceededError` if any assignment produces a value
    wider than ``value_cap`` bits (default: the ``REPRO_VALUE_CAP``
    environment variable; unset means uncapped).

    ``capture_env`` is opt-in: only when True does the result carry a
    snapshot of the final environment (``result.env``).  The hot paths
    — ``as_program`` and the sweep runners — need only
    ``(value, steps, faults)``, and copying the full environment on
    every run is measurable across a 2^k x 3^k sweep.  ``touched`` (the
    fault-count observable) is always tracked.
    """
    cap = (default_value_cap() if value_cap is None
           else resolve_value_cap(value_cap))
    bound = (1 << cap) if cap is not None else None
    env = initial_environment(flowchart, inputs)
    trace: List[NodeId] = []
    touched: set = set()
    # Typed channels: unbounded FIFO queues, one per channel name,
    # starting empty.  A single-node run is the reference semantics the
    # distributed runtime must reproduce row-for-row.
    channels: Dict[str, List[int]] = {}
    steps = 0
    current: NodeId = flowchart.boxes[flowchart.start_id].successors()[0]
    # Sampling rate is latched per run; 0 (the default) keeps the loop
    # free of any observability work beyond one local truth test.
    sample = _obs.box_sample if _obs.trace_active else 0

    while True:
        if steps >= fuel:
            if _obs.active:
                _obs.record_fuel_exhausted(flowchart.name, fuel)
            raise FuelExhaustedError(fuel,
                                     f"flowchart {flowchart.name} exceeded "
                                     f"{fuel} steps on input {tuple(inputs)!r}")
        box = flowchart.boxes[current]
        if record_trace:
            trace.append(current)
        steps += 1
        if sample and steps % sample == 0:
            _obs.emit("box_step", program=flowchart.name,
                      node=str(current), steps=steps)
        if isinstance(box, HaltBox):
            touched.add(flowchart.output_variable)
            if _obs.active:
                _obs.record_run("interpreted", flowchart.name, steps)
            return ExecutionResult(
                env[flowchart.output_variable], steps,
                tuple(trace) if record_trace else None,
                dict(env) if capture_env else None,
                frozenset(touched),
            )
        if isinstance(box, AssignBox):
            touched.add(box.target)
            touched.update(box.expression.variables())
            value = box.expression.eval(env)
            env[box.target] = value
            if bound is not None and (value >= bound or value <= -bound):
                if _obs.active:
                    _obs.record_value_cap_exceeded(flowchart.name, cap)
                raise ValueCapExceededError(
                    cap, f"flowchart {flowchart.name} assigned a value "
                         f"wider than {cap} bits on input {tuple(inputs)!r}")
            current = box.next
        elif isinstance(box, DecisionBox):
            touched.update(box.predicate.variables())
            current = box.true_next if box.predicate.eval(env) else box.false_next
        elif isinstance(box, DowngradeBox):
            # Values are untouched; the label rewrite happens in the
            # surveillance layers.  The box still costs one step and
            # touches its variable (the relabel reads it).
            touched.add(box.variable)
            current = box.next
        elif isinstance(box, PolicyChangeBox):
            # Pure policy effect: no variable access, one step.
            current = box.next
        elif isinstance(box, SendBox):
            touched.add(box.variable)
            channels.setdefault(box.channel, []).append(env[box.variable])
            current = box.next
        elif isinstance(box, RecvBox):
            queue = channels.get(box.channel)
            if not queue:
                raise MessageError(
                    f"empty:{box.channel}",
                    f"flowchart {flowchart.name} received on empty channel "
                    f"{box.channel!r} on input {tuple(inputs)!r}")
            touched.add(box.variable)
            env[box.variable] = queue.pop(0)
            current = box.next
        elif isinstance(box, StartBox):  # pragma: no cover - validation forbids
            current = box.next
        else:  # pragma: no cover - closed box hierarchy
            raise TypeError(f"unknown box type {type(box).__name__}")


def as_program(flowchart: Flowchart, domain: ProductDomain,
               output_model: OutputModel = VALUE_ONLY,
               fuel: int = DEFAULT_FUEL,
               name: Optional[str] = None,
               backend: Optional[str] = None,
               value_cap: Optional[int] = None) -> Program:
    """Wrap a flowchart as a Section 2 :class:`Program`.

    The output depends on the declared :class:`OutputModel` — the
    Observability Postulate in action:

    - :data:`VALUE_ONLY`: range is Z, output is ``y``.
    - :data:`VALUE_AND_TIME`: range is Z x Z, output is ``(y, steps)``.
    - models with extra observables project the full
      :class:`Observation` accordingly.

    ``backend`` selects the execution engine: ``"compiled"`` (source
    generation + ``compile()``, see :mod:`repro.flowchart.fastpath`) or
    ``"interpreted"`` (the tree-walking interpreter above).  ``None``
    defers to the ``REPRO_BACKEND`` environment variable and the
    library default; both engines produce identical observations.
    """
    if domain.arity != flowchart.arity:
        raise ArityMismatchError(
            f"domain arity {domain.arity} != flowchart arity {flowchart.arity}"
        )

    from .fastpath import run_flowchart

    def run(*inputs):
        result = run_flowchart(flowchart, inputs, fuel=fuel, backend=backend,
                               value_cap=value_cap)
        return output_model.project(result.observation())

    label = name or flowchart.name
    if output_model is VALUE_AND_TIME:
        label = f"{label}+time"
    elif output_model is not VALUE_ONLY:
        label = f"{label}+{output_model.name}"
    return Program(run, domain, name=label)


def running_time(flowchart: Flowchart, inputs: Sequence[int],
                 fuel: int = DEFAULT_FUEL) -> int:
    """Just the step count (the paper's implicit output)."""
    return execute(flowchart, inputs, fuel=fuel).steps
