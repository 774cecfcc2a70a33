"""Batch flowchart execution: one call runs a whole grid of points.

A ∀-sweep asks one flowchart about every point of a grid, and
``repro serve`` coalesces concurrent ``/execute`` requests into such a
grid.  :func:`execute_batch` runs each point (a *lane*) through the
compiled tier's function (:mod:`repro.flowchart.fastpath`) in one loop
and returns a :class:`BatchResult` whose rows are bit-identical to the
interpreter's: the same value, steps and touched set on success, the
same fault *kind* on fuel or cap exhaustion (fault notices carry only
the global budget, so the kind is the whole outcome).  Lanes hold
Python ints, so no value is too wide for them.  A channel program's
lanes run on the interpreter, the reference semantics for send/recv.

``batch`` names this whole-grid mode, not an engine of its own, and
nothing here caches a result: the lanes share the compiled tier's
function cache, and that is all.  A sweep shares each batch across the
2^k policies of a flowchart by scheduling: one sweep task runs one
chunk of the flowchart's grid and decides every policy from that one
batch (:mod:`repro.verify.parallel`).  Sweeps on the ``compiled`` and
``batch`` backends alike decide their chunks this way; a single point
(``run --backend batch``) is one compiled-tier call, since a one-lane
batch only adds overhead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import (ArityMismatchError, FuelExhaustedError,
                           ValueCapExceededError)
from ..obs import runtime as _obs
from ..robustness.faults import default_value_cap, resolve_value_cap
from .fastpath import CompiledFlowchart, compile_flowchart
from .interpreter import DEFAULT_FUEL, execute
from .program import Flowchart

#: Per-lane outcome kinds on a finished batch.
K_OK, K_FUEL, K_CAP = 0, 1, 2

#: A faulted lane's (value, steps, touched, env) row.
_FAULTED = (0, 0, 0, None)


def compile_batch(flowchart: Flowchart) -> CompiledFlowchart:
    """The compiled-tier function every lane of ``flowchart`` calls."""
    return compile_flowchart(flowchart)


# ---------------------------------------------------------------------------
# Batch results
# ---------------------------------------------------------------------------

class BatchResult:
    """Per-lane outcomes of one batch execution.

    Lane ``i`` corresponds to ``points[i]``; ``kind(i)`` is one of
    ``K_OK`` / ``K_FUEL`` / ``K_CAP``, and the accessors reproduce the
    interpreter's observables for that lane.  A faulted lane's value
    and steps read 0 and its environment None.
    """

    __slots__ = ("compiled", "points", "arity", "fuel", "cap", "kinds",
                 "values", "lane_steps", "lane_touched", "lane_envs")

    def __init__(self, compiled: Optional[CompiledFlowchart], points,
                 arity: int, fuel: int, cap: Optional[int],
                 faults: Dict[int, int], rows: List[Tuple]) -> None:
        #: The lanes' compiled function; None for a channel program,
        #: whose lanes ran on the interpreter.
        self.compiled = compiled
        self.points = points
        self.arity = arity
        self.fuel = fuel
        self.cap = cap
        kinds = [K_OK] * len(points)
        for i, kind in faults.items():
            kinds[i] = kind
        self.kinds = kinds
        (self.values, self.lane_steps, self.lane_touched,
         self.lane_envs) = zip(*rows) if rows else ((), (), (), ())

    def __len__(self) -> int:
        return len(self.points)

    def kind(self, i: int) -> int:
        return self.kinds[i]

    def value(self, i: int) -> int:
        return self.values[i]

    def steps(self, i: int) -> int:
        return self.lane_steps[i]

    def touched(self, i: int) -> frozenset:
        touched = self.lane_touched[i]
        if self.compiled is None:
            return touched
        return self.compiled.touched_set(touched)

    def env(self, i: int) -> Optional[Dict[str, int]]:
        return self.lane_envs[i]


# ---------------------------------------------------------------------------
# Execution entry points
# ---------------------------------------------------------------------------

def execute_batch(flowchart: Flowchart,
                  points: Sequence[Sequence[int]],
                  fuel: int = DEFAULT_FUEL,
                  value_cap: Optional[int] = None,
                  need_env: bool = False) -> BatchResult:
    """Run a whole batch of grid points through one flowchart.

    Returns a :class:`BatchResult` whose rows are bit-identical to
    running the interpreter per point.  Undeclared faults (e.g. a
    LoopExpr exceeding its own fuel) raise exactly as the interpreter
    would.  Metrics see the batch as one run whose steps are its
    halted lanes' steps; a lane's fuel or cap fault is for the caller
    that decides on it to count.
    """
    arity = flowchart.arity
    cap = (default_value_cap() if value_cap is None
           else resolve_value_cap(value_cap))
    points = [point if type(point) is tuple else tuple(point)
              for point in points]
    for point in points:
        if len(point) != arity:
            raise ArityMismatchError(
                f"flowchart {flowchart.name} takes {arity} "
                f"inputs, got {len(point)}")
    compiled = None if flowchart.has_channels() else compile_batch(flowchart)
    faults, rows = _run_lanes(flowchart, compiled, points, fuel, cap,
                              need_env)
    result = BatchResult(compiled, points, arity, fuel, cap, faults, rows)
    if _obs.active and compiled is not None:
        _obs.record_run("batch", flowchart.name, sum(result.lane_steps))
    return result


def _run_lanes(flowchart: Flowchart, compiled: Optional[CompiledFlowchart],
               points: List[Tuple[int, ...]], fuel: int, cap: Optional[int],
               need_env: bool) -> Tuple[Dict[int, int], List[Tuple]]:
    """Run every lane: ``(faults, rows)``.

    ``faults`` maps each lane that ran out of fuel or broke the cap to
    its kind; ``rows`` holds every lane's ``(value, steps, touched,
    env)``, a faulted lane's zeroed.  Lanes call the compiled function
    directly, unobserved: the batch records itself as one run.  Without
    ``compiled`` (a channel program) each lane runs on the interpreter,
    which records its own runs.
    """
    faults: Dict[int, int] = {}
    rows: List[Tuple] = []
    append = rows.append
    if compiled is None:
        for point in points:
            try:
                run = execute(flowchart, point, fuel=fuel,
                              capture_env=need_env, value_cap=cap)
            except FuelExhaustedError:
                faults[len(rows)] = K_FUEL
                append(_FAULTED)
            except ValueCapExceededError:
                faults[len(rows)] = K_CAP
                append(_FAULTED)
            else:
                append((run.value, run.steps, run.touched, run.env))
        return faults, rows
    function = compiled.function
    capb = None if cap is None else 1 << cap
    for point in points:
        try:
            append(function(point, fuel, need_env, cap, capb))
        except FuelExhaustedError:
            faults[len(rows)] = K_FUEL
            append(_FAULTED)
        except ValueCapExceededError:
            faults[len(rows)] = K_CAP
            append(_FAULTED)
    return faults, rows
