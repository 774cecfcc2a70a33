"""Parallel ∀-sweeps: the policy × grid product across a worker pool.

``soundness_sweep`` enumerates ``2^k`` allow-policies × ``3^k`` grid
points per flowchart — an embarrassingly parallel product.  This module
chunks that product across a :mod:`concurrent.futures` pool and merges
the per-chunk summaries back into the same
:class:`~repro.verify.enumerate.SweepResult` rows the serial sweep
produces.

Work unit and merge
-------------------
A task is one ``(flowchart, policy, chunk-of-grid-points)`` triple.
Each worker evaluates the mechanism **once per point** and returns a
:class:`ChunkSummary`: the acceptance count plus, per policy-class, the
first output seen and whether the chunk itself witnessed a conflict.
Merging chunks (in domain order) compares class representatives across
chunk boundaries, so the merged soundness verdict is exactly the serial
factorization verdict — the per-point outputs are shared between the
soundness check and the accepts count, never recomputed.  Under
``backend="batch"`` a registered family's task instead decides its
chunk from runs made once per point with no policy, which every policy
of the pair shares (:func:`_evaluate_chunk_batch`).

Fuel
----
The sweep's ``fuel`` budget reaches every mechanism factory (the
registered :data:`FACTORIES` take ``(flowchart, policy, domain,
fuel)``), and a run that exhausts it is recorded as the distinguished
:func:`~repro.verify.enumerate.fuel_notice` outcome instead of
unwinding the pool — so serial and parallel sweeps agree row-for-row
at *any* budget, and a sweep is a total function of its arguments.

Fault tolerance
---------------
Pooled chunks are supervised: a chunk that raises (or exceeds
``chunk_timeout`` seconds) is retried up to ``max_chunk_retries``
times (a ``worker_retry`` trace event per attempt); a chunk that keeps
failing is recovered by evaluating it inline in the parent.  If the
pool itself dies — a crashed worker process, a pool that cannot spawn
— the sweep degrades ``process → thread → serial``, emitting a
``pool_degraded`` event rather than a traceback, and re-schedules only
the chunks that had not yet completed.

A chunk that *keeps* crashing deterministically (a poison point — an
OOM-style fault that follows the work wherever it runs) is not retried
forever: inline recovery runs under :func:`quarantine_chunk`, which
bisects the chunk to the crashing point(s) and totalizes each one into
a distinguished ``Λ!crash[Type]`` notice (``point_quarantined`` trace
events carry the provenance), so the sweep completes and serial,
thread, and process executors still agree row-for-row.  Injected
faults for testing this machinery come from :mod:`repro.verify.chaos`.

Checkpoint / resume
-------------------
``checkpoint=`` journals every completed chunk summary to a crash-safe
JSONL file (see :mod:`repro.verify.checkpoint`); ``resume=True``
restores the journalled chunks and re-schedules only the remainder,
producing bit-identical merged rows.  ``stop=`` / ``deadline=`` let a
signal handler or watchdog interrupt the sweep cleanly: in-flight
chunks drain, the journal flushes, and the sweep raises
:class:`~repro.core.errors.SweepInterruptedError`.

Observability
-------------
When :mod:`repro.obs` is enabled the sweep emits ``sweep_start``,
``chunk_done``, ``worker_retry``, ``pool_degraded``, ``pair_done`` and
``sweep_end`` events and maintains the ``sweep.*`` counters and the
``sweep.pair_seconds`` histogram (see ``docs/OBSERVABILITY.md``).  The
optional ``progress`` callback fires as each (program, policy) pair
completes — the CLI's ``--progress`` flag rides it.

Executor selection
------------------
``executor="auto"`` picks:

- ``"serial"`` when the machine has one core or the product is small
  (pool overhead would dominate);
- ``"process"`` when the mechanism factory is a *registered* named
  factory (see :data:`FACTORIES`) so the task is picklable;
- ``"thread"`` otherwise (closures capture unpicklable state; threads
  share the mechanism object and its memo).

Any mode can be forced explicitly; ``"process"`` with an unpicklable
factory raises a clear error instead of a pickling traceback.
"""

from __future__ import annotations

import os
import pickle
import time
from operator import itemgetter
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, ThreadPoolExecutor,
                                wait)
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.domains import ProductDomain
from ..core.errors import (FuelExhaustedError, MessageError, ReproError,
                           SweepInterruptedError, ValueCapExceededError)
from ..core.mechanism import (ViolationNotice, is_violation,
                              program_mechanism_name)
from ..core.policy import AllowPolicy, allow
from ..flowchart.batchpath import K_CAP, K_FUEL, K_OK, execute_batch
from ..flowchart.fastpath import resolve_backend
from ..flowchart.interpreter import DEFAULT_FUEL
from ..flowchart.program import Flowchart
from ..obs import runtime as _obs
from ..obs.audit import (AuditLedger, budget_fingerprint, classify_notice,
                         decision_payload, merge_segments)
from ..robustness.faults import (cap_notice, crash_notice, fuel_notice,
                                 message_notice, resolve_value_cap)
from ..surveillance.dynamic import policy_free_runs, surveillance_name
from ..surveillance.instrument import (EPOCH_VAR, PC_LABEL, VIOLATION_FLAG,
                                       instrument, instrumented_name,
                                       surveillance_variable)
from ..surveillance.labels import to_mask
from . import chaos
from .checkpoint import (CheckpointWriter, config_fingerprint, encode_value,
                         load_checkpoint)
from .enumerate import (SweepResult, all_allow_policies, build_mechanism,
                        default_grid)

EXECUTORS = ("auto", "serial", "thread", "process")

#: Point-count threshold below which "auto" stays serial.
_AUTO_SERIAL_THRESHOLD = 4096

#: Fallback order when a pool dies under the sweep.
_MODE_LADDER = {
    "process": ("process", "thread", "serial"),
    "thread": ("thread", "serial"),
    "serial": ("serial",),
}

#: Test hook: ``(pair_index, chunk_index, attempt) -> bool`` deciding
#: whether a pooled chunk attempt should crash before evaluating — the
#: injected-worker-failure switch the retry tests flip.  Decided in the
#: parent at submit time (so it reaches process workers via the task
#: payload); inline recovery and plain serial execution never inject.
_FAIL_INJECTOR: Optional[Callable[[int, int, int], bool]] = None

#: Test hook: ``(pair_index, chunk_index, attempt) -> seconds`` of
#: artificial delay before a *thread-pool* chunk runs (for exercising
#: ``chunk_timeout``).  ``None`` or 0 means no delay.
_DELAY_INJECTOR: Optional[Callable[[int, int, int], float]] = None

#: Retry backoff ladder: first retry waits ~BASE, doubling per attempt,
#: bounded by CAP so a degraded pool is never hammered by an immediate
#: resubmit storm yet recovery latency stays sub-second.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 1.0


def retry_backoff(pair_index: int, chunk_index: int, attempt: int,
                  seed: int = 0) -> float:
    """Seconds a retried chunk waits before re-running (0 for attempt 0).

    Bounded exponential backoff with *deterministic* jitter: the jitter
    factor (0.5x–1x of the exponential base) is a pure function of
    ``(seed, pair, chunk, attempt)`` via the chaos hash, so a replayed
    sweep backs off identically.  The wait is a worker-side sleep and
    never touches chunk results — serial == thread == process rows hold
    with or without retries.
    """
    if attempt <= 0:
        return 0.0
    base = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2 ** (attempt - 1)))
    jitter = chaos.jitter(seed, "retry-backoff", pair_index, chunk_index,
                          attempt)
    return base * (0.5 + 0.5 * jitter)


class _InjectedWorkerFailure(RuntimeError):
    """Raised by the test-hook injection to simulate a crashed worker."""


class _PoolBroken(Exception):
    """Internal: the current pool can no longer make progress."""


class _StopRequested(Exception):
    """Internal: a stop/deadline fired; in-flight work has drained."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class ChunkSummary:
    """What one worker learned from its slice of the domain."""

    __slots__ = ("accepts", "classes", "conflict", "backend")

    def __init__(self, accepts: int, classes: Dict, conflict: bool,
                 backend: Optional[str] = None) -> None:
        self.accepts = accepts
        #: policy_value -> first mechanism output seen in this chunk
        self.classes = classes
        self.conflict = conflict
        #: execution backend that actually produced this summary
        #: ("batch", "compiled", ...; None when unrecorded).
        self.backend = backend


def evaluate_chunk(mechanism, policy, points: Iterable[Tuple],
                   span: Optional[str] = None,
                   plan: Optional[chaos.FaultPlan] = None) -> ChunkSummary:
    """Evaluate the mechanism once per point; summarise for the merge.

    Declared faults inside the mechanism — fuel exhaustion, a value-cap
    breach — are recorded as their distinguished notices
    (:func:`~repro.robustness.faults.fuel_notice` /
    :func:`~repro.robustness.faults.cap_notice`), never exceptions —
    the same totalisation the serial sweep applies.  *Undeclared*
    exceptions (a genuine crash, a chaos poison point) propagate: the
    caller decides between retry and :func:`quarantine_chunk`.

    ``span`` is the enclosing chunk's span id (when tracing): each
    point gets a child span, and the mechanism's own leaf events
    (``run_end``, ``violation``, ``explanation``) attach to it via the
    thread-local span stack.  ``plan`` overrides the installed chaos
    plan (process workers receive theirs via the task payload).
    """
    if plan is None:
        plan = chaos.current_plan()
    points = list(points)
    outputs = []
    for point in points:
        if plan is not None and plan.poisons(point):
            raise MemoryError(f"chaos poison point {tuple(point)!r}")
        point_span = _obs.span_begin("point", parent=span, push=True,
                                     point=list(point))
        try:
            try:
                output = mechanism(*point)
            except FuelExhaustedError as error:
                output = fuel_notice(error.fuel)
                if _obs.active:
                    _obs.record_fuel_exhausted(
                        getattr(mechanism, "name", "?"), error.fuel)
            except ValueCapExceededError as error:
                output = cap_notice(error.cap)
                if _obs.active:
                    _obs.record_value_cap_exceeded(
                        getattr(mechanism, "name", "?"), error.cap)
            except MessageError as error:
                output = message_notice(error.detail)
        finally:
            _obs.span_finish(point_span)
        outputs.append(output)
    return _summarize_outputs(policy, points, outputs)


#: Factory families the batch path evaluates whole-chunk.  Each runs a
#: grid point once with no policy and decides all 2^k allow-policies of
#: a pair from that run: ``program`` and ``surveillance`` execute on the
#: batch tier (surveillance as the allow-all instrumented flowchart),
#: the label-walk families below as interpreter-level walks.
_BATCH_FAMILIES = ("program", "surveillance", "timed", "highwater")

#: The label-walk families: ``(timed, forgetting, time_observable)`` of
#: the mechanism their :data:`FACTORIES` entry builds.
_WALK_FAMILIES = {"timed": (True, True, True),
                  "highwater": (False, False, False)}

_VIOL_KIND = 3  # merged outcome code for a surveillance violation

_CPU_COUNT: Optional[int] = None


def _cpu_count() -> Optional[int]:
    """``os.cpu_count()`` is a syscall on some platforms; ask once."""
    global _CPU_COUNT
    if _CPU_COUNT is None:
        _CPU_COUNT = os.cpu_count()
    return _CPU_COUNT


def _class_key(policy) -> Callable[[Tuple], Tuple]:
    """``point -> policy(*point)``; an allow-policy's projection is read
    straight off the point tuple instead of through the policy call."""
    if not isinstance(policy, AllowPolicy):
        return lambda point: policy(*point)
    columns = [index - 1 for index in policy.indices]
    if len(columns) > 1:
        return itemgetter(*columns)
    if columns:
        column = columns[0]
        return lambda point: (point[column],)
    return lambda point: ()


def _summarize_outputs(policy, points, outputs,
                       backend: Optional[str] = None) -> ChunkSummary:
    """ChunkSummary of per-point outputs, in domain order."""
    classes: Dict = {}
    accepts = 0
    conflict = False
    class_key = _class_key(policy)
    for point, output in zip(points, outputs):
        if not is_violation(output):
            accepts += 1
        policy_value = class_key(point)
        if policy_value not in classes:
            classes[policy_value] = output
        elif not conflict and classes[policy_value] != output:
            conflict = True
    return ChunkSummary(accepts, classes, conflict, backend=backend)


def _summarize_vector(np_mod, pts, policy: AllowPolicy, outkind, vals,
                      output: Callable) -> ChunkSummary:
    """Vectorized ChunkSummary for an AllowPolicy batch (numpy lanes).

    Lane ``i``'s output is ``output(outkind[i], vals[i])``, and lanes
    with equal codes and values have equal outputs.  Groups lanes by
    the policy projection with one ``np.unique`` instead of a Python
    dict insert per point.
    """
    accepts = int((outkind == K_OK).sum())
    columns = [index - 1 for index in policy.indices]
    if not columns:
        # allow(): a single policy class, represented by the first lane.
        conflict = bool(((outkind != outkind[0]) | (vals != vals[0])).any())
        return ChunkSummary(accepts, {(): output(int(outkind[0]),
                                                 int(vals[0]))},
                            conflict, backend="batch")
    projection = pts[:, columns]
    # Mixed-radix encode the projected columns into one int64 key per
    # lane: a 1-D np.unique is far cheaper than the axis=0 row path,
    # and the encoding preserves lexicographic class order.  Falls back
    # to row-unique if the radix product would overflow the key space.
    if projection.shape[1] == 1:
        keys = projection[:, 0]
    else:
        shifted = projection - projection.min(axis=0)
        spans = shifted.max(axis=0) + 1
        keys = shifted[:, 0]
        radix = int(spans[0])
        for j in range(1, shifted.shape[1]):
            span = int(spans[j])
            radix *= span
            if radix > (1 << 62):
                keys = None
                break
            keys = keys * span + shifted[:, j]
        if keys is None:
            unique_rows, first, inverse = np_mod.unique(
                projection, axis=0, return_index=True, return_inverse=True)
            inverse = inverse.reshape(-1)
            conflict = bool(((outkind != outkind[first][inverse])
                             | (vals != vals[first][inverse])).any())
            classes: Dict = {}
            for u in np_mod.argsort(first, kind="stable"):
                lane = int(first[u])
                key = tuple(int(part) for part in unique_rows[u])
                classes[key] = output(int(outkind[lane]), int(vals[lane]))
            return ChunkSummary(accepts, classes, conflict,
                                backend="batch")
    _, first, inverse = np_mod.unique(keys, return_index=True,
                                      return_inverse=True)
    # Conflict detection: singleton classes cannot conflict; a single
    # class conflicts iff any lane differs from lane 0; the general
    # case compares each lane to its class representative.
    if first.size == keys.size:
        conflict = False
    elif first.size == 1:
        lane = int(first[0])
        conflict = bool(((outkind != outkind[lane])
                         | (vals != vals[lane])).any())
    else:
        conflict = bool(((outkind != outkind[first][inverse])
                         | (vals != vals[first][inverse])).any())
    # One bulk .tolist() per array beats a Python int() per element:
    # class representatives come out in first-seen (domain) order by
    # sorting the first-occurrence lane indices.
    order = np_mod.sort(first)
    classes = {}
    for key_row, code, val in zip(projection[order].tolist(),
                                  outkind[order].tolist(),
                                  vals[order].tolist()):
        classes[tuple(key_row)] = output(code, val)
    return ChunkSummary(accepts, classes, conflict, backend="batch")


def _decide_surveillance(rows, np_mod, flowchart: Flowchart, allowed: int,
                         fuel: int, has_epochs: bool):
    """(outkind, vals) of allow(J) over an allow-all instrumented batch.

    Rule 4 for J is ``ȳ ∪ C̄ ⊆ J`` on every epoch-0 lane (a lane past a
    policy change keeps the verdict the installed policy gave it).  A
    J-violation the allow-all run did not take runs one box longer
    (``_viol := 1``), so on a lane that halted in exactly ``fuel``
    steps it runs out of fuel instead.

    The policy-independent columns — ``mask`` (ȳ ∪ C̄ where J decides,
    else 0), ``starves`` (halted in exactly ``fuel`` steps),
    ``settled_viol`` (``_viol`` set by an installed policy), ``epoch``
    and the ok lanes' ``vals`` — are parked on the BatchResult, which
    the rows memo hands to every policy of the pair.
    """
    if rows.summary_cache is None:
        ok = rows.kinds == K_OK
        mask = (rows.env_column(surveillance_variable(
            flowchart.output_variable)) | rows.env_column(PC_LABEL))
        epoch, settled_viol = 0, None
        if has_epochs:
            epoch = rows.env_column(EPOCH_VAR)
            settled_viol = ok & (epoch > 0) & (
                rows.env_column(VIOLATION_FLAG) == 1)
            ok &= epoch == 0
        rows.summary_cache = (np_mod.where(ok, mask, 0),
                              rows.lane_steps == fuel, settled_viol, epoch,
                              np_mod.where(rows.kinds == K_OK,
                                           rows.values, 0))
    mask, starves, settled_viol, epoch, vals = rows.summary_cache
    over = (mask & ~allowed) != 0
    starved = over & starves
    violated = over & ~starves
    if settled_viol is not None:
        violated |= settled_viol
    outkind = np_mod.where(violated, _VIOL_KIND,
                           np_mod.where(starved, K_FUEL, rows.kinds))
    vals = np_mod.where(violated, epoch, np_mod.where(starved, 0, vals))
    return outkind, vals


def _batch_lane(rows, i: int, flowchart: Flowchart, allowed: Optional[int],
                fuel: int, has_epochs: bool) -> Tuple[int, int]:
    """Lane ``i``'s (code, val): for a surveillance batch (``allowed`` is
    J's mask) the scalar twin of :func:`_decide_surveillance`."""
    kind = rows.kind(i)
    if kind != K_OK:
        return kind, 0
    if allowed is None:
        return K_OK, rows.value(i)
    epoch = rows.env_value(i, EPOCH_VAR) if has_epochs else 0
    if epoch:
        if rows.env_value(i, VIOLATION_FLAG) == 1:
            return _VIOL_KIND, epoch
    elif (rows.env_value(i, surveillance_variable(flowchart.output_variable))
          | rows.env_value(i, PC_LABEL)) & ~allowed:
        if rows.steps(i) == fuel:
            return K_FUEL, 0
        return _VIOL_KIND, 0
    return K_OK, rows.value(i)


def _evaluate_chunk_batch(flowchart: Flowchart, family: str, policy,
                          points: List[Tuple], fuel: int,
                          value_cap: Optional[int], mechanism_name: str,
                          span: Optional[str] = None,
                          plan: Optional[chaos.FaultPlan] = None,
                          lane_engine: Optional[str] = None
                          ) -> ChunkSummary:
    """Evaluate a whole chunk from shared runs; summarise for the merge.

    The summary is row-identical to :func:`evaluate_chunk` over the
    same points with the family's per-policy mechanism: same accepts,
    same first-seen class representatives in domain order, same
    conflict flag, same ``Λ``/``Λ@e{n}``/``Λ@t``/``Λ!fuel[N]``/
    ``Λ!cap[C]`` notices.  Every point runs once with no policy — the
    labels x̄ and C̄ never depend on J — and the rows memo hands that
    run to every policy of the pair, which then costs only a bitmask
    decision:

    - ``program`` runs the flowchart on the batch tier;
    - ``surveillance`` runs ``instrument(flowchart, allow(1..k))`` on
      the batch tier and decides J from its final masks
      (:func:`_decide_surveillance`);
    - ``timed`` and ``highwater`` take the interpreter-level
      :func:`~repro.surveillance.dynamic.policy_free_runs`.

    A chaos poison point raises ``MemoryError`` *before* anything
    executes; the caller's quarantine machinery then bisects the chunk
    per-point exactly as it would a per-point chunk, so quarantined
    rows agree across backends.  ``span`` is accepted for signature
    symmetry: the batch path emits chunk-level events
    (``batch_compiled`` / ``batch_fallback``), not per-point spans.
    """
    del span  # no per-point spans on the batch path
    if plan is None:
        plan = chaos.current_plan()
    if plan is not None:
        for point in points:
            if plan.poisons(point):
                raise MemoryError(f"chaos poison point {tuple(point)!r}")
    if family in _WALK_FAMILIES:
        return _evaluate_walk_chunk(flowchart, family, policy, points, fuel,
                                    value_cap, mechanism_name)
    surveillance = family == "surveillance"
    target, allowed = flowchart, None
    if surveillance:
        arity = flowchart.arity
        target = instrument(flowchart, allow(*range(1, arity + 1),
                                             arity=arity))
        allowed = to_mask(policy.allowed)
    rows = execute_batch(target, points, fuel=fuel, value_cap=value_cap,
                         engine=lane_engine, need_env=surveillance)
    fuel_out = fuel_notice(fuel)
    cap_out = cap_notice(rows.cap) if rows.cap is not None else None
    has_epochs = surveillance and bool(flowchart.policy_change_ids())

    def output(code: int, val: int):
        if code == K_OK:
            return val
        if code == K_FUEL:
            return fuel_out
        if code == K_CAP:
            return cap_out
        return ViolationNotice(f"Λ@e{val}" if has_epochs else "Λ")

    view = rows.vector_view()
    pts = None
    if view is not None and isinstance(policy, AllowPolicy):
        np_mod = view[0]
        pts = rows.input_matrix
        if pts is None:
            try:
                pts = np_mod.asarray(points, dtype=np_mod.int64)
            except (OverflowError, ValueError):  # oversized inputs
                pts = None
    if pts is not None:
        if surveillance:
            outkind, vals = _decide_surveillance(rows, np_mod, flowchart,
                                                 allowed, fuel, has_epochs)
        else:
            # Policy-independent: computed once per BatchResult.
            if rows.summary_cache is None:
                rows.summary_cache = (rows.kinds, np_mod.where(
                    rows.kinds == K_OK, rows.values, 0))
            outkind, vals = rows.summary_cache
        if _obs.active:
            _record_lanes(outkind.tolist(), flowchart, mechanism_name, fuel,
                          rows.cap)
        return _summarize_vector(np_mod, pts, policy, outkind, vals, output)
    lanes = [_batch_lane(rows, i, flowchart, allowed, fuel, has_epochs)
             for i in range(len(points))]
    if _obs.active:
        _record_lanes([code for code, _ in lanes], flowchart,
                      mechanism_name, fuel, rows.cap)
    return _summarize_outputs(policy, points,
                              [output(code, val) for code, val in lanes],
                              "batch")


def _record_lanes(codes, flowchart: Flowchart, mechanism_name: str,
                  fuel: int, cap: Optional[int]) -> None:
    """The per-decision fault and violation metrics of a batch chunk."""
    for code in codes:
        if code == K_FUEL:
            _obs.record_fuel_exhausted(mechanism_name, fuel)
        elif code == K_CAP:
            _obs.record_value_cap_exceeded(mechanism_name, cap)
        elif code == _VIOL_KIND:
            _obs.record_violation(flowchart.name, "instrumented",
                                  timed=False)


def _evaluate_walk_chunk(flowchart: Flowchart, family: str, policy,
                         points: List[Tuple], fuel: int,
                         value_cap: Optional[int],
                         mechanism_name: str) -> ChunkSummary:
    """A label-walk family's chunk, decided from policy-free runs."""
    timed, forgetting, time_observable = _WALK_FAMILIES[family]
    runs = policy_free_runs(flowchart, points, timed=timed,
                            forgetting=forgetting, fuel=fuel,
                            value_cap=value_cap)
    allowed = to_mask(policy.allowed)
    outputs = [run.output(allowed, time_observable) for run in runs]
    if _obs.active:
        for output in outputs:
            kind = classify_notice(str(output)) if is_violation(
                output) else None
            if kind == "fuel":
                _obs.record_fuel_exhausted(mechanism_name, fuel)
            elif kind == "cap":
                _obs.record_value_cap_exceeded(mechanism_name, value_cap)
            elif kind is not None:
                _obs.record_violation(flowchart.name, "surveillance",
                                      timed=timed)
    # The walk is interpreter-level whatever the sweep's backend.
    return _summarize_outputs(policy, points, outputs, "interpreted")


def _merge_summaries(parts: Sequence[ChunkSummary]) -> ChunkSummary:
    """Fold sub-summaries (in domain order) into one ChunkSummary.

    Insertion order of the class dict is preserved across the fold, so
    a bisected chunk's summary is indistinguishable from one evaluated
    straight through.
    """
    classes: Dict = {}
    accepts = 0
    conflict = False
    for part in parts:
        accepts += part.accepts
        if part.conflict:
            conflict = True
        for policy_value, output in part.classes.items():
            if policy_value not in classes:
                classes[policy_value] = output
            elif not conflict and classes[policy_value] != output:
                conflict = True
    return ChunkSummary(accepts, classes, conflict)


def quarantine_chunk(mechanism, policy, points: List[Tuple],
                     pair_index: int = 0, chunk_index: int = 0,
                     span: Optional[str] = None,
                     plan: Optional[chaos.FaultPlan] = None,
                     evaluate: Optional[Callable[[], ChunkSummary]] = None
                     ) -> ChunkSummary:
    """Evaluate a chunk, bisecting deterministic crashes to their points.

    The total-function backstop: an undeclared exception (MemoryError,
    a segfaulting extension, a chaos poison point) is isolated by
    recursive bisection — halves that evaluate cleanly contribute their
    summaries unchanged; a single crashing point is *quarantined*,
    contributing the distinguished
    :func:`~repro.robustness.faults.crash_notice` for its policy class
    (and a ``point_quarantined`` trace event) instead of sinking the
    sweep.  Because the notice encodes only the exception type, the
    quarantined row is identical in serial, thread, and process mode.

    ``evaluate`` overrides the whole-chunk attempt (the batch tier
    rides it); the bisection itself always walks per-point via
    ``mechanism``, so quarantined rows agree across backends.
    """
    try:
        if evaluate is not None:
            return evaluate()
        return evaluate_chunk(mechanism, policy, points, span=span,
                              plan=plan)
    except Exception as error:
        if _obs.active:
            _obs.inc("sweep.chunks_quarantined")
            _obs.emit("chunk_quarantined", pair=pair_index,
                      chunk=chunk_index, points=len(points),
                      reason=type(error).__name__,
                      **({"span": span} if span else {}))
        return _bisect_crash(mechanism, policy, points, pair_index,
                             chunk_index, span, plan, error)


def _bisect_crash(mechanism, policy, points: List[Tuple], pair_index: int,
                  chunk_index: int, span: Optional[str],
                  plan: Optional[chaos.FaultPlan],
                  error: BaseException) -> ChunkSummary:
    """Isolate the crashing point(s) of a chunk known to raise ``error``."""
    if len(points) == 1:
        point = points[0]
        if _obs.active:
            _obs.inc("sweep.points_quarantined")
            _obs.emit("point_quarantined", pair=pair_index,
                      chunk=chunk_index, point=list(point),
                      reason=type(error).__name__,
                      **({"span": span} if span else {}))
        return ChunkSummary(0, {policy(*point): crash_notice(error)}, False)
    middle = len(points) // 2
    parts: List[ChunkSummary] = []
    for half in (points[:middle], points[middle:]):
        try:
            parts.append(evaluate_chunk(mechanism, policy, half, span=span,
                                        plan=plan))
        except Exception as half_error:
            parts.append(_bisect_crash(mechanism, policy, half, pair_index,
                                       chunk_index, span, plan, half_error))
    return _merge_summaries(parts)


def merge_chunks(summaries: Sequence[ChunkSummary]) -> Tuple[bool, int]:
    """Fold chunk summaries (in domain order) into (sound, accepts)."""
    classes: Dict = {}
    accepts = 0
    sound = True
    for summary in summaries:
        accepts += summary.accepts
        if summary.conflict:
            sound = False
        for policy_value, output in summary.classes.items():
            if policy_value not in classes:
                classes[policy_value] = output
            elif sound and classes[policy_value] != output:
                sound = False
    return sound, accepts


# ---------------------------------------------------------------------------
# Named factories (picklable work units for process pools)
# ---------------------------------------------------------------------------

def _factory_program(flowchart, policy, domain, fuel=DEFAULT_FUEL,
                     value_cap=None, backend=None):
    from ..core.mechanism import program_as_mechanism
    from ..flowchart.interpreter import as_program

    return program_as_mechanism(as_program(flowchart, domain, fuel=fuel,
                                           value_cap=value_cap,
                                           backend=backend))


def _factory_surveillance(flowchart, policy, domain, fuel=DEFAULT_FUEL,
                          value_cap=None, backend=None):
    # The literal Section 3 construction: instrument Q and execute the
    # instrumented flowchart (compiled backend, instrument+compile
    # caches).  Extensionally equal to the interpreter-level
    # ``surveillance_mechanism`` (bench E04 asserts this) but several
    # times faster in sweeps.
    from ..surveillance.instrument import instrumented_mechanism

    return instrumented_mechanism(flowchart, policy, domain, fuel=fuel,
                                  value_cap=value_cap, backend=backend)


def _factory_timed(flowchart, policy, domain, fuel=DEFAULT_FUEL,
                   value_cap=None, backend=None):
    from ..surveillance import timed_surveillance_mechanism

    return timed_surveillance_mechanism(flowchart, policy, domain, fuel=fuel,
                                        value_cap=value_cap, backend=backend)


def _factory_highwater(flowchart, policy, domain, fuel=DEFAULT_FUEL,
                       value_cap=None, backend=None):
    from ..surveillance import highwater_mechanism

    return highwater_mechanism(flowchart, policy, domain, fuel=fuel,
                               value_cap=value_cap, backend=backend)


#: Mechanism families addressable by name (CLI, process pools, benches).
#: Every registered factory takes ``(flowchart, policy, domain, fuel,
#: value_cap, backend)``.
FACTORIES: Dict[str, Callable] = {
    "program": _factory_program,
    "surveillance": _factory_surveillance,
    "timed": _factory_timed,
    "highwater": _factory_highwater,
}


#: The name each registered family's mechanism carries, from the rule
#: its constructor applies: a sweep labels its rows without building a
#: mechanism that only the per-point path would call.
FACTORY_NAMES: Dict[str, Callable] = {
    "program": lambda flowchart, policy: program_mechanism_name(
        flowchart.name),
    "surveillance": instrumented_name,
    "timed": lambda flowchart, policy: surveillance_name(
        flowchart, policy, timed=True),
    "highwater": lambda flowchart, policy: surveillance_name(
        flowchart, policy, forgetting=False),
}


class _LazyMechanism:
    """A pair's mechanism, built on its first per-point call.

    Stands in for the mechanism where a batch evaluator normally
    decides the chunk and only quarantine bisection calls per point.
    """

    __slots__ = ("_build", "_mechanism")

    def __init__(self, build: Callable[[], object]) -> None:
        self._build = build
        self._mechanism = None

    def _get(self):
        if self._mechanism is None:
            self._mechanism = self._build()
        return self._mechanism

    def __call__(self, *point):
        return self._get()(*point)

    @property
    def name(self) -> str:
        return self._get().name


def resolve_factory(factory) -> Callable:
    """A named family or a ``(flowchart, policy, domain[, fuel])`` callable."""
    if callable(factory):
        return factory
    try:
        return FACTORIES[factory]
    except (KeyError, TypeError):
        known = ", ".join(sorted(FACTORIES))
        raise ReproError(
            f"unknown mechanism factory {factory!r}; known: {known}"
        ) from None


def _chunk(points: List[Tuple], size: int) -> List[List[Tuple]]:
    return [points[start:start + size]
            for start in range(0, len(points), size)]


def _run_pair_task(payload: bytes) -> Tuple[int, int, ChunkSummary]:
    """Process-pool entry: evaluate one chunk.

    The batch evaluator needs no mechanism; the per-point path rebuilds
    it from the registered factory.

    ``span_id`` is the parent-side chunk span: fork-started workers
    inherit the parent's attached sinks, so their point spans (and leaf
    events) land in the same trace and must link to the chunk that
    scheduled them.  Spawn-started workers have tracing off and ignore
    it.  The worker also drops any span stack inherited mid-fork — its
    events must not attribute to the parent's open spans.

    The chaos ``plan`` rides the payload (never a module global — spawn
    workers would miss it): injected delays sleep here, injected
    crashes raise here, and poison points crash inside
    :func:`evaluate_chunk` exactly as they would in the parent.
    """
    (pair_index, chunk_index, flowchart, policy, domain, factory_name,
     points, fuel, value_cap, inject_failure, delay, plan, span_id,
     batch_family, backend, lane_engine) = pickle.loads(payload)
    _obs._stack().clear()
    if delay:
        time.sleep(delay)
    if inject_failure:
        raise _InjectedWorkerFailure(
            f"injected failure for chunk ({pair_index}, {chunk_index})")
    if batch_family is not None:
        return pair_index, chunk_index, _evaluate_chunk_batch(
            flowchart, batch_family, policy, points, fuel, value_cap,
            FACTORY_NAMES[batch_family](flowchart, policy), span=span_id,
            plan=plan, lane_engine=lane_engine)
    mechanism = FACTORIES[factory_name](flowchart, policy, domain, fuel,
                                        value_cap=value_cap, backend=backend)
    return pair_index, chunk_index, evaluate_chunk(mechanism, policy, points,
                                                   span=span_id, plan=plan)


def _pick_executor(executor: str, factory, workers: int,
                   total_points: int) -> str:
    if executor not in EXECUTORS:
        raise ReproError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}")
    if executor != "auto":
        return executor
    if workers <= 1 or total_points < _AUTO_SERIAL_THRESHOLD:
        return "serial"
    if isinstance(factory, str) or (
            callable(factory) and factory in FACTORIES.values()):
        return "process"
    return "thread"


def parallel_soundness_sweep(
        flowcharts: Sequence[Flowchart],
        mechanism_factory,
        grid: Optional[Callable[[int], ProductDomain]] = None,
        fuel: int = DEFAULT_FUEL,
        executor: str = "auto",
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        policies: Optional[Callable[[int], List[AllowPolicy]]] = None,
        chunk_timeout: Optional[float] = None,
        max_chunk_retries: int = 2,
        progress: Optional[Callable[[int, int, SweepResult], None]] = None,
        value_cap: Optional[int] = None,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        stop: Optional[Callable[[], Optional[str]]] = None,
        deadline: Optional[float] = None,
        backend: Optional[str] = None,
        lane_engine: Optional[str] = None,
        audit: Optional[str] = None,
) -> List[SweepResult]:
    """The Theorem 3/3′ sweep, chunked across a worker pool.

    Produces exactly the rows of
    :func:`~repro.verify.enumerate.soundness_sweep` (same order, same
    verdicts, same acceptance counts); only the schedule differs.

    Parameters
    ----------
    mechanism_factory:
        Either a ``(flowchart, policy, domain[, fuel])`` callable or
        the name of a registered family in :data:`FACTORIES` (required
        for ``executor="process"``, where tasks must pickle).
    fuel:
        Step budget threaded to every mechanism construction; runs
        exceeding it yield the distinguished fuel notice (see module
        docstring), identically to the serial sweep.
    executor:
        ``"auto"``, ``"serial"``, ``"thread"``, or ``"process"``.
    chunk_size:
        Points per task; default splits each pair's domain into about
        four chunks per worker (minimum 64 points) so the pool stays
        busy without drowning in scheduling overhead.  Must be
        positive when given.
    policies:
        Policy enumeration per arity (default: every allow-policy,
        ``2^k`` of them).
    chunk_timeout:
        Seconds a pooled chunk may take before it is abandoned and
        retried (None disables — a genuinely hung worker can then
        stall the sweep).
    max_chunk_retries:
        Pool attempts per chunk beyond the first; a chunk that fails
        them all is recovered inline in the parent process.
    progress:
        ``progress(completed_pairs, total_pairs, result)`` called as
        each (program, policy) pair's verdict is merged.
    value_cap:
        Bit-length budget threaded to every mechanism construction;
        runs breaching it yield the distinguished ``Λ!cap[C]`` notice,
        identically in every executor mode (None defers to
        ``REPRO_VALUE_CAP``; resolved once here so workers agree).
    checkpoint:
        Path of a JSONL journal receiving every completed chunk
        summary (see :mod:`repro.verify.checkpoint`).  Forces the
        chunked scheduler even in serial mode, so the chunk layout —
        and hence the journal's meaning — is deterministic.
    resume:
        Restore previously journalled chunks from ``checkpoint`` and
        sweep only the remainder; requires the file to exist and to
        have been written by an identically-configured sweep.
    stop:
        Zero-argument callable polled between chunks; a truthy return
        (its string is the reason) drains in-flight work, flushes the
        journal, and raises :class:`SweepInterruptedError`.
    deadline:
        Wall-clock budget in seconds for the whole sweep; exceeded ⇒
        the same clean interruption with reason ``"deadline"``.
    backend:
        Execution tier for chunk evaluation (default: the
        ``REPRO_BACKEND`` resolution, see
        :func:`repro.flowchart.fastpath.resolve_backend`).
        ``"batch"`` evaluates whole chunks of the registered families
        from one policy-free run per point, shared by every policy of
        a pair (:func:`_evaluate_chunk_batch`); callable factories,
        provenance-enabled runs, and quarantine bisections degrade to
        per-point evaluation.  Each
        :class:`~repro.verify.enumerate.SweepResult` reports which
        backends actually ran its chunks via ``result.backends``.
    lane_engine:
        Batch-tier lane engine (``auto``/``numpy``/``python``) for
        ``backend="batch"`` sweeps; ``None`` defers to the cached
        ``REPRO_BATCH_LANES`` default.  Threaded explicitly so a
        long-running service never reads the environment per request.
    audit:
        Path of a hash-chained audit ledger (see
        :mod:`repro.obs.audit`) receiving one record per policy class
        per chunk — the enforcement decisions the soundness verdict is
        built from, each with a provenance pointer ``repro explain``
        can replay.  Chunk segments are derived from the merged
        summaries *parent-side* and appended in ``(pair, chunk)``
        order with no wall clock, so the ledger bytes are identical in
        serial, thread, and process modes (the executor-invariance
        test diffs them).
    """
    if chunk_size is not None and chunk_size <= 0:
        raise ReproError(
            f"chunk_size must be a positive number of grid points; "
            f"got {chunk_size}")
    if max_workers is not None and max_workers <= 0:
        raise ReproError(
            f"max_workers must be a positive worker count; got {max_workers}")
    if chunk_timeout is not None and chunk_timeout <= 0:
        raise ReproError(
            f"chunk_timeout must be positive seconds; got {chunk_timeout}")
    if max_chunk_retries < 0:
        raise ReproError(
            f"max_chunk_retries must be >= 0; got {max_chunk_retries}")
    if deadline is not None and deadline <= 0:
        raise ReproError(
            f"deadline must be positive seconds; got {deadline}")
    if resume and checkpoint is None:
        raise ReproError("resume=True needs a checkpoint path")
    value_cap = resolve_value_cap(value_cap)
    # Legacy 3-arg callables are honoured at the *default* backend only
    # (the fuel contract): an explicitly requested backend must reach
    # the factory or fail loudly, but the mere existence of a process
    # default must not break them.
    backend_requested = backend is not None
    backend = resolve_backend(backend)

    grid = grid or default_grid
    policies = policies or all_allow_policies
    factory = resolve_factory(mechanism_factory)
    workers = max_workers or _cpu_count() or 1

    if isinstance(mechanism_factory, str):
        family: Optional[str] = mechanism_factory
    else:
        family = next((name for name, fn in FACTORIES.items()
                       if fn is factory), None)
    # Whole-chunk batch evaluation engages only for the factory
    # families whose outputs the batch path can reproduce; provenance
    # (explain) needs the per-point machinery, so it degrades too.
    batch_family: Optional[str] = None
    if (backend == "batch" and not _obs.explain_active
            and family in _BATCH_FAMILIES
            and (family in _WALK_FAMILIES or not any(
                flowchart.has_channels() for flowchart in flowcharts))):
        # Channel programs stay off the batch tier: literal
        # instrumentation cannot model labelled channel queues, and a
        # lane's channel fault is not one the tier totalizes.  The
        # label walks carry both.
        batch_family = family
    # The tier for chunks evaluated per-point: under backend="batch"
    # that work degrades to the compiled engine — the same target the
    # batch tier itself retires hazardous lanes to — rather than to
    # whatever the process-global environment happens to say, so two
    # callers of the same process cannot retarget each other's
    # degraded chunks.
    point_backend = "compiled" if backend == "batch" else backend
    mech_backend = point_backend if backend_requested else None
    # The tier a chunk's per-point evaluation really ran on: the
    # label-walk families' mechanisms walk interpreter-level whatever
    # the backend.
    point_tier = "interpreted" if family in _WALK_FAMILIES else point_backend

    # Materialise the (flowchart, policy) pair list once, in sweep order.
    pairs: List[Tuple[Flowchart, AllowPolicy, ProductDomain]] = []
    for flowchart in flowcharts:
        domain = grid(flowchart.arity)
        for policy in policies(flowchart.arity):
            pairs.append((flowchart, policy, domain))
    total_points = sum(len(domain) for _, _, domain in pairs)

    mode = _pick_executor(executor, mechanism_factory, workers, total_points)

    # Audit ledger: opened fresh so the file is a pure function of this
    # sweep's inputs, appended parent-side only (workers never touch
    # it).  No wall clock in the payloads — timestamps would make the
    # "bit-identical across executors" guarantee a lie.
    audit_ledger: Optional[AuditLedger] = None
    audit_budget: Optional[str] = None
    if audit is not None:
        audit_ledger = AuditLedger(audit, fresh=True)
        audit_budget = budget_fingerprint(fuel=fuel, value_cap=value_cap,
                                          backend=backend)

    def audit_chunk_payloads(pair_index: int, chunk_index: int,
                             summary: "ChunkSummary") -> List[Dict]:
        """One decision payload per policy class of a merged chunk.

        Class insertion order follows the chunk's point order, which is
        fixed by the grid — deterministic across executors because the
        summaries themselves are.  The class representative *is* the
        enforcement decision the soundness verdict inspects, so each
        record carries the provenance ``repro explain`` needs to replay
        it: program, policy, encoded class key, and chunk coordinates.
        """
        flowchart, policy, _ = pairs[pair_index]
        payloads = []
        for policy_value, output in summary.classes.items():
            violated = is_violation(output)
            payloads.append(decision_payload(
                "notice" if violated else "accept",
                notice=str(output) if violated else None,
                endpoint="sweep", budget=audit_budget,
                provenance={"program": flowchart.name,
                            "policy": policy.name,
                            "class": encode_value(policy_value),
                            "pair": pair_index,
                            "chunk": chunk_index}))
        return payloads

    sweep_started = time.perf_counter()
    # The sweep span roots the whole trace: every pair/chunk/point span
    # links (transitively) back to it, in whichever process it is
    # reconstructed.  Pushed, so parent-side leaf events attach to it.
    sweep_span = _obs.span_begin("sweep", push=True, executor=mode,
                                 pairs=len(pairs), points=total_points)
    if _obs.active:
        _obs.inc("sweep.count")
        _obs.emit("sweep_start", pairs=len(pairs), points=total_points,
                  executor=mode, workers=workers,
                  factory=str(mechanism_factory) if isinstance(
                      mechanism_factory, str)
                  else getattr(factory, "__name__", "callable"))

    results_by_pair: Dict[int, SweepResult] = {}
    completed_pairs = [0]
    # Pair spans are supervised across pool callbacks (not pushed):
    # opened lazily at the pair's first scheduled chunk, closed when its
    # verdict merges in finish_pair.
    pair_spans: Dict[int, _obs.Span] = {}

    def pair_span_for(pair_index: int) -> Optional[_obs.Span]:
        handle = pair_spans.get(pair_index)
        if handle is None and _obs.trace_active:
            flowchart, policy, _ = pairs[pair_index]
            handle = _obs.span_begin(
                "pair", parent=sweep_span.id if sweep_span else None,
                pair=pair_index, program=flowchart.name,
                policy=policy.name)
            if handle is not None:
                pair_spans[pair_index] = handle
        return handle

    mechanisms: Dict[int, object] = {}
    namer = FACTORY_NAMES.get(family) if family is not None else None

    def mechanism_for(pair_index: int):
        mechanism = mechanisms.get(pair_index)
        if mechanism is None:
            flowchart, policy, domain = pairs[pair_index]
            mechanism = build_mechanism(factory, flowchart, policy, domain,
                                        fuel, value_cap=value_cap,
                                        backend=mech_backend)
            mechanisms[pair_index] = mechanism
        return mechanism

    def point_mechanism(pair_index: int):
        """What a chunk's per-point evaluation calls.  When the batch
        evaluator decides the chunk, only quarantine bisection does, so
        the mechanism is built on that first call."""
        if batch_family is None:
            return mechanism_for(pair_index)
        return _LazyMechanism(lambda: mechanism_for(pair_index))

    def name_for(pair_index: int) -> str:
        if namer is None:
            return mechanism_for(pair_index).name
        flowchart, policy, _ = pairs[pair_index]
        return namer(flowchart, policy)

    def finish_pair(pair_index: int, sound: bool, accepts: int,
                    pair_seconds: float,
                    backends: Optional[Dict[str, int]] = None) -> None:
        flowchart, policy, domain = pairs[pair_index]
        result = SweepResult(flowchart.name, policy.name,
                             name_for(pair_index), sound, accepts,
                             len(domain), backends=backends)
        results_by_pair[pair_index] = result
        completed_pairs[0] += 1
        pair_span = pair_spans.pop(pair_index, None)
        if _obs.active:
            _obs.observe("sweep.pair_seconds", pair_seconds)
            fields = {"pair": pair_index, "program": flowchart.name,
                      "policy": policy.name, "sound": sound,
                      "accepts": accepts}
            if pair_span is not None:
                fields["span"] = pair_span.id
            _obs.emit("pair_done", **fields)
        _obs.span_finish(pair_span, sound=sound, accepts=accepts)
        if progress is not None:
            progress(completed_pairs[0], len(pairs), result)

    def finalize() -> List[SweepResult]:
        results = [results_by_pair[index] for index in range(len(pairs))]
        if _obs.active:
            elapsed = time.perf_counter() - sweep_started
            _obs.emit("sweep_end", pairs=len(pairs),
                      elapsed_s=round(elapsed, 6),
                      unsound=sum(1 for r in results if not r.sound))
        _obs.span_finish(sweep_span)
        return results

    # The one-chunk-per-pair fast path is only safe when nothing needs
    # the chunked schedule: a checkpoint's meaning *is* its chunk
    # layout, stop/deadline need chunk boundaries to drain at, and an
    # audit ledger's records are keyed by (pair, chunk) — a serial run
    # on the fast path would ledger a different chunk layout than the
    # pooled executors, breaking bit-identical ledgers across modes.
    if (mode == "serial" and checkpoint is None and stop is None
            and deadline is None and audit is None):
        if _obs.active:
            _obs.inc("sweep.chunks_scheduled", len(pairs))
        # Every policy of a flowchart sweeps the same domain object;
        # materialise its point list once, not once per pair.
        points_by_domain: Dict[int, List[Tuple]] = {}
        for pair_index, (flowchart, policy, domain) in enumerate(pairs):
            pair_started = time.perf_counter()
            points = points_by_domain.get(id(domain))
            if points is None:
                points = list(domain)
                points_by_domain[id(domain)] = points
            pair_span = pair_span_for(pair_index)
            chunk_span = _obs.span_begin(
                "chunk", parent=pair_span.id if pair_span else None,
                pair=pair_index, chunk=0, points=len(points))
            span_id = chunk_span.id if chunk_span else None
            batch_eval = None
            if batch_family is not None:
                batch_eval = (lambda fc=flowchart, po=policy, pt=points,
                              nm=name_for(pair_index), sp=span_id:
                              _evaluate_chunk_batch(fc, batch_family, po, pt,
                                                    fuel, value_cap, nm,
                                                    span=sp))
            summary = quarantine_chunk(
                point_mechanism(pair_index), policy, points, pair_index, 0,
                span=span_id, evaluate=batch_eval)
            if summary.backend is None:
                summary.backend = point_tier
            _obs.span_finish(chunk_span, accepts=summary.accepts)
            # One chunk per pair: folding a single summary through
            # merge_chunks rebuilds its class dict only to rediscover
            # its own conflict flag.
            sound, accepts = not summary.conflict, summary.accepts
            if _obs.active:
                _obs.inc("sweep.chunks_done")
                _obs.record_chunk_evaluated(len(points), summary.accepts)
            finish_pair(pair_index, sound, accepts,
                        time.perf_counter() - pair_started,
                        backends={summary.backend: 1})
            if audit_ledger is not None:
                merge_segments(audit_ledger,
                               [audit_chunk_payloads(pair_index, 0, summary)])
        if audit_ledger is not None:
            audit_ledger.close()
        return finalize()

    # Chunked schedule: (pair, chunk) tasks, merged back in order.
    per_pair_chunks: List[List[List[Tuple]]] = []
    for flowchart, policy, domain in pairs:
        points = list(domain)
        size = chunk_size or max(64, -(-len(points) // (workers * 4)))
        per_pair_chunks.append(_chunk(points, size))

    tasks: List[Tuple[int, int, List[Tuple]]] = [
        (pair_index, chunk_index, points)
        for pair_index, chunks in enumerate(per_pair_chunks)
        for chunk_index, points in enumerate(chunks)]
    summaries: Dict[Tuple[int, int], ChunkSummary] = {}
    remaining_chunks: List[int] = [len(chunks) for chunks in per_pair_chunks]
    pair_seconds: List[float] = [0.0] * len(pairs)
    pair_started_wall = time.perf_counter()
    sweep_started_mono = time.monotonic()
    ckpt_writer: Optional[CheckpointWriter] = None

    def check_stop() -> Optional[str]:
        """The interruption reason, if a stop/deadline has fired."""
        if stop is not None:
            reason = stop()
            if reason:
                return reason if isinstance(reason, str) else "stop"
        if (deadline is not None
                and time.monotonic() - sweep_started_mono >= deadline):
            return "deadline"
        return None

    factory_name: Optional[str] = None
    if mode == "process":
        if not isinstance(mechanism_factory, str):
            names = {fn: name for name, fn in FACTORIES.items()}
            if factory not in names:
                raise ReproError(
                    "executor='process' needs a registered factory name "
                    f"(one of {sorted(FACTORIES)}); arbitrary callables "
                    "do not survive pickling")
            factory_name = names[factory]
        else:
            factory_name = mechanism_factory

    # Chunk spans are supervised in the parent (opened at first submit,
    # closed when the summary lands), so a process-pool sweep — whose
    # workers run with observability off — still yields one rooted
    # sweep → pair → chunk tree in the parent's trace.
    chunk_spans: Dict[Tuple[int, int], _obs.Span] = {}

    def chunk_span_for(pair_index: int, chunk_index: int,
                       points: List[Tuple]) -> Optional[_obs.Span]:
        key = (pair_index, chunk_index)
        handle = chunk_spans.get(key)
        if handle is None and _obs.trace_active:
            pair_span = pair_span_for(pair_index)
            handle = _obs.span_begin(
                "chunk", parent=pair_span.id if pair_span else None,
                pair=pair_index, chunk=chunk_index, points=len(points))
            if handle is not None:
                chunk_spans[key] = handle
        return handle

    def batch_evaluator(pair_index: int, points: List[Tuple],
                        span_id: Optional[str]):
        flowchart, policy, _ = pairs[pair_index]
        return _evaluate_chunk_batch(flowchart, batch_family, policy, points,
                                     fuel, value_cap, name_for(pair_index),
                                     span=span_id, lane_engine=lane_engine)

    def run_chunk_inline(pair_index: int, chunk_index: int,
                         points: List[Tuple]) -> ChunkSummary:
        # Inline execution is the last line of defence (the serial rung
        # and post-retry recovery), so it runs under quarantine: a
        # deterministic crash is bisected to its point(s) rather than
        # unwinding the sweep.
        _, policy, _ = pairs[pair_index]
        handle = chunk_span_for(pair_index, chunk_index, points)
        span_id = handle.id if handle else None
        batch_eval = None
        if batch_family is not None:
            batch_eval = lambda: batch_evaluator(pair_index, points, span_id)
        summary = quarantine_chunk(point_mechanism(pair_index), policy,
                                   points, pair_index, chunk_index,
                                   span=span_id, evaluate=batch_eval)
        if summary.backend is None:
            summary.backend = point_tier
        return summary

    def pair_backend_counts(pair_index: int) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for index in range(len(per_pair_chunks[pair_index])):
            label = summaries[(pair_index, index)].backend or "unknown"
            counts[label] = counts.get(label, 0) + 1
        return counts

    def on_chunk_done(task, summary: ChunkSummary,
                      elapsed: Optional[float],
                      span_id: Optional[str] = None) -> None:
        pair_index, chunk_index, points = task
        pair_seconds[pair_index] += elapsed or 0.0
        if _obs.active:
            _obs.inc("sweep.chunks_done")
            fields = {"pair": pair_index, "chunk": chunk_index,
                      "points": len(points), "accepts": summary.accepts}
            if elapsed is not None:
                fields["elapsed_s"] = round(elapsed, 6)
            if span_id is not None:
                fields["span"] = span_id
            _obs.emit("chunk_done", **fields)
        remaining_chunks[pair_index] -= 1
        if remaining_chunks[pair_index] == 0:
            ordered = [summaries[(pair_index, index)]
                       for index in range(len(per_pair_chunks[pair_index]))]
            sound, accepts = merge_chunks(ordered)
            finish_pair(pair_index, sound, accepts,
                        pair_seconds[pair_index] or
                        (time.perf_counter() - pair_started_wall),
                        backends=pair_backend_counts(pair_index))

    def record_summary(task, summary: ChunkSummary,
                       elapsed: Optional[float]) -> None:
        key = (task[0], task[1])
        if key in summaries:  # late duplicate from an abandoned future
            return
        if summary.backend is None:
            summary.backend = point_tier
        summaries[key] = summary
        if ckpt_writer is not None:
            ckpt_writer.write_chunk(key[0], key[1], summary)
            if _obs.active:
                _obs.inc("sweep.checkpoints_written")
                _obs.emit("checkpoint_written", pair=key[0], chunk=key[1],
                          accepts=summary.accepts)
        # Point accounting happens here, in the parent, so process-pool
        # sweeps (whose workers carry their own disabled registries)
        # still report complete sweep.points_* counters.
        if _obs.active:
            _obs.record_chunk_evaluated(len(task[2]), summary.accepts)
        chunk_span = chunk_spans.pop(key, None)
        _obs.span_finish(chunk_span, accepts=summary.accepts)
        on_chunk_done(task, summary, elapsed,
                      span_id=chunk_span.id if chunk_span else None)

    def drive_pool(pool, submit_task, pool_tasks) -> None:
        """Supervise one pool: retries, timeouts, inline recovery.

        Raises :class:`_PoolBroken` when the pool itself can no longer
        run tasks (crashed worker process, failed spawn); per-chunk
        failures never propagate.
        """
        attempts: Dict[Tuple[int, int], int] = {
            (task[0], task[1]): 0 for task in pool_tasks}
        pending: Dict[object, Tuple[Tuple, float]] = {}

        def submit(task) -> None:
            key = (task[0], task[1])
            chunk_span_for(task[0], task[1], task[2])
            try:
                future = submit_task(task, attempts[key])
            except BrokenExecutor as error:
                raise _PoolBroken(f"pool rejected work: {error!r}") from error
            pending[future] = (task, time.monotonic())

        def retry_or_recover(task, reason: str) -> None:
            key = (task[0], task[1])
            attempts[key] += 1
            attempt = attempts[key]
            if _obs.active:
                chunk_span = chunk_spans.get(key)
                fields = {"pair": task[0], "chunk": task[1],
                          "attempt": attempt, "reason": reason}
                if chunk_span is not None:
                    fields["span"] = chunk_span.id
                _obs.emit("worker_retry", **fields)
            if attempt <= max_chunk_retries:
                if _obs.active:
                    _obs.inc("sweep.chunks_retried")
                submit(task)
                return
            # Bounded retries exhausted — recover in the parent so one
            # poisoned chunk cannot sink the sweep.
            if _obs.active:
                _obs.inc("sweep.chunks_failed")
            started = time.monotonic()
            summary = run_chunk_inline(*task)
            record_summary(task, summary, time.monotonic() - started)

        for task in pool_tasks:
            submit(task)
        poll = None
        if chunk_timeout is not None:
            poll = max(0.01, min(chunk_timeout / 4.0, 0.25))
        if stop is not None or deadline is not None:
            # Stop/deadline need a bounded wait to stay responsive even
            # without a chunk_timeout.
            poll = 0.25 if poll is None else min(poll, 0.25)
        while pending:
            finished, _ = wait(list(pending), timeout=poll,
                               return_when=FIRST_COMPLETED)
            now = time.monotonic()
            for future in finished:
                task, started = pending.pop(future)
                try:
                    pair_index, chunk_index, summary = future.result()
                except BrokenExecutor as error:
                    raise _PoolBroken(f"pool broke: {error!r}") from error
                except Exception as error:
                    retry_or_recover(task, f"worker failure: {error!r}")
                else:
                    record_summary((pair_index, chunk_index, task[2]),
                                   summary, now - started)
            if chunk_timeout is not None:
                for future, (task, started) in list(pending.items()):
                    if now - started >= chunk_timeout and not future.done():
                        future.cancel()
                        pending.pop(future)
                        retry_or_recover(
                            task, f"timeout after {chunk_timeout}s")
            reason = check_stop()
            if reason:
                # Drain: drop what has not started, let in-flight chunks
                # finish (bounded by chunk_timeout when set) and journal
                # them — an interrupted checkpoint keeps every chunk
                # that completed.
                for future in list(pending):
                    if future.cancel():
                        pending.pop(future)
                if pending:
                    drained, _ = wait(list(pending), timeout=chunk_timeout)
                    now = time.monotonic()
                    for future in drained:
                        task, started = pending.pop(future)
                        try:
                            pair_index, chunk_index, summary = (
                                future.result())
                        except Exception:
                            continue  # crashed mid-drain; resume re-runs it
                        record_summary((pair_index, chunk_index, task[2]),
                                       summary, now - started)
                raise _StopRequested(reason)

    # ----- checkpoint: open the journal, restore completed chunks -----
    if checkpoint is not None:
        descriptor = {
            "pairs": [[flowchart.name, policy.name, len(domain)]
                      for flowchart, policy, domain in pairs],
            "chunks": [[len(chunk) for chunk in chunks]
                       for chunks in per_pair_chunks],
            "factory": (mechanism_factory
                        if isinstance(mechanism_factory, str)
                        else getattr(factory, "__name__", "callable")),
            "fuel": fuel,
            "value_cap": value_cap,
        }
        fingerprint = config_fingerprint(descriptor)
        if resume:
            _, restored, record_count = load_checkpoint(checkpoint,
                                                        fingerprint)
            for (pair_index, chunk_index), summary in restored.items():
                if (pair_index >= len(pairs) or chunk_index
                        >= len(per_pair_chunks[pair_index])):
                    raise ReproError(
                        f"checkpoint {checkpoint!r} references chunk "
                        f"({pair_index}, {chunk_index}) outside this "
                        "sweep's layout")
                summaries[(pair_index, chunk_index)] = summary
                remaining_chunks[pair_index] -= 1
            if _obs.active:
                _obs.inc("sweep.chunks_restored", len(restored))
                _obs.emit("sweep_resumed", chunks_restored=len(restored))
            for pair_index in range(len(pairs)):
                if (remaining_chunks[pair_index] == 0
                        and pair_index not in results_by_pair):
                    ordered = [summaries[(pair_index, index)] for index
                               in range(len(per_pair_chunks[pair_index]))]
                    sound, accepts = merge_chunks(ordered)
                    finish_pair(pair_index, sound, accepts, 0.0,
                                backends=pair_backend_counts(pair_index))
            ckpt_writer = CheckpointWriter(checkpoint, descriptor,
                                           fresh=False,
                                           start_seq=record_count)
        else:
            ckpt_writer = CheckpointWriter(checkpoint, descriptor,
                                           fresh=True)

    def injected_faults(pair_index: int, chunk_index: int,
                        attempt: int) -> Tuple[bool, float]:
        """Submit-time fault injection: legacy hooks ∪ the chaos plan."""
        inject = bool(_FAIL_INJECTOR and _FAIL_INJECTOR(
            pair_index, chunk_index, attempt))
        delay = (_DELAY_INJECTOR(pair_index, chunk_index, attempt)
                 if _DELAY_INJECTOR else 0.0)
        plan = chaos.current_plan()
        if plan is not None:
            decision = plan.decide(pair_index, chunk_index, attempt)
            inject = inject or decision.crash
            delay = max(delay, decision.delay)
        # Retry backoff rides the same worker-side sleep the injectors
        # use, so the parent supervision loop never blocks on it.
        delay += retry_backoff(pair_index, chunk_index, attempt,
                               seed=plan.seed if plan is not None else 0)
        return inject, delay

    if _obs.active:
        _obs.inc("sweep.chunks_scheduled", len(tasks) - len(summaries))

    try:
        ladder = _MODE_LADDER[mode]
        for rung, current_mode in enumerate(ladder):
            pool_tasks = [task for task in tasks
                          if (task[0], task[1]) not in summaries]
            if not pool_tasks:
                break
            try:
                if current_mode == "serial":
                    for task in pool_tasks:
                        reason = check_stop()
                        if reason:
                            raise _StopRequested(reason)
                        started = time.monotonic()
                        summary = run_chunk_inline(*task)
                        record_summary(task, summary,
                                       time.monotonic() - started)
                elif current_mode == "thread":
                    def run_task(task, inject_failure, delay):
                        pair_index, chunk_index, points = task
                        if delay:
                            time.sleep(delay)
                        if inject_failure:
                            raise _InjectedWorkerFailure(
                                f"injected failure for chunk "
                                f"({pair_index}, {chunk_index})")
                        _, policy, _ = pairs[pair_index]
                        chunk_span = chunk_spans.get(
                            (pair_index, chunk_index))
                        span_id = chunk_span.id if chunk_span else None
                        if batch_family is not None:
                            return pair_index, chunk_index, batch_evaluator(
                                pair_index, points, span_id)
                        return pair_index, chunk_index, evaluate_chunk(
                            mechanism_for(pair_index), policy, points,
                            span=span_id)

                    def submit_thread(task, attempt, pool_ref=None):
                        inject, delay = injected_faults(task[0], task[1],
                                                        attempt)
                        return thread_pool.submit(run_task, task, inject,
                                                  delay)

                    thread_pool = ThreadPoolExecutor(max_workers=workers)
                    try:
                        drive_pool(thread_pool, submit_thread, pool_tasks)
                    finally:
                        thread_pool.shutdown(wait=False,
                                             cancel_futures=True)
                else:  # process
                    def submit_process(task, attempt):
                        pair_index, chunk_index, points = task
                        flowchart, policy, domain = pairs[pair_index]
                        inject, delay = injected_faults(pair_index,
                                                        chunk_index, attempt)
                        chunk_span = chunk_spans.get(
                            (pair_index, chunk_index))
                        payload = pickle.dumps(
                            (pair_index, chunk_index, flowchart, policy,
                             domain, factory_name, points, fuel, value_cap,
                             inject, delay, chaos.current_plan(),
                             chunk_span.id if chunk_span else None,
                             batch_family, mech_backend, lane_engine))
                        return process_pool.submit(_run_pair_task, payload)

                    try:
                        process_pool = ProcessPoolExecutor(
                            max_workers=workers)
                    except OSError as error:
                        raise _PoolBroken(
                            f"cannot spawn process pool: {error!r}"
                        ) from error
                    try:
                        drive_pool(process_pool, submit_process, pool_tasks)
                    finally:
                        process_pool.shutdown(wait=False,
                                              cancel_futures=True)
                break
            except _PoolBroken as broken:
                next_mode = ladder[rung + 1]
                if _obs.active:
                    _obs.inc("sweep.pool_degraded")
                    _obs.emit("pool_degraded", from_mode=current_mode,
                              to_mode=next_mode, reason=str(broken))
    except _StopRequested as stopped:
        if ckpt_writer is not None:
            ckpt_writer.close()
        if audit_ledger is not None:
            # An interrupted sweep appends nothing: partial ledgers in
            # completion order would differ per executor.  The resumed
            # run re-derives every segment from its merged summaries.
            audit_ledger.close()
        if _obs.active:
            _obs.inc("sweep.interrupted")
            _obs.emit("sweep_interrupted", reason=stopped.reason,
                      chunks_done=len(summaries))
        _obs.span_finish(sweep_span, interrupted=stopped.reason)
        raise SweepInterruptedError(
            stopped.reason, len(summaries), len(tasks),
            checkpoint or "") from None

    if ckpt_writer is not None:
        ckpt_writer.close()
    if audit_ledger is not None:
        # Segments in (pair, chunk) order — the checkpoint journal's
        # merge discipline — regardless of the completion order the
        # pool delivered them in.
        merge_segments(
            audit_ledger,
            (audit_chunk_payloads(pair_index, chunk_index,
                                  summaries[(pair_index, chunk_index)])
             for pair_index, chunks in enumerate(per_pair_chunks)
             for chunk_index in range(len(chunks))
             if (pair_index, chunk_index) in summaries))
        audit_ledger.close()
    return finalize()
