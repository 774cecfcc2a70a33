"""Parallel ∀-sweeps: the policy × grid product across a worker pool.

``soundness_sweep`` enumerates ``2^k`` allow-policies × ``3^k`` grid
points per flowchart — an embarrassingly parallel product.  This module
chunks that product across a :mod:`concurrent.futures` pool and merges
the per-chunk summaries back into the same
:class:`~repro.verify.enumerate.SweepResult` rows the serial sweep
produces.

Work unit and merge
-------------------
Every policy of a flowchart sweeps the same grid, cut into the same
chunks.  A task is one chunk of one flowchart's grid, and it returns
one :class:`ChunkSummary` per policy of that flowchart — per
``(pair, chunk)``: the acceptance count plus, per policy-class, the
first output seen and whether the chunk itself witnessed a conflict.
Merging a pair's chunks (in domain order) compares class
representatives across chunk boundaries, so the merged soundness
verdict is exactly the serial factorization verdict — the outputs are
shared between the soundness check and the accepts count, never
recomputed.  Summaries, journal and ledger records, chunk spans and
chunk counters stay per ``(pair, chunk)``; retries, chaos draws and
backoff are per task, keyed by its first pair.

Stages
------
:func:`parallel_soundness_sweep` composes three stages.  The plan
(:class:`_Plan`) resolves once what every task needs and evaluates one
task; the recorder (:class:`_Recorder`) keeps everything about finished
work, from summaries and journal to spans, rows and the ledger; the
schedule (:func:`_schedule`, :func:`_drive_pool`) runs the tasks down
the degradation ladder.  A process pool receives the plan once per
worker, so a task carries only ``(pair_indices, chunk_index, points)``
with its span ids and injected fault, and a worker compiles or
instruments each flowchart once.

There is one sweep path.  Jones–Lipton's policy J is read only by the
halt test and the timed guard, so a registered family's task runs each
of its points once with no policy and decides every policy of the
flowchart from that run (:func:`_evaluate_chunk_batch`): the batch is
decoded into per-lane outputs once, and each policy only overwrites
the lanes it refuses.  Every family's runs are batch lanes: the
flowchart, the allow-all instrumented flowchart (``surveillance``), or
the flowchart's labelled function (``timed``, ``highwater``), whose
lanes one decider groups so that each policy is decided once per group
(:func:`_decide_labelled`; a channel program's label walks take the
same decider).  The sharing comes from the schedule, not from a
cache.  The ``compiled`` and ``batch`` backends both take it.
Per-point evaluation (:func:`evaluate_chunk`, each policy's mechanism
called once per point) remains where it is the only path or the
reference: ``backend="interpreted"``, explain mode, quarantine
bisection, callable factories, and channel programs of the ``program``
and ``surveillance`` families.  Every path summarises its outputs with
the one plain-Python :func:`_summarize_outputs`, over the class layout
of the chunk's policy (:func:`_class_layout`): the partition a policy
induces on a chunk belongs to the policy and the points alone, so the
plan builds each (grid, chunk, policy) layout once and every flowchart
that sweeps that grid decides from it (:meth:`_Plan.layout`).

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
Pooled tasks are supervised: a task that raises (or exceeds
``chunk_timeout`` seconds) is retried up to ``max_chunk_retries``
times (a ``worker_retry`` trace event per attempt); a task that keeps
failing is recovered by evaluating it inline in the parent.  If the
pool itself dies — a crashed worker process, a pool that cannot spawn
— the sweep degrades ``process → thread → serial``, emitting a
``pool_degraded`` event rather than a traceback, and re-schedules only
the tasks that had not yet completed.

A chunk that *keeps* crashing deterministically (a poison point — an
OOM-style fault that follows the work wherever it runs) is not retried
forever: inline recovery runs each pair under quarantine
(:func:`quarantine_chunk`), which bisects the chunk to the crashing
point(s) and totalizes each one into a distinguished ``Λ!crash[Type]``
notice (``point_quarantined`` trace events carry the provenance), so
the sweep completes and serial, thread, and process executors still
agree row-for-row.  On the shared path each pair's bisection starts
from the crash of the whole-chunk run.  Injected faults come only
from the :mod:`repro.verify.chaos` plan installed when the sweep is
planned.  A pool whose every attempt has finished is joined.

Checkpoint / resume
-------------------
``checkpoint=`` journals every completed chunk summary to a crash-safe
JSONL file (see :mod:`repro.verify.checkpoint`), committed once per
task; ``resume=True`` checks the journal before anything else, restores
the journalled chunks and re-schedules only the remainder, producing
bit-identical merged rows.  ``stop=`` / ``deadline=`` let a
signal handler or watchdog interrupt the sweep cleanly: in-flight
chunks drain and are journalled, and the sweep raises
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
  factory (see :data:`FACTORIES`) so the plan is picklable;
- ``"thread"`` otherwise (closures capture unpicklable state; threads
  share the mechanism object).

Any mode can be forced explicitly; ``"process"`` with an unregistered
factory raises a clear error, before the sweep has any side effect,
instead of a pickling traceback.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from functools import partial
from operator import itemgetter
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, ThreadPoolExecutor,
                                wait)
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.domains import ProductDomain
from ..core.errors import ReproError, SweepInterruptedError
from ..core.mechanism import (ViolationNotice, is_violation,
                              program_mechanism_name)
from ..core.policy import AllowPolicy, allow
from ..flowchart.batchpath import K_CAP, K_FUEL, K_OK, execute_batch
from ..flowchart.fastpath import LABEL_RULES, resolve_backend
from ..flowchart.interpreter import DEFAULT_FUEL
from ..flowchart.program import Flowchart
from ..obs import runtime as _obs
from ..obs.audit import (AuditLedger, RecordHead, RecordLine,
                         budget_fingerprint, canonical_object_around,
                         classify_notice, decision_payload)
from ..robustness.faults import (DECLARED_FAULTS, cap_notice, crash_notice,
                                 fault_notice, fuel_notice,
                                 resolve_value_cap)
from ..surveillance.dynamic import policy_free_runs, surveillance_name
from ..surveillance.instrument import (EPOCH_VAR, PC_LABEL, VIOLATION_FLAG,
                                       instrument, instrumented_name,
                                       surveillance_variable)
from ..surveillance.labels import to_mask
from . import chaos
from .checkpoint import (CheckpointWriter, EncodedValues, config_fingerprint,
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
    """Raised for a chaos crash decision to simulate a crashed worker."""


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
    the same totalisation the serial sweep applies.  The run that
    faulted has already counted the fault in the metrics, so each
    decision counts once, as on the batch path.  *Undeclared*
    exceptions (a genuine crash, a chaos poison point) propagate: the
    caller decides between retry and :func:`quarantine_chunk`.

    ``span`` is the enclosing chunk's span id (when tracing): each
    point gets a child span, and the mechanism's own leaf events
    (``run_end``, ``violation``, ``explanation``) attach to it via the
    thread-local span stack.  ``plan`` overrides the installed chaos
    plan (a sweep passes the one it read when it was planned).
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
            except DECLARED_FAULTS as error:
                output = fault_notice(error)
        finally:
            _obs.span_finish(point_span)
        outputs.append(output)
    return _summarize_outputs(_class_layout(policy, points), outputs)


#: Factory families the batch path evaluates whole-chunk.  Each runs a
#: grid point once with no policy and decides all 2^k allow-policies of
#: a pair from that run, on the batch tier: ``program`` the flowchart,
#: ``surveillance`` the allow-all instrumented flowchart, and the
#: label-rule families below the flowchart's labelled function (a
#: channel program's labels take the interpreter's walk).
_BATCH_FAMILIES = ("program", "surveillance", "timed", "highwater")

#: The label-rule families, each named after its rule in
#: :data:`~repro.flowchart.fastpath.LABEL_RULES`, and whether the
#: mechanism their :data:`FACTORIES` entry builds observes time.
_LABEL_FAMILIES = {"timed": True, "highwater": False}

_VIOL_KIND = 3  # merged outcome code for a surveillance violation


def _class_keys(policy, points) -> List:
    """Each point's policy class ``policy(*point)``; an allow-policy's
    projection is read straight off the point tuples instead of through
    the policy call."""
    if not isinstance(policy, AllowPolicy):
        return [policy(*point) for point in points]
    columns = [index - 1 for index in policy.indices]
    if len(columns) > 1:
        return list(map(itemgetter(*columns), points))
    if columns:
        # zip over one column yields the 1-tuples allow(i) maps to.
        return list(zip(map(itemgetter(columns[0]), points)))
    return [()] * len(points)


def _class_layout(policy, points) -> Tuple[List[Tuple], List[int]]:
    """The partition ``policy`` induces on a chunk, in domain order.

    ``(firsts, rep)``: each class key in first-seen order with its first
    position, and for each point the first position of its class.  It
    depends on the policy and the points alone, never on a flowchart or
    its outputs (M is sound for I iff M factors through I), so every
    flowchart that sweeps the chunk can be decided from one layout.
    """
    first: Dict = {}
    rep = [first.setdefault(key, position)
           for position, key in enumerate(_class_keys(policy, points))]
    return list(first.items()), rep


def _summarize_outputs(layout: Tuple[List[Tuple], List[int]], outputs: List,
                       backend: Optional[str] = None,
                       accepts: Optional[int] = None) -> ChunkSummary:
    """ChunkSummary of per-point outputs, in domain order.

    The one summariser of every sweep path: the factorization check
    asks for one output per class of the chunk's ``layout``
    (:func:`_class_layout`).  Each class keeps the output at its first
    position; the chunk conflicts iff some class has two members and
    some point's output differs from its class's.  ``accepts`` is the
    count of non-notice outputs, for a caller that already knows it.
    """
    firsts, rep = layout
    classes = {key: outputs[position] for key, position in firsts}
    conflict = (len(firsts) < len(rep)
                and list(map(outputs.__getitem__, rep)) != outputs)
    if accepts is None:
        accepts = len(outputs) - sum(map(is_violation, outputs))
    return ChunkSummary(accepts, classes, conflict, backend=backend)


def _decode_batch(batch, flowchart: Flowchart,
                  surveillance: bool) -> Tuple[List, List, Dict]:
    """A batch's policy-free outcomes, decoded once for every policy.

    ``(codes, outputs, refusals)``.  ``codes`` and ``outputs`` are each
    lane's outcome code and output when no policy refuses it: the
    value, ``Λ!fuel[N]``, ``Λ!cap[C]``, or, on a surveillance lane past
    a policy change, the ``Λ@e{n}`` its installed policy settled (the
    same for every J).  ``refusals`` maps the final label mask
    ȳ ∪ C̄ of each surveillance lane still in epoch 0 to those lanes,
    each with the code and output it yields when J refuses it: J's own
    run takes one more box (``_viol := 1``), so a lane that halted in
    exactly ``fuel`` steps runs dry (``Λ!fuel[N]``), any other reads
    ``Λ`` (``Λ@e0`` on a flowchart with policy changes).
    """
    fuel = batch.fuel
    fuel_out = fuel_notice(fuel)
    cap_out = cap_notice(batch.cap) if batch.cap is not None else None
    codes = list(batch.kinds)
    outputs = [row[0] if code == K_OK else fuel_out if code == K_FUEL
               else cap_out for code, row in zip(codes, batch.rows)]
    refusals: Dict[int, List[Tuple]] = {}
    if not surveillance:
        return codes, outputs, refusals
    has_epochs = bool(flowchart.policy_change_ids())
    refused = ViolationNotice("Λ@e0" if has_epochs else "Λ")
    label = surveillance_variable(flowchart.output_variable)
    for lane, (code, (_, steps, _, env)) in enumerate(
            zip(batch.kinds, batch.rows)):
        if code != K_OK:
            continue
        epoch = env[EPOCH_VAR] if has_epochs else 0
        if epoch:
            if env[VIOLATION_FLAG] == 1:
                codes[lane] = _VIOL_KIND
                outputs[lane] = ViolationNotice(f"Λ@e{epoch}")
            continue
        mask = env[label] | env[PC_LABEL]
        if mask:
            refusals.setdefault(mask, []).append(
                (lane, K_FUEL, fuel_out) if steps == fuel
                else (lane, _VIOL_KIND, refused))
    return codes, outputs, refusals


def _evaluate_chunk_batch(flowchart: Flowchart, family: str,
                          policies: Sequence[AllowPolicy],
                          points: List[Tuple], layouts: Sequence[Tuple],
                          fuel: int, value_cap: Optional[int],
                          plan: Optional[chaos.FaultPlan] = None
                          ) -> List[ChunkSummary]:
    """Every policy's summary of a chunk, from runs they all share.

    ``layouts`` holds each policy's class layout of ``points``
    (:func:`_class_layout`).  Each summary is row-identical to
    :func:`evaluate_chunk` over the same points with the family's
    mechanism for that policy: same accepts, same first-seen class
    representatives in domain order, same conflict flag, same
    ``Λ``/``Λ@e{n}``/``Λ@t``/``Λ!fuel[N]``/``Λ!cap[C]`` notices.
    Every point runs once with no policy — the labels x̄ and C̄ never
    depend on J — and each policy then costs only a bitmask decision:

    - ``program`` runs the flowchart on the batch tier;
    - ``surveillance`` runs ``instrument(flowchart, allow(1..k))`` on
      the batch tier, and J overwrites the outcome of each lane whose
      final mask has a bit outside J (:func:`_decode_batch`);
    - ``timed`` and ``highwater`` run the flowchart's labelled function
      on the batch tier (:func:`_evaluate_walk_chunk`), and each policy
      is decided once per group of lanes it can refuse.

    The batch is decoded once, whatever the number of policies.

    A chaos poison point raises ``MemoryError`` *before* anything
    executes; the caller's quarantine machinery then bisects the chunk
    per-point exactly as it would a per-point chunk, so quarantined
    rows agree across backends.  The batch path records chunk-level
    tallies, not per-point spans.
    """
    if plan is None:
        plan = chaos.current_plan()
    if plan is not None:
        for point in points:
            if plan.poisons(point):
                raise MemoryError(f"chaos poison point {tuple(point)!r}")
    if family in _LABEL_FAMILIES:
        return _evaluate_walk_chunk(flowchart, family, policies, points,
                                    layouts, fuel, value_cap)
    surveillance = family == "surveillance"
    target = flowchart
    if surveillance:
        arity = flowchart.arity
        target = instrument(flowchart, allow(*range(1, arity + 1),
                                             arity=arity))
    batch = execute_batch(target, points, fuel=fuel, value_cap=value_cap,
                          need_env=surveillance)
    codes, outputs, refusals = _decode_batch(batch, flowchart, surveillance)
    summaries = []
    for policy, layout in zip(policies, layouts):
        allowed = to_mask(policy.allowed) if refusals else 0
        refused = [lanes for mask, lanes in refusals.items()
                   if mask & ~allowed]
        policy_codes, policy_outputs = codes, outputs
        if refused:
            policy_codes, policy_outputs = list(codes), list(outputs)
            for lanes in refused:
                for lane, code, output in lanes:
                    policy_codes[lane] = code
                    policy_outputs[lane] = output
        if _obs.active:
            _record_tally(Counter(policy_codes), flowchart, target.name,
                          fuel, batch.cap)
        summaries.append(_summarize_outputs(layout, policy_outputs, "batch",
                                            policy_codes.count(K_OK)))
    return summaries


#: Outcome code of a fault notice's kind (:func:`classify_notice`); a
#: channel fault (``Λ!msg``) has none, as on the per-point path, which
#: records nothing for it.
_NOTICE_CODES = {"fuel": K_FUEL, "cap": K_CAP}


def _record_tally(tally: Counter, flowchart: Flowchart, ran: str,
                  fuel: int, cap: Optional[int]) -> None:
    """A chunk's fault and violation metrics from its outcome-code tally:
    one hook call per outcome kind, not one per decision.  Fault events
    name ``ran``, the flowchart that ran (the instrumented one for
    surveillance), as the per-point runs' do."""
    if tally[K_FUEL]:
        _obs.record_fuel_exhausted(ran, fuel, count=tally[K_FUEL])
    if tally[K_CAP]:
        _obs.record_value_cap_exceeded(ran, cap, count=tally[K_CAP])
    if tally[_VIOL_KIND]:
        _obs.record_violation(flowchart.name, "instrumented",
                              count=tally[_VIOL_KIND], timed=False)


def _evaluate_walk_chunk(flowchart: Flowchart, family: str,
                         policies: Sequence[AllowPolicy],
                         points: List[Tuple], layouts: Sequence[Tuple],
                         fuel: int,
                         value_cap: Optional[int]) -> List[ChunkSummary]:
    """A label-rule family's chunk, every policy decided from one
    policy-free labelled run per point (:func:`_decide_labelled`).

    The runs are lanes of the flowchart's labelled function on the
    batch tier.  A channel program's are the interpreter's label walks
    (:func:`~repro.surveillance.dynamic.policy_free_runs`), decided the
    same way.
    """
    if flowchart.has_channels():
        timed, forgetting = LABEL_RULES[family]
        runs = policy_free_runs(flowchart, points, timed=timed,
                                forgetting=forgetting, fuel=fuel,
                                value_cap=value_cap)
        faults = [run.fault for run in runs]
        rows = [(run.value, run.steps, run.mask, run.active, run.epoch,
                 run.early, run.first_test) for run in runs]
        tier = "interpreted"
    else:
        batch = execute_batch(flowchart, points, fuel=fuel,
                              value_cap=value_cap, labels=family)
        notices = {K_OK: None, K_FUEL: fuel_notice(fuel),
                   K_CAP: cap_notice(batch.cap)}
        faults = [notices[kind] for kind in batch.kinds]
        rows, tier = batch.rows, "batch"
    return _decide_labelled(flowchart, family, policies, layouts, faults,
                            rows, fuel, value_cap, tier)


def _decide_labelled(flowchart: Flowchart, family: str,
                     policies: Sequence[AllowPolicy], layouts: Sequence[Tuple],
                     faults: List, rows: List[Tuple], fuel: int,
                     value_cap: Optional[int],
                     tier: str) -> List[ChunkSummary]:
    """Every policy's summary of a chunk from its policy-free labelled
    runs: each lane decoded once, each policy decided once per group,
    and summarised over that policy's class layout.

    ``faults[i]`` is lane i's declared-fault notice or None, ``rows[i]``
    its ``(value, steps, ȳ ∪ C̄, active policy, epoch, early stop,
    first-test steps)``.  A lane's J-free output is its value
    (``(value, steps)`` when time is observable), its fault notice, or,
    past epoch 0, the verdict of the policy it installed.  J can change
    it only through the lane's epoch-0 first-test entries or, for a
    lane that halted in epoch 0, its mask; lanes alike in both form a
    group.  If a first-test entry fails J, J's run stopped there, ahead
    of anything later (a fault included): every lane of the group reads
    ``Λ@t`` (``Λ``/``Λ@e0`` untimed).  Otherwise a mask bit outside J
    refuses each lane with its own notice: ``Λ@steps`` for the timed
    family, ``Λ`` or ``Λ@e0`` for high-water.  A policy that refuses no
    group reuses the J-free outputs.
    """
    time_observable = _LABEL_FAMILIES[family]
    plain = ViolationNotice("Λ@e0" if flowchart.policy_change_ids() else "Λ")
    stamped: Dict[int, ViolationNotice] = {}

    def refusal(steps: int) -> ViolationNotice:
        """J's notice for a run it stopped after ``steps`` steps."""
        if not time_observable:
            return plain
        notice = stamped.get(steps)
        if notice is None:
            notice = stamped[steps] = ViolationNotice(f"Λ@{steps}")
        return notice

    base: List = []
    grouped: Dict[Tuple, List[int]] = {}
    for lane, (fault, (value, steps, mask, active, epoch, early,
                       tests)) in enumerate(zip(faults, rows)):
        if fault is not None:
            output, mask = fault, 0
        elif active is None:
            output = (value, steps) if time_observable else value
        else:
            # Past epoch 0 the installed policy decided, alike for all J.
            output = (ViolationNotice(f"Λ@{steps}" if time_observable
                                      else f"Λ@e{epoch}")
                      if early or mask & ~active
                      else (value, steps) if time_observable else value)
            mask = 0
        base.append(output)
        if tests or mask:
            grouped.setdefault((tuple(tests), mask), []).append(lane)
    violated = list(map(is_violation, base))
    accepts = len(base) - sum(violated)
    # Per group: its first-test entries as (indices, step, notice), its
    # halt mask, its lanes, each lane's halt refusal, and how many of
    # its lanes the J-free outputs accept.
    groups = [([(indices, step, refusal(step)) for step, indices in tests],
               mask, lanes, [refusal(rows[lane][1]) for lane in lanes],
               len(lanes) - sum(map(violated.__getitem__, lanes)))
              for (tests, mask), lanes in grouped.items()]
    records = tally = None
    if _obs.active:
        # Each lane's J-free (outcome code, steps, early) for the counts.
        records = [(_NOTICE_CODES.get(classify_notice(str(fault)))
                    if fault is not None else _VIOL_KIND if refused
                    else K_OK, row[1], row[5])
                   for fault, refused, row in zip(faults, violated, rows)]
        tally = Counter(records)
    summaries = []
    for policy, layout in zip(policies, layouts):
        outside = ~to_mask(policy.allowed)
        outputs, policy_accepts = base, accepts
        policy_tally = None if tally is None else tally.copy()
        for tests, mask, lanes, halts, accepted in groups:
            for indices, step, notice in tests:
                if indices & outside:
                    break
            else:
                notice = None
                if not mask & outside:
                    continue
            if outputs is base:
                outputs = list(base)
            policy_accepts -= accepted
            if notice is not None:
                # J's run stopped at this guard, ahead of anything later.
                for lane in lanes:
                    outputs[lane] = notice
            else:
                for lane, halt in zip(lanes, halts):
                    outputs[lane] = halt
            if policy_tally is not None:
                for lane in lanes:
                    policy_tally[records[lane]] -= 1
                    policy_tally[(_VIOL_KIND, step, True) if notice
                                 else (_VIOL_KIND, rows[lane][1], False)] += 1
        if policy_tally is not None:
            _record_runs(policy_tally, flowchart, fuel, value_cap,
                         LABEL_RULES[family][0])
        summaries.append(_summarize_outputs(layout, outputs, tier,
                                            policy_accepts))
    return summaries


def _record_runs(tally: Counter, flowchart: Flowchart, fuel: int,
                 cap: Optional[int], timed: bool) -> None:
    """One policy's labelled decisions of a chunk, counted as the
    per-point ``surveil`` calls count theirs: faults by kind, and each
    run that reached a halt or a timed guard as a surveilled run with
    its steps, whose refusal is a ``violation`` event carrying its
    ``steps`` and ``early``.  ``tally`` counts (code, steps, early)."""
    faults: Counter = Counter()
    runs = steps_total = 0
    for (code, steps, early), count in tally.items():
        if code is None or count <= 0:
            continue
        if code in (K_FUEL, K_CAP):
            faults[code] += count
            continue
        runs += count
        steps_total += count * steps
        if code == _VIOL_KIND:
            _obs.record_violation(flowchart.name, "surveillance",
                                  count=count, steps=steps, timed=timed,
                                  early=early)
    _record_tally(faults, flowchart, flowchart.name, fuel, cap)
    if runs:
        _obs.inc("surveillance.runs", runs)
        _obs.inc("surveillance.steps_total", steps_total)


def _merge_summaries(parts: Sequence[ChunkSummary]) -> ChunkSummary:
    """Fold summaries (in domain order) into one ChunkSummary.

    The one merge fold: a pair's chunks (:func:`merge_chunks`) and a
    bisected chunk's halves (:func:`_bisect_crash`) both go through it.
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
                     plan: Optional[chaos.FaultPlan] = None
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
    """
    try:
        return evaluate_chunk(mechanism, policy, points, span=span,
                              plan=plan)
    except Exception as error:
        return _quarantine(mechanism, policy, points, pair_index,
                           chunk_index, span, plan, error)


def _quarantine(mechanism, policy, points: List[Tuple], pair_index: int,
                chunk_index: int, span: Optional[str],
                plan: Optional[chaos.FaultPlan],
                error: BaseException) -> ChunkSummary:
    """Quarantine a chunk whose whole run raised ``error``.

    The bisection always walks per point via ``mechanism``, also when
    the crashed run was a shared one, so quarantined rows agree across
    backends.
    """
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
    merged = _merge_summaries(summaries)
    return not merged.conflict, merged.accepts


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
    # times faster in sweeps.  Instrumentation cannot model labelled
    # channel queues, so a channel program gets the interpreter-level
    # mechanism, under the instrumented name its rows carry.
    if flowchart.has_channels():
        from ..surveillance import surveillance_mechanism

        return surveillance_mechanism(
            flowchart, policy, domain, fuel=fuel, value_cap=value_cap,
            backend=backend, name=instrumented_name(flowchart, policy))
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


# ---------------------------------------------------------------------------
# Plan: what a sweep decides once, and the evaluation of one task
# ---------------------------------------------------------------------------

def _task_key(task) -> Tuple[int, int]:
    """``(first pair, chunk)``, the key of retries and chaos draws."""
    return task[0][0], task[1]


class _Plan:
    """A sweep's decisions, made once, and the evaluation of one task.

    A task is one chunk of one flowchart's grid for the listed pairs of
    that flowchart.  A process pool sends the plan to each worker once
    (:func:`_start_worker`), so the worker's flowcharts keep their
    identity and its compile and instrument caches hit.  Mechanisms and
    class layouts are built once per process and dropped when the plan
    is pickled; layouts live and die with their plan.
    """

    def __init__(self, flowcharts: Sequence[Flowchart], mechanism_factory,
                 grid: Callable[[int], ProductDomain],
                 policies: Callable[[int], List[AllowPolicy]], fuel: int,
                 value_cap: Optional[int], backend: Optional[str]) -> None:
        # Legacy 3-arg callables are honoured at the *default* backend
        # only (the fuel contract): an explicitly requested backend must
        # reach the factory or fail loudly, but the mere existence of a
        # process default must not break them.
        backend_requested = backend is not None
        self.backend = resolve_backend(backend)
        self.factory = resolve_factory(mechanism_factory)
        # The registered family (None for any other callable), and the
        # factory's name in sweep_start and the journal descriptor.
        if isinstance(mechanism_factory, str):
            self.family: Optional[str] = mechanism_factory
            self.label = mechanism_factory
        else:
            self.family = next((name for name, fn in FACTORIES.items()
                                if fn is self.factory), None)
            self.label = getattr(self.factory, "__name__", "callable")
        self.fuel = fuel
        self.value_cap = value_cap
        # The (flowchart, policy) pairs in sweep order, and each
        # flowchart's pair indices: its policies share one domain.
        self.pairs: List[Tuple[Flowchart, AllowPolicy, ProductDomain]] = []
        self.groups: List[Tuple[int, ...]] = []
        # Each pair's grid, numbered by its components: every chunk is a
        # slice of that grid's row-major order cut by the plan's one
        # chunking, so (grid, chunk, policy) names a class layout
        # exactly.  Only a grid that several flowcharts sweep keeps its
        # layouts; the others are built, used and dropped.
        grids: Dict[Tuple, int] = {}
        self._grid: List[int] = []
        users: Counter = Counter()
        for flowchart in flowcharts:
            domain = grid(flowchart.arity)
            first = len(self.pairs)
            self.pairs.extend((flowchart, policy, domain)
                              for policy in policies(flowchart.arity))
            if len(self.pairs) > first:
                self.groups.append(tuple(range(first, len(self.pairs))))
                number = grids.setdefault(domain.components, len(grids))
                self._grid.extend([number] * (len(self.pairs) - first))
                users[number] += 1
        self._kept = {number for number, count in users.items() if count > 1}
        self._layouts: Dict[Tuple, Tuple] = {}
        self.points = sum(len(domain) for _, _, domain in self.pairs)
        # Shared runs decide every chunk of a registered family, except
        # on the interpreter (the per-point reference) and under explain
        # (per-point provenance).  Channel programs stay off the batch
        # tier, which cannot model labelled channel queues or totalize a
        # lane's channel fault; the label-rule families take the
        # interpreter's label walks for them, which carry both.
        self.shared: Optional[str] = None
        if (self.backend != "interpreted" and not _obs.explain_active
                and self.family in _BATCH_FAMILIES
                and (self.family in _LABEL_FAMILIES or not any(
                    flowchart.has_channels() for flowchart in flowcharts))):
            self.shared = self.family
        # Per-point chunks under backend="batch" run on the compiled
        # engine the batch lanes call, not on the process-global
        # default, so two callers cannot retarget each other's degraded
        # chunks.  A label-rule family's per-point mechanism (explain,
        # quarantine, the interpreted backend) walks its labels in the
        # interpreter, and its chunks report that tier.
        point_backend = "compiled" if self.backend == "batch" else self.backend
        self.mech_backend = point_backend if backend_requested else None
        self.point_tier = ("interpreted" if self.family in _LABEL_FAMILIES
                           else point_backend)
        self.chaos = chaos.current_plan()
        self._mechanisms: Dict[int, object] = {}

    def __getstate__(self) -> Dict:
        state = dict(self.__dict__)
        state["_mechanisms"] = {}
        state["_layouts"] = {}
        return state

    def chunks(self, chunk_size: Optional[int],
               workers: int) -> List[List[List[Tuple]]]:
        """Each pair's chunk list, shared by a flowchart's pairs; by
        default about four chunks per worker, of 64 points or more."""
        layout: List[List[List[Tuple]]] = []
        for group in self.groups:
            points = list(self.pairs[group[0]][2])
            size = chunk_size or max(64, -(-len(points) // (workers * 4)))
            layout.extend([[points[start:start + size]
                            for start in range(0, len(points), size)]]
                          * len(group))
        return layout

    def mechanism(self, pair_index: int):
        """The pair's mechanism, built on first use in this process."""
        mechanism = self._mechanisms.get(pair_index)
        if mechanism is None:
            flowchart, policy, domain = self.pairs[pair_index]
            mechanism = self._mechanisms[pair_index] = build_mechanism(
                self.factory, flowchart, policy, domain, self.fuel,
                value_cap=self.value_cap, backend=self.mech_backend)
        return mechanism

    def layout(self, pair_index: int, chunk_index: int,
               points: List[Tuple]) -> Tuple[List[Tuple], List[int]]:
        """The class layout of the pair's policy over one chunk of its
        grid (:func:`_class_layout`), built on first use in this process.
        Equal allow-policies share one.  Thread workers share the dict:
        a race builds one layout twice, and the two are equal."""
        _, policy, _ = self.pairs[pair_index]
        grid = self._grid[pair_index]
        key = (grid, chunk_index,
               policy.indices if isinstance(policy, AllowPolicy) else policy)
        layout = self._layouts.get(key)
        if layout is None:
            layout = _class_layout(policy, points)
            if grid in self._kept:
                self._layouts[key] = layout
        return layout

    def name(self, pair_index: int) -> str:
        """The name of the pair's mechanism; a registered family's is
        derived without building the mechanism."""
        if self.family is None:
            return self.mechanism(pair_index).name
        flowchart, policy, _ = self.pairs[pair_index]
        return FACTORY_NAMES[self.family](flowchart, policy)

    def faults(self, pair_index: int, chunk_index: int,
               attempt: int) -> Tuple[bool, float]:
        """Submit-time faults of one task attempt: the chaos plan's crash
        and delay, plus the retry backoff.  The backoff rides the same
        worker-side sleep, so the parent never blocks on it."""
        if self.chaos is None:
            return False, retry_backoff(pair_index, chunk_index, attempt)
        decision = self.chaos.decide(pair_index, chunk_index, attempt)
        return decision.crash, decision.delay + retry_backoff(
            pair_index, chunk_index, attempt, seed=self.chaos.seed)

    def run(self, task, spans: Sequence[Optional[str]], inject: bool,
            delay: float) -> List[ChunkSummary]:
        """One pooled task attempt, after its injected delay or crash:
        one batch decides every policy on the shared path; otherwise each
        pair's mechanism runs point by point under its chunk span."""
        if delay:
            time.sleep(delay)
        pair_indices, chunk_index, points = task
        if inject:
            raise _InjectedWorkerFailure(
                f"injected failure for chunk ({pair_indices[0]}, "
                f"{chunk_index})")
        if self.shared is not None:
            return self._run_shared(pair_indices, chunk_index, points)
        summaries = []
        for pair_index, span in zip(pair_indices, spans):
            summary = evaluate_chunk(self.mechanism(pair_index),
                                     self.pairs[pair_index][1], points,
                                     span=span, plan=self.chaos)
            summary.backend = self.point_tier
            summaries.append(summary)
        return summaries

    def run_inline(self, task,
                   spans: Sequence[Optional[str]]) -> List[ChunkSummary]:
        """A task in the parent (the serial rung, post-retry recovery),
        each pair under quarantine: a deterministic crash is bisected to
        its point(s).  The shared run is tried once for the whole task;
        if it crashes, each pair bisects from that crash."""
        pair_indices, chunk_index, points = task
        crash: Optional[BaseException] = None
        if self.shared is not None:
            try:
                return self._run_shared(pair_indices, chunk_index, points)
            except Exception as error:
                crash = error
        summaries = []
        for pair_index, span in zip(pair_indices, spans):
            mechanism = self.mechanism(pair_index)
            policy = self.pairs[pair_index][1]
            summary = (quarantine_chunk(mechanism, policy, points, pair_index,
                                        chunk_index, span, self.chaos)
                       if crash is None else
                       _quarantine(mechanism, policy, points, pair_index,
                                   chunk_index, span, self.chaos, crash))
            summary.backend = self.point_tier
            summaries.append(summary)
        return summaries

    def _run_shared(self, pair_indices: Sequence[int], chunk_index: int,
                    points: List[Tuple]) -> List[ChunkSummary]:
        layouts = [self.layout(pair_index, chunk_index, points)
                   for pair_index in pair_indices]
        return _evaluate_chunk_batch(
            self.pairs[pair_indices[0]][0], self.shared,
            [self.pairs[pair_index][1] for pair_index in pair_indices],
            points, layouts, self.fuel, self.value_cap, plan=self.chaos)


#: The plan a process-pool worker received when it started.
_WORKER_PLAN: Optional[_Plan] = None


def _start_worker(plan: _Plan) -> None:
    """Process-pool initializer: keep the sweep's plan for every task.

    Fork-started workers inherit the parent's sinks, so their point
    spans link to the chunk span ids each task carries (spawn-started
    workers trace nothing); a span stack inherited mid-fork is dropped.
    """
    global _WORKER_PLAN
    _WORKER_PLAN = plan
    _obs._stack().clear()


def _run_in_worker(task, spans: Sequence[Optional[str]], inject: bool,
                   delay: float) -> List[ChunkSummary]:
    """Process-pool entry: :meth:`_Plan.run` on the worker's plan."""
    return _WORKER_PLAN.run(task, spans, inject, delay)


# ---------------------------------------------------------------------------
# Record: everything kept about finished work, parent-side
# ---------------------------------------------------------------------------

class _Recorder:
    """Everything a sweep keeps about finished work, in the parent.

    Per ``(pair, chunk)``: the summary, its journal record, chunk span
    and counters.  Per pair: the row, the pair span, ``pair_done`` and
    progress.  At :meth:`close`: the ledger, in ``(pair, chunk)`` order.
    Spans stay parent-side, so a process-pool sweep still yields one
    rooted sweep → pair → chunk tree.  ``layout`` is each pair's chunk
    list, or None on the one-chunk path (:meth:`record_whole`).
    """

    def __init__(self, plan: _Plan,
                 layout: Optional[List[List[List[Tuple]]]], mode: str,
                 workers: int, progress, checkpoint: Optional[str],
                 resume: bool, audit: Optional[str]) -> None:
        self.plan = plan
        self.layout = layout
        self.progress = progress
        self.checkpoint = checkpoint
        self.summaries: Dict[Tuple[int, int], ChunkSummary] = {}
        self.results: Dict[int, SweepResult] = {}
        self.pair_spans: Dict[int, _obs.Span] = {}
        self.chunk_spans: Dict[Tuple[int, int], _obs.Span] = {}
        # Resume reads and checks the journal before anything else: a
        # refused resume leaves the ledger, the span stack and the
        # counters untouched.  (A checkpoint implies the chunked layout.)
        if checkpoint is not None:
            descriptor, restored, record_count = self._read_journal(
                checkpoint, resume)
        # Audit ledger: opened fresh so the file is a pure function of
        # this sweep's inputs, appended parent-side only (workers never
        # touch it).  No wall clock in the payloads — timestamps would
        # make the "bit-identical across executors" guarantee a lie.
        self.ledger: Optional[AuditLedger] = None
        self.budget: Optional[str] = None
        if audit is not None:
            self.ledger = AuditLedger(audit, fresh=True)
            self.budget = budget_fingerprint(fuel=plan.fuel,
                                             value_cap=plan.value_cap,
                                             backend=plan.backend)
        # Canonical JSON of class keys and names, each encoded once per
        # sweep, and the record heads, one per distinct notice (None:
        # accept).
        self.texts = EncodedValues()
        self.heads: Dict[Optional[str], RecordHead] = {}
        self.started = time.perf_counter()
        # The sweep span roots the whole trace: every pair/chunk/point
        # span links (transitively) back to it, in whichever process it
        # is reconstructed.  Pushed, so parent-side leaf events attach
        # to it.
        self.span = _obs.span_begin("sweep", push=True, executor=mode,
                                    pairs=len(plan.pairs), points=plan.points)
        if _obs.active:
            _obs.inc("sweep.count")
            _obs.emit("sweep_start", pairs=len(plan.pairs),
                      points=plan.points, executor=mode, workers=workers,
                      factory=plan.label)
        self.journal: Optional[CheckpointWriter] = None
        if layout is None:
            return
        self.remaining = [len(chunks) for chunks in layout]
        self.seconds = [0.0] * len(plan.pairs)
        if checkpoint is None:
            return
        if resume:
            for (pair_index, chunk_index), summary in restored.items():
                self.summaries[(pair_index, chunk_index)] = summary
                self.remaining[pair_index] -= 1
            if _obs.active:
                _obs.inc("sweep.chunks_restored", len(restored))
                _obs.emit("sweep_resumed", chunks_restored=len(restored))
            for pair_index, remaining in enumerate(self.remaining):
                if remaining == 0:
                    self._merge(pair_index, 0.0)
        self.journal = CheckpointWriter(checkpoint, descriptor,
                                        fresh=not resume,
                                        start_seq=record_count)

    def _read_journal(self, path: str,
                      resume: bool) -> Tuple[Dict, Dict, int]:
        """The journal's descriptor and, on resume, its summaries and
        record count, once its fingerprint and chunks are checked."""
        plan = self.plan
        descriptor = {
            "pairs": [[flowchart.name, policy.name, len(domain)]
                      for flowchart, policy, domain in plan.pairs],
            "chunks": [[len(chunk) for chunk in chunks]
                       for chunks in self.layout],
            "factory": plan.label,
            "fuel": plan.fuel,
            "value_cap": plan.value_cap,
        }
        if not resume:
            return descriptor, {}, 0
        _, restored, record_count = load_checkpoint(
            path, config_fingerprint(descriptor))
        for pair_index, chunk_index in restored:
            if (pair_index >= len(plan.pairs)
                    or chunk_index >= len(self.layout[pair_index])):
                raise ReproError(
                    f"checkpoint {path!r} references chunk "
                    f"({pair_index}, {chunk_index}) outside this "
                    "sweep's layout")
        return descriptor, restored, record_count

    def spans(self, task) -> List[Optional[str]]:
        """The chunk span id of each pair of ``task``, opening any not
        yet open (and its pair's span, at the pair's first chunk)."""
        pair_indices, chunk_index, points = task
        ids = []
        for pair_index in pair_indices:
            key = (pair_index, chunk_index)
            handle = self.chunk_spans.get(key)
            if handle is None and _obs.trace_active:
                pair_span = self.pair_spans.get(pair_index)
                if pair_span is None:
                    flowchart, policy, _ = self.plan.pairs[pair_index]
                    pair_span = self.pair_spans[pair_index] = _obs.span_begin(
                        "pair", parent=self.span.id if self.span else None,
                        pair=pair_index, program=flowchart.name,
                        policy=policy.name)
                handle = self.chunk_spans[key] = _obs.span_begin(
                    "chunk", parent=pair_span.id if pair_span else None,
                    pair=pair_index, chunk=chunk_index, points=len(points))
            ids.append(handle.id if handle else None)
        return ids

    def record(self, task, summaries: Sequence[ChunkSummary],
               elapsed: float) -> None:
        """Keep a finished task's summaries, one ``(pair, chunk)`` at a
        time; a pair whose last chunk this was is merged into its row.
        The pairs of a task share its time."""
        pair_indices, chunk_index, points = task
        for pair_index, summary in zip(pair_indices, summaries):
            key = (pair_index, chunk_index)
            if key in self.summaries:  # late duplicate of an abandoned try
                continue
            self.summaries[key] = summary
            if self.journal is not None:
                self.journal.write_chunk(pair_index, chunk_index, summary)
                if _obs.active:
                    _obs.inc("sweep.checkpoints_written")
                    _obs.emit("checkpoint_written", pair=pair_index,
                              chunk=chunk_index, accepts=summary.accepts)
            self.seconds[pair_index] += elapsed
            self._chunk_done(pair_index, chunk_index, len(points),
                             summary.accepts, elapsed)
            self.remaining[pair_index] -= 1
            if self.remaining[pair_index] == 0:
                self._merge(pair_index, self.seconds[pair_index] or
                            (time.perf_counter() - self.started))
        if self.journal is not None:
            # A crash loses at most this task's records; resume
            # recomputes them.
            self.journal.commit()

    def record_whole(self, task, summaries: Sequence[ChunkSummary],
                     elapsed: float) -> None:
        """The one-chunk path: each pair's only summary is its row."""
        pair_indices, _, points = task
        for pair_index, summary in zip(pair_indices, summaries):
            self._chunk_done(pair_index, 0, len(points), summary.accepts,
                             elapsed)
            # Folding a single summary through merge_chunks would
            # rebuild its class dict only to rediscover its own
            # conflict flag.
            self._finish(pair_index, not summary.conflict, summary.accepts,
                         elapsed, {summary.backend: 1})

    def _chunk_done(self, pair_index: int, chunk_index: int, points: int,
                    accepts: int, elapsed: float) -> None:
        """Close a chunk's span and count its points."""
        chunk_span = self.chunk_spans.pop((pair_index, chunk_index), None)
        _obs.span_finish(chunk_span, accepts=accepts)
        # Point accounting happens here, in the parent, so process
        # pool sweeps (whose workers carry their own disabled
        # registries) still report complete sweep.points_* counters.
        if _obs.active:
            _obs.record_chunk_evaluated(points, accepts)
            _obs.inc("sweep.chunks_done")
            fields = {"pair": pair_index, "chunk": chunk_index,
                      "points": points, "accepts": accepts,
                      "elapsed_s": round(elapsed, 6)}
            if chunk_span is not None:
                fields["span"] = chunk_span.id
            _obs.emit("chunk_done", **fields)

    def _merge(self, pair_index: int, seconds: float) -> None:
        """Fold a pair's chunk summaries, in domain order, into its row."""
        ordered = [self.summaries[(pair_index, index)]
                   for index in range(len(self.layout[pair_index]))]
        sound, accepts = merge_chunks(ordered)
        backends = Counter(summary.backend or "unknown" for summary in ordered)
        self._finish(pair_index, sound, accepts, seconds, dict(backends))

    def _finish(self, pair_index: int, sound: bool, accepts: int,
                seconds: float, backends: Dict[str, int]) -> None:
        flowchart, policy, domain = self.plan.pairs[pair_index]
        result = self.results[pair_index] = SweepResult(
            flowchart.name, policy.name, self.plan.name(pair_index), sound,
            accepts, len(domain), backends=backends)
        pair_span = self.pair_spans.pop(pair_index, None)
        if _obs.active:
            _obs.observe("sweep.pair_seconds", seconds)
            fields = {"pair": pair_index, "program": flowchart.name,
                      "policy": policy.name, "sound": sound,
                      "accepts": accepts}
            if pair_span is not None:
                fields["span"] = pair_span.id
            _obs.emit("pair_done", **fields)
        _obs.span_finish(pair_span, sound=sound, accepts=accepts)
        if self.progress is not None:
            self.progress(len(self.results), len(self.plan.pairs), result)

    def _ledger_records(self, pair_index: int, chunk_index: int,
                        summary: ChunkSummary) -> Iterable[RecordLine]:
        """One decision record per policy class of a chunk, in the
        chunk's point order, with the provenance ``repro explain``
        replays (program, policy, class key, chunk coordinates);
        assembled from parts encoded once each."""
        flowchart, policy, _ = self.plan.pairs[pair_index]
        texts = self.texts
        before, after = canonical_object_around(
            {"program": texts[flowchart.name], "policy": texts[policy.name],
             "pair": str(pair_index), "chunk": str(chunk_index)}, "class")
        for policy_value, output in summary.classes.items():
            notice = str(output) if is_violation(output) else None
            head = self.heads.get(notice)
            if head is None:
                head = self.heads[notice] = RecordHead(decision_payload(
                    "accept" if notice is None else "notice",
                    notice=notice, endpoint="sweep", budget=self.budget))
            yield RecordLine(head, before + texts[policy_value] + after)

    def close(self) -> List[SweepResult]:
        """Close the journal, write the ledger, and return the rows."""
        if self.journal is not None:
            self.journal.close()
        if self.ledger is not None:
            # Records in (pair, chunk) order — the checkpoint journal's
            # merge discipline — regardless of the completion order the
            # pool delivered them in.
            self.ledger.append_batch(
                record for key in sorted(self.summaries)
                for record in self._ledger_records(*key,
                                                   self.summaries[key]))
            self.ledger.close()
        results = [self.results[index]
                   for index in range(len(self.plan.pairs))]
        if _obs.active:
            _obs.emit("sweep_end", pairs=len(results),
                      elapsed_s=round(time.perf_counter() - self.started, 6),
                      unsound=sum(1 for r in results if not r.sound))
        _obs.span_finish(self.span)
        return results

    def interrupt(self, reason: str) -> SweepInterruptedError:
        """Close the journal and the ledger of an interrupted sweep;
        returns the error to raise."""
        if self.journal is not None:
            self.journal.close()
        if self.ledger is not None:
            # An interrupted sweep appends nothing: partial ledgers in
            # completion order would differ per executor.  The resumed
            # run re-derives every segment from its merged summaries.
            self.ledger.close()
        if _obs.active:
            _obs.inc("sweep.interrupted")
            _obs.emit("sweep_interrupted", reason=reason,
                      chunks_done=len(self.summaries))
        _obs.span_finish(self.span, interrupted=reason)
        return SweepInterruptedError(
            reason, len(self.summaries),
            sum(len(chunks) for chunks in self.layout),
            self.checkpoint or "")


# ---------------------------------------------------------------------------
# Schedule: run the tasks down the degradation ladder
# ---------------------------------------------------------------------------

def _pick_executor(executor: str, plan: _Plan, workers: int) -> str:
    if executor not in EXECUTORS:
        raise ReproError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}")
    if executor != "auto":
        return executor
    if workers <= 1 or plan.points < _AUTO_SERIAL_THRESHOLD:
        return "serial"
    return "process" if plan.family is not None else "thread"


def _stop_reason(stop: Optional[Callable[[], Optional[str]]],
                 deadline: Optional[float], started: float) -> Optional[str]:
    """The interruption reason, if a stop/deadline has fired."""
    if stop is not None:
        reason = stop()
        if reason:
            return reason if isinstance(reason, str) else "stop"
    if deadline is not None and time.monotonic() - started >= deadline:
        return "deadline"
    return None


def _schedule(plan: _Plan, recorder: _Recorder, mode: str, workers: int,
              chunk_timeout: Optional[float], max_retries: int,
              halt: Callable[[], Optional[str]]) -> None:
    """Run every task not yet recorded, down the ladder from ``mode``;
    a dying pool degrades to the next rung.  ``halt()`` returns the
    stop reason, if any."""
    if recorder.layout is None:
        # One chunk per pair, serially: a flowchart's grid is one task.
        if _obs.active:
            _obs.inc("sweep.chunks_scheduled", len(plan.pairs))
        for group in plan.groups:
            task = (group, 0, list(plan.pairs[group[0]][2]))
            started = time.perf_counter()
            summaries = plan.run_inline(task, recorder.spans(task))
            recorder.record_whole(task, summaries,
                                  time.perf_counter() - started)
        return
    # A task decides one chunk for every pair of its flowchart that a
    # resumed journal does not already hold.
    tasks, done = [], recorder.summaries
    for group in plan.groups:
        for chunk_index, points in enumerate(recorder.layout[group[0]]):
            todo = tuple(pair_index for pair_index in group
                         if (pair_index, chunk_index) not in done)
            if todo:
                tasks.append((todo, chunk_index, points))
    if _obs.active:
        _obs.inc("sweep.chunks_scheduled", sum(len(task[0]) for task in tasks))
    ladder = _MODE_LADDER[mode]
    for rung, current_mode in enumerate(ladder):
        tasks = [task for task in tasks
                 if _task_key(task) not in recorder.summaries]
        if not tasks:
            return
        try:
            if current_mode == "serial":
                for task in tasks:
                    reason = halt()
                    if reason:
                        raise _StopRequested(reason)
                    started = time.monotonic()
                    summaries = plan.run_inline(task, recorder.spans(task))
                    recorder.record(task, summaries,
                                    time.monotonic() - started)
                return
            if current_mode == "thread":
                pool = ThreadPoolExecutor(max_workers=workers)
                runner = plan.run
            else:
                try:
                    pool = ProcessPoolExecutor(
                        max_workers=workers, initializer=_start_worker,
                        initargs=(plan,))
                except OSError as error:
                    raise _PoolBroken(
                        f"cannot spawn process pool: {error!r}") from error
                runner = _run_in_worker
            finished = False
            try:
                finished = _drive_pool(plan, recorder, pool, runner, tasks,
                                       chunk_timeout, max_retries, halt)
            finally:
                # Join a pool whose every attempt has finished; a
                # broken pool, a stop or an abandoned attempt may
                # still hold a worker.
                pool.shutdown(wait=finished, cancel_futures=True)
            return
        except _PoolBroken as broken:
            next_mode = ladder[rung + 1]
            if _obs.active:
                _obs.inc("sweep.pool_degraded")
                _obs.emit("pool_degraded", from_mode=current_mode,
                          to_mode=next_mode, reason=str(broken))


def _drive_pool(plan: _Plan, recorder: _Recorder, pool, runner, tasks,
                chunk_timeout: Optional[float], max_retries: int,
                halt: Callable[[], Optional[str]]) -> bool:
    """Supervise one pool: retries, timeouts, inline recovery, stop.

    ``runner(task, spans, inject, delay)`` runs one attempt.  Returns
    whether every attempt has finished (none abandoned while running).
    Raises :class:`_PoolBroken` when the pool itself can no longer run
    tasks and :class:`_StopRequested` once a stop has drained; per-task
    failures never propagate.
    """
    attempts = dict.fromkeys(map(_task_key, tasks), 0)
    pending: Dict[object, Tuple[Tuple, float]] = {}
    queue = list(tasks)
    abandoned = False
    # A bounded wait keeps stop and deadline responsive without a
    # chunk_timeout.
    poll = 0.25 if chunk_timeout is None else max(
        0.01, min(chunk_timeout / 4.0, 0.25))
    while queue or pending:
        for task in queue:
            key = _task_key(task)
            inject, delay = plan.faults(*key, attempts[key])
            try:
                future = pool.submit(runner, task, recorder.spans(task),
                                     inject, delay)
            except BrokenExecutor as error:
                raise _PoolBroken(f"pool rejected work: {error!r}") from error
            pending[future] = (task, time.monotonic())
        queue = []
        finished, _ = wait(list(pending), timeout=poll,
                           return_when=FIRST_COMPLETED)
        failed = _land(recorder, pending, finished)
        if chunk_timeout is not None:
            now = time.monotonic()
            for future, (task, started) in list(pending.items()):
                if now - started >= chunk_timeout and not future.done():
                    abandoned |= not future.cancel()
                    pending.pop(future)
                    failed.append((task, f"timeout after {chunk_timeout}s"))
        for task, reason in failed:
            key = _task_key(task)
            attempts[key] += 1
            if _obs.active:
                chunk_span = recorder.chunk_spans.get(key)
                fields = {"pair": key[0], "chunk": key[1],
                          "attempt": attempts[key], "reason": reason}
                if chunk_span is not None:
                    fields["span"] = chunk_span.id
                _obs.emit("worker_retry", **fields)
            if attempts[key] <= max_retries:
                if _obs.active:
                    _obs.inc("sweep.chunks_retried")
                queue.append(task)
                continue
            # Bounded retries exhausted — recover in the parent so one
            # poisoned task cannot sink the sweep.
            if _obs.active:
                _obs.inc("sweep.chunks_failed")
            started = time.monotonic()
            summaries = plan.run_inline(task, recorder.spans(task))
            recorder.record(task, summaries, time.monotonic() - started)
        reason = halt()
        if reason:
            # Drain: drop what has not started, let in-flight tasks
            # finish (bounded by chunk_timeout when set) and journal
            # them — an interrupted checkpoint keeps every chunk that
            # completed.  An attempt that fails mid-drain is left for a
            # resumed sweep to re-run.
            for future in list(pending):
                if future.cancel():
                    pending.pop(future)
            if pending:
                drained, _ = wait(list(pending), timeout=chunk_timeout)
                _land(recorder, pending, drained, draining=True)
            raise _StopRequested(reason)
    return not abandoned


def _land(recorder: _Recorder, pending: Dict, finished,
          draining: bool = False) -> List[Tuple[Tuple, str]]:
    """Record the finished attempts' summaries; returns the failed
    attempts' tasks with their reasons.  A dead pool raises
    :class:`_PoolBroken`, except while draining."""
    now = time.monotonic()
    failed = []
    for future in finished:
        task, started = pending.pop(future)
        try:
            summaries = future.result()
        except BrokenExecutor as error:
            if not draining:
                raise _PoolBroken(f"pool broke: {error!r}") from error
        except Exception as error:
            failed.append((task, f"worker failure: {error!r}"))
        else:
            recorder.record(task, summaries, now - started)
    return failed


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
        Points per chunk, and so per task; default splits each
        flowchart's domain into about four chunks per worker (minimum
        64 points) so the pool stays busy without drowning in
        scheduling overhead.  Must be positive when given.
    policies:
        Policy enumeration per arity (default: every allow-policy,
        ``2^k`` of them).
    chunk_timeout:
        Seconds a pooled task may take before it is abandoned and
        retried (None disables — a genuinely hung worker can then
        stall the sweep).
    max_chunk_retries:
        Pool attempts per task beyond the first; a task that fails
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
        ``"compiled"`` and ``"batch"`` evaluate whole chunks of the
        registered families from one policy-free run per point, shared
        by every policy of a flowchart (:func:`_evaluate_chunk_batch`), and
        differ only in the backend the audit budget names;
        ``"interpreted"``, callable factories, provenance-enabled runs,
        and quarantine bisections evaluate per point.  Each
        :class:`~repro.verify.enumerate.SweepResult` reports which
        backends actually ran its chunks via ``result.backends``.
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
    plan = _Plan(flowcharts, mechanism_factory, grid or default_grid,
                 policies or all_allow_policies, fuel,
                 resolve_value_cap(value_cap), backend)
    workers = max_workers or os.cpu_count() or 1
    mode = _pick_executor(executor, plan, workers)
    if mode == "process" and plan.family is None:
        raise ReproError(
            "executor='process' needs a registered factory name "
            f"(one of {sorted(FACTORIES)}); arbitrary callables "
            "do not survive pickling")
    # The one-chunk-per-pair path is only safe when nothing needs the
    # chunked schedule: a checkpoint's meaning *is* its chunk layout,
    # stop/deadline need chunk boundaries to drain at, and an audit
    # ledger's records are keyed by (pair, chunk) — a serial run on the
    # one-chunk path would ledger a different chunk layout than the
    # pooled executors, breaking bit-identical ledgers across modes.
    one_chunk = (mode == "serial" and checkpoint is None and stop is None
                 and deadline is None and audit is None)
    halt = partial(_stop_reason, stop, deadline, time.monotonic())
    recorder = _Recorder(plan, None if one_chunk else
                         plan.chunks(chunk_size, workers), mode, workers,
                         progress, checkpoint, resume, audit)
    try:
        _schedule(plan, recorder, mode, workers, chunk_timeout,
                  max_chunk_retries, halt)
    except _StopRequested as stopped:
        raise recorder.interrupt(stopped.reason) from None
    return recorder.close()
