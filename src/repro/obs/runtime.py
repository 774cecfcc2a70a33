"""The observability runtime: one flag, one registry, attached sinks.

Instrumented modules import this module once and guard every hook with
the module-global :data:`active` flag::

    from ..obs import runtime as _obs
    ...
    if _obs.active:
        _obs.record_run("compiled", flowchart.name, steps)

When observability is off (the default) that guard is the *entire*
cost: a module-attribute load and a truth test per run — measured at
well under the 3% budget on the micro sweep kernel (see the
``telemetry`` section of ``scripts/bench_report.py``).

:func:`enable` turns on metric collection and (optionally) attaches
trace sinks; :func:`disable` restores the no-op state.  The
:func:`observed` context manager brackets the two for harness code.
Box-level ``box_step`` events are *sampled*: ``box_sample=N`` emits
one event every N interpreted boxes (0 disables box events entirely).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
from typing import Dict, Iterable, List, Optional

from .events import EVENT_KINDS
from .metrics import STEP_BUCKETS, MetricsRegistry

#: The process-wide registry every hook records into.
registry = MetricsRegistry()

#: Fast no-op guard — True iff metrics and/or tracing are enabled.
active: bool = False

#: True iff at least one trace sink is attached.
trace_active: bool = False

#: True iff mechanisms should attach provenance to violations: when a
#: surveilled/instrumented run or a lint pass rejects, an
#: ``explanation`` event carrying the input-index influence chain is
#: emitted (see :mod:`repro.obs.provenance`).  Needs ``trace_active``.
explain_active: bool = False

#: Emit a ``box_step`` event every N interpreted boxes (0 = never).
box_sample: int = 0

_sinks: List = []
_lock = threading.Lock()
_seq = itertools.count()
_t0 = time.monotonic()


def enable(metrics: bool = True, sinks: Iterable = (),
           box_sample_every: int = 0, reset: bool = False,
           explain: bool = False) -> None:
    """Turn the runtime on.

    ``metrics`` enables registry collection; ``sinks`` attaches trace
    sinks (objects with ``write(dict)``/``flush()``); ``reset`` clears
    the registry first so the coming run reports only itself;
    ``explain`` makes violations carry provenance (``explanation``
    events — only meaningful with at least one sink attached).
    """
    global active, trace_active, box_sample, explain_active, _t0
    with _lock:
        if reset:
            registry.reset()
        for sink in sinks:
            _sinks.append(sink)
        trace_active = bool(_sinks)
        box_sample = max(0, int(box_sample_every))
        explain_active = bool(explain) and trace_active
        _t0 = time.monotonic()
        active = bool(metrics) or trace_active


def disable() -> None:
    """Return to the no-op state, flushing (not closing) any sinks."""
    global active, trace_active, box_sample, explain_active
    with _lock:
        for sink in _sinks:
            try:
                sink.flush()
            except Exception:  # pragma: no cover - sink teardown best effort
                pass
        _sinks.clear()
        trace_active = False
        explain_active = False
        box_sample = 0
        active = False


@contextlib.contextmanager
def observed(metrics: bool = True, sinks: Iterable = (),
             box_sample_every: int = 0, reset: bool = False,
             explain: bool = False):
    """Context manager: ``enable(...)`` on entry, ``disable()`` on exit."""
    enable(metrics=metrics, sinks=sinks, box_sample_every=box_sample_every,
           reset=reset, explain=explain)
    try:
        yield registry
    finally:
        disable()


def snapshot() -> Dict:
    """The registry snapshot (shorthand for ``registry.snapshot()``)."""
    return registry.snapshot()


def emit(kind: str, **fields) -> None:
    """Send one typed event to every attached sink (no-op untraced).

    Leaf events emitted while a span is open on this thread are
    automatically attributed to it via a ``span`` field, so trace
    analytics can tie a ``violation``/``run_end`` back to the point
    span it happened inside.
    """
    if not trace_active:
        return
    if kind not in EVENT_KINDS:  # pragma: no cover - caller bug guard
        raise ValueError(f"unknown event kind {kind!r}")
    event = {"kind": kind, "seq": next(_seq),
             "t": round(time.monotonic() - _t0, 6)}
    event.update(fields)
    if "span" not in event and kind not in ("span_start", "span_end"):
        enclosing = current_span()
        if enclosing is not None:
            event["span"] = enclosing
    with _lock:
        for sink in _sinks:
            sink.write(event)


# ---------------------------------------------------------------------------
# Hierarchical spans (sweep -> pair -> chunk -> point; lint -> pass)
# ---------------------------------------------------------------------------

#: Span ids carry the pid so trees reassemble across process-pool
#: workers: every id a reader sees is globally unique, and a parent
#: link emitted in the supervising parent stays valid no matter which
#: process wrote the surrounding events.
_span_counter = itertools.count(1)
_span_stack = threading.local()


class Span:
    """A live span handle: its id, operation, and start time."""

    __slots__ = ("id", "op", "started", "_pushed")

    def __init__(self, span_id: str, op: str, started: float,
                 pushed: bool) -> None:
        self.id = span_id
        self.op = op
        self.started = started
        self._pushed = pushed

    def __repr__(self) -> str:
        return f"Span({self.op}, id={self.id})"


def _stack() -> List[str]:
    stack = getattr(_span_stack, "ids", None)
    if stack is None:
        stack = []
        _span_stack.ids = stack
    return stack


def current_span() -> Optional[str]:
    """The innermost open span id on this thread (None outside spans)."""
    stack = _stack()
    return stack[-1] if stack else None


def span_begin(op: str, parent: Optional[str] = None, push: bool = False,
               **fields) -> Optional[Span]:
    """Open a span; emits ``span_start`` and returns a handle.

    ``parent`` links the tree explicitly (falling back to this thread's
    innermost open span); ``push`` additionally makes the new span the
    thread's current one until :func:`span_finish` — use it for spans
    that strictly nest on one thread (points, passes), not for spans
    supervised across callbacks (chunks in a pool).

    Returns None when tracing is off — every span function accepts
    that None, so callers never need their own guard.
    """
    if not trace_active:
        return None
    span_id = f"{os.getpid()}-{next(_span_counter)}"
    if parent is None:
        parent = current_span()
    handle = Span(span_id, op, time.monotonic(), push)
    start_fields = {"span": span_id, "op": op}
    if parent is not None:
        start_fields["parent"] = parent
    start_fields.update(fields)
    emit("span_start", **start_fields)
    if push:
        _stack().append(span_id)
    return handle


def span_finish(handle: Optional[Span], **fields) -> None:
    """Close a span opened by :func:`span_begin` (None is a no-op)."""
    if handle is None:
        return
    if handle._pushed:
        stack = _stack()
        if stack and stack[-1] == handle.id:
            stack.pop()
    if not trace_active:
        return
    emit("span_end", span=handle.id, op=handle.op,
         elapsed_s=round(time.monotonic() - handle.started, 6), **fields)


@contextlib.contextmanager
def span(op: str, parent: Optional[str] = None, **fields):
    """Context manager: a pushed span around a block; yields the handle."""
    handle = span_begin(op, parent=parent, push=True, **fields)
    try:
        yield handle
    finally:
        span_finish(handle)


def inc(name: str, amount: int = 1) -> None:
    registry.counter(name).inc(amount)


def observe(name: str, value: float, bounds=None) -> None:
    registry.histogram(name, bounds).observe(value)


# ---------------------------------------------------------------------------
# Hooks for the instrumented hot layers (call only behind ``if active``)
# ---------------------------------------------------------------------------

def record_run(backend: str, program: str, steps: int) -> None:
    """One flowchart execution completed on ``backend``."""
    registry.counter(f"run.count.{backend}").inc()
    registry.counter("run.steps_total").inc(steps)
    registry.histogram("run.steps", STEP_BUCKETS).observe(steps)
    if trace_active:
        emit("run_end", program=program, backend=backend, steps=steps)


def record_fuel_exhausted(program: str, fuel: int, count: int = 1) -> None:
    """``count`` runs of ``program`` exhausted ``fuel``."""
    registry.counter("run.fuel_exhausted").inc(count)
    if trace_active:
        for _ in range(count):
            emit("fuel_exhausted", program=program, fuel=fuel)


def record_value_cap_exceeded(program: str, cap: int,
                              count: int = 1) -> None:
    """``count`` runs of ``program`` assigned a value wider than ``cap``."""
    registry.counter("run.value_cap_exceeded").inc(count)
    if trace_active:
        for _ in range(count):
            emit("value_cap_exceeded", program=program, cap=cap)


def record_violation(program: str, source: str, count: int = 1,
                     **fields) -> None:
    """``count`` violations raised by ``source``: the counters move once,
    and a trace still gets one ``violation`` event per decision."""
    registry.counter("violations.raised").inc(count)
    registry.counter(f"violations.{source}").inc(count)
    if trace_active:
        for _ in range(count):
            emit("violation", program=program, source=source, **fields)


def record_surveil_run(program: str, steps: int, violated: bool,
                       timed: bool, halted_early: bool) -> None:
    registry.counter("surveillance.runs").inc()
    registry.counter("surveillance.steps_total").inc(steps)
    if violated:
        record_violation(program, "surveillance", steps=steps,
                         timed=timed, early=halted_early)


def record_instrument_memo(hit: bool) -> None:
    name = "memo.instrument.hits" if hit else "memo.instrument.misses"
    registry.counter(name).inc()


def record_chunk_evaluated(points: int, accepts: int) -> None:
    registry.counter("sweep.points_evaluated").inc(points)
    registry.counter("sweep.points_accepted").inc(accepts)
