"""Coalesce concurrent /execute requests into batch-tier grids.

Requests that target the same ``(flowchart, fuel, value_cap)`` while
they wait together become lanes of a single
:func:`~repro.flowchart.batchpath.execute_batch` call: one worker
hand-off, one compile-cache lookup and one loop of compiled-tier calls
for the whole set, instead of one executor round trip per request.

Coalescing is self-clocked, the way group commit batches fsyncs: a
request waits only for something there is to wait for.  When no batch
for its key is executing, the key's pending batch flushes on the next
loop turn, so requests that arrive in the same turn still share it.
While one is executing, arrivals accumulate and flush when it
delivers.  ``window_s`` only bounds any wait: a pending batch whose
predecessor has not delivered by then flushes anyway.  Each ``batch``
span records what flushed it (``flushed_by``: ``idle``,
``delivery``, ``window`` or ``max_lanes``) and how long its first
request waited for that (``waited_ms``).

Fidelity: lane ``i``'s decoded outcome is bit-identical to a scalar
``run_flowchart`` of the same point under the same budgets (the batch
differential suite pins this), including the distinguished
``Λ!fuel[N]``/``Λ!cap[C]`` notices, and a batch counts its lanes'
fuel and cap faults in the metrics as the scalar path counts each
request's.  If a whole batch fails for any undeclared reason, every
lane is retried individually so one poisoned request cannot fail its
neighbours.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

from ..flowchart.batchpath import K_CAP, K_FUEL, execute_batch
from ..flowchart.program import Flowchart
from ..obs import runtime as _obs
from ..robustness.faults import cap_notice, fuel_notice

__all__ = ["ExecuteBatcher", "execute_point_outcome"]


def execute_point_outcome(flowchart: Flowchart, point: Tuple[int, ...],
                          fuel: int, value_cap: Optional[int],
                          backend: str) -> Dict:
    """One scalar execution, declared faults totalized into notices.

    The non-coalesced path (explicit ``backend`` other than batch) and
    the batcher's per-lane fallback both land here, so every /execute
    response is produced by the same decoding.
    """
    from ..core.errors import FuelExhaustedError, ValueCapExceededError
    from ..flowchart.fastpath import run_flowchart

    try:
        result = run_flowchart(flowchart, point, fuel=fuel,
                               backend=backend, value_cap=value_cap)
    except FuelExhaustedError:
        return {"value": None, "steps": None,
                "notice": str(fuel_notice(fuel))}
    except ValueCapExceededError as error:
        return {"value": None, "steps": None,
                "notice": str(cap_notice(error.cap))}
    return {"value": result.value, "steps": result.steps, "notice": None}


def _count_faults(program: str, rows) -> None:
    """A batch's lane faults, one hook call per kind: the counts a
    scalar run of each lane would have recorded."""
    fuel_lanes = rows.kinds.count(K_FUEL)
    if fuel_lanes:
        _obs.record_fuel_exhausted(program, rows.fuel, count=fuel_lanes)
    cap_lanes = rows.kinds.count(K_CAP)
    if cap_lanes:
        _obs.record_value_cap_exceeded(program, rows.cap, count=cap_lanes)


class _PendingBatch:
    __slots__ = ("key", "flowchart", "fuel", "value_cap", "points",
                 "futures", "request_spans", "opened", "timer",
                 "flushed_by", "waited_ms")

    def __init__(self, key: Tuple, flowchart: Flowchart, fuel: int,
                 value_cap: Optional[int], opened: float) -> None:
        self.key = key
        self.flowchart = flowchart
        self.fuel = fuel
        self.value_cap = value_cap
        self.points: List[Tuple[int, ...]] = []
        self.futures: List[asyncio.Future] = []
        self.request_spans: List[str] = []
        self.opened = opened
        #: The armed flush (next-turn or window); cancelled on flush.
        self.timer: Optional[asyncio.Handle] = None
        self.flushed_by: Optional[str] = None
        self.waited_ms: Optional[float] = None


class ExecuteBatcher:
    """The per-server coalescer.  All methods run on the event loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop, executor,
                 window_s: float = 0.002, max_lanes: int = 512,
                 root_span: Optional[str] = None) -> None:
        self._loop = loop
        self._executor = executor
        self.window_s = window_s
        self.max_lanes = max_lanes
        self.root_span = root_span
        self._pending: Dict[Tuple, _PendingBatch] = {}
        #: key -> batches of that key flushed but not yet delivered.
        self._executing: Dict[Tuple, int] = {}
        self.batches_flushed = 0
        self.lanes_executed = 0

    async def submit(self, key: Tuple, flowchart: Flowchart,
                     point: Tuple[int, ...], fuel: int,
                     value_cap: Optional[int],
                     request_span: Optional[str] = None) -> Dict:
        """Queue one point; resolves with its decoded outcome dict."""
        batch = self._pending.get(key)
        if batch is None:
            batch = _PendingBatch(key, flowchart, fuel, value_cap,
                                  self._loop.time())
            self._pending[key] = batch
            if key in self._executing:
                batch.timer = self._loop.call_later(
                    self.window_s, self._flush, key, "window")
            else:
                batch.timer = self._loop.call_soon(self._flush, key, "idle")
        future: asyncio.Future = self._loop.create_future()
        batch.points.append(point)
        batch.futures.append(future)
        if request_span is not None:
            batch.request_spans.append(request_span)
        if len(batch.points) >= self.max_lanes:
            self._flush(key, "max_lanes")
        return await future

    def _flush(self, key: Tuple, reason: str) -> None:
        batch = self._pending.pop(key, None)
        if batch is None:  # a delivery with no arrivals behind it
            return
        batch.timer.cancel()
        batch.flushed_by = reason
        waited = self._loop.time() - batch.opened
        batch.waited_ms = round(1000.0 * waited, 3)
        self.batches_flushed += 1
        self.lanes_executed += len(batch.points)
        task = self._loop.run_in_executor(self._executor,
                                          self._run_batch, batch)
        self._executing[key] = self._executing.get(key, 0) + 1
        task.add_done_callback(
            lambda done, batch=batch: self._deliver(batch, done))

    def _run_batch(self, batch: _PendingBatch) -> List[Dict]:
        """Worker-thread body: one grid execution, decoded per lane."""
        span = _obs.span_begin(
            "batch", parent=self.root_span,
            program=batch.flowchart.name, lanes=len(batch.points),
            requests=list(batch.request_spans),
            flushed_by=batch.flushed_by, waited_ms=batch.waited_ms)
        try:
            rows = execute_batch(batch.flowchart, batch.points,
                                 fuel=batch.fuel, value_cap=batch.value_cap)
            if _obs.active:
                _count_faults(batch.flowchart.name, rows)
            fuel_out = str(fuel_notice(batch.fuel))
            cap_out = (str(cap_notice(rows.cap))
                       if rows.cap is not None else None)
            outcomes: List[Dict] = []
            for i in range(len(batch.points)):
                kind = rows.kind(i)
                if kind == K_FUEL:
                    outcomes.append({"value": None, "steps": None,
                                     "notice": fuel_out})
                elif kind == K_CAP:
                    outcomes.append({"value": None, "steps": None,
                                     "notice": cap_out})
                else:
                    outcomes.append({"value": rows.value(i),
                                     "steps": rows.steps(i),
                                     "notice": None})
            return outcomes
        except Exception:
            # Whole-batch failure: isolate lanes so one bad request
            # cannot take down its coalesced neighbours.  Each lane
            # re-runs on the compiled tier, the batch's own lane engine.
            outcomes = []
            for point in batch.points:
                try:
                    outcomes.append(execute_point_outcome(
                        batch.flowchart, point, batch.fuel,
                        batch.value_cap, "compiled"))
                except Exception as error:  # undeclared fault
                    outcomes.append({"__error__": error})
            return outcomes
        finally:
            _obs.span_finish(span)

    def _deliver(self, batch: _PendingBatch, done) -> None:
        key = batch.key
        self._executing[key] -= 1
        if not self._executing[key]:
            del self._executing[key]
        error = done.exception()
        for index, future in enumerate(batch.futures):
            if future.cancelled():
                continue
            if error is not None:
                future.set_exception(error)
            else:
                outcome = done.result()[index]
                lane_error = (outcome.get("__error__")
                              if isinstance(outcome, dict) else None)
                if lane_error is not None:
                    future.set_exception(lane_error)
                else:
                    future.set_result(outcome)
        # The arrivals that waited on this batch go next.
        self._flush(key, "delivery")
