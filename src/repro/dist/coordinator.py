"""Spawn, monitor, and recover a multi-node enforcement run.

:func:`run_distributed` partitions a flowchart over ``nodes`` OS
processes, injects the initial control token at node 0, and supervises:

- **liveness** — nodes heartbeat; a process found dead before the run
  finished is a crash (chaos kill or bug).  The coordinator emits
  ``node_crashed``, respawns the node at ``incarnation + 1``, and the
  new process replays its checkpoint journal back to the crash point
  (emitting ``node_recovered``) — at-least-once links do the rest.
- **observability** — node processes forward their trace events
  (spans, ``message_sent``/``message_retried``) to the coordinator,
  which emits them into its own attached sinks; node spans parent onto
  the coordinator's ``dist_run`` span, so ``repro trace spans --tree``
  shows one rooted tree across processes.
- **totalization** — a node that hits a declared fault (fuel, value
  cap, empty or corrupted channel) reports the same distinguished
  notice the serial sweep path would (``Λ!fuel[N]``, ``Λ!cap[C]``,
  ``Λ!msg[detail]``), never a silent wrong answer.

:func:`serial_reference` computes the row the single-node semantics
produce for the same point — the comparison the headline invariant
(serial == distributed row-for-row for non-corrupting plans under any
recoverable fault schedule) is stated against.  Both rows come off one
walk, :func:`repro.surveillance.dynamic._walk`, from the same start
state (the initial control token): the reference takes it in one piece
over every box, the nodes hop by hop over their own boxes.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from ..core.errors import ReproError
from ..core.mechanism import ViolationNotice
from ..flowchart.interpreter import DEFAULT_FUEL
from ..flowchart.program import Flowchart
from ..obs import runtime as _obs
from ..robustness.faults import (DECLARED_FAULTS, default_value_cap,
                                 fault_notice, resolve_value_cap)
from ..surveillance.dynamic import GUARD, _decide, _Queues, _start, _walk
from ..surveillance.labels import from_mask, to_mask
from ..verify.chaos import FaultPlan
from .envelope import control_envelope
from .node import NodeSpec, node_main, pack_token
from .partition import Partition, build_partition

#: A node is respawned at most this many times before the run aborts —
#: a backstop against a deterministic bug crash-looping forever.
MAX_INCARNATIONS = 8


class DistResult:
    """One distributed run: the row plus the supervision ledger.

    ``state`` is the walk's machine state where the run ended (label
    masks; see :data:`~repro.surveillance.dynamic.STATE_FIELDS`), or
    None when a corrupted envelope ended it.
    """

    __slots__ = ("outcome", "state", "halted_early", "nodes", "crashes",
                 "recoveries", "messages_sent", "messages_retried",
                 "elapsed_s")

    def __init__(self, outcome, state, halted_early, nodes, crashes,
                 recoveries, messages_sent, messages_retried,
                 elapsed_s) -> None:
        self.outcome = outcome
        self.state = state
        self.halted_early = halted_early
        self.nodes = nodes
        self.crashes = crashes
        self.recoveries = recoveries
        self.messages_sent = messages_sent
        self.messages_retried = messages_retried
        self.elapsed_s = elapsed_s

    @property
    def steps(self) -> Optional[int]:
        """The steps taken (the state's last field)."""
        return self.state[-1] if self.state is not None else None

    @property
    def violated(self) -> bool:
        return isinstance(self.outcome, ViolationNotice)

    def row(self) -> Dict:
        """The comparison row: outcome, steps, final store, labels."""
        return _row(self.outcome, self.state)

    def __repr__(self) -> str:
        return (f"DistResult(outcome={self.outcome!r}, steps={self.steps}, "
                f"nodes={self.nodes}, crashes={self.crashes})")


def _row(outcome, state: Optional[List]) -> Dict:
    """The row of a run that ended with ``outcome`` in walk state ``state``."""
    row = {"outcome": str(outcome), "steps": None, "env": None,
           "labels": None, "pc": None, "epoch": None}
    # Totalized fault rows (Λ!…) normalise their machine state away:
    # the serial walk raised, so the notice text is the whole observable
    # and both sides must agree on exactly that.
    if not row["outcome"].startswith("Λ!"):
        _, env, labels, pc, _, row["epoch"], row["steps"] = state
        if not isinstance(outcome, ViolationNotice):
            row["env"] = dict(env)
        row["labels"] = {name: sorted(from_mask(mask))
                         for name, mask in labels.items()}
        row["pc"] = sorted(from_mask(pc))
    return row


def serial_reference(flowchart: Flowchart, inputs: Sequence[int], allowed,
                     timed: bool = False, forgetting: bool = True,
                     fuel: int = DEFAULT_FUEL,
                     value_cap: Optional[int] = None) -> Dict:
    """The single-node row a distributed run must reproduce exactly:
    one walk over every box, recorded as ``surveil`` records it."""
    cap = (default_value_cap() if value_cap is None
           else resolve_value_cap(value_cap))
    state = _start(flowchart, inputs, to_mask(allowed))
    try:
        early = _walk(flowchart, inputs, state, flowchart.boxes, _Queues(),
                      timed, forgetting, fuel, cap, True, None, None) is GUARD
    except DECLARED_FAULTS as error:
        return _row(fault_notice(error), None)
    return _row(_decide(flowchart, state, early, timed, True), state)


def run_distributed(flowchart: Flowchart, inputs: Sequence[int], allowed,
                    nodes: int = 2, plan: Optional[FaultPlan] = None,
                    timed: bool = False, forgetting: bool = True,
                    fuel: int = DEFAULT_FUEL,
                    value_cap: Optional[int] = None,
                    timeout: float = 60.0,
                    workdir: Optional[str] = None) -> DistResult:
    """Run ``flowchart`` under surveillance across ``nodes`` processes."""
    # The initial control token is the walk's start state.
    token = pack_token(_start(flowchart, inputs, to_mask(allowed)), {})
    cap = (default_value_cap() if value_cap is None
           else resolve_value_cap(value_cap))
    partition = build_partition(flowchart, nodes)
    owns_workdir = workdir is None
    if owns_workdir:
        workdir = tempfile.mkdtemp(prefix="repro-dist-")
    try:
        return _supervise(flowchart, inputs, token, nodes, partition, plan,
                          timed, forgetting, fuel, cap, timeout, workdir)
    finally:
        if owns_workdir:
            shutil.rmtree(workdir, ignore_errors=True)


def _spawn(context, spec: NodeSpec):
    process = context.Process(target=node_main, args=(spec,), daemon=True)
    process.start()
    return process


def _supervise(flowchart, inputs, token, nodes, partition: Partition,
               plan, timed, forgetting, fuel, cap, timeout,
               workdir) -> DistResult:
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context()
    queues = [context.Queue() for _ in range(nodes)]
    coord_queue = context.Queue()
    trace = _obs.trace_active
    root = _obs.span_begin("dist_run", program=flowchart.name, nodes=nodes)
    root_span = root.id if root is not None else None

    def spec_for(node: int, incarnation: int) -> NodeSpec:
        return NodeSpec(
            node=node, flowchart=flowchart, inputs=inputs,
            partition=partition, plan=plan, fuel=fuel, cap=cap,
            timed=timed, forgetting=forgetting,
            journal_path=os.path.join(workdir, f"node{node}.jsonl"),
            incarnation=incarnation, queues=queues,
            coord_queue=coord_queue, root_span=root_span, trace=trace)

    started = time.monotonic()
    incarnations = [0] * nodes
    spawned = [started] * nodes
    processes = [_spawn(context, spec_for(node, 0))
                 for node in range(nodes)]
    stats = {node: {"sent": 0, "retried": 0} for node in range(nodes)}
    crashes = 0
    recoveries = 0
    terminal: Optional[Dict] = None

    # Inject the token where the first box lives (reliably: the chaos
    # plan governs inter-node links, not the coordinator's ignition).
    entry = partition.node_of(token["current"])
    queues[entry].put(control_envelope(0, token, src=-1, dst=entry))

    try:
        while terminal is None:
            if time.monotonic() - started > timeout:
                raise ReproError(
                    f"distributed run of {flowchart.name} did not finish "
                    f"within {timeout}s (unrecoverable fault schedule?)")
            try:
                message = coord_queue.get(timeout=0.05)
            except queue_module.Empty:
                message = None
            if message is not None:
                kind = message.get("kind")
                if kind == "heartbeat":
                    stats[message["node"]] = {
                        "sent": message.get("sent", 0),
                        "retried": message.get("retried", 0)}
                elif kind == "event":
                    event = message["event"]
                    _obs.emit(event.pop("kind"), **event)
                elif kind == "result":
                    terminal = message
                continue
            # No traffic: check liveness and recover dead nodes.
            for node in range(nodes):
                process = processes[node]
                if process.is_alive():
                    continue
                crashes += 1
                _obs.emit("node_crashed", node=node,
                          exitcode=process.exitcode)
                # The dead incarnation can never close its own span;
                # its id is deterministic (pid + node + incarnation), so
                # the coordinator closes it — the cross-process tree
                # stays well formed even through crashes.
                _obs.emit("span_end",
                          span=f"{process.pid}-node{node}"
                               f"i{incarnations[node]}",
                          op="node",
                          elapsed_s=round(
                              time.monotonic() - spawned[node], 6),
                          crashed=True)
                incarnations[node] += 1
                recoveries += 1
                if incarnations[node] > MAX_INCARNATIONS:
                    raise ReproError(
                        f"node {node} of {flowchart.name} crashed more "
                        f"than {MAX_INCARNATIONS} times; giving up")
                spawned[node] = time.monotonic()
                processes[node] = _spawn(
                    context, spec_for(node, incarnations[node]))
    finally:
        for q in queues:
            q.put({"kind": "shutdown"})
        deadline = time.monotonic() + 2.0
        for process in processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - teardown backstop
                process.terminate()
        # Drain forwarded events (surviving nodes' span_ends, final
        # heartbeats) that raced the shutdown broadcast.
        while True:
            try:
                message = coord_queue.get(timeout=0.05)
            except queue_module.Empty:
                break
            if message.get("kind") == "event":
                event = message["event"]
                _obs.emit(event.pop("kind"), **event)
            elif message.get("kind") == "heartbeat":
                stats[message["node"]] = {
                    "sent": message.get("sent", 0),
                    "retried": message.get("retried", 0)}
        _obs.span_finish(root, crashes=crashes)
        for q in queues + [coord_queue]:
            q.cancel_join_thread()
            q.close()

    elapsed = round(time.monotonic() - started, 6)
    return DistResult(
        terminal["outcome"], terminal["state"], terminal["early"], nodes,
        crashes, recoveries, sum(entry["sent"] for entry in stats.values()),
        sum(entry["retried"] for entry in stats.values()), elapsed)
