"""One node of a distributed enforcement run.

A node owns a partition slice of the flowchart, the mailboxes of the
channels homed on it, and — intermittently — the **control token**: the
surveillance walk's machine state (current box, store, label masks, C̄,
policy in force, epoch, step count) plus the per-channel send
ordinals, packed into a checksummed control envelope.  Exactly one
token exists, so at most one node is executing boxes at any moment and
the distributed run *is* the serial run, spread across processes:
row-for-row identical final store, notices (including ``Λ@e{n}`` epoch
tags) and step counts, which is the headline invariant the test suite
checks under chaos.

A node steps the token with :func:`repro.surveillance.dynamic._walk`,
the walk ``surveil`` takes, over its own boxes, with itself as the
walk's channels.  Its only distributed parts are the walk's two
exits and its channel calls:

- reaching a box homed elsewhere, the walk stops and the node ships
  the token to that box's node;
- ``send ch(v)``: the labelled value goes to ``ch``'s home node inside
  a data envelope (or straight into the local mailbox when the home is
  this node); the token's per-channel send ordinal becomes the
  envelope's dedup seq;
- ``recv ch(v)``: consumed strictly in seq order from the home
  mailbox.  If the token's send ordinal says a message exists but it
  has not arrived (dropped, delayed, in retransmit), the walk **parks**
  — the node keeps the token and retries as traffic lands.  If no send
  ever happened, the serial queue would be empty too: the run
  totalizes as ``Λ!msg[empty:ch]``.

Durability: every accepted (post-dedup) envelope is journalled through
:class:`repro.verify.checkpoint.JournalWriter`, whose ``write`` commits
(flush and fsync) before it returns, so the record is durable *before*
the envelope is processed or acked; a respawn truncates a torn tail
before appending.  Crash recovery replays the journal through the normal
handler — re-sends and all; receivers dedup and re-ack — so a respawned
incarnation deterministically reconstructs mailboxes, dedup state, and
any in-flight token.  Chaos kills (``FaultPlan.decide_kill``) fire only
on incarnation 0, so every scheduled crash is followed by a recovery
that runs the schedule off.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
from typing import Dict, List, Optional

from ..robustness.faults import DECLARED_FAULTS, fault_notice, message_notice
from ..surveillance.dynamic import (GUARD, MIGRATE, PARK, STATE_FIELDS,
                                    _decide, _walk)
from ..verify.checkpoint import JournalWriter, load_journal
from .envelope import control_envelope, data_envelope, verify_checksum
from .transport import Transport

#: Exit code of a chaos-scheduled node kill (distinguishes an injected
#: crash from a bug in the node loop when the coordinator looks).
KILLED_EXIT = 23

#: How often an idle node proves liveness to the coordinator.
HEARTBEAT_S = 0.1


class NodeSpec:
    """Everything a node process needs, bundled for the spawn call."""

    __slots__ = ("node", "flowchart", "inputs", "partition", "plan", "fuel",
                 "cap", "timed", "forgetting", "journal_path", "incarnation",
                 "queues", "coord_queue", "root_span", "trace")

    def __init__(self, node, flowchart, inputs, partition, plan, fuel, cap,
                 timed, forgetting, journal_path, incarnation, queues,
                 coord_queue, root_span, trace) -> None:
        self.node = node
        self.flowchart = flowchart
        self.inputs = inputs
        self.partition = partition
        self.plan = plan
        self.fuel = fuel
        self.cap = cap
        self.timed = timed
        self.forgetting = forgetting
        self.journal_path = journal_path
        self.incarnation = incarnation
        self.queues = queues
        self.coord_queue = coord_queue
        self.root_span = root_span
        self.trace = trace


def pack_token(state: List, sent: Dict[str, int]) -> Dict:
    """The JSON-safe wire form of the control token: the walk's state by
    field name, and the per-channel send ordinals."""
    return dict(zip(STATE_FIELDS, state), sent=sent)


def unpack_token(wire: Dict):
    """Invert :func:`pack_token`: ``(state, sent)``."""
    return [wire[field] for field in STATE_FIELDS], wire["sent"]


class NodeRuntime:
    """The event loop of one node process."""

    def __init__(self, spec: NodeSpec) -> None:
        self.spec = spec
        self.flowchart = spec.flowchart
        self.partition = spec.partition
        self.node = spec.node
        #: the boxes this node executes; the walk stops at any other
        self.boxes = {box_id: spec.flowchart.boxes[box_id]
                      for box_id in spec.partition.boxes_on(spec.node)}
        self.inbox = spec.queues[spec.node]
        self.coord = spec.coord_queue
        self.transport = Transport(spec.node, spec.queues, spec.plan,
                                   self._emit)
        #: channel -> {seq: (value, label)} — messages awaiting consumption
        self.mailboxes: Dict[str, Dict[int, tuple]] = {}
        #: channel -> next seq to consume (== count already consumed)
        self.consumed: Dict[str, int] = {}
        self.last_hop = -1
        #: the held token's walk state and per-channel send ordinals
        self.token: Optional[List] = None
        self.sent: Dict[str, int] = {}
        self.accepted = 0
        self._stop = False
        self._journal: Optional[JournalWriter] = None
        self._span = f"{os.getpid()}-node{spec.node}i{spec.incarnation}"

    # -- event forwarding -------------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        if self.spec.trace:
            self.coord.put({"kind": "event",
                            "event": dict(fields, kind=kind)})

    # -- the loop ---------------------------------------------------------

    def run(self) -> None:
        replayed = self._recover()
        self._journal = JournalWriter(self.spec.journal_path,
                                      fresh=self.spec.incarnation == 0,
                                      start_seq=replayed)
        self._emit("span_start", span=self._span, op="node",
                   parent=self.spec.root_span, node=self.node,
                   incarnation=self.spec.incarnation)
        started = time.monotonic()
        if self.spec.incarnation > 0:
            self._emit("node_recovered", node=self.node,
                       incarnation=self.spec.incarnation)
        last_beat = 0.0
        while not self._stop:
            now = time.monotonic()
            if now - last_beat >= HEARTBEAT_S:
                last_beat = now
                self.coord.put({"kind": "heartbeat", "node": self.node,
                                "incarnation": self.spec.incarnation,
                                "sent": self.transport.sent,
                                "retried": self.transport.retried})
            self.transport.pump()
            try:
                message = self.inbox.get(timeout=0.02)
            except queue_module.Empty:
                message = None
            if message is not None:
                self._handle(message)
            if self.token is not None and not self._stop:
                self._drive_token()
        # Final stats beat: the coordinator drains this after shutdown,
        # so message counters reflect the whole run, not the last beat.
        self.coord.put({"kind": "heartbeat", "node": self.node,
                        "incarnation": self.spec.incarnation,
                        "sent": self.transport.sent,
                        "retried": self.transport.retried})
        self._emit("span_end", span=self._span, op="node",
                   elapsed_s=round(time.monotonic() - started, 6))
        self._journal.close()

    def _handle(self, message: Dict) -> None:
        kind = message.get("kind")
        if kind == "shutdown":
            self._stop = True
        elif kind == "ack":
            self.transport.on_ack(message["channel"], message["seq"],
                                  message["src"])
        elif kind in ("data", "control"):
            self._receive(message)

    # -- inbound envelopes ------------------------------------------------

    def _receive(self, envelope: Dict) -> None:
        if not verify_checksum(envelope):
            # A damaged envelope is detected, totalized, and terminal —
            # never decoded into a silent wrong answer.
            detail = f"corrupt:{envelope['channel']}#{envelope['seq']}"
            self._report(message_notice(detail), None, False)
            return
        if self._duplicate(envelope):
            self.transport.ack(envelope)
            return
        # Journal first: an accepted envelope must survive a crash that
        # lands anywhere after this line, including the chaos kill below.
        self._journal.write({"kind": "node_accept", "envelope": envelope})
        self.accepted += 1
        plan = self.spec.plan
        if (plan is not None and self.spec.incarnation == 0
                and plan.decide_kill(self.node, self.accepted)):
            os._exit(KILLED_EXIT)
        self._accept(envelope)
        self.transport.ack(envelope)

    def _duplicate(self, envelope: Dict) -> bool:
        if envelope["kind"] == "control":
            return envelope["seq"] <= self.last_hop
        channel, seq = envelope["channel"], envelope["seq"]
        if seq < self.consumed.get(channel, 0):
            return True
        return seq in self.mailboxes.get(channel, ())

    def _accept(self, envelope: Dict) -> None:
        if envelope["kind"] == "control":
            self.last_hop = envelope["seq"]
            self.token, self.sent = unpack_token(envelope["state"])
        else:
            self.mailboxes.setdefault(envelope["channel"], {})[
                envelope["seq"]] = (envelope["value"], envelope["label"])

    def _recover(self) -> int:
        """Replay the journal through the normal handler; returns records.

        Re-sends happen live (receivers dedup and re-ack), so after the
        replay the node's mailboxes, dedup state, retransmit timers, and
        any held token are exactly what the crash interrupted.
        """
        if self.spec.incarnation == 0:
            return 0
        records = load_journal(self.spec.journal_path)
        for record in records:
            if record.get("kind") != "node_accept":
                continue
            envelope = record["envelope"]
            if self._duplicate(envelope):
                continue
            self._accept(envelope)
            if self.token is not None:
                self._drive_token()
        return len(records)

    # -- driving the control token ----------------------------------------

    def _drive_token(self) -> None:
        """Walk the token until it migrates, parks, or the run ends."""
        spec, token = self.spec, self.token
        try:
            stop = _walk(self.flowchart, spec.inputs, token, self.boxes, self,
                         spec.timed, spec.forgetting, spec.fuel, spec.cap,
                         False, None, None)
        except DECLARED_FAULTS as error:
            self._finish(fault_notice(error), False)
            return
        if stop is MIGRATE:
            owner = self.partition.node_of(token[0])  # the box it stopped at
            self.transport.send(control_envelope(
                self.last_hop + 1, pack_token(token, self.sent),
                src=self.node, dst=owner))
            self.token = None
        elif stop is not PARK:
            early = stop is GUARD
            self._finish(_decide(self.flowchart, token, early, spec.timed,
                                 False), early)

    # -- the walk's channels ------------------------------------------------

    def send(self, channel: str, value: int, label: int) -> None:
        seq = self.sent.get(channel, 0)
        self.sent[channel] = seq + 1
        home = self.partition.homes[channel]
        if home == self.node:
            self.mailboxes.setdefault(channel, {})[seq] = (value, label)
        else:
            self.transport.send(data_envelope(channel, seq, value, label,
                                              src=self.node, dst=home))

    def recv(self, channel: str):
        want = self.consumed.get(channel, 0)
        if want >= self.sent.get(channel, 0):
            return None  # nothing sent: the serial queue is empty too
        message = self.mailboxes.get(channel, {}).pop(want, None)
        if message is None:
            return PARK  # in flight
        self.consumed[channel] = want + 1
        return message

    # -- the end of the run -------------------------------------------------

    def _report(self, outcome, state: Optional[List], early: bool) -> None:
        self.coord.put({"kind": "result", "node": self.node,
                        "outcome": outcome, "state": state, "early": early})

    def _finish(self, outcome, early: bool) -> None:
        self._report(outcome, self.token, early)
        self.token = None


def node_main(spec: NodeSpec) -> None:
    """Process entry point: run the node loop, swallow teardown races."""
    try:
        NodeRuntime(spec).run()
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
