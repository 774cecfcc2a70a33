"""One node of a distributed enforcement run.

A node owns a partition slice of the flowchart, the mailboxes of the
channels homed on it, and — intermittently — the **control token**: the
full machine state (environment, surveillance labels, PC label, active
policy, epoch, step count, per-channel send ordinals) packed into a
checksummed control envelope.  Exactly one token exists, so at most one
node is executing boxes at any moment and the distributed run *is* the
serial run, spread across processes: row-for-row identical final store,
notices (including ``Λ@e{n}`` epoch tags) and step counts, which is the
headline invariant the test suite checks under chaos.

Box stepping mirrors :func:`repro.surveillance.dynamic.surveil` arm
for arm.  The only genuinely distributed arms:

- ``send ch(v)``: the labelled value goes to ``ch``'s home node inside
  a data envelope (or straight into the local mailbox when the home is
  this node); the token's per-channel send ordinal becomes the
  envelope's dedup seq.
- ``recv ch(v)``: consumed strictly in seq order from the home
  mailbox.  If the token's send ordinal says a message exists but it
  has not arrived (dropped, delayed, in retransmit), the node **parks**
  — keeps the token and retries as traffic lands.  If no send ever
  happened, the serial semantics would have found the queue empty too:
  the run totalizes as ``Λ!msg[empty:ch]``.

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

from ..flowchart.boxes import (AssignBox, DecisionBox, DowngradeBox, HaltBox,
                               PolicyChangeBox, RecvBox, SendBox, StartBox)
from ..surveillance.labels import join, permitted
from ..verify.checkpoint import JournalWriter, load_journal
from .envelope import (CONTROL_CHANNEL, control_envelope, data_envelope,
                       verify_checksum)
from .transport import Transport

#: Exit code of a chaos-scheduled node kill (distinguishes an injected
#: crash from a bug in the node loop when the coordinator looks).
KILLED_EXIT = 23

#: How often an idle node proves liveness to the coordinator.
HEARTBEAT_S = 0.1


class NodeSpec:
    """Everything a node process needs, bundled for the spawn call."""

    __slots__ = ("node", "flowchart", "partition", "plan", "fuel", "cap",
                 "timed", "forgetting", "journal_path", "incarnation",
                 "queues", "coord_queue", "root_span", "trace")

    def __init__(self, node, flowchart, partition, plan, fuel, cap, timed,
                 forgetting, journal_path, incarnation, queues, coord_queue,
                 root_span, trace) -> None:
        self.node = node
        self.flowchart = flowchart
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


def pack_token(state: Dict) -> Dict:
    """The JSON-safe wire form of the control token."""
    return {
        "current": state["current"],
        "env": dict(state["env"]),
        "labels": {name: sorted(label)
                   for name, label in state["labels"].items()},
        "pc": sorted(state["pc"]),
        "allowed": sorted(state["allowed"]),
        "epoch": state["epoch"],
        "steps": state["steps"],
        "sent": dict(state["sent"]),
        "has_epochs": state["has_epochs"],
    }


def unpack_token(wire: Dict) -> Dict:
    """Invert :func:`pack_token` (labels back to frozensets)."""
    return {
        "current": wire["current"],
        "env": {name: int(value) for name, value in wire["env"].items()},
        "labels": {name: frozenset(label)
                   for name, label in wire["labels"].items()},
        "pc": frozenset(wire["pc"]),
        "allowed": frozenset(wire["allowed"]),
        "epoch": int(wire["epoch"]),
        "steps": int(wire["steps"]),
        "sent": {name: int(count)
                 for name, count in wire["sent"].items()},
        "has_epochs": bool(wire["has_epochs"]),
    }


class NodeRuntime:
    """The event loop of one node process."""

    def __init__(self, spec: NodeSpec) -> None:
        self.spec = spec
        self.flowchart = spec.flowchart
        self.partition = spec.partition
        self.node = spec.node
        self.inbox = spec.queues[spec.node]
        self.coord = spec.coord_queue
        self.transport = Transport(spec.node, spec.queues, spec.plan,
                                   self._emit)
        #: channel -> {seq: (value, label)} — messages awaiting consumption
        self.mailboxes: Dict[str, Dict[int, tuple]] = {}
        #: channel -> next seq to consume (== count already consumed)
        self.consumed: Dict[str, int] = {}
        self.last_hop = -1
        self.token: Optional[Dict] = None
        self.accepted = 0
        self.finished = False
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
            self.coord.put({"kind": "fault", "node": self.node,
                            "fault": "msg", "arg": detail})
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
            self.token = unpack_token(envelope["state"])
            self.token["hop"] = envelope["seq"]
        else:
            self.mailboxes.setdefault(envelope["channel"], {})[
                envelope["seq"]] = (envelope["value"],
                                    frozenset(envelope["label"]))

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
        """Execute boxes until the token migrates, parks, or the run ends.

        Arm-for-arm the semantics of
        :func:`repro.surveillance.dynamic.surveil`; every completed box
        costs one step, a parked receive costs nothing until it fires.
        """
        token = self.token
        flowchart = self.flowchart
        spec = self.spec
        bound = (1 << spec.cap) if spec.cap is not None else None
        while True:
            current = token["current"]
            owner = self.partition.node_of(current)
            if owner != self.node:
                self._migrate(owner)
                return
            if token["steps"] >= spec.fuel:
                self._fault("fuel", spec.fuel)
                return
            box = flowchart.boxes[current]
            if isinstance(box, RecvBox):
                # Park *before* the step is charged: arrival at a recv
                # whose message is still in flight is not an executed box.
                want = self.consumed.get(box.channel, 0)
                if want < token["sent"].get(box.channel, 0):
                    if want not in self.mailboxes.get(box.channel, ()):
                        return  # in flight — park, keep the token
                else:
                    token["steps"] += 1
                    self._fault("msg", f"empty:{box.channel}")
                    return
            token["steps"] += 1
            labels = token["labels"]
            env = token["env"]
            if isinstance(box, HaltBox):
                output_label = join(labels[flowchart.output_variable],
                                    token["pc"])
                if permitted(output_label, token["allowed"]):
                    self._result({"value": env[flowchart.output_variable]},
                                 halted_early=False)
                else:
                    self._result({"notice": self._notice(token)},
                                 halted_early=False)
                return
            if isinstance(box, AssignBox):
                incoming = join(*(labels[name]
                                  for name in box.expression.variables()),
                                token["pc"])
                if spec.forgetting:
                    labels[box.target] = incoming
                else:
                    labels[box.target] = join(labels[box.target], incoming)
                value = box.expression.eval(env)
                env[box.target] = value
                if bound is not None and (value >= bound or value <= -bound):
                    self._fault("cap", spec.cap)
                    return
                token["current"] = box.next
            elif isinstance(box, DecisionBox):
                test_label = join(*(labels[name]
                                    for name in box.predicate.variables()))
                if spec.timed and not permitted(test_label,
                                                token["allowed"]):
                    self._result({"notice": self._notice(token)},
                                 halted_early=True)
                    return
                token["pc"] = join(token["pc"], test_label)
                token["current"] = (box.true_next if box.predicate.eval(env)
                                    else box.false_next)
            elif isinstance(box, PolicyChangeBox):
                token["allowed"] = frozenset(box.allowed)
                token["epoch"] += 1
                token["current"] = box.next
            elif isinstance(box, DowngradeBox):
                labels[box.variable] = (labels[box.variable]
                                        - frozenset(box.indices))
                token["current"] = box.next
            elif isinstance(box, SendBox):
                seq = token["sent"].get(box.channel, 0)
                token["sent"][box.channel] = seq + 1
                label = join(labels[box.variable], token["pc"])
                home = self.partition.homes[box.channel]
                if home == self.node:
                    self.mailboxes.setdefault(box.channel, {})[seq] = (
                        env[box.variable], label)
                else:
                    self.transport.send(data_envelope(
                        box.channel, seq, env[box.variable], label,
                        src=self.node, dst=home))
                token["current"] = box.next
            elif isinstance(box, RecvBox):
                want = self.consumed[box.channel] = self.consumed.get(
                    box.channel, 0)
                value, message_label = self.mailboxes[box.channel].pop(want)
                self.consumed[box.channel] = want + 1
                env[box.variable] = value
                incoming = join(message_label, token["pc"])
                if spec.forgetting:
                    labels[box.variable] = incoming
                else:
                    labels[box.variable] = join(labels[box.variable],
                                                incoming)
                token["current"] = box.next
            elif isinstance(box, StartBox):  # pragma: no cover - partition
                token["current"] = box.successors()[0]

    def _notice(self, token: Dict) -> str:
        return (f"Λ@e{token['epoch']}" if token["has_epochs"] else "Λ")

    def _migrate(self, owner: int) -> None:
        token = self.token
        hop = token.get("hop", -1) + 1
        self.transport.send(control_envelope(hop, pack_token(token),
                                             src=self.node, dst=owner))
        self.token = None

    def _result(self, outcome: Dict, halted_early: bool) -> None:
        token = self.token
        self.coord.put({
            "kind": "result", "node": self.node,
            "outcome": outcome, "steps": token["steps"],
            "env": dict(token["env"]),
            "labels": {name: sorted(label)
                       for name, label in token["labels"].items()},
            "pc": sorted(token["pc"]),
            "epoch": token["epoch"],
            "halted_early": halted_early,
        })
        self.token = None
        self.finished = True

    def _fault(self, fault: str, arg) -> None:
        self.coord.put({"kind": "fault", "node": self.node,
                        "fault": fault, "arg": arg,
                        "steps": self.token["steps"]})
        self.token = None
        self.finished = True


def node_main(spec: NodeSpec) -> None:
    """Process entry point: run the node loop, swallow teardown races."""
    try:
        NodeRuntime(spec).run()
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
