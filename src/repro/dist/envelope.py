"""Message envelopes for the distributed enforcement runtime.

Every value that crosses a node boundary travels inside an envelope
that carries, next to the payload, the two things the single-node
semantics would otherwise lose:

- the value's **surveillance label** (v̄ ∪ C̄ at the send site, a
  bitmask over input indices) — the distributed-setting soundness
  requirement: a label must migrate with its value or the receiving
  node under-approximates what the receive taught the program (Almeida
  Matos & Cederquist);
- a **checksum** over the canonical payload, so in-flight corruption
  is *detected* and totalized as a ``Λ!msg[corrupt:CH#SEQ]`` notice,
  never silently decoded into a wrong answer.

Envelope identity is deterministic, never random: a data envelope is
``(channel, seq)`` where ``seq`` is the channel's send ordinal in
program order, and a control envelope is ``("#ctl", hop)`` where
``hop`` counts control-token migrations.  Determinism is what lets
at-least-once delivery dedup exactly and lets a seeded fault plan give
a retransmitted envelope the same fate in every replay.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Tuple

#: The pseudo-channel carrying the migrating control token.
CONTROL_CHANNEL = "#ctl"


def _canonical(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def checksum(payload: Dict) -> str:
    """A short deterministic digest of an envelope payload."""
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()[:16]


def data_envelope(channel: str, seq: int, value: int, label: int,
                  src: int, dst: int) -> Dict:
    """One labelled value in flight to its channel's home node."""
    payload = {"channel": channel, "seq": seq, "value": int(value),
               "label": label}
    return {"kind": "data", "src": src, "dst": dst,
            "sum": checksum(payload), **payload}


def control_envelope(hop: int, state: Dict, src: int, dst: int) -> Dict:
    """The migrating control token: the full machine state, checksummed.

    ``state`` is the packed token (the surveillance walk's state —
    current box, store, label masks, C̄, policy in force, epoch, step
    count — and the per-channel send ordinals) — see
    :mod:`repro.dist.node`.  ``hop`` is the token's migration ordinal;
    it doubles as the envelope's dedup seq on the control channel.
    """
    payload = {"channel": CONTROL_CHANNEL, "seq": int(hop), "state": state}
    return {"kind": "control", "src": src, "dst": dst,
            "sum": checksum(payload), **payload}


def ack_envelope(channel: str, seq: int, src: int, dst: int) -> Dict:
    """Acknowledges receipt of ``(channel, seq)`` — never chaos-faulted."""
    return {"kind": "ack", "channel": channel, "seq": int(seq),
            "src": src, "dst": dst}


def envelope_id(envelope: Dict) -> Tuple[str, int]:
    """The deterministic dedup identity of a data/control envelope."""
    return (envelope["channel"], envelope["seq"])


def verify_checksum(envelope: Dict) -> bool:
    """Whether an arrived envelope still matches its send-time digest."""
    if envelope["kind"] == "data":
        payload = {"channel": envelope["channel"], "seq": envelope["seq"],
                   "value": envelope["value"], "label": envelope["label"]}
    else:
        payload = {"channel": envelope["channel"], "seq": envelope["seq"],
                   "state": envelope["state"]}
    return checksum(payload) == envelope.get("sum")


def corrupt_in_flight(envelope: Dict) -> Dict:
    """What the chaos layer delivers for a ``corrupt`` fault decision.

    The payload is damaged but the original checksum is kept, so the
    receiver's :func:`verify_checksum` must fail — modelling a wire that
    flips bits, not an attacker who can re-sign.
    """
    damaged = dict(envelope)
    if envelope["kind"] == "data":
        damaged["value"] = envelope["value"] ^ 0x2A
    else:
        state = dict(envelope["state"])
        state["steps"] = state.get("steps", 0) ^ 0x2A
        damaged["state"] = state
    return damaged
