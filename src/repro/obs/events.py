"""Structured trace events: typed records of what a mechanism run did.

An event is a flat JSON object with three envelope fields —

- ``kind``: one of :data:`EVENT_KINDS`,
- ``seq``:  a monotonically increasing per-process sequence number,
- ``t``:    seconds since tracing was enabled (monotonic clock),

plus kind-specific payload fields (:data:`EVENT_SCHEMA` lists the
required ones).  Sinks receive each event as a dict:
:class:`JsonlSink` appends one JSON line per event to a file,
:class:`RingBufferSink` keeps the last N events in memory for tests
and post-mortems.

The schema is deliberately self-contained (no jsonschema dependency):
:func:`validate_event` / :func:`validate_jsonl` are small pure-Python
checkers the CI job runs against CLI-emitted traces.
"""

from __future__ import annotations

import atexit
import io
import json
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple, Union

#: Every event kind the runtime may emit.
EVENT_KINDS: Tuple[str, ...] = (
    "sweep_start",   # a soundness sweep began
    "run_start",     # one flowchart execution began (sampled layers only)
    "run_end",       # one flowchart execution finished
    "box_step",      # one interpreted box executed (sampled)
    "violation",     # a mechanism raised a violation notice
    "fuel_exhausted",  # a run exceeded its fuel budget
    "chunk_done",    # a sweep chunk's summary arrived
    "worker_retry",  # a failed/timed-out chunk was rescheduled
    "pool_degraded",  # the pool fell back (process -> thread -> serial)
    "pair_done",     # all chunks of one (program, policy) pair merged
    "sweep_end",     # the sweep finished
    "lint_pass",     # one flowlint pass completed
    "span_start",    # a hierarchical work span opened (sweep/pair/chunk/...)
    "span_end",      # a span closed (same id as its span_start)
    "explanation",   # violation provenance: the input-index influence chain
    "value_cap_exceeded",  # a run assigned a value wider than the cap
    "point_quarantined",   # bisection isolated one crashing grid point
    "chunk_quarantined",   # a chunk entered the quarantine bisection
    "checkpoint_meta",     # checkpoint header: sweep config fingerprint
    "checkpoint_written",  # one chunk summary journalled to the checkpoint
    "sweep_resumed",       # a sweep restored chunk summaries and continued
    "sweep_interrupted",   # a sweep drained and stopped (signal/deadline)
    "policy_changed",      # a policy_change box installed a new epoch
    "downgrade_applied",   # a downgrade box discharged surveillance indices
    "epoch_violation",     # a violation under a dynamic policy (Λ@e tag)
    "audit_appended",      # one decision sealed into the audit ledger
    "audit_rotated",       # the audit ledger rotated a full generation
    "violation_rate_spike",  # a tenant's windowed notice rate spiked
    "message_sent",    # a distributed envelope left its sending node
    "message_retried",  # an unacked envelope was retransmitted
    "node_crashed",    # a distributed node died (chaos kill or fault)
    "node_recovered",  # a crashed node replayed its journal and rejoined
)

#: Envelope + per-kind required payload fields.  ``properties`` gives
#: the expected JSON type of known fields (extra fields are allowed —
#: the schema is open, like the mechanisms it observes).
EVENT_SCHEMA: Dict = {
    "title": "repro trace event",
    "type": "object",
    "required": ["kind", "seq", "t"],
    "properties": {
        "kind": {"type": "string", "enum": list(EVENT_KINDS)},
        "seq": {"type": "integer"},
        "t": {"type": "number"},
    },
    "kinds": {
        "sweep_start": {"required": ["pairs", "points", "executor"]},
        "run_start": {"required": ["program", "backend"]},
        "run_end": {"required": ["program", "backend", "steps"]},
        "box_step": {"required": ["program", "node", "steps"]},
        "violation": {"required": ["program"]},
        "fuel_exhausted": {"required": ["program", "fuel"]},
        "chunk_done": {"required": ["pair", "chunk", "points", "accepts"]},
        "worker_retry": {"required": ["pair", "chunk", "attempt", "reason"]},
        "pool_degraded": {"required": ["from_mode", "to_mode", "reason"]},
        "pair_done": {"required": ["pair", "program", "policy", "sound",
                                   "accepts"]},
        "sweep_end": {"required": ["pairs", "elapsed_s"]},
        "lint_pass": {"required": ["program", "pass", "seconds"]},
        # Spans: ``span`` is the id, ``parent`` (optional) links the
        # tree; a span_end repeats its span_start's id and op.
        "span_start": {"required": ["span", "op"]},
        "span_end": {"required": ["span", "op", "elapsed_s"]},
        # Provenance: the chain is a list of step dicts, each naming the
        # box, the variable written (if any), and the label after it —
        # see repro.obs.provenance.Explanation.
        "explanation": {"required": ["program", "policy", "point", "site",
                                     "chain"]},
        "value_cap_exceeded": {"required": ["program", "cap"]},
        # Recovery: quarantine isolates crashing points, checkpoints
        # journal completed chunks, resume restores them.
        "point_quarantined": {"required": ["pair", "chunk", "point",
                                           "reason"]},
        "chunk_quarantined": {"required": ["pair", "chunk", "points",
                                           "reason"]},
        "checkpoint_meta": {"required": ["config"]},
        "checkpoint_written": {"required": ["pair", "chunk", "accepts"]},
        "sweep_resumed": {"required": ["chunks_restored"]},
        "sweep_interrupted": {"required": ["reason", "chunks_done"]},
        # Dynamic policies: each policy_change bumps the epoch counter;
        # downgrades name the variable and the indices they dropped;
        # violations under a dynamic policy carry their epoch tag.
        "policy_changed": {"required": ["program", "epoch", "allowed"]},
        "downgrade_applied": {"required": ["program", "variable",
                                           "dropped"]},
        "epoch_violation": {"required": ["program", "epoch"]},
        # Audit ledger: every sealed decision, generation rotations,
        # and per-tenant windowed violation-rate spikes (see
        # repro.obs.audit and docs/OBSERVABILITY.md "Audit ledger").
        "audit_appended": {"required": ["rec", "decision", "endpoint"]},
        "audit_rotated": {"required": ["path", "records"]},
        "violation_rate_spike": {"required": ["tenant", "rate", "window"]},
        # Distributed enforcement: envelope traffic between nodes and
        # the crash/recovery lifecycle (see repro.dist and
        # docs/ROBUSTNESS.md "Distributed enforcement").
        "message_sent": {"required": ["channel", "seq", "src", "dst"]},
        "message_retried": {"required": ["channel", "seq", "attempt"]},
        "node_crashed": {"required": ["node"]},
        "node_recovered": {"required": ["node", "incarnation"]},
    },
}

_TYPE_CHECKS = {
    "string": lambda value: isinstance(value, str),
    "integer": lambda value: isinstance(value, int)
    and not isinstance(value, bool),
    "number": lambda value: isinstance(value, (int, float))
    and not isinstance(value, bool),
}


def validate_event(event: object) -> List[str]:
    """Check one decoded event against :data:`EVENT_SCHEMA`.

    Returns a list of problems (empty when the event is valid).
    """
    problems: List[str] = []
    if not isinstance(event, dict):
        return [f"event is not an object: {type(event).__name__}"]
    for field in EVENT_SCHEMA["required"]:
        if field not in event:
            problems.append(f"missing envelope field {field!r}")
    for field, spec in EVENT_SCHEMA["properties"].items():
        if field in event and not _TYPE_CHECKS[spec["type"]](event[field]):
            problems.append(
                f"field {field!r} has type {type(event[field]).__name__}, "
                f"expected {spec['type']}")
    kind = event.get("kind")
    if isinstance(kind, str):
        kind_spec = EVENT_SCHEMA["kinds"].get(kind)
        if kind_spec is None:
            problems.append(f"unknown event kind {kind!r}")
        else:
            for field in kind_spec["required"]:
                if field not in event:
                    problems.append(
                        f"{kind} event missing required field {field!r}")
    return problems


def validate_jsonl(lines: Iterable[Union[str, bytes]]
                   ) -> Tuple[int, List[str]]:
    """Validate a JSONL trace stream (str or UTF-8 bytes lines);
    returns ``(events, problems)``.

    Problems localise three ways: the 1-based *line* number in the
    stream, the 1-based *event* index among non-blank lines (the two
    differ when blank lines pad the stream), and — for schema
    mismatches — the offending key, quoted in the message.  Blank lines
    are ignored (a trailing newline is normal for JSONL).
    """
    count = 0
    problems: List[str] = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        count += 1
        where = f"line {number}: event {count}"
        try:
            event = json.loads(line)
        except ValueError as error:
            problems.append(f"{where}: not JSON ({error})")
            continue
        for problem in validate_event(event):
            problems.append(f"{where}: {problem}")
    return count, problems


class JsonlSink:
    """Appends one compact JSON line per event to a path or file object.

    Crash-safe by construction: every event is flushed as it is
    written, and a path-owning sink registers an ``atexit`` close — so
    the trace of a sweep that is killed mid-flight contains every event
    emitted up to the kill (at worst the final line is truncated by the
    signal landing mid-write).  Also usable as a context manager::

        with JsonlSink("trace.jsonl") as sink:
            obs.enable(sinks=[sink])
            ...
    """

    def __init__(self, target: Union[str, io.TextIOBase]) -> None:
        if isinstance(target, str):
            self._file = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._file = target
            self._owns = False
        self.path = target if isinstance(target, str) else None
        self._closed = False
        if self._owns:
            atexit.register(self.close)

    def write(self, event: Dict) -> None:
        if self._closed:
            return
        self._file.write(json.dumps(event, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        # Flush per event: an aborted sweep must not lose its tail to a
        # buffered page (the kill-mid-sweep test exercises exactly this).
        self._file.flush()

    def flush(self) -> None:
        if not self._closed:
            self._file.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._file.flush()
        if self._owns:
            self._file.close()
            atexit.unregister(self.close)

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096) -> None:
        self._buffer: deque = deque(maxlen=capacity)

    def write(self, event: Dict) -> None:
        self._buffer.append(event)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def events(self, kind: Optional[str] = None) -> List[Dict]:
        events = list(self._buffer)
        if kind is not None:
            events = [event for event in events if event.get("kind") == kind]
        return events

    def __len__(self) -> int:
        return len(self._buffer)
