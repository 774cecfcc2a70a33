"""Tamper-evident enforcement audit ledger.

The paper's mechanisms decide accept-or-notice for every computation
they surveil; this module makes those decisions *durable and
auditable*.  An :class:`AuditLedger` is an append-only JSONL file in
which every record is hash-chained to its predecessor:

- a record is the decision payload (decision, notice, tenant,
  endpoint, span, budget fingerprint, provenance pointer, optional
  wall-clock ``ts``) plus two envelope fields — ``rec``, the 0-based
  chain index, and ``prev``, the sha256 of the *previous line's exact
  bytes* (the genesis record chains to 64 zeros);
- every line is canonical JSON (sorted keys, compact separators), so
  the line bytes *are* the canonical encoding and the chain hash is
  "sha256 over canonical JSON" by construction;
- a sidecar head file (``<path>.head``) is atomically replaced with
  ``{"records": N, "head": H}`` — the seal that lets
  :func:`verify_ledger` detect tail truncation and mutation of the
  final record, which an intra-file chain alone cannot see.  Every
  append seals, and a batch seals once (the server drains staged
  decisions through :meth:`AuditLedger.append_batch` from a periodic
  task, off the request path).  Each seal commits the data file
  (:meth:`JsonlLog.commit`, the repo's one append-only writer) before
  the sidecar's fsync and atomic replace, so a sealed prefix is
  durable against power loss.

Tamper detection is total: flipping any single byte of any line either
breaks that line's JSON, changes its parsed content (so the next
record's ``prev`` no longer matches), or — on the last line — breaks
the sidecar seal.  Dropping or swapping lines breaks the ``rec``
sequence and the chain.  ``repro audit verify`` reports the 1-based
record number of the first break.

Determinism: records carry no wall clock unless the caller passes
``ts``, and sampling is *content-hash based*, so a process-pool sweep
whose chunk segments are merged parent-side in chunk order produces a
ledger bit-identical to a serial sweep's (the acceptance test diffs
the files).  The serve path does pass ``ts`` — audit queries support
time windows there.

Rotation is size-based: when the active file would exceed
``max_bytes`` the file and its sidecar are shifted to ``<path>.1``
(older generations renumber up to ``keep``) and a fresh chain starts
at genesis, so every generation verifies standalone.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.errors import ReproError
from . import runtime as _obs

__all__ = [
    "GENESIS", "AuditLedger", "AuditVerifyResult", "JsonlLog", "RecordHead",
    "RecordLine", "SpikeTracker", "budget_fingerprint", "canonical_object",
    "canonical_object_around", "classify_notice", "decision_payload",
    "iter_jsonl", "iter_ledger", "ledger_stats",
    "load_ledger", "query_records", "record_hash", "sampled_in",
    "tail_records", "verify_ledger",
]

#: The ``prev`` value of the first record in every chain.
GENESIS = "0" * 64

#: Decision kinds :func:`classify_notice` maps notices onto.
NOTICE_KINDS = ("accept", "violation", "epoch", "fuel", "cap", "crash")


#: Canonical JSON: sorted keys, compact separators, ASCII escapes.
#: ``json.dumps`` with these options builds a new encoder per call; one
#: shared encoder writes the same text.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_object(texts: Dict[str, str]) -> str:
    """The canonical JSON object of ``texts``: member names (plain names
    that need no escaping) mapped to values already in canonical JSON.

    Lets a writer encode each distinct value once and still produce
    exactly ``_canonical`` of the object the line parses to.
    """
    return "{" + ",".join([f'"{name}":{texts[name]}'
                           for name in sorted(texts)]) + "}"


def canonical_object_around(texts: Dict[str, str],
                            name: str) -> Tuple[str, str]:
    """The texts before and after the value of member ``name`` (not in
    ``texts``) in the :func:`canonical_object` of ``texts`` plus it.

    Objects that differ only in that member then cost two
    concatenations each: a sweep's ledger records within one chunk
    differ only in their class key.
    """
    names = sorted([*texts, name])
    at = names.index(name)
    before = "".join([f'"{other}":{texts[other]},' for other in names[:at]])
    after = "".join([f',"{other}":{texts[other]}'
                     for other in names[at + 1:]])
    return f'{{{before}"{name}":', after + "}"


def record_hash(line: str) -> str:
    """sha256 of one ledger line's exact bytes (newline excluded)."""
    return hashlib.sha256(line.encode("utf-8")).hexdigest()


def budget_fingerprint(fuel: Optional[int] = None,
                       value_cap: Optional[int] = None,
                       backend: Optional[str] = None) -> str:
    """A short stable hash of an enforcement budget tuple.

    Same canonical-JSON discipline as the checkpoint config
    fingerprint; 16 hex chars is plenty to distinguish budgets while
    keeping records small.  ``None`` fields are omitted, so "uncapped"
    and "cap absent" fingerprint identically — they are the same
    budget.
    """
    descriptor = {key: value for key, value in (
        ("fuel", fuel), ("value_cap", value_cap),
        ("backend", backend)) if value is not None}
    canonical = _canonical(descriptor)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def classify_notice(notice: Optional[str]) -> str:
    """Map a notice string onto its kind (``accept`` for ``None``).

    The taxonomy follows the notice grammar: ``Λ!fuel[N]`` (fuel
    exhaustion), ``Λ!cap[C]`` (value-magnitude cap), ``Λ!crash[T]``
    (quarantined crash), ``Λ@e{n}`` (epoch-tagged dynamic-policy
    violation), and plain ``Λ`` (including timed ``(Λ, t)`` renderings)
    for everything else.
    """
    if notice is None:
        return "accept"
    if "Λ!fuel" in notice:
        return "fuel"
    if "Λ!cap" in notice:
        return "cap"
    if "Λ!crash" in notice:
        return "crash"
    if "Λ@e" in notice:
        return "epoch"
    return "violation"


def decision_payload(decision: str, notice: Optional[str] = None,
                     tenant: Optional[str] = None,
                     endpoint: Optional[str] = None,
                     span: Optional[str] = None,
                     budget: Optional[str] = None,
                     provenance: Optional[Dict] = None,
                     ts: Optional[float] = None) -> Dict:
    """Build one decision payload (the record minus envelope fields).

    ``provenance`` is the pointer ``repro explain`` replays: at least
    ``program`` and ``policy``, plus ``point`` for dynamic rejections.
    ``None`` fields are omitted so deterministic producers (sweeps)
    and timestamped ones (serve) share one schema.
    """
    if decision not in ("accept", "notice"):
        raise ReproError(f"audit decision must be 'accept' or 'notice', "
                         f"got {decision!r}")
    payload: Dict = {"decision": decision,
                     "kind": classify_notice(notice)}
    for key, value in (("notice", notice), ("tenant", tenant),
                       ("endpoint", endpoint), ("span", span),
                       ("budget", budget), ("provenance", provenance)):
        if value is not None:
            payload[key] = value
    if ts is not None:
        payload["ts"] = round(float(ts), 6)
    return payload


def sampled_in(payload: Dict, sample: float) -> bool:
    """Deterministic content-hash sampling: same payload, same verdict."""
    if sample >= 1.0:
        return True
    if sample <= 0.0:
        return False
    digest = hashlib.sha256(_canonical(payload).encode()).hexdigest()
    return int(digest[:8], 16) / float(0xFFFFFFFF) < sample


class RecordHead:
    """A decision payload without provenance, encoded once for the many
    records that share it: its canonical text up to the ``prev`` value.

    Every key must sort before ``prev`` (``budget``, ``decision``,
    ``endpoint``, ``kind``, ``notice``; not ``span``, ``tenant`` or
    ``ts``), which is what lets a record splice in its envelope.
    """

    __slots__ = ("text", "decision", "endpoint")

    def __init__(self, payload: Dict) -> None:
        late = sorted(key for key in payload if key >= "prev")
        if late:
            raise ReproError(f"a record head takes keys sorting before "
                             f"'prev', got {late}")
        self.text = _canonical(payload)[:-1] + ',"prev":"'
        self.decision = payload["decision"]
        self.endpoint = payload.get("endpoint", "")


class RecordLine:
    """A pre-encoded record for :meth:`AuditLedger.append_batch`: a
    shared :class:`RecordHead` plus the canonical JSON text of its own
    ``provenance`` (built with :func:`canonical_object` or
    :func:`canonical_object_around`).  Producers of many records from
    few distinct parts (a sweep: notices, class keys, pairs) encode
    each part once."""

    __slots__ = ("head", "provenance")

    def __init__(self, head: RecordHead, provenance: str) -> None:
        self.head = head
        self.provenance = provenance


def _record_line(payload, rec: int, prev: str) -> str:
    """The canonical line of ``payload`` chained as record ``rec``."""
    if isinstance(payload, RecordLine):
        return (f'{payload.head.text}{prev}","provenance":'
                f'{payload.provenance},"rec":{rec}}}')
    record = dict(payload)
    record["rec"] = rec
    record["prev"] = prev
    return _canonical(record)


class AuditVerifyResult:
    """The outcome of :func:`verify_ledger`: ``ok``, counts, problems."""

    __slots__ = ("ok", "records", "problems", "sealed")

    def __init__(self, ok: bool, records: int, problems: List[str],
                 sealed: bool) -> None:
        self.ok = ok
        self.records = records
        self.problems = problems
        self.sealed = sealed

    def to_dict(self) -> Dict:
        return {"ok": self.ok, "records": self.records,
                "sealed": self.sealed, "problems": self.problems}


class AuditLedger:
    """Append-only hash-chained decision ledger; thread-safe.

    Opening an existing path resumes its chain (from the sidecar when
    intact, else by rescanning the file, as a torn tail forces);
    ``fresh=True`` truncates.  ``sample`` drops a deterministic
    fraction of :meth:`append` calls; ``max_bytes`` rotates
    generations (``keep`` retained).  A crash between a data commit
    and its seal leaves the seal behind the file — verify reports it.
    """

    def __init__(self, path: str, sample: float = 1.0,
                 max_bytes: Optional[int] = None, keep: int = 3,
                 fresh: bool = False) -> None:
        self.path = path
        self.sample = float(sample)
        self.max_bytes = max_bytes
        self.keep = max(1, int(keep))
        self._lock = threading.Lock()
        self._records = 0
        self._head = GENESIS
        self._size = 0
        resume = not fresh and os.path.exists(path)
        self._log = JsonlLog(path, fresh)
        if resume:
            self._records, self._head = (self._rescan(path) if self._log.torn
                                         else self._resume(path))
            self._size = os.path.getsize(path)
        if fresh or self._log.torn:
            self._write_head()

    @staticmethod
    def head_path(path: str) -> str:
        return path + ".head"

    @staticmethod
    def _resume(path: str) -> Tuple[int, str]:
        head_path = AuditLedger.head_path(path)
        if os.path.exists(head_path):
            try:
                with open(head_path, encoding="utf-8") as handle:
                    head = json.load(handle)
                return int(head["records"]), str(head["head"])
            except (ValueError, KeyError, OSError):
                pass  # fall through to a rescan
        return AuditLedger._rescan(path)

    @staticmethod
    def _rescan(path: str) -> Tuple[int, str]:
        records, head = 0, GENESIS
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.rstrip("\n")
                if not line:
                    continue
                head = record_hash(line)
                records += 1
        return records, head

    @property
    def records(self) -> int:
        return self._records

    @property
    def head(self) -> str:
        return self._head

    # -- writing ------------------------------------------------------------

    def append(self, decision: str, notice: Optional[str] = None,
               tenant: Optional[str] = None, endpoint: Optional[str] = None,
               span: Optional[str] = None, budget: Optional[str] = None,
               provenance: Optional[Dict] = None,
               ts: Optional[float] = None,
               sample: Optional[float] = None) -> Optional[Dict]:
        """Record one enforcement decision; returns the sealed record.

        Returns ``None`` when content-hash sampling drops the payload
        (the deterministic coin every producer of this payload would
        flip the same way).  ``sample`` overrides the ledger's rate for
        this call — the server passes per-tenant rates through it.
        """
        payload = decision_payload(decision, notice=notice, tenant=tenant,
                                   endpoint=endpoint, span=span,
                                   budget=budget, provenance=provenance,
                                   ts=ts)
        rate = self.sample if sample is None else float(sample)
        if not sampled_in(payload, rate):
            return None
        (rec, prev, _), = self._append_sealed((payload,))
        return dict(payload, rec=rec, prev=prev)

    def append_batch(self, payloads: Iterable) -> int:
        """Chain and write many payloads, sealing once at the end.

        One head-file replacement per batch instead of per record —
        the sweep's parent-side merge appends hundreds of segment
        records and the per-append seal dance would dominate its wall
        time.  A crash mid-batch leaves a stale seal, which verify
        reports as a problem; a torn sweep ledger *should* fail.
        Payloads are decision dicts or :class:`RecordLine` templates;
        returns the number of records appended.
        """
        return len(self._append_sealed(payloads))

    def _append_sealed(self, payloads: Iterable) -> List[Tuple]:
        """Chain and write ``payloads``, then seal if any were written;
        ``(rec, prev, payload)`` of each record written."""
        with self._lock:
            written = self._chain_locked(payloads)
            if written:
                self._write_head()
        self._observe(written)
        return written

    def _chain_locked(self, payloads: Iterable) -> List[Tuple]:
        """The chaining loop every append shares.

        Each record gets the next ``rec`` and the previous line's hash
        as ``prev``; a record that would push the file past
        ``max_bytes`` rotates first and is re-chained at genesis.
        """
        written = []
        for payload in payloads:
            prev = self._head
            line = _record_line(payload, self._records, prev)
            if (self.max_bytes is not None and self._records > 0
                    and self._size + len(line) + 1 > self.max_bytes):
                self._rotate_locked()
                prev = GENESIS
                line = _record_line(payload, 0, prev)
            written.append((self._records, prev, payload))
            self._log.write(line)
            data = line.encode("utf-8")
            self._head = hashlib.sha256(data).hexdigest()
            self._records += 1
            self._size += len(data) + 1
        return written

    @staticmethod
    def _observe(written: List[Tuple]) -> None:
        if _obs.active and written:
            _obs.registry.counter("audit.appended").inc(len(written))
            if _obs.trace_active:
                for rec, _, payload in written:
                    if isinstance(payload, RecordLine):
                        decision = payload.head.decision
                        endpoint = payload.head.endpoint
                    else:
                        decision = payload["decision"]
                        endpoint = payload.get("endpoint", "")
                    _obs.emit("audit_appended", rec=rec, decision=decision,
                              endpoint=endpoint)

    def _write_head(self) -> None:
        # Seal boundary: the seal asserts "these N records exist with
        # this head hash", so the data must reach the disk *before* the
        # sidecar claims it does — else a power cut can leave a seal
        # pointing past the file's durable tail, which verify reports
        # as truncation of a ledger that never held those records.
        self._log.commit()
        head_path = self.head_path(self.path)
        tmp = head_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(_canonical({"records": self._records,
                                     "head": self._head}) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, head_path)

    def _rotate_locked(self) -> None:
        """Shift generations up and restart the chain at genesis."""
        self._write_head()  # the retired generation must seal exactly
        self._log.close()
        rotated_records = self._records
        oldest = f"{self.path}.{self.keep}"
        for target in (oldest, self.head_path(oldest)):
            if os.path.exists(target):
                os.remove(target)
        for generation in range(self.keep - 1, 0, -1):
            source = f"{self.path}.{generation}"
            target = f"{self.path}.{generation + 1}"
            for suffix in ("", ".head"):
                if os.path.exists(source + suffix):
                    os.replace(source + suffix, target + suffix)
        os.replace(self.path, f"{self.path}.1")
        if os.path.exists(self.head_path(self.path)):
            os.replace(self.head_path(self.path),
                       self.head_path(f"{self.path}.1"))
        self._log = JsonlLog(self.path, fresh=True)
        self._records = 0
        self._head = GENESIS
        self._size = 0
        self._write_head()
        if _obs.active:
            _obs.registry.counter("audit.rotated").inc()
            if _obs.trace_active:
                _obs.emit("audit_rotated", path=self.path,
                          records=rotated_records)

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def __enter__(self) -> "AuditLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The append-only JSONL log: its write half and its read half
# ---------------------------------------------------------------------------

def _records_end(data: bytes) -> int:
    """Where the records of a JSONL file's bytes end.

    A record exists once its newline does and its line parses, so a
    crash's torn tail is an unterminated last line, or a last line that
    does not parse (a block the file system left zero-filled ends in a
    newline too).  The one rule of the reader (:func:`iter_jsonl`, which
    skips the tail) and the writer (:class:`JsonlLog`, which truncates
    it on reopening).
    """
    end = data.rfind(b"\n") + 1
    start = data.rfind(b"\n", 0, end - 1) + 1
    last = data[start:end]
    if last.strip():
        try:
            json.loads(last.decode("utf-8"))
        except ValueError:
            return start
    return end


class JsonlLog:
    """The one append-only JSONL writer: the audit ledger, sweep
    checkpoints and node journals write through it.

    :meth:`commit` (flush and fsync) is its one durability point; each
    client commits where it acts on what it wrote.  Reopening an
    existing file truncates a crash's torn tail (:func:`_records_end`)
    and sets ``torn``; ``fresh`` truncates the whole file.
    """

    def __init__(self, path: str, fresh: bool = False) -> None:
        self.torn = False
        if not fresh and os.path.exists(path):
            with open(path, "rb+") as handle:
                data = handle.read()
                end = _records_end(data)
                if end < len(data):
                    handle.truncate(end)
                    self.torn = True
        self._file = open(path, "w" if fresh else "a", encoding="utf-8")
        self._dirty = False

    def write(self, line: str) -> None:
        """Buffer one line (canonical JSON, no newline)."""
        self._file.write(line + "\n")
        self._dirty = True

    def commit(self) -> None:
        """Make every line written so far durable: flush and fsync."""
        self._file.flush()
        os.fsync(self._file.fileno())
        self._dirty = False

    def close(self) -> None:
        """Commit what was written since the last commit, then close."""
        if not self._file.closed:
            if self._dirty:
                self.commit()
            self._file.close()


def iter_jsonl(path: str, kind: str) -> Iterator[Dict]:
    """Yield a JSONL file's decoded records, tolerating a torn tail.

    The read half of :class:`JsonlLog` (the audit ledger here, sweep
    checkpoints and node journals in :mod:`repro.verify.checkpoint`):
    a writer killed mid-record leaves at worst a torn last line, which
    is skipped (:func:`_records_end`, the rule the writer truncates
    by).  A bad line anywhere else raises :class:`ReproError` naming
    ``kind``, because a mid-file tear means the file is not the one
    written.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    lines = data[:_records_end(data)].split(b"\n")[:-1]
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError:
            raise ReproError(
                f"{kind} {path!r} is corrupt at line {index + 1}") from None
        yield record


# ---------------------------------------------------------------------------
# Reading, verification, analytics
# ---------------------------------------------------------------------------

def iter_ledger(path: str) -> Iterator[Dict]:
    """Yield decoded records, tolerating a torn final line (crash tail)."""
    return iter_jsonl(path, "audit ledger")


def load_ledger(path: str) -> List[Dict]:
    if not os.path.exists(path):
        raise ReproError(f"audit ledger {path!r} does not exist")
    return list(iter_ledger(path))


def verify_ledger(path: str) -> AuditVerifyResult:
    """Walk the chain; report the first break's 1-based record number.

    Checks, in order, per record: the line parses as JSON, carries
    ``rec``/``prev``, ``rec`` equals its position (catches drops and
    swaps immediately), and ``prev`` equals the previous line's hash
    (catches any byte mutation of the previous line — the hash is over
    raw bytes, so even parse-neutral edits break it).  When the
    sidecar head file is present the final count and head hash are
    checked against it, which is what catches tail truncation and
    mutation of the last record.
    """
    if not os.path.exists(path):
        return AuditVerifyResult(False, 0,
                                 [f"ledger {path!r} does not exist"], False)
    problems: List[str] = []
    prev_hash = GENESIS
    records = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            number = records + 1
            try:
                record = json.loads(line)
            except ValueError:
                problems.append(f"record {number}: not valid JSON "
                                "(mutation or torn write)")
                break
            if not isinstance(record, dict) or "rec" not in record \
                    or "prev" not in record:
                problems.append(
                    f"record {number}: missing chain envelope (rec/prev)")
                break
            if record["rec"] != records:
                problems.append(
                    f"record {number}: rec field is {record['rec']}, "
                    f"expected {records} (record dropped or reordered)")
                break
            if record["prev"] != prev_hash:
                problems.append(
                    f"record {number}: prev_hash mismatch (chain break — "
                    "this or the previous record was altered)")
                break
            prev_hash = record_hash(line)
            records += 1
    head_path = AuditLedger.head_path(path)
    sealed = os.path.exists(head_path)
    if sealed and not problems:
        try:
            with open(head_path, encoding="utf-8") as handle:
                head = json.load(handle)
            expected_records = int(head["records"])
            expected_head = str(head["head"])
        except (ValueError, KeyError, OSError):
            problems.append(f"head file {head_path!r} is unreadable")
        else:
            if records != expected_records:
                problems.append(
                    f"record {records + 1}: ledger truncated — head file "
                    f"seals {expected_records} records, found {records}")
            elif prev_hash != expected_head:
                problems.append(
                    f"record {records}: head hash mismatch (final record "
                    "altered)")
    return AuditVerifyResult(not problems, records, problems, sealed)


def tail_records(path: str, count: int = 10) -> List[Dict]:
    """The last ``count`` records (tolerant reader, like ``tail -n``)."""
    if not os.path.exists(path):
        raise ReproError(f"audit ledger {path!r} does not exist")
    window: deque = deque(maxlen=max(1, count))
    for record in iter_ledger(path):
        window.append(record)
    return list(window)


def query_records(records: Iterable[Dict], tenant: Optional[str] = None,
                  kind: Optional[str] = None,
                  endpoint: Optional[str] = None,
                  since: Optional[float] = None,
                  until: Optional[float] = None) -> List[Dict]:
    """Filter records by tenant, notice kind, endpoint, and time window.

    Time filters apply only to records that carry ``ts`` (serve-path
    records); deterministic sweep records have no wall clock and are
    excluded from any time-windowed query.
    """
    matched = []
    for record in records:
        if tenant is not None and record.get("tenant") != tenant:
            continue
        if kind is not None and record.get("kind") != kind:
            continue
        if endpoint is not None and record.get("endpoint") != endpoint:
            continue
        if since is not None or until is not None:
            ts = record.get("ts")
            if ts is None:
                continue
            if since is not None and ts < since:
                continue
            if until is not None and ts > until:
                continue
        matched.append(record)
    return matched


def ledger_stats(records: Iterable[Dict], window: int = 50,
                 spike_factor: float = 2.0, spike_floor: float = 0.2,
                 spike_min_count: int = 10) -> Dict:
    """Per-tenant decision analytics with a windowed spike flag.

    For each tenant: totals, per-kind notice counts, lifetime
    violation rate, and the rate over the tenant's last ``window``
    records.  ``spike`` is set when the window holds at least
    ``spike_min_count`` records and its rate is both at least
    ``spike_floor`` and ``spike_factor`` times the lifetime rate — a
    recent burst of notices, not a noisy tenant being noisy.
    """
    per_tenant: Dict[str, Dict] = {}
    total = 0
    for record in records:
        total += 1
        tenant = record.get("tenant") or "-"
        stats = per_tenant.get(tenant)
        if stats is None:
            stats = {"total": 0, "accepts": 0, "notices": 0,
                     "kinds": {}, "_window": deque(maxlen=max(1, window))}
            per_tenant[tenant] = stats
        stats["total"] += 1
        kind = record.get("kind", "accept")
        is_notice = record.get("decision") == "notice"
        if is_notice:
            stats["notices"] += 1
            stats["kinds"][kind] = stats["kinds"].get(kind, 0) + 1
        else:
            stats["accepts"] += 1
        stats["_window"].append(1 if is_notice else 0)
    tenants: Dict[str, Dict] = {}
    for tenant, stats in sorted(per_tenant.items()):
        lifetime_rate = stats["notices"] / stats["total"]
        recent = stats.pop("_window")
        window_rate = (sum(recent) / len(recent)) if recent else 0.0
        spike = (len(recent) >= spike_min_count
                 and window_rate >= spike_floor
                 and window_rate >= spike_factor * max(lifetime_rate, 1e-9)
                 and window_rate > lifetime_rate)
        stats["violation_rate"] = round(lifetime_rate, 6)
        stats["kinds"] = dict(sorted(stats["kinds"].items()))
        stats["window"] = {"size": len(recent),
                           "rate": round(window_rate, 6), "spike": spike}
        tenants[tenant] = stats
    return {"records": total, "tenants": tenants}


class SpikeTracker:
    """Online per-tenant violation-rate spike detection for the server.

    Feeds on the same decisions the ledger records; when a tenant's
    rolling-window notice rate crosses the spike condition a
    ``violation_rate_spike`` event fires (at most once per window
    refill, so a sustained burst does not flood the trace).
    """

    def __init__(self, window: int = 50, spike_factor: float = 2.0,
                 spike_floor: float = 0.2, spike_min_count: int = 10) -> None:
        self.window = max(1, window)
        self.spike_factor = spike_factor
        self.spike_floor = spike_floor
        self.spike_min_count = spike_min_count
        self._lock = threading.Lock()
        self._tenants: Dict[str, Dict] = {}

    def update(self, tenant: str, is_notice: bool) -> Optional[float]:
        """Record one decision; returns the window rate on a new spike."""
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None:
                state = {"recent": deque(maxlen=self.window), "total": 0,
                         "notices": 0, "cooldown": 0}
                self._tenants[tenant] = state
            state["total"] += 1
            state["notices"] += 1 if is_notice else 0
            state["recent"].append(1 if is_notice else 0)
            if state["cooldown"] > 0:
                state["cooldown"] -= 1
                return None
            recent = state["recent"]
            if len(recent) < self.spike_min_count:
                return None
            window_rate = sum(recent) / len(recent)
            lifetime_rate = state["notices"] / state["total"]
            if (window_rate >= self.spike_floor
                    and window_rate >= self.spike_factor
                    * max(lifetime_rate, 1e-9)
                    and window_rate > lifetime_rate):
                state["cooldown"] = self.window
                return window_rate
            return None
