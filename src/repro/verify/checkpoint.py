"""Crash-safe sweep checkpoints: journal chunk summaries, resume later.

A checkpoint is a JSONL file of *valid trace events* (they pass
:func:`repro.obs.events.validate_jsonl`):

- one ``checkpoint_meta`` header carrying the sweep's config
  fingerprint (programs, policies, grid, factory, budgets, and the
  chunk layout — everything resume determinism depends on);
- one ``checkpoint_written`` record per completed chunk, carrying the
  chunk's full :class:`~repro.verify.parallel.ChunkSummary` (acceptance
  count, per-policy-class representatives in domain order, conflict
  flag).

Crash safety is line-at-a-time: the sweep commits the journal once
per task, so a sweep killed mid-flight loses at most that task's
records and leaves at worst one torn final line, which
:func:`load_checkpoint` tolerates and resume truncates before it
appends.  The sweep re-schedules only the chunks the journal does not
already cover; because the summaries are merged in chunk order either
way, a resumed sweep's rows are bit-identical to an uninterrupted
run's.

The config fingerprint is the resume guard: a checkpoint written under
one sweep configuration (different grid, fuel, value cap, chunk size…)
refuses to resume another, because restored summaries would then be
merged against a different chunk layout and silently corrupt verdicts.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Dict, List, Optional, Tuple

from ..core.errors import ReproError
from ..core.mechanism import ViolationNotice
from ..obs.audit import JsonlLog, _canonical, canonical_object, iter_jsonl

__all__ = ["CheckpointWriter", "EncodedValues", "JournalWriter",
           "config_fingerprint", "encode_value", "decode_value",
           "load_checkpoint", "load_journal"]


def encode_value(value):
    """JSON-encode a policy-class key or mechanism output.

    Violation notices carry their message under ``"n"``, tuples
    (policy values, timed outputs) under ``"t"``; plain ints pass
    through.  The encoding round-trips through :func:`decode_value`
    exactly — notice equality is message equality, so a restored class
    representative compares identically to a recomputed one.
    """
    if isinstance(value, ViolationNotice):
        return {"n": value.message}
    if isinstance(value, tuple):
        return {"t": [encode_value(part) for part in value]}
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ReproError(
            f"cannot checkpoint value of type {type(value).__name__}: "
            f"{value!r}")
    return value


def decode_value(encoded):
    """Invert :func:`encode_value`."""
    if isinstance(encoded, dict):
        if "n" in encoded:
            return ViolationNotice(encoded["n"])
        if "t" in encoded:
            return tuple(decode_value(part) for part in encoded["t"])
        raise ReproError(f"unrecognised checkpoint value {encoded!r}")
    return encoded


class EncodedValues(dict):
    """``value -> `` canonical JSON text of ``encode_value(value)``.

    Each distinct value is encoded on its first lookup only: a sweep's
    journal and ledger repeat the same class keys, outputs and names in
    record after record.  Values equal under ``==`` share one text,
    which is exact for the ints, strings, notices and tuples of them
    that sweeps produce.
    """

    __slots__ = ()

    def __missing__(self, value) -> str:
        text = self[value] = _canonical(encode_value(value))
        return text


def config_fingerprint(descriptor: Dict) -> str:
    """A stable hash of everything resume determinism depends on."""
    return hashlib.sha256(_canonical(descriptor).encode()).hexdigest()


class JournalWriter:
    """A crash-safe append-only journal, written through
    :class:`~repro.obs.audit.JsonlLog`.

    The format every journal in the repo shares (sweep checkpoints
    here, node-state journals in :mod:`repro.dist`): each record gains
    a monotone ``seq`` and relative timestamp ``t`` and is one line.
    :meth:`write` commits before it returns (a node acks only what it
    journalled); chunk records wait for the sweep's :meth:`commit`.

    ``fresh`` truncates; resume passes ``fresh=False`` (and
    ``start_seq`` past the restored records) to append.
    """

    def __init__(self, path: str, fresh: bool = True,
                 start_seq: int = 0) -> None:
        self.path = path
        self._seq = start_seq
        self._t0 = time.monotonic()
        self._log = JsonlLog(path, fresh)

    def _stamp(self) -> Tuple[int, float]:
        """The next record's ``(seq, t)``."""
        seq = self._seq
        self._seq += 1
        return seq, round(time.monotonic() - self._t0, 6)

    def write(self, record: Dict) -> None:
        """Append one record durably (seq and timestamp added here)."""
        record = dict(record)
        record["seq"], record["t"] = self._stamp()
        self._log.write(_canonical(record))
        self.commit()

    def commit(self) -> None:
        """Make every record written so far durable."""
        self._log.commit()

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CheckpointWriter(JournalWriter):
    """Appends one JSONL record per completed chunk.

    ``fresh`` truncates and writes the ``checkpoint_meta`` header;
    resume passes ``fresh=False`` (and ``start_seq`` past the restored
    records) to append to the existing journal.
    """

    def __init__(self, path: str, descriptor: Dict, fresh: bool = True,
                 start_seq: int = 0) -> None:
        super().__init__(path, fresh=fresh, start_seq=start_seq)
        self.texts = EncodedValues()
        if fresh:
            self.write({"kind": "checkpoint_meta",
                        "config": config_fingerprint(descriptor),
                        "sweep": descriptor})

    def write_chunk(self, pair: int, chunk: int, summary) -> None:
        """Journal one chunk summary; durable at the next :meth:`commit`.

        ``classes`` lists ``[key, output]`` pairs in domain order; each
        distinct class key and output is encoded once per writer.
        """
        texts = self.texts
        classes = ",".join([f"[{texts[key]},{texts[output]}]"
                            for key, output in summary.classes.items()])
        record = {"kind": '"checkpoint_written"', "pair": str(pair),
                  "chunk": str(chunk), "accepts": str(summary.accepts),
                  "conflict": "true" if summary.conflict else "false",
                  "classes": f"[{classes}]"}
        backend = getattr(summary, "backend", None)
        if backend is not None:
            record["backend"] = texts[backend]
        seq, t = self._stamp()
        record["seq"], record["t"] = str(seq), repr(t)
        self._log.write(canonical_object(record))


def load_journal(path: str) -> List[Dict]:
    """Read a JSONL journal, tolerating one torn final line.

    The load half of the :class:`JournalWriter` durability contract
    (:func:`~repro.obs.audit.iter_jsonl`): a journal whose writer was
    SIGKILLed mid-record parses up to the torn tail; corruption
    anywhere *else* raises.
    """
    if not os.path.exists(path):
        raise ReproError(f"journal {path!r} does not exist")
    return list(iter_jsonl(path, "journal"))


def load_checkpoint(path: str,
                    expected_fingerprint: Optional[str] = None
                    ) -> Tuple[Dict, Dict[Tuple[int, int], object], int]:
    """Read a checkpoint journal; returns ``(meta, summaries, records)``.

    ``summaries`` maps ``(pair, chunk)`` to restored
    :class:`~repro.verify.parallel.ChunkSummary` objects (class dicts
    rebuilt in their journalled — i.e. domain — order).  ``records`` is
    the total record count (for seq continuation on append).

    A torn final line (the SIGKILL case) is tolerated; anything else
    malformed raises.  When ``expected_fingerprint`` is given, a
    mismatch with the journal's ``checkpoint_meta`` raises — resuming
    under a different sweep configuration would corrupt verdicts.
    """
    from .parallel import ChunkSummary

    records = load_journal(path)
    if not records or records[0].get("kind") != "checkpoint_meta":
        raise ReproError(
            f"checkpoint {path!r} has no checkpoint_meta header")
    meta = records[0]
    if (expected_fingerprint is not None
            and meta.get("config") != expected_fingerprint):
        raise ReproError(
            f"checkpoint {path!r} was written by a different sweep "
            "configuration (programs/policies/grid/budgets/chunking "
            "changed); refusing to resume")
    summaries: Dict[Tuple[int, int], object] = {}
    for record in records[1:]:
        if record.get("kind") != "checkpoint_written":
            raise ReproError(
                f"checkpoint {path!r} contains unexpected "
                f"{record.get('kind')!r} record")
        classes = {}
        for key, output in record["classes"]:
            classes[decode_value(key)] = decode_value(output)
        summaries[(record["pair"], record["chunk"])] = ChunkSummary(
            record["accepts"], classes, record["conflict"],
            record.get("backend"))
    return meta, summaries, len(records)
