"""Crash consistency of the sweep journal and the audit ledger.

A sweep journal cut anywhere — at a record boundary, or torn inside a
record as a crash mid-write leaves it — must resume, be interrupted,
resume again and end with the uninterrupted run's rows, ledger bytes
and seal.  What is on disk is checked, not what the writer meant to
write: the final journal holds every chunk exactly once with
contiguous ``seq``.  A resume the journal refuses leaves no trace.
"""

import json

import pytest

from repro import obs
from repro.core import ProductDomain
from repro.core.errors import ReproError, SweepInterruptedError
from repro.flowchart import library as figure_library
from repro.obs.audit import verify_ledger
from repro.verify import parallel_soundness_sweep
from repro.verify.checkpoint import load_journal

PROGRAMS = [figure_library.parity_program(), figure_library.gcd_program()]


def sweep(**kwargs):
    return parallel_soundness_sweep(
        PROGRAMS, "surveillance",
        grid=lambda arity: ProductDomain.integer_grid(0, 3, arity),
        executor="serial", chunk_size=4, **kwargs)


def rows(results):
    return [(r.program_name, r.policy_name, r.sound, r.accepts, r.backends)
            for r in results]


def stop_after(tasks):
    """A stop callable that lets ``tasks`` tasks start, then stops."""
    polls = iter(range(tasks))
    return lambda: None if next(polls, None) is not None else "stop"


def content(records):
    """Journal records without their ``seq``/``t`` stamps."""
    return sorted(json.dumps({key: value for key, value in record.items()
                              if key not in ("seq", "t")}, sort_keys=True)
                  for record in records)


def files(ledger):
    """A ledger's bytes and its seal's."""
    head = ledger.parent / (ledger.name + ".head")
    return ledger.read_bytes(), head.read_bytes()


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """The uninterrupted run: its rows, journal bytes, journal records
    and ledger bytes with seal."""
    work = tmp_path_factory.mktemp("uninterrupted")
    journal, ledger = work / "ck.jsonl", work / "audit.jsonl"
    results = sweep(checkpoint=str(journal), audit=str(ledger))
    return (rows(results), journal.read_bytes(), load_journal(str(journal)),
            files(ledger))


def cuts(data):
    """``(name, length)`` of every prefix to resume from: each record
    boundary after the header, a tear inside each record, and a tear
    just before each record's newline."""
    ends = [index + 1 for index, byte in enumerate(data) if byte == 0x0A]
    for start, end in zip(ends, ends[1:]):
        yield f"tear-mid@{end}", (start + end) // 2
        yield f"tear-newline@{end}", end - 1
    for end in ends:
        yield f"boundary@{end}", end


class TestEveryCutResumes:
    def test_every_cut_resumes_to_the_uninterrupted_run(self, tmp_path,
                                                        uninterrupted):
        baseline, data, records, ledger_files = uninterrupted
        assert len(records) > 10
        journal, ledger = tmp_path / "ck.jsonl", tmp_path / "audit.jsonl"
        for name, length in cuts(data):
            journal.write_bytes(data[:length])
            try:
                sweep(checkpoint=str(journal), resume=True,
                      audit=str(ledger), stop=stop_after(2))
            except SweepInterruptedError:
                pass
            resumed = sweep(checkpoint=str(journal), resume=True,
                            audit=str(ledger))
            assert rows(resumed) == baseline, name
            assert files(ledger) == ledger_files, name
            assert verify_ledger(str(ledger)).ok, name
            on_disk = load_journal(str(journal))
            assert content(on_disk) == content(records), name
            assert [record["seq"] for record in on_disk] == list(
                range(len(on_disk))), name

    def test_a_cut_inside_the_header_refuses(self, tmp_path,
                                             uninterrupted):
        _, data, _, _ = uninterrupted
        journal, ledger = tmp_path / "ck.jsonl", tmp_path / "audit.jsonl"
        sweep(audit=str(ledger))
        before = files(ledger)
        for length in range(data.index(b"\n")):
            journal.write_bytes(data[:length])
            with pytest.raises(ReproError, match="checkpoint_meta"):
                sweep(checkpoint=str(journal), resume=True,
                      audit=str(ledger))
            assert files(ledger) == before, length


class TestRefusedResume:
    """A resume the journal refuses truncates no ledger, leaves no span
    open and counts or emits nothing."""

    def refuse(self, journal, ledger, match, **kwargs):
        before = files(ledger)
        ring = obs.RingBufferSink()
        with obs.observed(sinks=[ring], reset=True) as registry:
            with pytest.raises(ReproError, match=match):
                sweep(checkpoint=str(journal), resume=True,
                      audit=str(ledger), **kwargs)
            assert obs.current_span() is None
            counters = registry.snapshot()["counters"]
        assert files(ledger) == before
        assert "sweep.count" not in counters
        assert not ring.events("sweep_start")

    def test_fingerprint_mismatch(self, tmp_path):
        journal, ledger = tmp_path / "ck.jsonl", tmp_path / "audit.jsonl"
        sweep(checkpoint=str(journal), audit=str(ledger))
        self.refuse(journal, ledger, "different sweep", fuel=77)

    def test_chunk_outside_the_layout(self, tmp_path):
        journal, ledger = tmp_path / "ck.jsonl", tmp_path / "audit.jsonl"
        sweep(checkpoint=str(journal), audit=str(ledger))
        forged = dict(load_journal(str(journal))[-1], chunk=99)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(forged) + "\n")
        self.refuse(journal, ledger, "outside this sweep's layout")

