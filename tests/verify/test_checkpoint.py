"""Crash-safe checkpoint journals and bit-identical resume."""

import json
import os

import pytest

from repro import obs
from repro.core import ProductDomain, ViolationNotice
from repro.core.errors import ReproError, SweepInterruptedError
from repro.flowchart import library as figure_library
from repro.verify import (CheckpointWriter, load_checkpoint,
                          parallel_soundness_sweep)
from repro.verify.checkpoint import (config_fingerprint, decode_value,
                                     encode_value, load_journal)
from repro.verify.parallel import ChunkSummary

DESCRIPTOR = {"pairs": [["p", "allow(1)", 4]], "chunks": [[2, 2]],
              "factory": "surveillance", "fuel": 100, "value_cap": None}


def rows(results):
    return [(r.program_name, r.policy_name, r.sound, r.accepts)
            for r in results]


def sweep(**kwargs):
    return parallel_soundness_sweep(
        [figure_library.parity_program(), figure_library.max_program()],
        "surveillance",
        grid=lambda arity: ProductDomain.integer_grid(0, 2, arity),
        executor="thread", max_workers=2, chunk_size=2, **kwargs)


class TestValueCodec:
    @pytest.mark.parametrize("value", [
        0, -17, "Λ", (1, 2), (1, (2, "x")),
        ViolationNotice("Λ!fuel[100]"),
        (ViolationNotice("Λ!cap[8]"), 3),
    ])
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_notices_round_trip_as_notices(self):
        restored = decode_value(encode_value(ViolationNotice("Λ!x")))
        assert isinstance(restored, ViolationNotice)

    @pytest.mark.parametrize("value", [True, 1.5, {"a": 1}, None])
    def test_unsupported_types_rejected(self, value):
        with pytest.raises(ReproError):
            encode_value(value)

    def test_unrecognised_encoding_rejected(self):
        with pytest.raises(ReproError):
            decode_value({"weird": 1})


class TestJournal:
    def test_write_then_load_round_trips(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        summary = ChunkSummary(
            2, {0: 4, 1: ViolationNotice("Λ!crash[MemoryError]")}, False)
        with CheckpointWriter(path, DESCRIPTOR) as writer:
            writer.write_chunk(0, 0, summary)
            writer.write_chunk(0, 1, ChunkSummary(1, {(2, 3): (5, "Λ")},
                                                  True))
        meta, summaries, records = load_checkpoint(
            path, config_fingerprint(DESCRIPTOR))
        assert records == 3
        assert meta["sweep"]["factory"] == "surveillance"
        restored = summaries[(0, 0)]
        assert restored.accepts == 2
        assert restored.classes == summary.classes
        assert list(restored.classes) == list(summary.classes)  # order
        assert summaries[(0, 1)].conflict is True

    def test_journal_is_a_valid_trace(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with CheckpointWriter(path, DESCRIPTOR) as writer:
            writer.write_chunk(0, 0, ChunkSummary(1, {0: 1}, False))
        with open(path, encoding="utf-8") as handle:
            count, problems = obs.validate_jsonl(handle)
        assert count == 2
        assert problems == []

    def test_torn_final_line_tolerated(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with CheckpointWriter(path, DESCRIPTOR) as writer:
            writer.write_chunk(0, 0, ChunkSummary(1, {0: 1}, False))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "checkpoint_written", "pair": 1, ')
        meta, summaries, records = load_checkpoint(path)
        assert records == 2
        assert set(summaries) == {(0, 0)}

    def test_corrupt_interior_line_rejected(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with CheckpointWriter(path, DESCRIPTOR) as writer:
            writer.write_chunk(0, 0, ChunkSummary(1, {0: 1}, False))
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        lines.insert(1, "not json\n")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(ReproError, match="corrupt"):
            load_checkpoint(path)

    def test_missing_file_and_header_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="does not exist"):
            load_checkpoint(str(tmp_path / "absent.jsonl"))
        path = tmp_path / "headless.jsonl"
        path.write_text('{"kind": "chunk_done", "seq": 0, "t": 0}\n')
        with pytest.raises(ReproError, match="checkpoint_meta"):
            load_checkpoint(str(path))

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        CheckpointWriter(path, DESCRIPTOR).close()
        changed = dict(DESCRIPTOR, fuel=999)
        with pytest.raises(ReproError, match="different sweep"):
            load_checkpoint(path, config_fingerprint(changed))


class TestSweepResume:
    def test_interrupted_then_resumed_rows_are_bit_identical(self,
                                                             tmp_path):
        path = str(tmp_path / "ck.jsonl")
        baseline = rows(sweep())

        # Fires at the first poll: the sweep must drain whatever is in
        # flight, journal it, and raise — however little completed.
        with pytest.raises(SweepInterruptedError) as info:
            sweep(checkpoint=path, stop=lambda: "signal")
        assert info.value.reason == "signal"
        assert info.value.checkpoint == path

        resumed = sweep(checkpoint=path, resume=True)
        assert rows(resumed) == baseline

    def test_resume_of_a_complete_journal_reruns_nothing(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        baseline = rows(sweep(checkpoint=path))
        ring = obs.RingBufferSink()
        with obs.observed(sinks=[ring], reset=True):
            resumed = rows(sweep(checkpoint=path, resume=True))
        assert resumed == baseline
        assert not ring.events("chunk_done")  # everything restored
        restored = ring.events("sweep_resumed")
        assert restored and restored[0]["chunks_restored"] > 0

    def test_resume_under_changed_config_refuses(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        sweep(checkpoint=path)
        with pytest.raises(ReproError, match="different sweep"):
            sweep(checkpoint=path, resume=True, fuel=77)

    def test_journal_commits_once_per_task(self, tmp_path, monkeypatch):
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (fsyncs.append(fd), real_fsync(fd)))
        path = str(tmp_path / "ck.jsonl")
        sweep(checkpoint=path)
        # One task per (flowchart, chunk): parity's 3 grid points and
        # max's 9 in chunks of 2, each task deciding every policy.
        tasks = 2 + 5
        assert len(load_journal(path)) > tasks + 1
        assert len(fsyncs) == tasks + 1  # the header, then once per task

    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(ReproError):
            sweep(resume=True)

    def test_deadline_interrupts_with_reason(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        with pytest.raises(SweepInterruptedError) as info:
            sweep(checkpoint=path, deadline=1e-9)
        assert info.value.reason == "deadline"
        resumed = rows(sweep(checkpoint=path, resume=True))
        assert resumed == rows(sweep())

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ReproError):
            sweep(deadline=0)


class TestJournalWriter:
    """The journal base class the dist node runtime shares with
    checkpoints: fsync per record, torn-tail tolerant load."""

    def test_records_gain_seq_and_timestamp(self, tmp_path):
        from repro.verify.checkpoint import JournalWriter, load_journal
        path = str(tmp_path / "journal.jsonl")
        with JournalWriter(path) as journal:
            journal.write({"kind": "a"})
            journal.write({"kind": "b"})
        records = load_journal(path)
        assert [r["seq"] for r in records] == [0, 1]
        assert all(r["t"] >= 0.0 for r in records)
        assert [r["kind"] for r in records] == ["a", "b"]

    def test_resume_appends_past_start_seq(self, tmp_path):
        from repro.verify.checkpoint import JournalWriter, load_journal
        path = str(tmp_path / "journal.jsonl")
        with JournalWriter(path) as journal:
            journal.write({"kind": "a"})
        with JournalWriter(path, fresh=False, start_seq=1) as journal:
            journal.write({"kind": "b"})
        assert [r["seq"] for r in load_journal(path)] == [0, 1]

    def test_torn_tail_tolerated(self, tmp_path):
        from repro.verify.checkpoint import JournalWriter, load_journal
        path = str(tmp_path / "journal.jsonl")
        with JournalWriter(path) as journal:
            journal.write({"kind": "a"})
            journal.write({"kind": "b"})
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "torn')  # SIGKILL mid-write
        records = load_journal(path)
        assert [r["kind"] for r in records] == ["a", "b"]

    def test_reopening_a_torn_journal_appends_cleanly(self, tmp_path):
        # A node respawned after a crash mid-write reopens its journal
        # past the records it replayed: the torn tail goes, whatever
        # byte the tear fell on, and the next record gets the next seq.
        from repro.verify.checkpoint import JournalWriter, load_journal
        path = tmp_path / "journal.jsonl"
        with JournalWriter(str(path)) as journal:
            for kind in ("a", "b", "c"):
                journal.write({"kind": kind})
        data = path.read_bytes()
        start = data.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(start, len(data)):
            path.write_bytes(data[:cut])
            replayed = len(load_journal(str(path)))
            with JournalWriter(str(path), fresh=False,
                               start_seq=replayed) as journal:
                journal.write({"kind": "d"})
            records = load_journal(str(path))
            assert [r["kind"] for r in records] == ["a", "b", "d"], cut
            assert [r["seq"] for r in records] == [0, 1, 2], cut

    def test_mid_file_corruption_raises(self, tmp_path):
        from repro.core.errors import ReproError
        from repro.verify.checkpoint import JournalWriter, load_journal
        path = str(tmp_path / "journal.jsonl")
        with JournalWriter(path) as journal:
            journal.write({"kind": "a"})
            journal.write({"kind": "b"})
        lines = open(path, "rb").read().splitlines(keepends=True)
        with open(path, "wb") as handle:
            handle.write(b"garbage\n")
            handle.writelines(lines[1:])
        with pytest.raises(ReproError, match="corrupt at line 1"):
            load_journal(path)

    def test_missing_journal_raises(self, tmp_path):
        from repro.core.errors import ReproError
        from repro.verify.checkpoint import load_journal
        with pytest.raises(ReproError, match="does not exist"):
            load_journal(str(tmp_path / "absent.jsonl"))
