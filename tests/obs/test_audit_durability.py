"""Ledger durability: fsync at seal boundaries, torn-tail recovery.

Every seal asserts "these N records exist with this head hash", so the
data must be on disk before the sidecar claims it is: every seal
commits the ledger file (flush and fsync) and fsyncs the sidecar
before its atomic replace.  A crash mid-write leaves an unterminated
final line, which a resumed ledger truncates away and re-seals, so the
chain continues from the longest well-formed prefix.
"""

import os

import pytest

from repro.obs.audit import (AuditLedger, decision_payload, load_ledger,
                             verify_ledger)


@pytest.fixture
def counted_fsync(monkeypatch):
    calls = []
    real_fsync = os.fsync

    def spy(fd):
        calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    return calls


class TestDurableSeals:
    def test_default_ledger_fsyncs_every_seal(self, tmp_path, counted_fsync):
        path = str(tmp_path / "ledger.jsonl")
        with AuditLedger(path, fresh=True) as ledger:
            counted_fsync.clear()
            ledger.append("accept")
        # One data fsync + one sidecar fsync per seal (seal_every=1),
        # and close() found nothing unsealed so added none.
        assert len(counted_fsync) == 2

    def test_deferred_seal_fsyncs_once_per_batch(self, tmp_path,
                                                 counted_fsync):
        path = str(tmp_path / "ledger.jsonl")
        with AuditLedger(path, fresh=True) as ledger:
            counted_fsync.clear()
            ledger.append_batch([decision_payload("accept"),
                                 decision_payload("notice", notice="Λ")])
            # One data commit and one sidecar fsync for the whole batch.
            assert len(counted_fsync) == 2
        assert len(counted_fsync) == 2  # close() found nothing to commit
        assert verify_ledger(path).ok

    def test_rotation_seals_durably(self, tmp_path, counted_fsync):
        path = str(tmp_path / "ledger.jsonl")
        with AuditLedger(path, fresh=True, max_bytes=200) as ledger:
            for index in range(8):
                ledger.append("accept", endpoint=f"/e{index}")
        assert os.path.exists(path + ".1")
        assert verify_ledger(path).ok
        assert verify_ledger(path + ".1").ok
        assert counted_fsync  # every generation sealed through fsync


class TestTornTailRecovery:
    def _seed_ledger(self, path, records=3):
        with AuditLedger(path, fresh=True) as ledger:
            for index in range(records):
                ledger.append("accept", endpoint=f"/e{index}")

    def test_resume_truncates_torn_tail_and_reseals(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        self._seed_ledger(path)
        with open(path, "ab") as handle:
            handle.write(b'{"decision":"acc')  # killed mid-write
        ledger = AuditLedger(path)
        assert ledger.records == 3
        ledger.append("notice", notice="Λ")
        ledger.close()
        result = verify_ledger(path)
        assert result.ok, result.problems
        assert result.records == 4
        assert [r["rec"] for r in load_ledger(path)] == [0, 1, 2, 3]

    def test_torn_only_file_recovers_to_genesis(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"torn')
        ledger = AuditLedger(path)
        assert ledger.records == 0
        ledger.append("accept")
        ledger.close()
        result = verify_ledger(path)
        assert result.ok, result.problems
        assert result.records == 1

    def test_clean_tail_is_left_alone(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        self._seed_ledger(path)
        before = open(path, "rb").read()
        ledger = AuditLedger(path)
        assert ledger.records == 3
        ledger.close()
        assert open(path, "rb").read() == before

    def test_torn_tail_after_stale_seal_rescans(self, tmp_path):
        # Non-durable crash shape: the sidecar seals 3 records but the
        # third line was torn.  Recovery truncates to 2 and re-seals.
        path = str(tmp_path / "ledger.jsonl")
        self._seed_ledger(path)
        with open(path, "rb+") as handle:
            data = handle.read()
            handle.truncate(len(data) - 10)  # tear the final record
        ledger = AuditLedger(path)
        assert ledger.records == 2
        ledger.close()
        result = verify_ledger(path)
        assert result.ok, result.problems
        assert result.records == 2
