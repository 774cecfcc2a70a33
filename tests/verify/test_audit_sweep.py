"""Sweep-path auditing: executor-invariant, tamper-evident ledgers.

The acceptance bar: the audit ledger a sweep writes is **bit-identical**
whether the chunks ran serially, on a thread pool, or on a process pool
— the ledger is a pure function of the sweep's inputs, like the results
themselves.  That only holds because segments are derived parent-side
from the merged chunk summaries and appended in (pair, chunk) order,
with no wall clock in the payloads.
"""

import hashlib
import json

import pytest

from repro.core import ProductDomain
from repro.flowchart.expr import var
from repro.flowchart.library import (parity_program, policy_loop_program,
                                     timing_loop)
from repro.flowchart.structured import Assign, StructuredProgram
from repro.obs.audit import _canonical, load_ledger, verify_ledger
from repro.verify import FaultPlan, chaos
from repro.verify.checkpoint import load_journal
from repro.verify.parallel import parallel_soundness_sweep


def sweep_with_audit(path, executor, chunk_size=7, **kwargs):
    return parallel_soundness_sweep(
        [timing_loop(), parity_program()], "surveillance",
        executor=executor, max_workers=2, chunk_size=chunk_size,
        audit=str(path), **kwargs)


def digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class TestSweepAudit:
    def test_ledger_bit_identical_across_executors(self, tmp_path):
        # Per-point chunks and shared-run chunks, journalled as they
        # complete: journal order follows completion, the ledger never.
        for backend in ("interpreted", "batch"):
            digests, journals = {}, {}
            for executor in ("serial", "thread", "process"):
                path = tmp_path / f"audit-{backend}-{executor}.jsonl"
                sweep_with_audit(path, executor, backend=backend,
                                 checkpoint=str(path) + ".ckpt")
                assert verify_ledger(str(path)).ok
                digests[executor] = digest(path)
                records = load_journal(str(path) + ".ckpt")
                for record in records:
                    del record["seq"], record["t"]
                journals[executor] = sorted(
                    records, key=lambda r: (r.get("pair", -1),
                                            r.get("chunk", -1)))
            assert len(set(digests.values())) == 1, (backend, digests)
            assert (journals["serial"] == journals["thread"]
                    == journals["process"])

    def test_records_carry_sweep_provenance(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        results = sweep_with_audit(path, "serial")
        records = load_ledger(str(path))
        assert records, "sweep wrote no audit records"
        for record in records:
            assert record["endpoint"] == "sweep"
            assert "ts" not in record  # no wall clock: determinism
            provenance = record["provenance"]
            assert set(provenance) >= {"program", "policy", "class",
                                       "pair", "chunk"}
        # Violating classes appear as notice records with the Λ string.
        notices = [record for record in records
                   if record["decision"] == "notice"]
        accepts = [record for record in records
                   if record["decision"] == "accept"]
        assert notices and accepts
        assert all(record["notice"].startswith("Λ") for record in notices)
        # The ledger and the verdicts agree: a pair is unsound exactly
        # when the reference disagrees, but every pair with any notice
        # record rejected something.
        programs_with_notices = {record["provenance"]["program"]
                                 for record in notices}
        by_name = {result.program_name for result in results
                   if result.accepts < result.domain_size}
        assert programs_with_notices <= by_name

    def test_rerun_overwrites_rather_than_extends(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        sweep_with_audit(path, "serial")
        first = load_ledger(str(path))
        sweep_with_audit(path, "serial")
        second = load_ledger(str(path))
        assert first == second  # fresh=True: same sweep, same ledger

    def test_tampered_sweep_ledger_fails_verify(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        sweep_with_audit(path, "serial")
        data = bytearray(path.read_bytes())
        data[data.index(b'"accept"') + 1] ^= 0x20
        path.write_bytes(bytes(data))
        result = verify_ledger(str(path))
        assert not result.ok
        assert result.problems

    def test_interrupted_sweep_leaves_no_partial_ledger(self, tmp_path):
        from repro.core.errors import SweepInterruptedError

        path = tmp_path / "audit.jsonl"
        calls = []

        def stop():
            calls.append(None)
            return "test-stop" if len(calls) > 1 else None

        with pytest.raises(SweepInterruptedError):
            parallel_soundness_sweep(
                [timing_loop(), parity_program()], "surveillance",
                executor="serial", chunk_size=4, audit=str(path),
                stop=stop)
        # The ledger exists (opened fresh) but holds no records:
        # completion-order partials would differ per executor.
        assert load_ledger(str(path)) == []


def odd_named_mixer():
    """``(x1 + x2) * 2`` under a name JSON must escape."""
    return StructuredProgram(
        ["x1", "x2"], [Assign("y", (var("x1") + var("x2")) * 2)],
        name='mix "q\\ é').compile()


class TestCanonicalLines:
    def test_sweep_files_are_canonical_json(self, tmp_path):
        # Every notice kind, from a batch sweep: timing-loop runs out
        # of fuel, the mixer's products break the cap, policy-loop
        # rejects under epoch tags, and the poisoned point crashes.
        ledger, journal = tmp_path / "audit.jsonl", tmp_path / "ck.jsonl"
        chaos.install(FaultPlan(seed=3, poison_points=((1, 2),)))
        try:
            parallel_soundness_sweep(
                [odd_named_mixer(), timing_loop(), policy_loop_program()],
                "surveillance",
                grid=lambda arity: ProductDomain.integer_grid(0, 4, arity),
                fuel=20, value_cap=3, executor="thread", max_workers=2,
                chunk_size=4, backend="batch", audit=str(ledger),
                checkpoint=str(journal))
        finally:
            chaos.clear()
        assert verify_ledger(str(ledger)).ok
        for path in (ledger, journal):
            for line in path.read_text(encoding="utf-8").splitlines():
                assert line == _canonical(json.loads(line))
        records = load_ledger(str(ledger))
        kinds = {record["kind"] for record in records}
        assert kinds == {"accept", "violation", "epoch", "fuel", "cap",
                         "crash"}
        notices = {record["notice"] for record in records
                   if record["decision"] == "notice"}
        assert {"Λ", "Λ!fuel[20]", "Λ!cap[3]",
                "Λ!crash[MemoryError]"} <= notices
        assert any(notice.startswith("Λ@e") for notice in notices)
        assert 'mix "q\\ é' in {record["provenance"]["program"]
                                 for record in records}
