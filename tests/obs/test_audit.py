"""The tamper-evident audit ledger: chain, seal, analytics.

The contract under test is the ISSUE 9 acceptance list: ``verify``
detects **every** single-record mutation, truncation, and reorder
(reporting the offending record number); sampling is a deterministic
function of record content; rotation yields standalone-verifiable
generations; and the per-tenant stats flag windowed violation spikes.
"""

import json

import pytest

from repro.core.errors import ReproError
from repro.obs.audit import (GENESIS, AuditLedger, RecordHead, RecordLine,
                             SpikeTracker, _canonical, budget_fingerprint,
                             canonical_object, canonical_object_around,
                             classify_notice, decision_payload, ledger_stats,
                             load_ledger, query_records, tail_records,
                             verify_ledger)


def build_ledger(path, count=8, tenant="alice"):
    with AuditLedger(str(path), fresh=True) as ledger:
        for index in range(count):
            notice = "Λ!fuel[9]" if index % 3 == 2 else None
            ledger.append("notice" if notice else "accept", notice=notice,
                          tenant=tenant, endpoint="/execute",
                          provenance={"point": [index]})
    return str(path)


class TestChainVerify:
    def test_clean_ledger_verifies_sealed(self, tmp_path):
        path = build_ledger(tmp_path / "audit.jsonl")
        result = verify_ledger(path)
        assert result.ok and result.sealed
        assert result.records == 8
        assert result.problems == []

    def test_every_single_byte_flip_is_detected(self, tmp_path):
        """Flip each byte of the file in turn; verify must fail each time.

        The chain hashes raw line bytes, so even parse-neutral edits
        (whitespace, digit swaps inside strings) must break it.
        """
        path = build_ledger(tmp_path / "audit.jsonl", count=4)
        original = open(path, "rb").read()
        for offset in range(len(original)):
            mutated = bytearray(original)
            mutated[offset] ^= 0x01
            if mutated[offset] in (0x0A, 0x0D) or original[offset] == 0x0A:
                continue  # newline edits are structural, covered below
            with open(path, "wb") as handle:
                handle.write(bytes(mutated))
            assert not verify_ledger(path).ok, (
                f"byte flip at offset {offset} went undetected")
        with open(path, "wb") as handle:
            handle.write(original)
        assert verify_ledger(path).ok

    def test_mutation_reports_offending_record_number(self, tmp_path):
        path = build_ledger(tmp_path / "audit.jsonl")
        lines = open(path, "r", encoding="utf-8").read().splitlines()
        lines[3] = lines[3].replace("accept", "acCept", 1)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        result = verify_ledger(path)
        assert not result.ok
        # The break surfaces at record 5 (1-based): record 4's bytes no
        # longer hash to record 5's prev pointer.
        assert any("record 5" in problem or "record 4" in problem
                   for problem in result.problems), result.problems

    def test_dropped_line_is_detected(self, tmp_path):
        path = build_ledger(tmp_path / "audit.jsonl")
        lines = open(path, "r", encoding="utf-8").read().splitlines()
        del lines[2]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        result = verify_ledger(path)
        assert not result.ok
        assert any("record 3" in problem for problem in result.problems), (
            result.problems)

    def test_swapped_lines_are_detected(self, tmp_path):
        path = build_ledger(tmp_path / "audit.jsonl")
        lines = open(path, "r", encoding="utf-8").read().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        result = verify_ledger(path)
        assert not result.ok
        assert any("record 2" in problem for problem in result.problems), (
            result.problems)

    def test_tail_truncation_is_detected_by_the_seal(self, tmp_path):
        """Chopping whole records off the end keeps the chain intact —
        only the head seal can notice."""
        path = build_ledger(tmp_path / "audit.jsonl")
        lines = open(path, "r", encoding="utf-8").read().splitlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:5]) + "\n")
        result = verify_ledger(path)
        assert not result.ok
        assert any("seal" in problem or "head" in problem
                   for problem in result.problems), result.problems

    def test_last_record_mutation_is_detected(self, tmp_path):
        """The final record has no successor hashing it; the seal must."""
        path = build_ledger(tmp_path / "audit.jsonl")
        lines = open(path, "r", encoding="utf-8").read().splitlines()
        lines[-1] = lines[-1].replace("accept", "acXept", 1)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        assert not verify_ledger(path).ok

    def test_missing_ledger_is_an_error(self, tmp_path):
        with pytest.raises(ReproError):
            load_ledger(str(tmp_path / "nope.jsonl"))


class TestResumeAndRotation:
    def test_reopen_continues_the_chain(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        with AuditLedger(path) as ledger:
            ledger.append("accept", tenant="a", endpoint="/execute")
        with AuditLedger(path) as ledger:
            ledger.append("accept", tenant="a", endpoint="/execute")
        result = verify_ledger(path)
        assert result.ok and result.records == 2

    def test_rotation_generations_verify_standalone(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        with AuditLedger(path, max_bytes=600, keep=3) as ledger:
            for index in range(30):
                ledger.append("accept", tenant="t", endpoint="/execute",
                              provenance={"point": [index]})
        rotated = f"{path}.1"
        assert verify_ledger(path).ok
        assert verify_ledger(rotated).ok
        total = len(load_ledger(path)) + len(load_ledger(rotated))
        assert total >= 2  # records survive across generations

    def test_sampling_is_deterministic_by_content(self, tmp_path):
        first = str(tmp_path / "a.jsonl")
        second = str(tmp_path / "b.jsonl")
        for path in (first, second):
            with AuditLedger(path, sample=0.5, fresh=True) as ledger:
                for index in range(64):
                    ledger.append("accept", tenant="t", endpoint="/execute",
                                  provenance={"point": [index]})
        assert open(first, "rb").read() == open(second, "rb").read()
        kept = len(load_ledger(first))
        assert 0 < kept < 64  # thinned, but not emptied


class TestPayloads:
    def test_decision_payload_rejects_unknown_decisions(self):
        with pytest.raises(ReproError):
            decision_payload("maybe")

    def test_classify_notice_taxonomy(self):
        assert classify_notice(None) == "accept"
        assert classify_notice("Λ!fuel[100]") == "fuel"
        assert classify_notice("Λ!cap[8]") == "cap"
        assert classify_notice("Λ!crash[boom]") == "crash"
        assert classify_notice("Λ@e3") == "epoch"
        assert classify_notice("Λ") == "violation"

    def test_budget_fingerprint_is_stable_and_sensitive(self):
        base = budget_fingerprint(fuel=100, value_cap=8, backend="batch")
        assert base == budget_fingerprint(fuel=100, value_cap=8,
                                          backend="batch")
        assert base != budget_fingerprint(fuel=101, value_cap=8,
                                          backend="batch")

    def test_append_batch_appends_in_given_order(self, tmp_path):
        path = str(tmp_path / "m.jsonl")
        segments = [[decision_payload("accept", endpoint="sweep",
                                      provenance={"chunk": c, "i": i})
                     for i in range(2)] for c in range(3)]
        with AuditLedger(path, fresh=True) as ledger:
            appended = ledger.append_batch(
                payload for segment in segments for payload in segment)
        assert appended == 6
        records = load_ledger(path)
        assert [r["provenance"]["chunk"] for r in records] == [
            0, 0, 1, 1, 2, 2]
        assert verify_ledger(path).ok

    def test_record_lines_write_the_payload_bytes(self, tmp_path):
        """A pre-encoded record and its payload dict chain to the same
        line, wherever the chain puts it (genesis, mid-file, rotation)."""
        payloads = [decision_payload(
            "notice", notice=notice, endpoint="sweep", budget="b",
            provenance={"chunk": index, "class": {"t": [index]},
                        "program": 'mix "q\\ é'})
            for index, notice in enumerate(["Λ", 'q"\\é', "Λ!fuel[3]"] * 4)]

        def template(payload):
            head = dict(payload)
            texts = {name: _canonical(value)
                     for name, value in head.pop("provenance").items()}
            value = texts.pop("class")
            before, after = canonical_object_around(texts, "class")
            return RecordLine(RecordHead(head), before + value + after)

        files = {}
        for kind, items in (("dict", payloads),
                            ("line", [template(p) for p in payloads])):
            with AuditLedger(str(tmp_path / f"{kind}.jsonl"), fresh=True,
                             max_bytes=700, keep=9) as ledger:
                assert ledger.append_batch(items) == len(payloads)
            # Every generation and its seal, by suffix.
            files[kind] = {path.name[len(kind):]: path.read_bytes()
                           for path in tmp_path.glob(f"{kind}.jsonl*")}
        assert files["dict"] == files["line"]
        assert ".jsonl.1" in files["dict"]  # the batch rotated

    @pytest.mark.parametrize("name", ["a", "m", "z"])
    def test_canonical_object_around(self, name):
        texts = {"k": _canonical('q"\\ é'), "b": "1",
                 "x": _canonical({"t": [2, None]})}
        value = _canonical([3])
        before, after = canonical_object_around(texts, name)
        whole = dict(texts, **{name: value})
        assert before + value + after == canonical_object(whole)
        assert canonical_object(whole) == _canonical(
            {member: json.loads(text) for member, text in whole.items()})
        assert canonical_object_around({}, name) == (f'{{"{name}":', "}")

    def test_record_head_refuses_keys_after_prev(self):
        with pytest.raises(ReproError, match="tenant"):
            RecordHead(decision_payload("accept", tenant="a"))

    def test_batch_rotation_seals_every_generation(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        with AuditLedger(path, fresh=True, max_bytes=600, keep=9) as ledger:
            ledger.append_batch(
                decision_payload("accept", endpoint="sweep",
                                 provenance={"i": index})
                for index in range(10))
        generations = [path] + [f"{path}.{n}" for n in (1, 2, 3)]
        results = [verify_ledger(name) for name in generations]
        assert all(result.ok for result in results), [
            result.problems for result in results]
        assert sum(result.records for result in results) == 10
        first = load_ledger(path)[0]
        assert first["rec"] == 0 and first["prev"] == GENESIS


class TestQueryAndStats:
    def test_query_filters_compose(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        with AuditLedger(path, fresh=True) as ledger:
            ledger.append("accept", tenant="a", endpoint="/execute", ts=1.0)
            ledger.append("notice", notice="Λ!fuel[5]", tenant="a",
                          endpoint="/execute", ts=2.0)
            ledger.append("notice", notice="Λ", tenant="b",
                          endpoint="/lint", ts=3.0)
            ledger.append("accept", tenant="b", endpoint="sweep")  # no ts
        records = load_ledger(path)
        assert len(query_records(records, tenant="a")) == 2
        assert len(query_records(records, kind="fuel")) == 1
        assert len(query_records(records, endpoint="/lint")) == 1
        # Time filters exclude clock-less (sweep) records.
        assert len(query_records(records, since=1.5, until=2.5)) == 1
        assert len(query_records(records, tenant="b", kind="violation")) == 1

    def test_tail_returns_last_records(self, tmp_path):
        path = build_ledger(tmp_path / "t.jsonl", count=12)
        tail = tail_records(path, count=3)
        assert [record["rec"] for record in tail] == [9, 10, 11]

    def test_stats_flags_a_windowed_spike(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        with AuditLedger(path, fresh=True) as ledger:
            for index in range(100):
                ledger.append("accept", tenant="a", endpoint="/execute",
                              provenance={"i": index})
            for index in range(25):
                ledger.append("notice", notice="Λ", tenant="a",
                              endpoint="/execute", provenance={"j": index})
        stats = ledger_stats(load_ledger(path), window=50)
        row = stats["tenants"]["a"]
        assert row["total"] == 125 and row["notices"] == 25
        assert row["violation_rate"] == pytest.approx(0.2)
        assert row["window"]["rate"] == pytest.approx(0.5)
        assert row["window"]["spike"] is True

    def test_stats_quiet_tenant_never_spikes(self, tmp_path):
        path = build_ledger(tmp_path / "quiet.jsonl", count=30)
        stats = ledger_stats(load_ledger(path), window=50)
        assert stats["tenants"]["alice"]["window"]["spike"] is False


class TestSpikeTracker:
    def test_spike_fires_once_then_cools_down(self):
        tracker = SpikeTracker(window=10, spike_min_count=5)
        for _ in range(50):
            assert tracker.update("t", False) is None
        fired = [tracker.update("t", True) for _ in range(10)]
        rates = [rate for rate in fired if rate is not None]
        assert len(rates) == 1  # one alert per spike, not one per record

    def test_tenants_are_tracked_independently(self):
        tracker = SpikeTracker(window=10, spike_min_count=5)
        for _ in range(40):
            tracker.update("noisy", False)
            tracker.update("calm", False)
        for _ in range(10):
            tracker.update("noisy", True)
            tracker.update("calm", False)
        stats_fired = [tracker.update("calm", False) for _ in range(5)]
        assert all(rate is None for rate in stats_fired)
