"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import LIBRARY, main


class TestRun:
    def test_library_program(self, capsys):
        code = main(["run", "--library", "mixer", "2", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "value: 10" in out
        assert "steps:" in out

    def test_inline_source(self, capsys):
        code = main(["run", "--source",
                     "program p(x1) { y := x1 * 2 }", "21"])
        assert code == 0
        assert "value: 42" in capsys.readouterr().out

    def test_program_file(self, tmp_path, capsys):
        path = tmp_path / "p.jl"
        path.write_text("program p(x1) { y := x1 + 1 }")
        code = main(["run", "--file", str(path), "4"])
        assert code == 0
        assert "value: 5" in capsys.readouterr().out

    def test_requires_exactly_one_source(self, capsys):
        code = main(["run", "--library", "mixer", "--source", "x", "1"])
        assert code == 2
        assert "exactly one" in capsys.readouterr().err


class TestAnalyze:
    def test_sound_surveillance(self, capsys):
        code = main(["analyze", "--library", "forgetting",
                     "--policy", "allow(2)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sound:     True" in out
        assert "accepts:   4/16" in out

    def test_unsound_exit_code(self, capsys):
        code = main(["analyze", "--library", "mixer",
                     "--policy", "allow(1)", "--mechanism", "none"])
        out = capsys.readouterr().out
        assert code == 1
        assert "witness:" in out

    def test_time_observable_flag(self, capsys):
        sound = main(["analyze", "--library", "timing-loop",
                      "--policy", "allow()", "--mechanism", "timed",
                      "--time"])
        assert sound == 0
        unsound = main(["analyze", "--library", "timing-loop",
                        "--policy", "allow()", "--mechanism", "none",
                        "--time"])
        assert unsound == 1

    def test_maximal_mechanism(self, capsys):
        code = main(["analyze", "--library", "reconvergence",
                     "--policy", "allow(2)", "--mechanism", "maximal"])
        out = capsys.readouterr().out
        assert code == 0
        assert "accepts:   16/16" in out

    def test_verbose_table(self, capsys):
        main(["analyze", "--library", "forgetting", "--policy", "allow(2)",
              "--high", "1", "--verbose"])
        out = capsys.readouterr().out
        assert "per-input verdicts" in out
        assert "(1, 1)" in out

    def test_unknown_library_program(self, capsys):
        code = main(["analyze", "--library", "nope", "--policy",
                     "allow()"])
        assert code == 2
        assert "unknown library program" in capsys.readouterr().err

    def test_bad_policy(self, capsys):
        code = main(["analyze", "--library", "mixer", "--policy",
                     "deny(1)"])
        assert code == 2


class TestCertify:
    SOURCE = ("program p(x1, x2) { y := x1; "
              "if x2 == 0 { y := 0 } }")

    def test_rejected(self, capsys):
        code = main(["certify", "--source", self.SOURCE,
                     "--policy", "allow(2)"])
        out = capsys.readouterr().out
        assert code == 1
        assert "REJECTED" in out
        assert "label(y)" in out

    def test_certified(self, capsys):
        code = main(["certify", "--source",
                     "program p(x1, x2) { y := x1 }",
                     "--policy", "allow(1)"])
        assert code == 0
        assert "CERTIFIED" in capsys.readouterr().out


class TestLibrary:
    def test_lists_all_programs(self, capsys):
        assert main(["library"]) == 0
        out = capsys.readouterr().out
        for name in LIBRARY:
            assert name in out


class TestTransform:
    def test_ite_transform(self, capsys):
        code = main(["transform", "--library", "example7",
                     "--transform", "ite", "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Ite(" in out
        assert "functionally equivalent" in out and "True" in out

    def test_while_transform(self, capsys):
        code = main(["transform", "--library", "timing-loop",
                     "--transform", "while", "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "LoopExpr" in out

    def test_duplicate_transform(self, capsys):
        code = main(["transform", "--library", "example9",
                     "--transform", "duplicate", "--check"])
        assert code == 0

    def test_no_region_error(self, capsys):
        code = main(["transform", "--library", "mixer",
                     "--transform", "ite"])
        assert code == 2
        assert "no if-then-else region" in capsys.readouterr().err


class TestDot:
    def test_plain_dot(self, capsys):
        assert main(["dot", "--library", "max"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph {")
        assert "shape=diamond" in out

    def test_instrumented_dot(self, capsys):
        code = main(["dot", "--library", "forgetting",
                     "--instrument", "allow(2)"])
        assert code == 0
        assert "_viol" in capsys.readouterr().out


class TestExperiments:
    def test_index_lists_all(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "E01" in out and "E25" in out
        assert "Theorem 3" in out


class TestLint:
    def test_clean_program_exits_zero(self, capsys):
        code = main(["lint", "--library", "forgetting",
                     "--policy", "allow(1, 2)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FLOW002" in out and "statically certified" in out

    def test_rejected_policy_exits_one(self, capsys):
        code = main(["lint", "--library", "forgetting",
                     "--policy", "allow(2)"])
        out = capsys.readouterr().out
        assert code == 1
        assert "error: FLOW001" in out
        assert "1 error(s)" in out

    def test_without_policy_hygiene_only(self, capsys):
        code = main(["lint", "--library", "timing-loop"])
        out = capsys.readouterr().out
        assert code == 0
        assert "TIME002" in out  # the eponymous timing channel
        assert "FLOW" not in out

    def test_json_report_shape(self, capsys):
        code = main(["lint", "--library", "forgetting",
                     "--policy", "allow(2)", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["exit_code"] == 1
        assert payload["errors"] == 1
        (report,) = payload["reports"]
        assert report["flowchart"] == "forgetting"
        assert report["policy"] == "allow(2)"
        assert any(d["code"] == "FLOW001"
                   for d in report["diagnostics"])
        assert "influence" in report["pass_seconds"]

    def test_all_lints_whole_library(self, capsys):
        code = main(["lint", "--all", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["programs"] == len(LIBRARY)
        names = {report["flowchart"] for report in payload["reports"]}
        assert len(names) == len(LIBRARY)

    def test_all_excludes_program_selectors(self, capsys):
        code = main(["lint", "--all", "--library", "mixer"])
        assert code == 2
        assert "--all" in capsys.readouterr().err

    def test_precision_json_reports_gap_per_program(self, capsys):
        code = main(["lint", "--all", "--precision", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        precision = payload["precision"]
        assert precision["totals"]["unsound_static_accepts"] == 0
        # The completeness gap is reported for every library program.
        assert set(precision["per_program"]) == {
            LIBRARY[name]().name for name in LIBRARY}
        for row in precision["pairs"]:
            assert "static_gap" in row and "dynamic_gap" in row

    def test_inline_source(self, capsys):
        code = main(["lint", "--source",
                     "program p(x1) { y := x1 // 0 }"])
        out = capsys.readouterr().out
        assert code == 0  # warnings do not fail the lint
        assert "HYG005" in out


class TestArgparseFailures:
    """Bad invocations return codes, not tracebacks (SystemExit)."""

    def test_unknown_subcommand(self, capsys):
        code = main(["frobnicate"])
        assert code == 2
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_unknown_backend(self, capsys):
        code = main(["run", "--library", "mixer", "--backend", "bogus",
                     "1", "2"])
        assert code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_serve_has_no_lanes_option(self, capsys):
        assert main(["serve", "--lanes", "numpy"]) == 2
        assert "unrecognized arguments: --lanes" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "lint" in capsys.readouterr().out


class TestCertifyFlowchart:
    def test_library_program_uses_cfg_certifier(self, capsys):
        code = main(["certify", "--library", "reconvergence",
                     "--policy", "allow(2)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CFG certifier" in out and "CERTIFIED" in out

    def test_rejection(self, capsys):
        code = main(["certify", "--library", "forgetting",
                     "--policy", "allow(2)"])
        assert code == 1
        assert "REJECTED" in capsys.readouterr().out


class TestSweepTelemetry:
    def test_progress_flag_reports_each_pair(self, capsys):
        code = main(["sweep", "--programs", "parity", "--executor",
                     "thread", "--jobs", "2", "--progress"])
        captured = capsys.readouterr()
        assert code == 0
        assert "[2/2]" in captured.err

    def test_metrics_json_and_trace_artifacts(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.jsonl"
        code = main(["sweep", "--programs", "parity,forgetting",
                     "--executor", "thread", "--jobs", "2",
                     "--chunk-size", "3",
                     "--metrics-json", str(metrics_path),
                     "--trace", str(trace_path)])
        capsys.readouterr()
        assert code == 0

        payload = json.loads(metrics_path.read_text())
        assert payload["meta"]["pairs"] == 6
        assert payload["counters"]["sweep.count"] == 1
        assert payload["counters"]["sweep.points_evaluated"] > 0

        from repro.obs import validate_jsonl
        with open(trace_path) as handle:
            count, problems = validate_jsonl(handle)
        assert count > 0 and problems == []

    def test_sweep_fuel_flag_changes_acceptance(self, capsys):
        main(["sweep", "--programs", "gcd", "--executor", "serial"])
        default_out = capsys.readouterr().out
        main(["sweep", "--programs", "gcd", "--executor", "serial",
              "--fuel", "3"])
        tiny_out = capsys.readouterr().out
        assert default_out != tiny_out

    def test_invalid_chunk_size_is_a_clean_error(self, capsys):
        code = main(["sweep", "--programs", "parity",
                     "--executor", "thread", "--chunk-size", "0"])
        assert code == 2
        assert "chunk_size" in capsys.readouterr().err


class TestMetricsCommand:
    def test_schema_dump_is_valid_json(self, capsys):
        code = main(["metrics", "--schema"])
        out = capsys.readouterr().out
        assert code == 0
        schema = json.loads(out)
        assert "chunk_done" in schema["kinds"]

    def test_validate_clean_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        main(["sweep", "--programs", "parity", "--executor", "thread",
              "--jobs", "2", "--trace", str(trace_path)])
        capsys.readouterr()
        code = main(["metrics", "--validate", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 problem(s)" in out

    def test_validate_flags_bad_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "bad.jsonl"
        trace_path.write_text('{"kind": "chunk_done", "seq": 0}\nnot json\n')
        code = main(["metrics", "--validate", str(trace_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "problem" in captured.out
        assert captured.err  # per-line problems on stderr

    def test_validate_skips_a_torn_last_line(self, tmp_path, capsys):
        # A journal cut at any byte inside its last record, or ending
        # in a zero-filled block, validates as the journal reader and
        # --resume read it: the tail is skipped and reported.  A bad
        # line before the last one is still a problem.
        journal = tmp_path / "ck.jsonl"
        assert main(["sweep", "--programs", "gcd,max", "--high", "3",
                     "--chunk-size", "2", "--checkpoint",
                     str(journal)]) == 0
        data = journal.read_bytes()
        start = data.rstrip(b"\n").rfind(b"\n") + 1
        complete = data[:start].count(b"\n")
        tails = [data[:cut] for cut in range(start + 1, len(data))]
        tails.append(data[:start] + b"\0\0\0\0\n")
        torn = tmp_path / "torn.jsonl"
        capsys.readouterr()
        for tail in tails:
            torn.write_bytes(tail)
            assert main(["metrics", "--validate", str(torn)]) == 0, tail
            out = capsys.readouterr().out
            assert f"{complete} event(s), 0 problem(s)" in out, tail
            assert "skipped a torn last line" in out, tail
        lines = data.splitlines(keepends=True)
        torn.write_bytes(b"".join(lines[:2] + [b"garbage\n"] + lines[2:]))
        assert main(["metrics", "--validate", str(torn)]) == 1
        assert "line 3: event 3: not JSON" in capsys.readouterr().err

    def test_render_from_json(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        main(["sweep", "--programs", "parity", "--executor", "thread",
              "--jobs", "2", "--metrics-json", str(metrics_path)])
        capsys.readouterr()
        code = main(["metrics", "--from-json", str(metrics_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep.points_evaluated" in out
        assert "command: sweep" in out


class TestExplain:
    def test_violation_chain_printed_and_exit_one(self, capsys):
        code = main(["explain", "--library", "mixer",
                     "--policy", "allow(1)", "1", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATION" in out
        assert "influence chain:" in out
        assert "input x2 (index 2)" in out

    def test_accepted_point_exits_zero(self, capsys):
        code = main(["explain", "--library", "mixer",
                     "--policy", "allow(1,2)", "1", "2"])
        assert code == 0
        assert "ACCEPTED" in capsys.readouterr().out

    def test_json_output_carries_the_chain(self, capsys):
        code = main(["explain", "--library", "mixer",
                     "--policy", "allow(1)", "--json", "1", "2"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "violation"
        assert payload["chain"][-1]["kind"] == "check"

    def test_static_mode_needs_no_point(self, capsys):
        code = main(["explain", "--library", "mixer",
                     "--policy", "allow(1)", "--static"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[static]" in out


class TestTraceAnalytics:
    def run_traced_sweep(self, tmp_path, explain=True):
        trace = tmp_path / "trace.jsonl"
        args = ["sweep", "--programs", "mixer",
                "--mechanism", "surveillance", "--executor", "serial",
                "--trace", str(trace)]
        if explain:
            args.append("--explain")
        assert main(args) == 0
        return trace

    def test_sweep_explain_requires_trace(self, capsys):
        code = main(["sweep", "--programs", "mixer", "--explain"])
        assert code == 2
        assert "--trace" in capsys.readouterr().err

    def test_summarize(self, tmp_path, capsys):
        trace = self.run_traced_sweep(tmp_path)
        capsys.readouterr()
        code = main(["trace", "summarize", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "events by kind" in out
        assert "span timing by op" in out

    def test_trace_explain_recovers_the_direct_chain(self, tmp_path,
                                                     capsys):
        trace = self.run_traced_sweep(tmp_path)
        capsys.readouterr()
        assert main(["explain", "--library", "mixer",
                     "--policy", "allow(1)", "1", "2"]) == 1
        direct = capsys.readouterr().out
        assert main(["trace", "explain", str(trace),
                     "--point", "1,2", "--program", "mixer"]) == 0
        recovered = capsys.readouterr().out
        wanted = next(block for block in direct.split("\n\n")
                      if "allow(1)" in block)
        assert wanted.strip() in recovered

    def test_trace_explain_without_matches_exits_one(self, tmp_path,
                                                     capsys):
        trace = self.run_traced_sweep(tmp_path, explain=False)
        capsys.readouterr()
        code = main(["trace", "explain", str(trace), "--point", "1,2"])
        assert code == 1
        assert "--explain" in capsys.readouterr().err

    def test_spans_tree_single_rooted(self, tmp_path, capsys):
        trace = self.run_traced_sweep(tmp_path)
        capsys.readouterr()
        code = main(["trace", "spans", str(trace), "--tree",
                     "--expect-single-root"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.lstrip().startswith("sweep [")
        assert "1 root(s), 0 problem(s)" in out

    def test_slow_lists_top_spans(self, tmp_path, capsys):
        trace = self.run_traced_sweep(tmp_path)
        capsys.readouterr()
        code = main(["trace", "slow", str(trace), "--top", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep" in out

    def test_missing_trace_file_is_clean_error(self, capsys):
        code = main(["trace", "summarize", "/nonexistent/trace.jsonl"])
        assert code == 2


class TestMetricsPrometheus:
    def test_from_json_prometheus_output(self, tmp_path, capsys):
        snapshot = {"counters": {"sweep.count": 1},
                    "gauges": {}, "histograms": {}}
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(snapshot))
        code = main(["metrics", "--from-json", str(path), "--prometheus"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE repro_sweep_count counter" in out
        assert "repro_sweep_count 1" in out
        assert not out.startswith("meta")


class TestSweepRobustness:
    """The PR-5 hardening flags: validation, caps, chaos, checkpoints."""

    ARGS = ["sweep", "--programs", "parity", "--executor", "serial"]

    @pytest.mark.parametrize("flags", [
        ["--value-cap", "0"],
        ["--value-cap", "-8"],
        ["--deadline", "0"],
        ["--deadline", "-1.5"],
    ])
    def test_nonpositive_budgets_rejected(self, flags, capsys):
        code = main(self.ARGS + flags)
        assert code == 2
        assert "must be a positive" in capsys.readouterr().err

    def test_resume_without_checkpoint_rejected(self, capsys):
        code = main(self.ARGS + ["--resume"])
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_resume_from_missing_checkpoint_rejected(self, tmp_path,
                                                     capsys):
        code = main(self.ARGS + ["--checkpoint",
                                 str(tmp_path / "absent.jsonl"),
                                 "--resume"])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["bogus", "seed=3,warp=1"])
    def test_bad_chaos_spec_rejected(self, spec, capsys):
        code = main(self.ARGS + ["--chaos", spec])
        assert code == 2
        assert "chaos" in capsys.readouterr().err

    def test_run_rejects_nonpositive_value_cap(self, capsys):
        code = main(["run", "--library", "mixer", "--value-cap", "0",
                     "2", "3"])
        assert code == 2
        assert "--value-cap" in capsys.readouterr().err

    def test_run_honours_value_cap(self, capsys):
        code = main(["run", "--library", "mixer", "--value-cap", "2",
                     "2", "3"])
        capsys.readouterr()
        assert code == 2  # ValueCapExceededError is a ReproError

    def test_sweep_value_cap_changes_rows(self, tmp_path, capsys):
        wide = tmp_path / "wide.json"
        narrow = tmp_path / "narrow.json"
        assert main(self.ARGS + ["--results-json", str(wide)]) == 0
        # A 1-bit cap truncates most of parity's arithmetic into cap
        # notices, which may flip soundness — exit 1 is legitimate.
        assert main(self.ARGS + ["--value-cap", "1",
                                 "--results-json", str(narrow)]) in (0, 1)
        capsys.readouterr()
        wide_rows = json.loads(wide.read_text())
        narrow_rows = json.loads(narrow.read_text())
        assert [row["policy"] for row in wide_rows] == \
            [row["policy"] for row in narrow_rows]
        assert wide_rows != narrow_rows

    def test_checkpointed_sweep_round_trips(self, tmp_path, capsys):
        checkpoint = tmp_path / "ck.jsonl"
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(self.ARGS + ["--chunk-size", "2",
                                 "--checkpoint", str(checkpoint),
                                 "--results-json", str(first)]) == 0
        assert main(self.ARGS + ["--chunk-size", "2",
                                 "--checkpoint", str(checkpoint),
                                 "--resume",
                                 "--results-json", str(second)]) == 0
        capsys.readouterr()
        assert first.read_text() == second.read_text()
        assert main(["metrics", "--validate", str(checkpoint)]) == 0

    def test_chaos_poison_is_quarantined_not_fatal(self, tmp_path,
                                                   capsys):
        results = tmp_path / "rows.json"
        code = main(self.ARGS + ["--chunk-size", "2",
                                 "--chaos", "seed=3,poison=1",
                                 "--results-json", str(results)])
        capsys.readouterr()
        assert code in (0, 1)  # quarantine may flip a sound verdict
        assert json.loads(results.read_text())

    def test_deadline_exit_is_124(self, tmp_path, capsys):
        code = main(["sweep", "--executor", "thread", "--high", "3",
                     "--chunk-size", "2",
                     "--checkpoint", str(tmp_path / "ck.jsonl"),
                     "--deadline", "0.0000001"])
        err = capsys.readouterr().err
        assert code == 124
        assert "deadline" in err

    def test_trace_summarize_reports_recovery(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(self.ARGS + ["--chunk-size", "2",
                                 "--chaos", "seed=3,poison=1",
                                 "--trace", str(trace)])
        assert code in (0, 1)
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "recovery:" in out
        # Poisoned point 1 is evaluated once per policy pair (parity
        # has two allow policies), so it quarantines twice.
        assert "2 point(s) quarantined" in out


class TestSweepBatchBackend:
    """The Gen-2 batch tier from the command line."""

    ARGS = ["sweep", "--programs", "parity,forgetting",
            "--executor", "serial", "--mechanism", "program"]

    def test_backend_listed_in_choices(self, capsys):
        code = main(["sweep", "--programs", "parity",
                     "--backend", "warp"])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'warp'" in err
        assert "batch" in err  # the registry's tiers are listed

    def test_batch_rows_match_default_backend(self, tmp_path, capsys):
        # The per-point interpreter is the reference for both shared-run
        # backends: batch, and compiled (the default unless
        # REPRO_BACKEND says otherwise, so it is passed explicitly).
        results = {}
        for backend in ("interpreted", "batch", "compiled"):
            path = tmp_path / f"{backend}.json"
            assert main(self.ARGS + ["--backend", backend,
                                     "--results-json", str(path)]) == 0
            results[backend] = json.loads(path.read_text())
        capsys.readouterr()

        def strip(rows):
            return [{key: value for key, value in row.items()
                     if key != "backends"} for row in rows]

        reference = strip(results["interpreted"])
        assert strip(results["batch"]) == reference
        assert strip(results["compiled"]) == reference
        # The journal of record: which tier actually evaluated each
        # pair, after any degradation.
        expected = {"interpreted": {"interpreted"}, "batch": {"batch"},
                    "compiled": {"batch"}}
        for backend, rows in results.items():
            assert all(set(row["backends"]) == expected[backend]
                       for row in rows), backend

    def test_batch_checkpoint_round_trips(self, tmp_path, capsys):
        checkpoint = tmp_path / "ck.jsonl"
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(self.ARGS + ["--backend", "batch",
                                 "--chunk-size", "3",
                                 "--checkpoint", str(checkpoint),
                                 "--results-json", str(first)]) == 0
        assert main(self.ARGS + ["--backend", "batch",
                                 "--chunk-size", "3",
                                 "--checkpoint", str(checkpoint),
                                 "--resume",
                                 "--results-json", str(second)]) == 0
        capsys.readouterr()
        assert first.read_text() == second.read_text()
        assert main(["metrics", "--validate", str(checkpoint)]) == 0

    def test_metrics_snapshot_carries_batch_gauges(self, tmp_path,
                                                   capsys):
        snapshot = tmp_path / "metrics.json"
        assert main(self.ARGS + ["--backend", "batch",
                                 "--metrics-json", str(snapshot)]) == 0
        capsys.readouterr()
        payload = json.loads(snapshot.read_text())
        assert payload["meta"]["backend"] == "batch"
        # One batch per (flowchart, chunk): the serial sweep holds each
        # of its two flowcharts' grids in one chunk.  The batch tier
        # caches nothing, so it sets no gauge.
        assert payload["counters"]["run.count.batch"] == 2
        assert not any(name.startswith("batch.")
                       for name in payload.get("gauges", {}))


class TestDynamicLintExitCodes:
    """The exit-code contract for the dynamic-policy passes.

    0 = clean or warnings/info only (DYN002/DYN003/INT000/INT002),
    1 = error diagnostics fired (DYN001/INT001),
    2 = usage errors — unchanged by the new passes.
    """

    def test_dyn001_and_int001_exit_one(self, capsys):
        code = main(["lint", "--library", "downgrade-guarded",
                     "--policy", "allow(2)"])
        out = capsys.readouterr().out
        assert code == 1
        assert "DYN001" in out and "INT001" in out

    def test_completion_time_failure_exits_one(self, capsys):
        code = main(["lint", "--library", "policy-tighten",
                     "--policy", "allow(1)"])
        out = capsys.readouterr().out
        assert code == 1
        assert "DYN001" in out and "DYN002" in out

    def test_warning_only_dynamic_lint_exits_zero(self, capsys):
        # INT002 without INT001: the guarded downgrade's occurrence is
        # secret-conditioned, but a later loosening clears the halt.
        code = main(["lint", "--source",
                     "program p(x1, x2) { y := x1; "
                     "if x2 > 0 { downgrade y(1) }; "
                     "policy allow(1, 2) }",
                     "--policy", "allow(1)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "INT002" in out and "INT001" not in out

    def test_certified_dynamic_program_exits_zero(self, capsys):
        code = main(["lint", "--library", "downgrade-launder",
                     "--policy", "allow()"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FLOW002" in out and "INT000" in out

    def test_usage_error_still_exits_two(self, capsys):
        code = main(["lint", "--all", "--library", "downgrade-launder"])
        assert code == 2

    def test_json_carries_pass_stats(self, capsys):
        code = main(["lint", "--library", "downgrade-guarded",
                     "--policy", "allow(2)", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        (report,) = payload["reports"]
        stats = report["pass_stats"]
        assert stats["epochs"]["iterations"] >= 1
        assert stats["unwinding"]["states_explored"] >= 1
        for entry in stats.values():
            assert entry["seconds"] >= 0


class TestDynamicSweepAndTrace:
    def test_default_sweep_excludes_dynamic_programs(self, tmp_path,
                                                     capsys):
        results = tmp_path / "results.json"
        code = main(["sweep", "--executor", "serial",
                     "--results-json", str(results)])
        capsys.readouterr()
        assert code == 0
        swept = {row["program"]
                 for row in json.loads(results.read_text())}
        assert swept
        assert all(not LIBRARY[name]().has_dynamic_policy()
                   for name in swept)

    def test_explicit_dynamic_selection_still_allowed(self, capsys):
        # By request the NI baseline judges the declassifier unsound —
        # the sweep runs (no usage error) and reports the disagreement.
        code = main(["sweep", "--programs", "downgrade-launder",
                     "--executor", "serial"])
        out = capsys.readouterr().out
        assert code == 1
        assert "unsound" in out

    def test_trace_summarize_reports_dynamic_line(self, tmp_path,
                                                  capsys):
        from repro import obs
        from repro.flowchart.library import (downgrade_partial_program,
                                             policy_tighten_program)
        from repro.obs.events import JsonlSink
        from repro.surveillance.dynamic import surveil

        trace = tmp_path / "trace.jsonl"
        with JsonlSink(str(trace)) as sink:
            with obs.observed(sinks=[sink], reset=True):
                surveil(policy_tighten_program(), (1, 0),
                        frozenset((1,)))
                surveil(downgrade_partial_program(), (1, 2),
                        frozenset((1,)))
        code = main(["trace", "summarize", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert ("dynamic:   1 policy change(s) (max epoch 1), "
                "1 downgrade(s), 1 epoch violation(s)") in out


class TestAudit:
    @staticmethod
    def sweep_ledger(tmp_path, capsys):
        path = tmp_path / "audit.jsonl"
        code = main(["sweep", "--programs", "timing-loop,parity",
                     "--mechanism", "surveillance", "--executor", "serial",
                     "--chunk-size", "7", "--audit", str(path)])
        capsys.readouterr()
        assert code in (0, 1)  # 1 = unsound pairs found, still a sweep
        return path

    def test_verify_ok_then_tampered_exit_1(self, tmp_path, capsys):
        path = self.sweep_ledger(tmp_path, capsys)
        assert main(["audit", "verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "sealed" in out
        data = bytearray(path.read_bytes())
        data[data.index(b'"accept"') + 1] ^= 0x20
        path.write_bytes(bytes(data))
        assert main(["audit", "verify", str(path)]) == 1
        captured = capsys.readouterr()
        assert "TAMPERED" in captured.out
        assert "record" in captured.err  # names the offending record

    def test_tail_prints_canonical_jsonl(self, tmp_path, capsys):
        path = self.sweep_ledger(tmp_path, capsys)
        assert main(["audit", "tail", str(path), "--count", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert record["endpoint"] == "sweep"

    def test_query_by_kind(self, tmp_path, capsys):
        path = self.sweep_ledger(tmp_path, capsys)
        assert main(["audit", "query", str(path),
                     "--kind", "violation"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert all(json.loads(line)["decision"] == "notice"
                   for line in lines)

    def test_query_rejects_unknown_kind(self, tmp_path, capsys):
        path = self.sweep_ledger(tmp_path, capsys)
        assert main(["audit", "query", str(path), "--kind", "bogus"]) == 2
        assert "unknown notice kind" in capsys.readouterr().err

    def test_stats_table_and_json(self, tmp_path, capsys):
        path = self.sweep_ledger(tmp_path, capsys)
        assert main(["audit", "stats", str(path)]) == 0
        assert "per-tenant decisions" in capsys.readouterr().out
        assert main(["audit", "stats", str(path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["records"] > 0

    def test_missing_ledger_is_a_clean_error(self, tmp_path, capsys):
        assert main(["audit", "tail",
                     str(tmp_path / "missing.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_summarize_prints_audit_line(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        path = tmp_path / "audit.jsonl"
        code = main(["sweep", "--programs", "parity",
                     "--mechanism", "surveillance", "--executor", "serial",
                     "--chunk-size", "7", "--audit", str(path),
                     "--trace", str(trace)])
        capsys.readouterr()
        assert code in (0, 1)
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "audit:" in out and "record(s) appended" in out


class TestDistCommand:
    SOURCE = ("program relay(x1, x2) { s := x1 + x2; send ch(s); "
              "recv ch(u); y := u * 2 }")

    def test_clean_run_matches_serial(self, capsys):
        code = main(["dist", "run", "--source", self.SOURCE,
                     "--policy", "allow(1, 2)", "--nodes", "2", "3", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rows match: serial == distributed" in out
        assert "outcome=14" in out

    def test_chaosed_run_matches_serial(self, capsys):
        code = main(["dist", "run", "--source", self.SOURCE,
                     "--policy", "allow(1, 2)", "--nodes", "3",
                     "--chaos", "seed=1,drop=0.3,dup=0.2,kill=0.1",
                     "3", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rows match: serial == distributed" in out

    def test_corrupting_plan_totalizes(self, capsys):
        code = main(["dist", "run", "--source", self.SOURCE,
                     "--policy", "allow(1, 2)", "--nodes", "2",
                     "--chaos", "seed=1,corrupt=1.0", "3", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "corruption totalized" in out
        assert "Λ!msg[corrupt:" in out

    def test_trace_writes_single_rooted_tree(self, tmp_path, capsys):
        from repro.obs import build_span_tree, validate_jsonl
        trace = tmp_path / "dist.jsonl"
        code = main(["dist", "run", "--source", self.SOURCE,
                     "--policy", "allow(1, 2)", "--nodes", "2",
                     "--trace", str(trace), "3", "4"])
        assert code == 0
        capsys.readouterr()
        lines = trace.read_text(encoding="utf-8").splitlines()
        count, problems = validate_jsonl(lines)
        assert problems == []
        events = [json.loads(line) for line in lines]
        forest = build_span_tree(events)
        assert forest.problems == []
        assert forest.single_rooted
        assert forest.roots[0].op == "dist_run"
        assert any(event["kind"] == "message_sent" for event in events)

    def test_bad_nodes_rejected(self, capsys):
        code = main(["dist", "run", "--source", self.SOURCE,
                     "--policy", "allow(1, 2)", "--nodes", "0", "3", "4"])
        assert code != 0
