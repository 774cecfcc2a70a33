"""Unit tests for scripts/bench_report.py (loaded by path; no workload
runs: the sections and the bench/run.py run are replaced by synthetic
ones)."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPT = os.path.join(ROOT, "scripts", "bench_report.py")

#: Every claim key the report emits: BENCH_PR10.json's, less the
#: pure-Python batch engine's (that engine is deleted).
CLAIM_KEYS = {
    "micro_speedup_at_least_3x", "sweep_faster_than_seed",
    "span_tree_single_rooted", "serve_sustains_200_rps",
    "audit_overhead_under_3pct", "distributed_rows_match_serial",
    "telemetry_noop_overhead_under_3pct",
    "telemetry_noop_overhead_under_3pct_vs_pr5",
    "guards_noop_overhead_under_3pct_vs_pr5",
    "batch_sweep_speedup_at_least_5x_vs_pr5",
    "flowlint_overhead_under_10pct_vs_pr6",
}


@pytest.fixture(scope="module")
def bench_report():
    spec = importlib.util.spec_from_file_location("bench_report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as handle:
        return json.load(handle)


def old_adjusted_pct(now_best, base_best, interp_ref, baseline_doc):
    """The drift-adjusted overhead as each section computed it before
    the one helper (``machine_drift_scale`` then
    ``drift_adjusted_overhead``)."""
    base_ref = (baseline_doc.get("micro_sweep_kernel", {})
                .get("interpreted_s", {}).get("best"))
    if not interp_ref or not base_ref:
        return None
    scale = interp_ref / base_ref
    return round((now_best / (base_best * scale) - 1.0) * 100, 2)


def timing(best):
    return {"best": best, "mean": best * 1.1, "reps": 5}


def synthetic_report(correct=True):
    """A report with every field the claims and the summaries read."""
    drift = {"noop_overhead_vs_pr1_pct": 1.0,
             "noop_overhead_vs_pr1_adjusted_pct": 2.0,
             "noop_overhead_vs_pr5_pct": -3.0,
             "noop_overhead_vs_pr5_adjusted_pct": -1.0}
    return {
        "bench": {"correct": correct, "attempted": 40,
                  "failed": 0 if correct else 1, "metrics": {
                      "serve_execute/throughput_per_s": {
                          "value": 2900.0, "unit": "1/s"},
                      "serve_execute/p50_ms": {"value": 1.2,
                                               "unit": "ms"}}},
        "micro_sweep_kernel": {"speedup": 8.1, "speedup_at_least_3x": True},
        "soundness_sweep": {"slowest_compiled_speedup_vs_seed": 1.9,
                            "faster_than_seed": True},
        "flowlint": {"pairs": 58, "lint_all_policies_s": timing(0.017),
                     "lint_overhead_vs_pr6_pct": 2.7,
                     "lint_overhead_vs_pr6_adjusted_pct": 8.5,
                     "lint_overhead_under_10pct_vs_pr6": True},
        "telemetry": dict(drift, metrics_overhead_pct=60.0,
                          traced_overhead_pct=130.0,
                          noop_overhead_under_3pct=True,
                          noop_overhead_under_3pct_vs_pr5=True),
        "guards": dict(drift, armed_cap_overhead_pct=40.0,
                       sweep_armed_cap_overhead_pct=0.5,
                       noop_overhead_under_3pct_vs_pr5=True),
        "batch": {"kernel_speedup": 1.6, "sweep_speedup_vs_compiled": 9.8,
                  "sweep_speedup_vs_pr5": 9.7,
                  "sweep_speedup_at_least_5x_vs_pr5": True},
        "provenance": {"span_roots": 1, "span_problems": 0,
                       "single_rooted": True, "traced_overhead_pct": 50.0,
                       "explain_overhead_pct": 230.0},
        "audit": {"serve_off_p50_ms": 0.54, "serve_on_p50_ms": 0.61,
                  "serve_off_p99_ms": 0.9, "serve_on_p99_ms": 1.0,
                  "serve_added_ms": 0.07, "serve_overhead_pct": 12.8,
                  "audit_overhead_under_3pct": False},
        "distributed": {"serial_s": timing(4e-5), "dist_3node_s": timing(0.08),
                        "chaos_3node_s": timing(0.3), "chaos_crashes": 2,
                        "rows_match_serial": True},
    }


class TestVersus:
    def test_adjusted_overhead_equals_the_old_formula(self, bench_report,
                                                      tmp_path, monkeypatch):
        baseline = {"micro_sweep_kernel": {"interpreted_s": timing(0.0190)},
                    "telemetry": {"hooks_off_s": timing(0.00258)}}
        (tmp_path / "BENCH_PR5.json").write_text(json.dumps(baseline))
        monkeypatch.setattr(bench_report, "REPO_ROOT", tmp_path)
        current = {"micro_sweep_kernel": {"interpreted_s": timing(0.0172)}}
        reference = current["micro_sweep_kernel"]["interpreted_s"]["best"]
        for now in (0.00221, 0.00258, 0.00301):
            section = {}
            base = bench_report.versus(
                section, now, 5, "telemetry/hooks_off_s/best", "hooks_off",
                reference, claim="noop_overhead_under_3pct_vs_pr5")
            expected = old_adjusted_pct(now, 0.00258, 0.0172, baseline)
            assert base == 0.00258
            assert section == {
                "pr5_hooks_off_best_s": 0.00258,
                "noop_overhead_vs_pr5_pct": round(
                    (now / 0.00258 - 1.0) * 100, 2),
                "machine_drift_scale_vs_pr5": round(0.0172 / 0.0190, 4),
                "noop_overhead_vs_pr5_adjusted_pct": expected,
                "noop_overhead_under_3pct_vs_pr5": expected < 3.0}

    def test_without_a_reference_the_raw_overhead_gates(self, bench_report,
                                                        tmp_path,
                                                        monkeypatch):
        (tmp_path / "BENCH_PR6.json").write_text(json.dumps(
            {"flowlint": {"lint_all_policies_s": timing(0.010)}}))
        monkeypatch.setattr(bench_report, "REPO_ROOT", tmp_path)
        section = {}
        bench_report.versus(section, 0.0105, 6,
                            "flowlint/lint_all_policies_s/best", "lint",
                            None, stem="lint", claim="under", limit=10.0)
        assert section == {"pr6_lint_best_s": 0.010,
                           "lint_overhead_vs_pr6_pct": 5.0, "under": True}
        assert bench_report.versus({}, 1.0, 7, "a/best", "a", 0.02) is None

    @pytest.mark.parametrize("section,pr,path,name,stem", [
        ("telemetry", 1, "micro_sweep_kernel/compiled_s/best", "compiled",
         "noop"),
        ("telemetry", 5, "telemetry/hooks_off_s/best", "hooks_off", "noop"),
        ("guards", 4, "telemetry/hooks_off_s/best", "hooks_off", "noop"),
        ("guards", 5, "telemetry/hooks_off_s/best", "hooks_off", "noop"),
        ("flowlint", 6, "flowlint/lint_all_policies_s/best", "lint", "lint"),
    ])
    def test_reproduces_the_committed_figures(self, bench_report,
                                                   section, pr, path, name,
                                                   stem):
        # BENCH_PR10.json's own bests, against the committed baselines,
        # give back every drift-adjusted figure it recorded.
        latest = load("BENCH_PR10.json")
        now = {"telemetry": latest["telemetry"]["hooks_off_s"]["best"],
               "guards": latest["guards"]["uncapped_s"]["best"],
               "flowlint": latest["flowlint"]["lint_all_policies_s"]["best"]}
        recorded = latest[section]
        reference = latest["micro_sweep_kernel"]["interpreted_s"]["best"]
        written = {}
        bench_report.versus(written, now[section], pr, path, name, reference,
                            stem=stem)
        for key, value in written.items():
            assert recorded[key] == value, key
        key = f"{stem}_overhead_vs_pr{pr}_adjusted_pct"
        assert written[key] == old_adjusted_pct(
            now[section], written[f"pr{pr}_{name}_best_s"], reference,
            load(f"BENCH_PR{pr}.json"))


class TestObservedArm:
    def test_the_runtime_is_on_inside_and_off_after_each_arm(
            self, bench_report):
        from repro import obs
        from repro.obs import runtime

        ring = obs.RingBufferSink(capacity=16)
        seen = []

        def run():
            seen.append((runtime.active, runtime.trace_active))
            obs.emit("span_start", span="s", op="arm")
            return len(seen)

        obs.disable()
        arm = bench_report.observed(run, metrics=True, reset=True,
                                    sinks=[ring])
        for call in (1, 2):
            assert arm() == call
            assert (runtime.active, runtime.trace_active) == (False, False)
        assert seen == [(True, True), (True, True)]
        assert len(ring.events("span_start")) == 2
        # A plain arm interleaved after it runs with the runtime off.
        plain, traced = bench_report.interleaved(1, run, arm)
        assert seen[-2:] == [(False, False), (True, True)]
        assert plain["reps"] == traced["reps"] == 1


class TestClaimsTable:
    def test_emits_every_claim_key(self, bench_report):
        claims, table = bench_report.claims_table(synthetic_report())
        assert set(claims) == CLAIM_KEYS
        assert claims["serve_sustains_200_rps"] is True
        assert claims["audit_overhead_under_3pct"] is False
        rendered = table.render()
        for key in CLAIM_KEYS:
            assert key in rendered
        # The false claim warns, beside its absolute and relative cost.
        line = next(line for line in rendered.splitlines()
                    if "audit_overhead_under_3pct" in line)
        assert "WARNING" in line and "+0.07 ms" in line and "12.8 %" in line

    def test_a_claim_its_section_cannot_make_is_left_out(self,
                                                         bench_report):
        report = synthetic_report()
        del report["flowlint"]["lint_overhead_under_10pct_vs_pr6"]
        report["bench"]["metrics"] = {}
        claims, _ = bench_report.claims_table(report)
        assert set(claims) == CLAIM_KEYS - {
            "flowlint_overhead_under_10pct_vs_pr6"}
        assert claims["serve_sustains_200_rps"] is False


class TestMain:
    @pytest.mark.parametrize("correct", [True, False])
    def test_a_wrong_bench_output_fails_the_report(self, bench_report,
                                                   tmp_path, monkeypatch,
                                                   correct):
        report = synthetic_report(correct)
        monkeypatch.setattr(bench_report, "run_bench",
                            lambda smoke: report["bench"])
        monkeypatch.setattr(bench_report, "SECTIONS", {
            name: (lambda smoke, name=name: report[name])
            for name in bench_report.SECTIONS})
        out = tmp_path / "report.json"
        code = bench_report.main(["--smoke", "--out", str(out)])
        assert code == (0 if correct else 1)
        written = json.loads(out.read_text())
        assert written["bench"]["correct"] is correct
        assert set(written["claims"]) == CLAIM_KEYS
