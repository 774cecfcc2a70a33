#!/usr/bin/env python
"""Write a ``BENCH_PR*.json``-shaped machine-readable benchmark report.

A front end to the repository benchmark.  The end-to-end and
per-layer numbers are one run of
``bench/run.py --seed 1`` over every ``BENCHMARK.json`` workload
(``--smoke`` passed through), kept as the ``bench`` section: a wrong
output or a layer table that does not reconcile there fails the
report.  The sections ``bench/`` lacks are the functions in
``SECTIONS``; their kernel timings run :func:`kernel`, and their
claims against an earlier ``BENCH_PR*.json`` go through :func:`versus`.
One table prints each claim beside the figure it rests on, and a
summary row per section.  No execution result is memoised, so every
timed rep executes.

Usage:
    PYTHONPATH=src python scripts/bench_report.py [--smoke] --out PATH
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from bench.calibrate import kernel as calibrate_kernel  # noqa: E402
from benchmarks._common import time_callable, write_json  # noqa: E402
from repro import obs  # noqa: E402
from repro.core import (ProductDomain, check_soundness,  # noqa: E402
                        is_violation)
from repro.flowchart import library  # noqa: E402
from repro.flowchart.fastpath import run_flowchart  # noqa: E402
from repro.flowchart.interpreter import execute  # noqa: E402
from repro.verify import (FACTORIES, Table,  # noqa: E402
                          parallel_soundness_sweep, soundness_sweep)
from repro.verify.enumerate import all_allow_policies  # noqa: E402

#: The kernel's flowchart and grid, and the small sweeps' programs,
#: built once: compile caches key on flowchart identity.
KERNEL = library.gcd_program()
KERNEL_GRID = ProductDomain.integer_grid(1, 24, 2)
PAIR = [library.forgetting_program(), library.parity_program()]


def kernel(backend: str = "compiled", value_cap=None):
    """The gcd kernel on one backend: total steps over its 576 points."""
    return lambda: sum(run_flowchart(KERNEL, point, backend=backend,
                                     value_cap=value_cap).steps
                       for point in KERNEL_GRID)


def interleaved(repeats: int, *runs) -> list:
    """Best-of-``repeats`` timings of ``runs``, one rep of each in turn
    after a warm-up round: the machine's speed moves by tens of percent
    within seconds, so what a claim divides is timed side by side."""
    samples = [[] for _ in runs]
    for _ in range(repeats + 1):
        for run, taken in zip(runs, samples):
            started = time.perf_counter()
            run()
            taken.append(time.perf_counter() - started)
    return [{"best": min(taken[1:]), "mean": sum(taken[1:]) / repeats,
             "reps": repeats} for taken in samples]


def observed(run, **config):
    """``run`` with an observability state of its own: the runtime is
    enabled with ``config`` and disabled again inside each call, so
    arms observed differently time interleaved."""
    def arm():
        with obs.observed(**config):
            return run()
    return arm


def wide_grid(arity: int):
    """A grid where per-point execution dominates mechanism setup."""
    return ProductDomain.integer_grid(0, 9 if arity <= 2 else 4, arity)


def overhead(now: dict, base: dict) -> float:
    """How much slower ``now``'s best is than ``base``'s, in percent."""
    return round((now["best"] / base["best"] - 1.0) * 100, 2)


def percentile(samples, fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[round(fraction * (len(ordered) - 1))]


def leaf(doc: dict, path: str):
    """The value at a '/'-joined path of a report, or None."""
    for key in path.split("/"):
        doc = doc.get(key) if isinstance(doc, dict) else None
    return doc


def versus(section: dict, now: float, pr: int, path: str, name: str,
           reference: "float | None", stem: str = "noop",
           claim: "str | None" = None, limit: float = 3.0):
    """Record ``now`` against the best at ``path`` of ``BENCH_PR<pr>.json``.

    Writes ``pr<pr>_<name>_best_s`` and the overhead
    ``<stem>_overhead_vs_pr<pr>_pct``.  A best recorded in another run
    also measures that run's machine, so given ``reference``, this run's
    best of the interpreted micro kernel (which every report records),
    the drift scale and the overhead at this run's speed,
    ``..._adjusted_pct``, are written too.  ``claim`` holds when that
    overhead (else the raw one) is under ``limit`` %.  Returns the
    baseline best, or None when the baseline lacks it.
    """
    stored = REPO_ROOT / f"BENCH_PR{pr}.json"
    base_doc = json.loads(stored.read_text()) if stored.exists() else {}
    base = leaf(base_doc, path)
    if base is None:
        return None
    section[f"pr{pr}_{name}_best_s"] = base
    gated = section[f"{stem}_overhead_vs_pr{pr}_pct"] = round(
        (now / base - 1.0) * 100, 2)
    base_reference = leaf(base_doc, "micro_sweep_kernel/interpreted_s/best")
    if reference and base_reference:
        scale = reference / base_reference
        section[f"machine_drift_scale_vs_pr{pr}"] = round(scale, 4)
        gated = section[f"{stem}_overhead_vs_pr{pr}_adjusted_pct"] = round(
            (now / (base * scale) - 1.0) * 100, 2)
    if claim:
        section[claim] = gated < limit
    return base


def bench_micro_kernel(smoke: bool) -> dict:
    expected = sum(execute(KERNEL, point).steps for point in KERNEL_GRID)
    for backend in ("interpreted", "compiled"):
        assert kernel(backend)() == expected, backend
    # bench/calibrate.py's kernel runs no repro code, so no change to
    # the program moves it: recorded beside the interpreted kernel, the
    # drift reference every versus() claim divides by today.
    interpreted, compiled, calibrate = interleaved(
        2 if smoke else 5, kernel("interpreted"), kernel(), calibrate_kernel)
    speedup = round(interpreted["best"] / compiled["best"], 2)
    return {"flowchart": KERNEL.name, "points": len(KERNEL_GRID),
            "interpreted_s": interpreted, "compiled_s": compiled,
            "calibrate_kernel_s": calibrate,
            "speedup": speedup, "speedup_at_least_3x": speedup >= 3.0}


def seed_style_sweep(flowcharts, factory):
    """The seed's sweep: a factorization check, then a second full pass
    over the domain for the acceptance count."""
    results = []
    for flowchart in flowcharts:
        domain = wide_grid(flowchart.arity)
        for policy in all_allow_policies(flowchart.arity):
            mechanism = factory(flowchart, policy, domain)
            report = check_soundness(mechanism, policy, domain)
            accepts = sum(1 for point in domain
                          if not is_violation(mechanism(*point)))
            results.append((report.sound, accepts))
    return results


def bench_soundness_sweep(smoke: bool) -> dict:
    programs = PAIR + ([] if smoke else [library.max_program(),
                                         library.reconvergence_program(),
                                         library.gcd_program()])
    repeats = 2 if smoke else 5
    factories = {}
    for name in ["program"] if smoke else ["program", "surveillance"]:
        interpreted = partial(FACTORIES[name], backend="interpreted")
        compiled = partial(FACTORIES[name], backend="compiled")
        variants = {
            "seed_double_pass_interpreted": lambda: seed_style_sweep(
                programs, interpreted),
            "single_pass_interpreted": lambda: soundness_sweep(
                programs, interpreted, grid=wide_grid),
            "single_pass_compiled": lambda: soundness_sweep(
                programs, compiled, grid=wide_grid),
            "parallel_auto_compiled": lambda: parallel_soundness_sweep(
                programs, name, grid=wide_grid, executor="auto",
                backend="compiled"),
        }
        timings = {variant: time_callable(run, repeats=repeats)
                   for variant, run in variants.items()}
        seed = timings["seed_double_pass_interpreted"]["best"]
        factories[name] = {
            "timings_s": timings,
            "speedup_vs_seed": {variant: round(seed / timing["best"], 2)
                                for variant, timing in timings.items()}}
    # The seed's check stops at the first witness and a single pass
    # cannot, so single_pass_interpreted may trail the seed.
    slowest = min(factory["speedup_vs_seed"]["single_pass_compiled"]
                  for factory in factories.values())
    return {"programs": [program.name for program in programs],
            "pairs": sum(2 ** program.arity for program in programs),
            "factories": factories,
            "slowest_compiled_speedup_vs_seed": slowest,
            "faster_than_seed": slowest > 1.0}


def bench_flowlint(smoke: bool) -> dict:
    from repro.analysis import PassManager, precision_harness

    suite = library.extended_suite()
    dynamic_suite = library.dynamic_policy_suite()
    if smoke:
        suite, dynamic_suite = suite[:4], dynamic_suite[:4]
    manager = PassManager.with_default_passes()

    def lint_suite(flowcharts):
        return lambda: sum(len(manager.run(flowchart, policy).errors)
                           for flowchart in flowcharts
                           for policy in all_allow_policies(flowchart.arity))

    # The classic suite is linted as in BENCH_PR6.json (same programs,
    # policies and default passes), so the overhead claim compares like
    # with like; the dynamic-policy passes must stay near-free on it.
    reference, lint = interleaved(12, kernel("interpreted"),
                                  lint_suite(suite))
    dynamic_lint = time_callable(lint_suite(dynamic_suite), repeats=12)
    section = {
        "pairs": sum(2 ** flowchart.arity for flowchart in suite),
        "lint_all_policies_s": lint,
        "precision_harness_s": time_callable(
            lambda: precision_harness(suite), repeats=11),
        "dynamic_pairs": sum(2 ** flowchart.arity
                             for flowchart in dynamic_suite),
        "dynamic_lint_s": dynamic_lint,
        "precision_harness_full_s": time_callable(
            lambda: precision_harness(suite + dynamic_suite), repeats=11),
    }
    if not smoke:
        versus(section, lint["best"], 6, "flowlint/lint_all_policies_s/best",
               "lint", reference["best"], stem="lint",
               claim="lint_overhead_under_10pct_vs_pr6", limit=10.0)
    return section


def bench_telemetry(smoke: bool) -> dict:
    obs.disable()
    reference, hooks_off, metrics_on, traced = interleaved(
        16, kernel("interpreted"), kernel(),
        observed(kernel(), metrics=True, reset=True),
        observed(kernel(), metrics=True, reset=True,
                 sinks=[obs.RingBufferSink(capacity=4096)]))
    section = {"hooks_off_s": hooks_off,
               "metrics_on_s": metrics_on,
               "traced_s": traced,
               "metrics_overhead_pct": overhead(metrics_on, hooks_off),
               "traced_overhead_pct": overhead(traced, hooks_off)}
    # The disabled hooks (one truth test per run) must stay within 3 % of
    # the pre-instrumentation kernel and of BENCH_PR5.json's.
    versus(section, hooks_off["best"], 1, "micro_sweep_kernel/compiled_s/best",
           "compiled", reference["best"], claim="noop_overhead_under_3pct")
    versus(section, hooks_off["best"], 5, "telemetry/hooks_off_s/best",
           "hooks_off", reference["best"],
           claim="noop_overhead_under_3pct_vs_pr5")
    return section


def bench_guards(smoke: bool) -> dict:
    obs.disable()
    # gcd on [1..24]^2 stays within 5 bits: a 64-bit cap arms the
    # per-assignment check and never trips, so the difference is guards.
    assert kernel()() == kernel(value_cap=64)()

    def sweep(value_cap):
        return lambda: parallel_soundness_sweep(
            [library.forgetting_program(), library.parity_program()],
            "program", grid=wide_grid, executor="serial",
            backend="compiled", value_cap=value_cap)

    reference, uncapped, capped, sweep_uncapped, sweep_capped = interleaved(
        16, kernel("interpreted"), kernel(), kernel(value_cap=64),
        sweep(None), sweep(64))
    section = {"uncapped_s": uncapped,
               "capped_noop_s": capped,
               "armed_cap_overhead_pct": overhead(capped, uncapped),
               "sweep_uncapped_s": sweep_uncapped,
               "sweep_capped_s": sweep_capped,
               "sweep_armed_cap_overhead_pct": overhead(sweep_capped,
                                                        sweep_uncapped)}
    # With no cap set, the uncapped function (it has no cap test) and
    # quarantine wrapping must cost nothing over BENCH_PR5.json's
    # hooks-off kernel; the claim's first baseline, BENCH_PR4.json's,
    # stays for the trail.
    for pr, claim in ((4, None), (5, "noop_overhead_under_3pct_vs_pr5")):
        versus(section, uncapped["best"], pr, "telemetry/hooks_off_s/best",
               "hooks_off", reference["best"], claim=claim)
    return section


def bench_batch(smoke: bool) -> dict:
    from repro.flowchart.batchpath import execute_batch

    obs.disable()
    points = list(KERNEL_GRID)

    def batch_kernel():
        rows = execute_batch(KERNEL, points)
        return sum(rows.steps(i) for i in range(len(points)))

    def sweep(factory, backend):
        return lambda: parallel_soundness_sweep(
            PAIR, factory, grid=wide_grid, executor="serial",
            backend=backend)

    def rows(results):
        return [(r.program_name, r.policy_name, r.sound, r.accepts)
                for r in results]

    # A callable the sweep cannot name runs point by point, once per
    # policy (a named "compiled" sweep shares runs like "batch").
    per_point = sweep(partial(FACTORIES["program"]), "compiled")
    shared = sweep("program", "batch")
    # Both must agree with their references before any timing counts.
    assert batch_kernel() == kernel()()
    assert rows(shared()) == rows(per_point())
    compiled, kernel_batch, sweep_compiled, sweep_batch = interleaved(
        16, kernel(), batch_kernel, per_point, shared)
    # Every lane is a compiled-tier call; the batch timings are keyed so.
    section = {"kernel_compiled_s": compiled,
               "kernel_batch_s": {"compiled": kernel_batch},
               "kernel_speedup": round(
                   compiled["best"] / kernel_batch["best"], 2),
               "sweep_compiled_s": sweep_compiled,
               "sweep_batch_s": {"compiled": sweep_batch},
               "sweep_speedup_vs_compiled": round(
                   sweep_compiled["best"] / sweep_batch["best"], 2)}
    # The batch sweep must beat BENCH_PR5.json's guards.sweep_uncapped,
    # the same sweep on the per-point compiled tier, by at least 5x.
    base = versus(section, sweep_batch["best"], 5,
                  "guards/sweep_uncapped_s/best", "sweep_uncapped", None,
                  stem="sweep")
    if base is not None:
        speedup = section["sweep_speedup_vs_pr5"] = round(
            base / sweep_batch["best"], 2)
        section["sweep_speedup_at_least_5x_vs_pr5"] = speedup >= 5.0
    return section


def bench_provenance(smoke: bool) -> dict:
    from repro.core.policy import AllowPolicy

    repeats = 2 if smoke else 4

    def sweep():
        return soundness_sweep(PAIR, partial(FACTORIES["surveillance"],
                                             backend="interpreted"))

    obs.disable()
    plain, sweep_traced, sweep_explain = interleaved(
        repeats, sweep,
        observed(sweep, metrics=True, reset=True,
                 sinks=[obs.RingBufferSink(capacity=65536)]),
        observed(sweep, metrics=True, reset=True,
                 sinks=[obs.RingBufferSink(capacity=65536)], explain=True))
    # One clean traced and explained sweep for the analytics numbers.
    capture = obs.RingBufferSink(capacity=65536)
    observed(sweep, metrics=True, reset=True, sinks=[capture],
             explain=True)()
    events = capture.events()
    forest = obs.build_span_tree(events)
    return {
        "sweep_plain_s": plain,
        "sweep_traced_s": sweep_traced,
        "sweep_explain_s": sweep_explain,
        "traced_overhead_pct": overhead(sweep_traced, plain),
        "explain_overhead_pct": overhead(sweep_explain, plain),
        "trace_events_per_sweep": len(events),
        "span_roots": len(forest.roots),
        "span_problems": len(forest.problems),
        "single_rooted": len(forest.roots) == 1 and not forest.problems,
        "explanations_per_sweep": len(capture.events("explanation")),
        # One replayed surveillance run plus the backward label slice.
        "explain_call_s": time_callable(
            lambda: obs.explain(library.gcd_program(), AllowPolicy([1], 2),
                                (6, 4)), repeats=repeats),
        "summarize_s": time_callable(lambda: obs.summarize(events),
                                     repeats=repeats),
        "span_tree_s": time_callable(lambda: obs.build_span_tree(events),
                                     repeats=repeats),
    }


def bench_audit(smoke: bool) -> dict:
    """The ledger's cost on serve p50/p99, off vs on (``bench/``'s
    ``sweep_observed`` times a ledgered sweep).

    Two servers (cache off; audit off, on) run at once, request bursts
    alternating in ABBA order, in two phases with creation order
    swapped: null experiments showed the arm measured second in a pair,
    and the server created second, run slower.
    """
    import http.client

    from repro.serve import ServerConfig, serve_in_thread

    latency_n = 300 if smoke else 1000
    burst = 10

    def one_request(conn, i: int) -> None:
        conn.request("POST", "/execute", body=json.dumps(
            {"library": "max", "inputs": [i % 50, (i * 7 + 3) % 50]}),
            headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        if response.status != 200 or payload["value"] is None:
            raise RuntimeError(f"request {i} failed: {payload}")

    off, on = [], []
    per_phase = latency_n // 2
    with tempfile.TemporaryDirectory(prefix="bench_audit_") as tmpdir:
        for phase in range(2):
            roles = [(None, off),
                     (os.path.join(tmpdir, f"serve_audit_{phase}.jsonl"), on)]
            if phase % 2:
                roles.reverse()
            handles = [serve_in_thread(ServerConfig(
                port=0, cache_size=0, audit_path=audit_path))
                for audit_path, _ in roles]
            try:
                arms = [(http.client.HTTPConnection(
                    "127.0.0.1", handle.port, timeout=60), samples)
                    for handle, (_, samples) in zip(handles, roles)]
                for conn, _ in arms:
                    for i in range(20):
                        one_request(conn, i)
                for pair_index, start in enumerate(range(0, per_phase, burst)):
                    ordered = arms if pair_index % 2 == 0 else arms[::-1]
                    for conn, samples in ordered:
                        for i in range(start, min(start + burst, per_phase)):
                            started = time.perf_counter()
                            one_request(conn, i)
                            samples.append(time.perf_counter() - started)
                for conn, _ in arms:
                    conn.close()
            finally:
                for handle in handles:
                    handle.stop()

    off_p50, on_p50 = percentile(off, 0.50), percentile(on, 0.50)
    serve_overhead_pct = (on_p50 - off_p50) / off_p50 * 100.0
    return {
        "latency_requests": latency_n,
        "serve_off_p50_ms": round(off_p50 * 1e3, 3),
        "serve_on_p50_ms": round(on_p50 * 1e3, 3),
        "serve_off_p99_ms": round(percentile(off, 0.99) * 1e3, 3),
        "serve_on_p99_ms": round(percentile(on, 0.99) * 1e3, 3),
        "serve_added_ms": round((on_p50 - off_p50) * 1e3, 3),
        "serve_overhead_pct": round(serve_overhead_pct, 2),
        "audit_overhead_under_3pct": serve_overhead_pct < 3.0,
    }


def bench_distributed(smoke: bool) -> dict:
    """A three-hop relay serially, on 2 and 3 processes, and chaosed:
    the timings price spawn, commits, hops and recovery, and every arm
    must reproduce the serial row bit for bit."""
    from repro.dist import run_distributed, serial_reference
    from repro.flowchart.parser import parse_program
    from repro.verify.chaos import FaultPlan

    flowchart = parse_program("""
    program relay3(x1, x2) {
        s := x1 + x2;
        send a(s);
        recv a(u);
        t := u * 2;
        send b(t);
        recv b(v);
        y := v + x1
    }
    """).compile()
    inputs, allowed = (3, 4), (1, 2)
    reps = 1 if smoke else 3
    serial = partial(serial_reference, flowchart, inputs, allowed)
    reference = serial()
    serial_s = time_callable(serial, reps, warmup=0)

    def run(nodes, plan=None):
        once = partial(run_distributed, flowchart, inputs, allowed,
                       nodes=nodes, plan=plan)
        result = once()
        return time_callable(once, reps, warmup=0), result

    chaos_plan = "seed=1,drop=0.3,dup=0.2,mdelay=0.3,mdelay_s=0.02,kill=0.08"
    clean2_s, clean2 = run(2)
    clean3_s, clean3 = run(3)
    chaos_s, chaosed = run(3, FaultPlan.parse(chaos_plan))
    return {
        "messages": clean3.messages_sent,
        "serial_s": serial_s,
        "dist_2node_s": clean2_s,
        "dist_3node_s": clean3_s,
        "chaos_3node_s": chaos_s,
        "chaos_plan": chaos_plan,
        "chaos_crashes": chaosed.crashes,
        "chaos_recoveries": chaosed.recoveries,
        "chaos_messages_retried": chaosed.messages_retried,
        "rows_match_serial": all(arm.row() == reference
                                 for arm in (clean2, clean3, chaosed)),
    }


#: The sections bench/ lacks, in run order, each called with ``smoke``.
SECTIONS = {
    "micro_sweep_kernel": bench_micro_kernel,
    "soundness_sweep": bench_soundness_sweep,
    "flowlint": bench_flowlint,
    "telemetry": bench_telemetry,
    "guards": bench_guards,
    "batch": bench_batch,
    "provenance": bench_provenance,
    "audit": bench_audit,
    "distributed": bench_distributed,
}


def run_bench(smoke: bool) -> dict:
    """``bench/run.py --seed 1`` over every workload: its combined
    result (``correct``, ``attempted``, ``failed``, ``metrics``)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "bench.json")
        done = subprocess.run(
            [sys.executable, str(REPO_ROOT / "bench" / "run.py"), "--seed",
             "1", "--out", out] + (["--smoke"] if smoke else []),
            cwd=REPO_ROOT, check=False)
        if not os.path.exists(out):
            return {"correct": False, "attempted": 0, "failed": 0,
                    "metrics": {}, "exit": done.returncode}
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)


#: Each claim: the section and field that hold it, and the figure it
#: rests on (a template over the section).
CLAIMS = [
    ("micro_speedup_at_least_3x", "micro_sweep_kernel",
     "speedup_at_least_3x", "compiled {speedup}x over interpreted"),
    ("sweep_faster_than_seed", "soundness_sweep", "faster_than_seed",
     "single pass {slowest_compiled_speedup_vs_seed}x the seed at worst"),
    ("span_tree_single_rooted", "provenance", "single_rooted",
     "{span_roots} root(s), {span_problems} problem(s)"),
    ("serve_sustains_200_rps", "serving", "sustains_200_rps",
     "serve_execute {throughput_per_s:.0f} requests per server CPU-s"),
    ("audit_overhead_under_3pct", "audit", "audit_overhead_under_3pct",
     "{serve_added_ms:+} ms on a {serve_off_p50_ms} ms p50 "
     "({serve_overhead_pct} %)"),
    ("distributed_rows_match_serial", "distributed", "rows_match_serial",
     "2 and 3 nodes, chaosed ({chaos_crashes} crashes)"),
    ("telemetry_noop_overhead_under_3pct", "telemetry",
     "noop_overhead_under_3pct", "{noop_overhead_vs_pr1_adjusted_pct} % "
     "drift-adjusted ({noop_overhead_vs_pr1_pct} % raw)"),
    ("telemetry_noop_overhead_under_3pct_vs_pr5", "telemetry",
     "noop_overhead_under_3pct_vs_pr5", "{noop_overhead_vs_pr5_adjusted_pct}"
     " % drift-adjusted ({noop_overhead_vs_pr5_pct} % raw)"),
    ("guards_noop_overhead_under_3pct_vs_pr5", "guards",
     "noop_overhead_under_3pct_vs_pr5", "{noop_overhead_vs_pr5_adjusted_pct}"
     " % drift-adjusted ({noop_overhead_vs_pr5_pct} % raw)"),
    ("batch_sweep_speedup_at_least_5x_vs_pr5", "batch",
     "sweep_speedup_at_least_5x_vs_pr5",
     "{sweep_speedup_vs_pr5}x over BENCH_PR5's sweep_uncapped"),
    ("flowlint_overhead_under_10pct_vs_pr6", "flowlint",
     "lint_overhead_under_10pct_vs_pr6", "{lint_overhead_vs_pr6_adjusted_pct}"
     " % drift-adjusted ({lint_overhead_vs_pr6_pct} % raw)"),
]

#: One summary row per section, a template over the section.
SUMMARIES = {
    "flowlint": "{pairs} pairs in {lint_all_policies_s[best]:.3f} s",
    "telemetry": "metrics on {metrics_overhead_pct:+} %, traced "
                 "{traced_overhead_pct:+} %",
    "guards": "armed cap {armed_cap_overhead_pct:+} % on the kernel, "
              "{sweep_armed_cap_overhead_pct:+} % on the sweep",
    "batch": "kernel {kernel_speedup}x, sweep {sweep_speedup_vs_compiled}x "
             "over per-point compiled",
    "provenance": "--trace {traced_overhead_pct:+} %, --explain "
                  "{explain_overhead_pct:+} %",
    "distributed": "serial {serial_s[best]:.4f} s, 3 nodes "
                   "{dist_3node_s[best]:.3f} s, chaosed "
                   "{chaos_3node_s[best]:.3f} s",
}


def claims_table(report: dict):
    """``(claims, table)``: every claim whose section holds it, and the
    table of those claims (``holds`` or ``WARNING``) and summaries."""
    rps = report["bench"]["metrics"].get(
        "serve_execute/throughput_per_s", {}).get("value", 0.0)
    sections = dict(report, serving={"throughput_per_s": rps,
                                     "sustains_200_rps": rps >= 200.0})
    claims = {}
    table = Table("bench report", ["claim or section", "figure", "status"])
    for key, name, field, figure in CLAIMS:
        if field in sections[name]:
            held = claims[key] = sections[name][field]
            table.add_row(key, figure.format(**sections[name]),
                          "holds" if held else "WARNING")
    for name, figure in SUMMARIES.items():
        table.add_row(name, figure.format(**sections[name]), "")
    return claims, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: bench/run.py --smoke, fewer reps, "
                             "a smaller program set")
    parser.add_argument("--out", required=True,
                        help="output path (the committed BENCH_PR*.json "
                             "files are the bench_compare.py baselines; "
                             "name a new file)")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    # The sections time in this process first, as every earlier report
    # did; bench/run.py runs each workload in a process of its own.
    report = {name: section(args.smoke) for name, section in SECTIONS.items()}
    report["bench"] = run_bench(args.smoke)
    claims, table = claims_table(report)
    report["claims"] = claims
    report["meta"] = {
        "benchmark": "bench/run.py workloads and the sections bench/ lacks",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "total_wall_s": round(time.perf_counter() - started, 3),
    }
    print(f"wrote {write_json(report, args.out)}")
    print(table.render())
    errors = [message for failed, message in (
        (not report["bench"]["correct"],
         "bench/run.py: a wrong output or an unreconciled layer table"),
        (not claims["distributed_rows_match_serial"],
         "a distributed run diverged from the serial row"),
        (not args.smoke and not claims["micro_speedup_at_least_3x"],
         "the micro kernel speedup is below the claimed 3x"),
    ) if failed]
    for message in errors:
        print(f"ERROR: {message}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
