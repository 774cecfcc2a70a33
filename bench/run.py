"""Run the repository benchmark described by ``BENCHMARK.json``.

One workload, one run (the form ``BENCHMARK.json``'s command takes)::

    python3 bench/run.py --workload sweep_program --seed 3 --seconds 20 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer
metric from a separate traced run (``--trace 1``), then, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  It exits 1 when any output was wrong and 2 when the
program under test cannot be imported.

Every workload, untraced then traced, each in a fresh process::

    python3 bench/run.py --seed 1 [--smoke] [--out results.json]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")

#: --smoke: seconds per run and cold starts per setup_s median.
SMOKE_SECONDS = 2.0
SMOKE_COLD_STARTS = 2
COLD_STARTS = 5


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_one(spec, args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"bench: the program under test is missing from {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"bench: cannot import the program under test: {error}",
              file=sys.stderr)
        return 2
    import serve_bench
    import sweep_bench
    from tracing import OTHER

    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    cold_starts = SMOKE_COLD_STARTS if args.smoke else COLD_STARTS
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.workload == "serve_execute":
            result = serve_bench.measure(args.seed, seconds, bool(args.trace),
                                         cold_starts, work)
        else:
            result = sweep_bench.measure(args.workload, args.seed, seconds,
                                         bool(args.trace), cold_starts, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["metrics"]
    unknown = set(measured) - {m["name"] for m in declared}
    if unknown:
        raise RuntimeError(f"undeclared metrics {sorted(unknown)}")
    # Per-layer metrics of a layer the workload never enters read 0; an
    # end-to-end metric is always measured.
    missing = {m["name"] for m in spec["end_to_end"]} - set(measured)
    if not args.trace and missing:
        raise RuntimeError(f"unmeasured metrics {sorted(missing)}")
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in declared}
    correct = result["failed"] == 0
    for name, value in metrics.items():
        print(f"{args.workload:15s} {name:34s} {value['value']:12.6g} "
              f"{value['unit']}")
    for name, value in result["reference"].items():
        print(f"{args.workload:15s} ({name}) {value}")
    if args.trace:
        shares = sum(v["value"] for n, v in metrics.items()
                     if n.endswith(".self_pct"))
        residual = metrics[f"{OTHER}.self_pct"]["value"]
        reconciled = abs(shares - 100.0) < 1e-6 and residual > -0.5
        correct = correct and reconciled
        print(f"{args.workload:15s} layers + residual = {shares:.6f} % of "
              f"traced wall; residual {residual:.2f} %; trace overhead "
              f"{metrics['trace.overhead_pct']['value']:.2f} %"
              + ("" if reconciled else "  [DOES NOT RECONCILE]"))
    for problem in result["problems"][:10]:
        print(f"bench: wrong output: {problem}", file=sys.stderr)
    report = {"correct": correct, "attempted": int(result["attempted"]),
              "failed": int(result["failed"]), "metrics": metrics}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(dict(report, reference=result["reference"]), handle,
                      indent=2)
    print(json.dumps(report))
    return 0 if correct else 1


def run_all(spec, args) -> int:
    """Every workload, untraced then traced, each run in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        for trace in (0, 1):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload["name"], "--seed",
                       str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)] + (
                           ["--smoke"] if args.smoke else [])
            done = subprocess.run(command, stdout=subprocess.PIPE,
                                  timeout=900, check=False)
            lines = done.stdout.decode().strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode not in (0, 1) or not lines:
                print(f"bench: {workload['name']} (trace {trace}) exited "
                      f"{done.returncode}", file=sys.stderr)
                return done.returncode or 1
            report = json.loads(lines[-1])
            combined["correct"] &= report["correct"]
            combined["attempted"] += report["attempted"]
            combined["failed"] += report["failed"]
            for name, value in report["metrics"].items():
                combined["metrics"][f"{workload['name']}/{name}"] = value
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(combined, handle, indent=2)
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS:g} s runs, "
                             f"{SMOKE_COLD_STARTS} cold starts")
    parser.add_argument("--out", help="also write the result JSON here")
    args = parser.parse_args()
    if args.workload is None:
        return run_all(spec, args)
    return run_one(spec, args)


if __name__ == "__main__":
    sys.exit(main())
