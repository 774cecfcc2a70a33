"""The three sweep workloads, each measured in fresh worker processes.

An *op* is one ``parallel_soundness_sweep`` per mechanism family over
``library.extended_suite()`` (16 programs, 58 program x policy pairs)
on the batch tier.  The suite's flowcharts live for the whole worker,
so compilation and instrumentation are paid by the first op only
(``setup_s``); the execution memos are cleared before every op, so each
op executes its grid afresh.

The seed permutes the values on each grid axis.  Rows do not depend on
point order, but chunk contents, class representatives and ledger
bytes do, while the work per op stays the same; a seeded grid offset
(the obvious alternative) moved per-op work by up to 27 % between
seeds, more than any bound could absorb.

Run as a script this file is the worker; ``run.py`` calls
:func:`measure`, which also computes the interpreted oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Spec:
    def __init__(self, families, width: int, width3: int,
                 executor: str = "serial", workers: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 observed: bool = False) -> None:
        self.families = families
        self.width = width
        self.width3 = width3
        self.executor = executor
        self.workers = workers
        self.chunk_size = chunk_size
        self.observed = observed


WORKLOADS: Dict[str, Spec] = {
    # Execution tier and rows memo: one batch run per program serves
    # all 2^k policies of its pairs; no instrumentation.
    "sweep_program": Spec(("program",), width=24, width3=8),
    # Instrumentation and per-policy execution; timed and high-water
    # take the per-point path.  Sized to about 100-150 ms per op.
    "sweep_monitors": Spec(("surveillance", "timed", "highwater"),
                           width=7, width3=4),
    # The same layer with durable writes and telemetry on.
    "sweep_observed": Spec(("surveillance",), width=12, width3=6,
                           executor="thread", workers=2, chunk_size=64,
                           observed=True),
}


def grid_axes(workload: str, seed: int):
    """The seeded axis orders (arity <= 2, arity 3) of a workload."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return (rng.sample(range(spec.width), spec.width),
            rng.sample(range(spec.width3), spec.width3))


class Sweep:
    """The suite, grid and sweep options of one workload and seed."""

    def __init__(self, workload: str, seed: int) -> None:
        from repro.core.domains import Domain, ProductDomain
        from repro.flowchart import library

        self.spec = WORKLOADS[workload]
        self.suite = library.extended_suite()
        axis, axis3 = grid_axes(workload, seed)
        domains = {False: Domain(axis), True: Domain(axis3)}
        self.grid = lambda arity: ProductDomain.uniform(domains[arity > 2],
                                                        arity)
        self.decisions = len(self.spec.families) * sum(
            len(self.grid(f.arity)) * 2 ** f.arity for f in self.suite)

    def run(self, backend: str = "batch", files: Optional[Dict] = None):
        """Sweep every family; returns the rows as plain lists."""
        from repro.verify import parallel_soundness_sweep

        spec = self.spec
        # The oracle runs the reference tier serially; only the measured
        # batch-tier op uses the workload's executor settings.
        measured = backend == "batch"
        rows = []
        for family in spec.families:
            extra = {}
            if files is not None:
                extra = {"checkpoint": files[family]["journal"],
                         "audit": files[family]["ledger"]}
            results = parallel_soundness_sweep(
                self.suite, family, grid=self.grid,
                executor=spec.executor if measured else "serial",
                max_workers=spec.workers if measured else None,
                chunk_size=spec.chunk_size if measured else None,
                backend=backend, **extra)
            rows.extend([family, r.program_name, r.policy_name, r.sound,
                         r.accepts, r.domain_size] for r in results)
        return rows

    def expected_files(self):
        """Journal chunk keys and ledger record count, from pairs x chunks."""
        from repro.verify.enumerate import all_allow_policies

        chunks, records = [], 0
        pair = 0
        for flowchart in self.suite:
            points = list(self.grid(flowchart.arity))
            size = self.spec.chunk_size
            for policy in all_allow_policies(flowchart.arity):
                for index, start in enumerate(range(0, len(points), size)):
                    chunks.append((pair, index))
                    records += len({policy(*point)
                                    for point in points[start:start + size]})
                pair += 1
        return sorted(chunks), records


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def check_files(sweep: Sweep, files: Dict) -> List[str]:
    """Problems with an observed op's ledger and journal (empty: fine).

    Counts are re-derived from the grid and checked against the file
    contents; the journal's own header is not trusted for them.
    """
    from repro.obs.audit import verify_ledger

    chunks, records = sweep.expected_files()
    problems = []
    for family, paths in files.items():
        result = verify_ledger(paths["ledger"])
        if not result.ok:
            problems.append(f"{family} ledger: {result.problems[:3]}")
        if result.records != records:
            problems.append(f"{family} ledger holds {result.records} "
                            f"records, expected {records}")
        with open(paths["journal"], encoding="utf-8") as handle:
            journal = [json.loads(line) for line in handle if line.strip()]
        written = sorted((r["pair"], r["chunk"]) for r in journal
                         if r.get("kind") == "checkpoint_written")
        if written != chunks:
            problems.append(f"{family} journal holds {len(written)} chunk "
                            f"records, expected {len(chunks)}")
    return problems


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

def _files(work: str, op: int, families) -> Dict:
    return {family: {"journal": os.path.join(work, f"op{op}-{family}.ckpt"),
                     "ledger": os.path.join(work, f"op{op}-{family}.ledger")}
            for family in families}


def _remove(files: Optional[Dict]) -> None:
    for paths in (files or {}).values():
        for path in paths.values():
            for name in (path, path + ".head"):
                if os.path.exists(name):
                    os.remove(name)


def worker(args) -> Dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro import obs
    from repro.flowchart.fastpath import clear_result_memo

    sweep = Sweep(args.workload, args.seed)
    spec = sweep.spec
    if spec.observed:
        obs.enable(metrics=True)
    tracer = cold = None
    if args.trace:
        import layers
        from tracing import Tracer

        # Only the cold op compiles.  The compile caches are called only
        # from their own modules, so wrapping them before it starts
        # reaches every caller.
        cold = Tracer(layers.compile_targets())
    trace = TraceTotals()
    # (op CPU seconds, kernel CPU seconds) per measured op, untraced and
    # traced.  CPU time, not wall time: when other tenants of the host
    # take this VM's CPUs (steal time, up to 27 % of a few seconds),
    # every op's wall time stretches but its CPU time does not, and a
    # 2 ms kernel catches too little of the steal to divide it out.
    timings: Dict[bool, List] = {False: [], True: []}
    failed = 0
    first_done = None
    deadline = None
    files = None
    op = 0
    while True:
        if args.trace and op == 1:
            # After the cold op, so every lazy import has bound its
            # names and the wrappers reach all of them.
            tracer = Tracer(layers.sweep_targets())
        clear_result_memo()
        _remove(files)
        files = _files(args.work, op, spec.families) if spec.observed else None
        tracing = tracer is not None and op % 2 == 0
        active = tracer if tracing else cold if op == 0 else None
        kernel = calibrate.measure(time.thread_time) if op else None
        if active is not None:
            active.spans.clear()
            active.install()
        start, cpu = time.monotonic(), time.process_time()
        rows = sweep.run(files=files)
        end, cpu = time.monotonic(), time.process_time() - cpu
        if active is not None:
            active.uninstall()
        if tracing:
            trace.add(tracer.spans, start, end)
        elif active is not None:
            trace.add_cold(cold.spans)
        failed += digest(rows) != args.expect
        if op == 0:
            first_done = end
            deadline = end + args.seconds
        else:
            timings[tracing].append((cpu, kernel))
        op += 1
        enough = timings[False] and (timings[True] or not args.trace)
        if op >= args.ops or (enough and time.monotonic() >= deadline):
            break
    problems = check_files(sweep, files) if spec.observed else []
    _remove(files)
    failed += bool(problems)
    plain, traced = (calibrate.normalize(*zip(*timings[kind]))
                     if timings[kind] else [] for kind in (False, True))
    report = {"first_done": first_done, "ops": op, "failed": failed,
              "problems": problems, "op_s": plain,
              "decisions": sweep.decisions,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        report["layers"] = trace.metrics(traced, plain, sweep.decisions)
    return report


class TraceTotals:
    """Self time and counts summed over the traced ops of a worker."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.ops = 0
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.work: Dict[str, int] = {}
        self.executed_calls = 0
        self.executed_lanes = 0
        self.compile_s = 0.0
        self.compilations = 0

    def add_cold(self, spans) -> None:
        """The cold op's compile spans; those with a count compiled."""
        compiled = [span for span in spans if span[4]]
        self.compile_s += sum(span[2] - span[1] for span in compiled)
        self.compilations += len(compiled)

    def add(self, spans, start: float, end: float) -> None:
        from tracing import exclusive_wall, layer_stats, with_child

        self.wall += end - start
        self.ops += 1
        for layer, seconds in exclusive_wall(spans, start, end).items():
            self.seconds[layer] = self.seconds.get(layer, 0.0) + seconds
        for layer, (calls, work) in layer_stats(spans).items():
            self.calls[layer] = self.calls.get(layer, 0) + calls
            self.work[layer] = self.work.get(layer, 0) + work
        for span, _ in with_child(spans, "flowchart.execute",
                                  "flowchart.compile"):
            self.executed_calls += 1
            self.executed_lanes += span[4]

    def metrics(self, traced: List[float], plain: List[float],
                decisions: int) -> Dict[str, float]:
        import layers
        from tracing import OTHER

        seconds = dict(self.seconds)
        seconds["verify.evaluate_chunk"] = (
            seconds.get("verify.evaluate_chunk", 0.0)
            + seconds.pop("verify.evaluate_chunk_batch", 0.0))
        # Warm ops only look the compile cache up, from execute_batch.
        seconds["flowchart.execute"] = (
            seconds.get("flowchart.execute", 0.0)
            + seconds.pop("flowchart.compile", 0.0))
        share = {name: 100.0 * seconds.get(name, 0.0) / self.wall
                 for name in layers.SWEEP_SHARES}
        share[OTHER] = 100.0 * seconds.get(OTHER, 0.0) / self.wall
        per_op = {name: calls / self.ops for name, calls in self.calls.items()}
        chunk_calls = (self.calls.get("verify.evaluate_chunk", 0)
                       + self.calls.get("verify.evaluate_chunk_batch", 0))
        chunk_points = (self.work.get("verify.evaluate_chunk", 0)
                        + self.work.get("verify.evaluate_chunk_batch", 0))
        executed = (self.executed_lanes
                    + self.work.get("verify.evaluate_chunk", 0))
        out = {f"{name}.self_pct": value for name, value in share.items()}
        out.update({
            "trace.wall_ms": 1000.0 * statistics.mean(traced),
            "trace.overhead_pct": 100.0 * (statistics.median(traced)
                                           / statistics.median(plain) - 1),
            "flowchart.batch_lanes": (self.executed_lanes
                                      / max(1, self.executed_calls)),
            "flowchart.compile_ms": 1000.0 * self.compile_s,
            "flowchart.compilations": self.compilations,
            "surveillance.instrument_calls": per_op.get(
                "surveillance.instrument", 0.0),
            "verify.mechanism_builds": per_op.get(
                "verify.mechanism_build", 0.0),
            "verify.chunk_points": chunk_points / max(1, chunk_calls),
            "verify.exec_per_decision": executed / (decisions * self.ops),
            "verify.checkpoint_records": per_op.get("verify.checkpoint", 0.0),
            "obs.audit_records": (self.work.get("obs.audit_append", 0)
                                  / self.ops),
            "obs.record_run_calls": per_op.get("obs.record_run", 0.0),
        })
        return out


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def _spawn(workload: str, seed: int, seconds: float, ops: int, trace: bool,
           expect: str, work: str, timeout: float):
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--ops", str(ops),
               "--trace", str(int(trace)), "--expect", expect,
               "--work", work]
    before = calibrate.speed()
    spawned = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=timeout, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {done.returncode}")
    report = json.loads(done.stdout.decode().strip().splitlines()[-1])
    report["setup_s"] = calibrate.normalize(
        [report["first_done"] - spawned], [before, calibrate.speed()])[0]
    return report


def oracle(workload: str, seed: int) -> str:
    """Digest of the interpreted serial sweep's rows (computed here,
    in the parent, outside any timing)."""
    return digest(Sweep(workload, seed).run(backend="interpreted"))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            cold_starts: int, work: str) -> Dict:
    """One run of a sweep workload; see ``run.py`` for the contract."""
    from loadgen import percentile

    expect = oracle(workload, seed)
    timeout = seconds + 150
    reports = []
    if not trace:
        reports = [_spawn(workload, seed, seconds, 1, False, expect, work,
                          timeout) for _ in range(cold_starts - 1)]
    main = _spawn(workload, seed, seconds, 1 << 30, trace, expect, work,
                  timeout)
    reports.append(main)
    op_ms = [1000.0 * s for s in main["op_s"]]
    result = {
        "attempted": sum(r["ops"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "problems": [p for r in reports for p in r["problems"]],
        "reference": {"ops": len(op_ms), "decisions_per_op": main["decisions"],
                      "op_p90_ms": percentile(op_ms, 90),
                      "op_p99_ms": percentile(op_ms, 99)},
    }
    if trace:
        result["metrics"] = main["layers"]
    else:
        result["metrics"] = {
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "peak_rss_mb": main["peak_rss_mb"],
            "p50_ms": statistics.median(op_ms),
            "throughput_per_s": (main["decisions"] * len(op_ms)
                                 / sum(main["op_s"])),
        }
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect", required=True,
                        help="digest of the oracle rows")
    parser.add_argument("--work", required=True,
                        help="directory for ledgers and journals")
    print(json.dumps(worker(parser.parse_args())))


if __name__ == "__main__":
    main()
