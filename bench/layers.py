"""Where the traced runs put their spans, and what each layer metric means.

:func:`serve_targets`, :func:`sweep_targets` and :func:`compile_targets`
name the ``repro`` functions the traced runs wrap (see :mod:`tracing`).
``PER_LAYER`` is the catalogue of per-layer metrics: for each, the
end-to-end metric it should move and on which workloads, written down
before any change is measured.  ``BENCHMARK.json`` can hold only each
metric's name, unit and direction, so it lists the same names;
``bench/tests`` keeps the two in step.

Every layer metric is reported on every workload.  Self times are
shares (%) of the traced wall time, so a layer a workload never enters
reads 0 % rather than a time; ``trace.wall_ms`` converts shares back
to milliseconds.
"""

from __future__ import annotations

from tracing import Target

SERVE = ("serve_execute",)
PROGRAM = ("sweep_program",)
MONITORS = ("sweep_monitors",)
OBSERVED = ("sweep_observed",)
SWEEPS = PROGRAM + MONITORS + OBSERVED
ALL = SERVE + SWEEPS

#: Share-of-wall layers, in report order; ``other`` is the residual.
SERVE_SHARES = ("serve.queue", "serve.schema", "serve.tenants",
                "serve.cache", "serve.batcher", "flowchart.execute",
                "serve.audit_stage", "serve.encode")
SWEEP_SHARES = ("flowchart.execute", "surveillance.instrument",
                "verify.mechanism_build", "verify.evaluate_chunk",
                "verify.checkpoint", "obs.audit_append", "obs.record_run",
                "verify.merge")


def _points(position: int):
    def count(args, kwargs, result) -> int:
        points = args[position] if len(args) > position else kwargs["points"]
        return len(points)
    return count


def _appended(args, kwargs, result) -> int:
    return int(result)


def _hit(args, kwargs, result) -> int:
    return int(result is not None)


#: The batch tier's compile cache.  ``execute_batch`` looks it up
#: whenever it misses its rows memo, so a compile span inside an
#: ``execute_batch`` span marks a call that really executed lanes.
COMPILE_BATCH = "repro.flowchart.batchpath:compile_batch"


def compile_targets():
    """Both compile caches.  A span counts 1 when the call compiled --
    it returned an object no call returned before -- and 0 when it was
    a cache lookup."""
    returned = {}

    def compiled(args, kwargs, result) -> int:
        if id(result) in returned:
            return 0
        returned[id(result)] = result  # held, so the id is never reused
        return 1

    return [Target("repro.flowchart.fastpath:compile_flowchart",
                   "flowchart.compile", compiled),
            Target(COMPILE_BATCH, "flowchart.compile", compiled)]


def serve_targets():
    return [
        Target("repro.serve.schema:parse_execute", "serve.schema"),
        Target("repro.serve.tenants:TenantRegistry.admit", "serve.tenants"),
        Target("repro.serve.cache:ServeCache.intern_flowchart",
               "serve.cache"),
        Target("repro.serve.cache:ServeCache.get_response",
               "serve.cache.get", _hit),
        Target("repro.serve.cache:ServeCache.put_response", "serve.cache"),
        Target("repro.obs.audit:decision_payload", "serve.audit_stage"),
        Target("repro.obs.audit:sampled_in", "serve.audit_stage"),
        Target("repro.serve.server:ReproServer._json_bytes", "serve.encode"),
        Target("repro.serve.batcher:ExecuteBatcher.submit", "serve.batcher"),
        Target("repro.flowchart.batchpath:execute_batch",
               "flowchart.execute", _points(1)),
        Target("repro.obs.audit:AuditLedger.append_batch",
               "obs.audit_append", _appended),
    ] + compile_targets()


def sweep_targets():
    """The warm ops' targets; the cold op wraps :func:`compile_targets`."""
    factories = [Target(f"repro.verify.parallel:FACTORIES[{family}]",
                        "verify.mechanism_build")
                 for family in ("program", "surveillance", "timed",
                                "highwater")]
    return factories + [
        Target(COMPILE_BATCH, "flowchart.compile"),
        Target("repro.flowchart.batchpath:execute_batch",
               "flowchart.execute", _points(1)),
        Target("repro.surveillance.instrument:instrument",
               "surveillance.instrument"),
        Target("repro.verify.parallel:evaluate_chunk",
               "verify.evaluate_chunk", _points(2)),
        Target("repro.verify.parallel:_evaluate_chunk_batch",
               "verify.evaluate_chunk_batch", _points(3)),
        Target("repro.verify.checkpoint:CheckpointWriter.write_chunk",
               "verify.checkpoint"),
        Target("repro.obs.audit:AuditLedger.append_batch",
               "obs.audit_append", _appended),
        Target("repro.obs.runtime:record_run", "obs.record_run"),
        Target("repro.verify.parallel:merge_chunks", "verify.merge"),
    ]


def _share(doc: str, *moves):
    return doc, moves


#: name -> (meaning, ((e2e metric, workloads), ...)).
PER_LAYER = {
    "trace.wall_ms": _share(
        "mean time of one traced operation: a request's client latency "
        "(serve) or one sweep op's CPU time, as in p50_ms; the shares "
        "below split it",
        ("p50_ms", ALL)),
    "trace.overhead_pct": _share(
        "traced p50_ms over untraced p50_ms, minus one, same run",
        ("p50_ms", ALL)),
    "other.self_pct": _share(
        "residual: HTTP and event-loop plumbing (serve); planning, "
        "scheduling and pool waits (sweeps)",
        ("p50_ms", ALL)),
    "serve.queue.self_pct": _share(
        "client wait from due time until a connection takes the request",
        ("p50_ms", SERVE), ("throughput_per_s", SERVE)),
    "serve.schema.self_pct": _share("parse_execute", ("p50_ms", SERVE)),
    "serve.tenants.self_pct": _share("TenantRegistry.admit",
                                     ("p50_ms", SERVE)),
    "serve.cache.self_pct": _share(
        "intern_flowchart + get_response + put_response", ("p50_ms", SERVE)),
    "serve.batcher.self_pct": _share(
        "ExecuteBatcher.submit minus the execute_batch it awaited: the "
        "coalescing window plus decode and delivery",
        ("p50_ms", SERVE), ("throughput_per_s", SERVE)),
    "serve.audit_stage.self_pct": _share(
        "decision_payload + sampled_in on the request path",
        ("p50_ms", SERVE)),
    "serve.encode.self_pct": _share("ReproServer._json_bytes",
                                    ("p50_ms", SERVE)),
    "serve.audit_drain.busy_pct": _share(
        "share of the traced window the off-path ledger drain "
        "(AuditLedger.append_batch) was running; contends, never blocks",
        ("throughput_per_s", SERVE)),
    "serve.cache.hit_ratio": _share(
        "get_response hits over get_response calls; p50_ms is timed on "
        "the misses, so a higher ratio shows in throughput only",
        ("throughput_per_s", SERVE)),
    "serve.gen_lag_ms": _share(
        "p99 lateness of the load generator behind its schedule, both "
        "measured phases; a validity check: above 1 ms, p50_ms includes "
        "generator delay",
        ("p50_ms", SERVE)),
    "flowchart.execute.self_pct": _share(
        "execute_batch (self, including its compile-cache lookup): the "
        "batch tier",
        ("p50_ms", SERVE), ("throughput_per_s", SERVE),
        ("p50_ms", PROGRAM), ("throughput_per_s", PROGRAM)),
    "flowchart.batch_lanes": _share(
        "lanes per executed execute_batch call (rows-memo hits excluded)",
        ("throughput_per_s", SERVE), ("throughput_per_s", PROGRAM)),
    "flowchart.compile_ms": _share(
        "time in compile_flowchart + compile_batch calls that compiled "
        "(lookups excluded): a sweep worker's cold op, or the traced "
        "server's whole life (its first request for each program)",
        ("setup_s", ALL)),
    "flowchart.compilations": _share(
        "calls that compiled in that same window", ("setup_s", ALL)),
    "surveillance.instrument.self_pct": _share(
        "instrument", ("p50_ms", MONITORS), ("p50_ms", OBSERVED)),
    "surveillance.instrument_calls": _share(
        "instrument calls per operation", ("p50_ms", MONITORS)),
    "verify.mechanism_build.self_pct": _share(
        "FACTORIES[family] mechanism construction", ("p50_ms", MONITORS)),
    "verify.mechanism_builds": _share(
        "mechanism constructions per operation", ("p50_ms", MONITORS)),
    "verify.evaluate_chunk.self_pct": _share(
        "evaluate_chunk + _evaluate_chunk_batch (self): per-point "
        "mechanism runs and chunk summaries",
        ("p50_ms", MONITORS), ("throughput_per_s", MONITORS)),
    "verify.chunk_points": _share(
        "grid points per evaluated chunk", ("p50_ms", MONITORS)),
    "verify.exec_per_decision": _share(
        "points executed (batch lanes run + per-point evaluations) over "
        "(pair, point) decisions; sharing one run across the 2^k "
        "policies of a pair takes it to 1/2^k",
        ("throughput_per_s", MONITORS), ("throughput_per_s", PROGRAM)),
    "verify.checkpoint.self_pct": _share(
        "CheckpointWriter.write_chunk (one fsync per chunk)",
        ("p50_ms", OBSERVED)),
    "verify.checkpoint_records": _share(
        "journal records per operation", ("p50_ms", OBSERVED)),
    "obs.audit_append.self_pct": _share(
        "AuditLedger.append_batch on the sweep's own path",
        ("p50_ms", OBSERVED)),
    "obs.audit_records": _share(
        "ledger records appended per operation", ("p50_ms", OBSERVED)),
    "obs.record_run.self_pct": _share("record_run", ("p50_ms", OBSERVED)),
    "obs.record_run_calls": _share("record_run calls per operation",
                                   ("p50_ms", OBSERVED)),
    "verify.merge.self_pct": _share("merge_chunks", ("p50_ms", OBSERVED)),
}
