"""Runtime observability for the enforcement harness.

The paper's Observability Postulate says a program's declared output
must encode everything the user can see of a run.  This package holds
the harness to the same standard: every mechanism execution, sweep
chunk, memo lookup, and pool retry is observable through

- a process-wide **metrics registry** (:mod:`repro.obs.metrics`):
  counters, gauges, and histograms, exported as JSON-ready dicts;
- a **structured trace-event stream** (:mod:`repro.obs.events`): typed
  JSONL events with a self-contained schema and validator, deliverable
  to a file sink or an in-memory ring buffer;
- the **runtime** (:mod:`repro.obs.runtime`): a single no-op-when-off
  flag the instrumented hot layers guard their hooks with, plus
  hierarchical **spans** (sweep → pair → chunk → point; lint → pass)
  whose pid-prefixed ids reassemble across process-pool workers;
- **violation provenance** (:mod:`repro.obs.provenance`): when a
  mechanism rejects a point, *why* — the input-index influence chain
  from the inputs to the violating PC, as an :class:`Explanation`;
- **trace analytics** (:mod:`repro.obs.trace`): offline span-tree
  reconstruction, summaries, and slow-span ranking over JSONL traces
  (the ``repro trace`` subcommand).

Typical use::

    from repro import obs

    ring = obs.RingBufferSink()
    with obs.observed(sinks=[ring], reset=True):
        parallel_soundness_sweep(...)
    print(obs.registry.snapshot()["counters"])
    print(ring.events("violation")[:3])

The CLI exposes the same machinery as ``repro sweep --progress
--metrics-json PATH --trace PATH`` and ``repro metrics``; see
``docs/OBSERVABILITY.md`` for the metric names and event schema.
"""

from .audit import (AuditLedger, AuditVerifyResult, SpikeTracker,
                    budget_fingerprint, classify_notice, decision_payload,
                    ledger_stats, load_ledger, query_records,
                    tail_records, verify_ledger)
from .events import (EVENT_KINDS, EVENT_SCHEMA, JsonlSink, RingBufferSink,
                     validate_event, validate_jsonl)
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      DEFAULT_BUCKETS, STEP_BUCKETS, labeled_name,
                      snapshot_to_prometheus, split_labels)
from .provenance import ChainStep, Explanation, explain, explain_static
from .runtime import (Span, current_span, disable, emit, enable, observed,
                      registry, snapshot, span, span_begin, span_finish)
from .trace import (SpanForest, SpanNode, build_span_tree,
                    find_explanations, load_events, load_trace,
                    render_explanation_event, render_tree, slowest_spans,
                    summarize)

__all__ = [
    "EVENT_KINDS", "EVENT_SCHEMA", "JsonlSink", "RingBufferSink",
    "validate_event", "validate_jsonl",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_BUCKETS", "STEP_BUCKETS", "labeled_name",
    "snapshot_to_prometheus", "split_labels",
    "AuditLedger", "AuditVerifyResult", "SpikeTracker",
    "budget_fingerprint", "classify_notice", "decision_payload",
    "ledger_stats", "load_ledger", "query_records", "tail_records",
    "verify_ledger",
    "ChainStep", "Explanation", "explain", "explain_static",
    "enable", "disable", "observed", "emit", "registry", "snapshot",
    "Span", "span", "span_begin", "span_finish", "current_span",
    "SpanForest", "SpanNode", "build_span_tree", "load_events",
    "load_trace", "summarize", "slowest_spans", "find_explanations",
    "render_tree", "render_explanation_event",
]
