"""Hierarchical spans: emission, nesting, and cross-process trees."""

import pytest

from repro import obs
from repro.flowchart import library
from repro.obs import runtime
from repro.verify import FACTORIES, parallel_soundness_sweep
from repro.verify.enumerate import soundness_sweep


@pytest.fixture(autouse=True)
def _clean_runtime():
    obs.disable()
    yield
    obs.disable()


def sweep_programs():
    return [library.forgetting_program(), library.parity_program()]


class TestSpanPrimitives:
    def test_span_begin_is_noop_without_tracing(self):
        assert runtime.span_begin("sweep") is None
        runtime.span_finish(None)  # must not raise

    def test_span_events_pair_up(self):
        ring = obs.RingBufferSink()
        with obs.observed(sinks=[ring], reset=True):
            with obs.span("sweep", executor="serial"):
                pass
        starts = ring.events("span_start")
        ends = ring.events("span_end")
        assert len(starts) == len(ends) == 1
        assert starts[0]["span"] == ends[0]["span"]
        assert starts[0]["op"] == "sweep"
        assert ends[0]["elapsed_s"] >= 0

    def test_pushed_spans_nest(self):
        ring = obs.RingBufferSink()
        with obs.observed(sinks=[ring], reset=True):
            with obs.span("sweep"):
                with obs.span("pair"):
                    pass
        starts = {event["op"]: event for event in ring.events("span_start")}
        assert starts["pair"]["parent"] == starts["sweep"]["span"]
        assert "parent" not in starts["sweep"]

    def test_leaf_events_are_attributed_to_current_span(self):
        ring = obs.RingBufferSink()
        with obs.observed(sinks=[ring], reset=True):
            with obs.span("sweep") as handle:
                runtime.emit("sweep_end", pairs=0, elapsed_s=0.0)
        [event] = ring.events("sweep_end")
        assert event["span"] == handle.id

    def test_explicit_parent_overrides_stack(self):
        ring = obs.RingBufferSink()
        with obs.observed(sinks=[ring], reset=True):
            with obs.span("sweep"):
                child = runtime.span_begin("chunk", parent="999-1")
                runtime.span_finish(child)
        starts = {event["op"]: event for event in ring.events("span_start")}
        assert starts["chunk"]["parent"] == "999-1"


class TestSweepSpanTrees:
    def assert_single_rooted(self, events, expect_points=True):
        forest = obs.build_span_tree(events)
        assert forest.problems == []
        assert forest.single_rooted
        root = forest.roots[0]
        assert root.op == "sweep"
        ops = {node.op for _, node in root.walk()}
        assert "pair" in ops
        if expect_points:
            assert "point" in ops
        for _, node in root.walk():
            assert node.closed

    def test_serial_enumerate_sweep(self):
        ring = obs.RingBufferSink(capacity=65536)
        with obs.observed(sinks=[ring], reset=True):
            soundness_sweep(sweep_programs(), FACTORIES["surveillance"])
        self.assert_single_rooted(ring.events(), expect_points=False)

    # Per-point chunks (the interpreter's) emit one point span per
    # point; shared-run chunks decide every point from one batch.

    def test_parallel_serial_executor(self):
        ring = obs.RingBufferSink(capacity=65536)
        with obs.observed(sinks=[ring], reset=True):
            parallel_soundness_sweep(sweep_programs(), "surveillance",
                                     executor="serial",
                                     backend="interpreted")
        self.assert_single_rooted(ring.events())
        forest = obs.build_span_tree(ring.events())
        # Every point span hangs off a chunk span, never the sweep.
        for node in forest.spans.values():
            if node.op == "point":
                assert forest.spans[node.parent].op == "chunk"

    def test_parallel_thread_executor(self):
        ring = obs.RingBufferSink(capacity=65536)
        with obs.observed(sinks=[ring], reset=True):
            parallel_soundness_sweep(sweep_programs(), "surveillance",
                                     executor="thread", max_workers=2,
                                     backend="interpreted")
        self.assert_single_rooted(ring.events())

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_shared_run_chunks_emit_no_point_spans(self, executor):
        ring = obs.RingBufferSink(capacity=65536)
        with obs.observed(sinks=[ring], reset=True):
            parallel_soundness_sweep(sweep_programs(), "surveillance",
                                     executor=executor, max_workers=2,
                                     backend="compiled")
        self.assert_single_rooted(ring.events(), expect_points=False)
        ops = {node.op
               for node in obs.build_span_tree(ring.events()).spans.values()}
        assert "chunk" in ops and "point" not in ops

    def test_parallel_process_executor(self, tmp_path):
        # Worker events reach the parent's trace only on fork-start
        # platforms (the workers inherit the sink fd); elsewhere the
        # supervisor's own spans must still form a single rooted tree.
        path = tmp_path / "trace.jsonl"
        with obs.JsonlSink(str(path)) as sink:
            obs.enable(metrics=True, sinks=[sink], reset=True)
            try:
                parallel_soundness_sweep(sweep_programs(), "surveillance",
                                         executor="process", max_workers=2)
            finally:
                obs.disable()
        events = obs.load_trace(str(path))
        forest = obs.build_span_tree(events)
        assert forest.problems == []
        assert forest.single_rooted
        assert forest.roots[0].op == "sweep"


class TestForestProblems:
    def test_orphan_parent_promoted_to_root(self):
        events = [
            {"kind": "span_start", "seq": 0, "t": 0.0, "span": "1-1",
             "op": "chunk", "parent": "1-99"},
            {"kind": "span_end", "seq": 1, "t": 0.1, "span": "1-1",
             "op": "chunk", "elapsed_s": 0.1},
        ]
        forest = obs.build_span_tree(events)
        assert len(forest.roots) == 1
        assert any("unknown parent" in problem
                   for problem in forest.problems)

    def test_unclosed_span_reported(self):
        events = [{"kind": "span_start", "seq": 0, "t": 0.0,
                   "span": "1-1", "op": "sweep"}]
        forest = obs.build_span_tree(events)
        assert any("never closed" in problem
                   for problem in forest.problems)

    def test_duplicate_end_reported(self):
        events = [
            {"kind": "span_start", "seq": 0, "t": 0.0, "span": "1-1",
             "op": "sweep"},
            {"kind": "span_end", "seq": 1, "t": 0.1, "span": "1-1",
             "op": "sweep", "elapsed_s": 0.1},
            {"kind": "span_end", "seq": 2, "t": 0.2, "span": "1-1",
             "op": "sweep", "elapsed_s": 0.2},
        ]
        forest = obs.build_span_tree(events)
        assert any("duplicate span_end" in problem
                   for problem in forest.problems)

    def test_end_without_start_reported(self):
        events = [{"kind": "span_end", "seq": 0, "t": 0.1, "span": "1-7",
                   "op": "pair", "elapsed_s": 0.1}]
        forest = obs.build_span_tree(events)
        assert any("span_end without span_start" in problem
                   for problem in forest.problems)
