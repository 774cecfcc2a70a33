"""Unit tests for the metrics primitives."""

import threading

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               STEP_BUCKETS)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_concurrent_increments_are_not_lost(self):
        counter = Counter("c")

        def bump():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000


class TestGauge:
    def test_set_replaces(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        gauge.set(1.0)
        assert gauge.value == 1.0


class TestHistogram:
    def test_summary_fields(self):
        histogram = Histogram("h", bounds=(1, 10))
        for value in (0.5, 5, 50):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 3
        assert snapshot["sum"] == 55.5
        assert snapshot["min"] == 0.5
        assert snapshot["max"] == 50

    def test_bucket_assignment_including_inf_tail(self):
        histogram = Histogram("h", bounds=(1, 10))
        for value in (0.5, 5, 50):
            histogram.observe(value)
        buckets = histogram.snapshot()["buckets"]
        assert buckets["1"] == 1
        assert buckets["10"] == 1
        assert buckets["+Inf"] == 1

    def test_empty_histogram_snapshot(self):
        snapshot = Histogram("h").snapshot()
        assert snapshot["count"] == 0
        assert snapshot["min"] is None and snapshot["max"] is None

    def test_step_buckets_cover_typical_run_lengths(self):
        histogram = Histogram("steps", bounds=STEP_BUCKETS)
        histogram.observe(7)
        assert histogram.snapshot()["buckets"]["10"] == 1


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc(2)
        registry.gauge("size").set(7)
        registry.histogram("t").observe(0.2)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"runs": 2}
        assert snapshot["gauges"] == {"size": 7}
        assert snapshot["histograms"]["t"]["count"] == 1

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc()
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}


class TestPrometheusExport:
    @staticmethod
    def parse(text):
        """Parse Prometheus text exposition back into samples + types."""
        types, samples = {}, {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                types[name] = kind
            elif line:
                name, value = line.rsplit(" ", 1)
                samples[name] = float(value)
        return types, samples

    def test_round_trip_recovers_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("sweep.points_evaluated").inc(42)
        registry.gauge("batch.rows_size").set(7)
        hist = registry.histogram("chunk.seconds", bounds=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)

        types, samples = self.parse(registry.to_prometheus())

        assert types["repro_sweep_points_evaluated"] == "counter"
        assert samples["repro_sweep_points_evaluated"] == 42
        assert types["repro_batch_rows_size"] == "gauge"
        assert samples["repro_batch_rows_size"] == 7
        assert types["repro_chunk_seconds"] == "histogram"
        # Cumulative buckets, +Inf tail, then sum/count.
        assert samples['repro_chunk_seconds_bucket{le="0.1"}'] == 1
        assert samples['repro_chunk_seconds_bucket{le="1.0"}'] == 2
        assert samples['repro_chunk_seconds_bucket{le="+Inf"}'] == 3
        assert samples["repro_chunk_seconds_count"] == 3
        assert abs(samples["repro_chunk_seconds_sum"] - 5.55) < 1e-9

    def test_round_trip_matches_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc(3)
        registry.gauge("c-d").set(1.5)
        _, samples = self.parse(registry.to_prometheus())
        snapshot = registry.snapshot()
        assert samples["repro_a_b"] == snapshot["counters"]["a.b"]
        assert samples["repro_c_d"] == snapshot["gauges"]["c-d"]

    def test_empty_registry_exports_empty_text(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_custom_prefix(self):
        registry = MetricsRegistry()
        registry.counter("runs").inc()
        text = registry.to_prometheus(prefix="acme")
        assert "acme_runs 1" in text


class TestHistogramConcurrency:
    def test_multithreaded_observe_loses_nothing(self):
        """Hammer one histogram from many threads; every observation
        must land in exactly one bucket and the summary must balance."""
        hist = Histogram("h", bounds=(0.25, 0.5, 0.75))
        per_thread = 2000
        values = (0.1, 0.3, 0.6, 0.9)

        def hammer(seed):
            for index in range(per_thread):
                hist.observe(values[(index + seed) % len(values)])

        threads = [threading.Thread(target=hammer, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        snapshot = hist.snapshot()
        total = 8 * per_thread
        assert snapshot["count"] == total
        assert sum(snapshot["buckets"].values()) == total
        # 8 threads x 2000 observations cycle the 4 values evenly.
        assert set(snapshot["buckets"].values()) == {total // 4}


class TestLabeledMetrics:
    def test_labels_fold_into_the_name_sorted(self):
        from repro.obs.metrics import labeled_name, split_labels

        name = labeled_name("serve.decisions",
                            {"tenant": "alice", "decision": "accept"})
        assert name == ('serve.decisions{decision="accept",'
                        'tenant="alice"}')
        base, labels = split_labels(name)
        assert base == "serve.decisions"
        assert labels == {"decision": "accept", "tenant": "alice"}

    def test_label_values_escape_quotes_and_newlines(self):
        from repro.obs.metrics import labeled_name, split_labels

        tricky = 'he said "hi"\nback\\slash'
        _, labels = split_labels(labeled_name("m", {"k": tricky}))
        assert labels["k"] == tricky

    def test_registry_distinguishes_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("serve.decisions", labels={"tenant": "a"}).inc()
        registry.counter("serve.decisions", labels={"tenant": "b"}).inc(2)
        snapshot = registry.snapshot()
        assert snapshot["counters"]['serve.decisions{tenant="a"}'] == 1
        assert snapshot["counters"]['serve.decisions{tenant="b"}'] == 2

    def test_labeled_exposition_renders_proper_label_syntax(self):
        registry = MetricsRegistry()
        registry.counter("serve.decisions",
                         labels={"tenant": "a", "decision": "accept"}).inc(3)
        hist = registry.histogram("serve.latency_s", bounds=(0.1, 1.0),
                                  labels={"endpoint": "/execute"})
        hist.observe(0.05)
        hist.observe(0.5)
        text = registry.to_prometheus()
        assert ('repro_serve_decisions{decision="accept",tenant="a"} 3'
                in text)
        # le joins the label set last; cumulatives accumulate.
        assert ('repro_serve_latency_s_bucket{endpoint="/execute",'
                'le="0.1"} 1') in text
        assert ('repro_serve_latency_s_bucket{endpoint="/execute",'
                'le="+Inf"} 2') in text
        assert 'repro_serve_latency_s_count{endpoint="/execute"} 2' in text
        # One TYPE line per family, not per label set.
        assert text.count("# TYPE repro_serve_latency_s histogram") == 1


class TestShuffledBucketSnapshots:
    def test_reordered_bucket_keys_render_correct_cumulatives(self):
        """A snapshot whose bucket dict round-tripped through JSON with
        reordered keys must still render numerically-sorted le series."""
        from repro.obs.metrics import snapshot_to_prometheus

        snapshot = {
            "counters": {}, "gauges": {},
            "histograms": {
                "chunk.seconds": {
                    "count": 6, "sum": 3.0, "min": 0.01, "max": 2.0,
                    # Deliberately shuffled: lexicographic order would
                    # put "10.0" before "2.0" and break the cumsum.
                    "buckets": {"10.0": 1, "0.5": 2, "+Inf": 0,
                                "2.0": 2, "0.1": 1},
                },
            },
        }
        text = snapshot_to_prometheus(snapshot)
        lines = [line for line in text.splitlines() if "_bucket" in line]
        assert lines == [
            'repro_chunk_seconds_bucket{le="0.1"} 1',
            'repro_chunk_seconds_bucket{le="0.5"} 3',
            'repro_chunk_seconds_bucket{le="2.0"} 5',
            'repro_chunk_seconds_bucket{le="10.0"} 6',
            'repro_chunk_seconds_bucket{le="+Inf"} 6',
        ]

    def test_cli_from_json_round_trip_with_shuffled_keys(self, tmp_path,
                                                         capsys):
        """repro metrics --from-json --prometheus on a shuffled snapshot."""
        import json

        from repro.cli import main

        snapshot = {
            "counters": {"sweep.count": 1},
            "gauges": {},
            "histograms": {
                "sweep.pair_seconds": {
                    "count": 3, "sum": 1.5, "min": 0.1, "max": 1.0,
                    "buckets": {"+Inf": 0, "1.0": 1, "0.25": 2},
                },
            },
        }
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(snapshot))
        code = main(["metrics", "--from-json", str(path), "--prometheus"])
        out = capsys.readouterr().out
        assert code == 0
        bucket_lines = [line for line in out.splitlines()
                        if "_bucket" in line]
        assert bucket_lines == [
            'repro_sweep_pair_seconds_bucket{le="0.25"} 2',
            'repro_sweep_pair_seconds_bucket{le="1.0"} 3',
            'repro_sweep_pair_seconds_bucket{le="+Inf"} 3',
        ]
