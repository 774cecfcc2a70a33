"""BENCHMARK.json and the per-layer catalogue in bench/layers.py agree."""

import json
import os

import layers

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)

WORKLOADS = {w["name"] for w in SPEC["workloads"]}
E2E = {m["name"] for m in SPEC["end_to_end"]}


def test_every_layer_metric_is_catalogued():
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.PER_LAYER)


def test_every_layer_metric_names_an_e2e_metric_and_workload():
    for name, (meaning, moves) in layers.PER_LAYER.items():
        assert meaning and moves, name
        for metric, workloads in moves:
            assert metric in E2E, (name, metric)
            assert workloads and set(workloads) <= WORKLOADS, (name, workloads)


def test_bounds_and_setup_metric():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert 0 < max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    assert layers.ALL == tuple(w["name"] for w in SPEC["workloads"])
