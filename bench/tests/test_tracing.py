"""Span self-time: nested and concurrent spans partition wall time."""

import pytest

import tracing


def span(layer, start, end, thread=1, work=1):
    return (layer, start, end, thread, work, False)


def test_nested_spans_credit_the_innermost_layer():
    spans = [span("outer", 1.0, 5.0), span("inner", 2.0, 3.0)]
    parts = tracing.exclusive_wall(spans, 0.0, 6.0)
    assert parts == pytest.approx({"outer": 3.0, "inner": 1.0,
                                   tracing.OTHER: 2.0})


def test_concurrent_threads_split_the_overlap():
    spans = [span("a", 0.0, 4.0, thread=1), span("b", 2.0, 6.0, thread=2)]
    parts = tracing.exclusive_wall(spans, 0.0, 8.0)
    assert parts == pytest.approx({"a": 3.0, "b": 3.0, tracing.OTHER: 2.0})
    assert sum(parts.values()) == pytest.approx(8.0)


def test_async_spans_are_left_out_of_the_partition():
    spans = [span("sync", 1.0, 2.0),
             ("awaiting", 0.0, 3.0, 1, 1, True)]
    parts = tracing.exclusive_wall(spans, 0.0, 3.0)
    assert parts == pytest.approx({"sync": 1.0, tracing.OTHER: 2.0})


def test_with_child_finds_outer_spans_that_enclose_an_inner_one():
    spans = [span("exec", 0.0, 4.0, work=8), span("compile", 1.0, 1.5),
             span("exec", 5.0, 6.0, work=3)]
    found = tracing.with_child(spans, "exec", "compile")
    assert found == [(spans[0], pytest.approx(0.5))]


def test_tracer_wraps_every_binding_and_restores_them():
    import sys
    import types

    module = types.ModuleType("repro_bench_probe")
    module.work = lambda n: n * 2
    importer = types.ModuleType("repro_bench_importer")
    importer.work = module.work
    sys.modules[module.__name__] = module
    sys.modules[importer.__name__] = importer
    original = module.work
    try:
        tracer = tracing.Tracer([tracing.Target(
            "repro_bench_probe:work", "probe", lambda a, k, r: r)])
        tracer.install()
        assert importer.work(3) == 6 and module.work(4) == 8
        assert [(s[0], s[4]) for s in tracer.spans] == [("probe", 6),
                                                        ("probe", 8)]
        tracer.uninstall()
        assert module.work is original and importer.work is original
    finally:
        del sys.modules[module.__name__], sys.modules[importer.__name__]
