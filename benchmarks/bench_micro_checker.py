"""Microbenchmarks of the library's own machinery (not a paper claim).

Times the hot paths a downstream user leans on — the soundness checker,
the surveillance interpreter, the literal instrumentation, and the
maximal construction — across domain sizes, so performance regressions
in the enforcement core are caught alongside the reproduction claims.
"""

import pytest

from repro.core import (ProductDomain, allow, check_soundness,
                        maximal_mechanism)
from repro.flowchart import library
from repro.flowchart.fastpath import run_flowchart
from repro.flowchart.interpreter import as_program, execute
from repro.surveillance import (instrument, surveil,
                                surveillance_mechanism)

POLICY = allow(2, arity=2)


@pytest.mark.parametrize("backend", ["interpreted", "compiled"])
def test_micro_sweep_kernel(benchmark, backend):
    """The sweep's inner kernel: full-domain flowchart evaluation.

    This is the pair the PR's ≥3× claim is measured on (see
    ``scripts/bench_report.py``); neither backend memoises a point, so
    each round times execution.
    """
    grid = ProductDomain.integer_grid(1, 24, 2)
    flowchart = library.gcd_program()

    def run():
        total = 0
        for point in grid:
            total += run_flowchart(flowchart, point, backend=backend).steps
        return total

    expected = sum(execute(flowchart, point).steps for point in grid)
    assert benchmark(run) == expected


@pytest.mark.parametrize("high", [7, 15])
def test_micro_soundness_checker(benchmark, high):
    """Factorization check over an n-point grid (fresh caches per run)."""
    grid = ProductDomain.integer_grid(0, high, 2)
    flowchart = library.forgetting_program()

    def run():
        mechanism = surveillance_mechanism(flowchart, POLICY, grid)
        return check_soundness(mechanism, POLICY, grid).sound

    assert benchmark(run)


def test_micro_surveilled_execution(benchmark):
    """One surveilled run of the accumulate loop (50 iterations)."""
    flowchart = library.accumulate_program()

    def run():
        return surveil(flowchart, (50,), allowed=frozenset({1})).steps

    steps = benchmark(run)
    assert steps == execute(flowchart, (50,)).steps


def test_micro_instrumentation(benchmark):
    """The rules-1-4 flowchart transformation itself."""
    flowchart = library.nested_branch_program()
    policy = allow(1, 3, arity=3)

    instrumented = benchmark(lambda: instrument(flowchart, policy))
    assert len(instrumented.boxes) > len(flowchart.boxes)


def test_micro_maximal_construction(benchmark):
    """Theorem 2's construction over a 4096-point domain."""
    grid = ProductDomain.integer_grid(0, 15, 3)
    q = as_program(library.nested_branch_program(), grid)
    policy = allow(1, arity=3)

    construction = benchmark(lambda: maximal_mechanism(q, policy, grid))
    assert construction.evaluations == len(grid)
