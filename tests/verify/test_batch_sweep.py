"""Shared-run sweeps (``backend="compiled"`` or ``"batch"``): same rows.

The shared path changes *how* a sweep chunk is evaluated (one run per
grid point with no policy, decided for every policy of a flowchart by
bitmask tests, instead of a per-policy per-point loop), never *what*
it computes: every test here pins its rows to the per-point
interpreter's and its audit-ledger bytes to a per-point sweep's under
the same backend name, across families, budgets, executors, inputs and
values past int64, chaos plans, and checkpoint resume, and checks that
the tier that actually evaluated each pair is recorded.
``TestSharedRuns`` pins the sharing itself: one run per point per
sweep, on every schedule, with no cache behind it.
"""

import importlib.util
import os
import subprocess
import sys
from collections import Counter

import pytest

from repro import obs
from repro.core import Domain, ProductDomain
from repro.core.errors import (FuelExhaustedError, ReproError,
                               SweepInterruptedError, ValueCapExceededError)
from repro.core.mechanism import is_violation
from repro.flowchart import library as figure_library
from repro.flowchart.expr import Const, var
from repro.flowchart.structured import Assign, StructuredProgram
from repro.verify import (FACTORIES, FaultPlan, chaos,
                          parallel_soundness_sweep)
from repro.verify.checkpoint import load_checkpoint
from repro.verify.enumerate import all_allow_policies

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src")

PROGRAMS = [figure_library.forgetting_program(),
            figure_library.parity_program()]

MONITORS = ["surveillance", "timed", "highwater"]
FAMILIES = ["program"] + MONITORS

#: The backends whose sweeps share one run per point across policies.
SHARED = ("batch", "compiled")

#: The tier a batch sweep's chunks report: every family's shared runs
#: are batch lanes, the timed and high-water families' labelled ones.
BATCH_TIER = {"program": "batch", "surveillance": "batch",
              "timed": "batch", "highwater": "batch"}

#: Loops, branches, three inputs and policy epochs: every way a run can
#: end (halt, timed guard, epoch change, fuel, cap).
MIXED = [figure_library.timing_loop(), figure_library.gcd_program(),
         figure_library.nested_branch_program(),
         figure_library.countdown_pair_program(),
         figure_library.policy_loop_program(),
         figure_library.policy_branch_program()]


#: Loops that run dry at fuel 10, products wider than 4 bits, plain and
#: epoch-tagged violations: every outcome a sweep counts.
TALLIED = [figure_library.timing_loop(), figure_library.mixer_program(),
           figure_library.accumulate_program(),
           figure_library.forgetting_program(),
           figure_library.policy_loop_program(),
           figure_library.nested_branch_program()]


def grid(arity):
    return ProductDomain.integer_grid(0, 2, arity)


def tally_grid(arity):
    return ProductDomain.integer_grid(0, 5 if arity < 3 else 2, arity)


def rows(results):
    return [(r.program_name, r.policy_name, r.sound, r.accepts)
            for r in results]


def sweep(family="program", backend=None, programs=None, **kwargs):
    kwargs.setdefault("grid", grid)
    kwargs.setdefault("executor", "serial")
    return parallel_soundness_sweep(programs or PROGRAMS, family,
                                    backend=backend, **kwargs)


def per_point(family):
    """The family's registered factory behind a callable the sweep
    cannot name, so it takes the per-point path whatever the backend:
    the per-policy reference under the same backend (and hence the same
    ledger budget) as the shared runs it is compared with."""
    registered = FACTORIES[family]

    def factory(flowchart, policy, domain, fuel, value_cap=None,
                backend=None):
        return registered(flowchart, policy, domain, fuel,
                          value_cap=value_cap, backend=backend)
    return factory


def decisions(tmp_path, family, backend="batch", **kwargs):
    """Named rows and audit-ledger bytes of a sweep."""
    ledger = tmp_path / f"{len(list(tmp_path.iterdir()))}.ledger"
    results = sweep(family, backend, audit=str(ledger), **kwargs)
    named = [row + (r.mechanism_name,)
             for row, r in zip(rows(results), results)]
    return named, ledger.read_bytes()


def assert_shared_matches_per_point(tmp_path, family, **kwargs):
    """Shared runs (any executor) == per-policy runs (serial), under
    each shared-run backend name (the ledger's budget records it).
    Returns the last backend's decisions."""
    reference = dict(kwargs, executor="serial")
    reference.pop("max_workers", None)
    for backend in SHARED:
        shared = decisions(tmp_path, family, backend, **kwargs)
        assert shared == decisions(tmp_path, per_point(family), backend,
                                   **reference), backend
    return shared


def assert_rows_match_interpreter(family, **kwargs):
    """Every shared-run backend's rows == the per-point interpreter's."""
    reference = rows(sweep(family, "interpreted", **kwargs))
    for backend in SHARED:
        assert rows(sweep(family, backend, **kwargs)) == reference, backend


class TestRowParity:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_batch_rows_match_per_point_rows(self, family, tmp_path):
        assert_rows_match_interpreter(family)
        assert_shared_matches_per_point(tmp_path, family, chunk_size=4)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_all_fault_sweep_matches(self, family):
        # fuel=1 makes every point fault: the batch summary must carry
        # the same distinguished fuel notice per class as the per-point
        # walk does.
        assert_rows_match_interpreter(family, fuel=1)

    @pytest.mark.parametrize("family", MONITORS)
    def test_every_fuel_budget_matches(self, family, tmp_path):
        # A J-violation the allow-all instrumented run did not take is
        # one box longer, and a timed guard can stop a run before it
        # runs dry: every budget from 1 to 40 must decide each policy
        # exactly as its own run would.
        wide = lambda arity: ProductDomain.integer_grid(
            0, 3 if arity < 3 else 1, arity)
        for fuel in range(1, 41):
            assert_shared_matches_per_point(
                tmp_path, family, programs=MIXED, grid=wide, fuel=fuel,
                chunk_size=8)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_capped_sweep_matches(self, family, tmp_path):
        assert_rows_match_interpreter(family, value_cap=4)
        wide = lambda arity: ProductDomain.integer_grid(0, 9, arity)
        for cap in (1, 2, 4):
            assert_shared_matches_per_point(tmp_path, family,
                                            programs=MIXED[:2], grid=wide,
                                            value_cap=cap, chunk_size=16)

    def test_lane_setups_match(self, lanes, tmp_path):
        # NumPy importable, and NumPy blocked from import: the same rows
        # on every executor, on the default grid and the mixed programs.
        assert_rows_match_interpreter("program")
        assert_rows_match_interpreter("surveillance")
        for family in MONITORS:
            for executor in ("serial", "thread", "process"):
                assert_shared_matches_per_point(
                    tmp_path, family, programs=MIXED, executor=executor,
                    max_workers=2, fuel=30, chunk_size=5)

    def test_chunked_and_pooled_executors_match(self, tmp_path):
        assert_rows_match_interpreter("program", chunk_size=3)
        assert_rows_match_interpreter("program", executor="thread",
                                      max_workers=2, chunk_size=3)
        for family in MONITORS:
            for executor in ("serial", "thread", "process"):
                assert_shared_matches_per_point(
                    tmp_path, family, programs=MIXED, executor=executor,
                    max_workers=2, chunk_size=6, fuel=30)

    def test_dynamic_policy_programs_match(self, tmp_path):
        # Epoch-tagged notices (Λ@e{n}): J decides only the lanes still
        # in epoch 0; later halts were judged by the installed policy.
        programs = figure_library.dynamic_policy_suite()
        wide = lambda arity: ProductDomain.integer_grid(0, 3, arity)
        for family in MONITORS:
            _, ledger = assert_shared_matches_per_point(
                tmp_path, family, programs=programs, grid=wide,
                chunk_size=5)
            if family != "timed":  # time-observable notices read Λ@t
                assert b"@e1" in ledger

    @pytest.mark.parametrize("family", ["program", "surveillance"])
    def test_rows_past_int64_match(self, family, lanes, tmp_path):
        # A 2**200 grid value and a 71-bit sum: lanes, outputs and class
        # keys are Python ints of any width.
        wide = StructuredProgram(
            ["x1", "x2"], [Assign("y", var("x1") + Const(1 << 70))],
            name="sweep-wide-const").compile()
        huge = lambda arity: ProductDomain.uniform(
            Domain([0, 1, 1 << 200]), arity)
        programs = [wide, figure_library.forgetting_program()]
        assert_rows_match_interpreter(family, programs=programs, grid=huge)
        assert_shared_matches_per_point(tmp_path, family, programs=programs,
                                        grid=huge, chunk_size=4)

    def test_gcd_wide_grid_matches(self):
        programs = [figure_library.gcd_program()]
        wide = lambda arity: ProductDomain.integer_grid(1, 6, arity)
        assert_rows_match_interpreter("program", programs=programs,
                                      grid=wide)

    def test_walk_families_record_their_tier(self):
        # Timed and high-water decide every policy from one labelled run
        # per point: a batch lane when shared, an interpreter-level walk
        # per point (explain mode, the interpreted backend) or for a
        # channel program.
        from repro.flowchart.parser import parse_program

        relay = parse_program(
            "program p(x1, x2) { if x2 == 0 { send ch(x1) }; "
            "recv ch(u); y := u }").compile()
        for family in ("timed", "highwater"):
            shared = sweep(family, "compiled")
            with obs.observed(reset=True, explain=True,
                              sinks=[obs.RingBufferSink()]):
                per_pair = sweep(family, "compiled")
            interpreted = sweep(family, "interpreted")
            assert rows(shared) == rows(per_pair) == rows(interpreted)
            for result in shared:
                assert set(result.backends) == {"batch"}
            for result in per_pair + interpreted:
                assert set(result.backends) == {"interpreted"}
            channels = sweep(family, "compiled", programs=[relay])
            assert rows(channels) == rows(sweep(family, "interpreted",
                                                programs=[relay]))
            for result in channels:
                assert set(result.backends) == {"interpreted"}


#: (family, backend) cases of the run-count test; the batch cases keep
#: their family's bare id.
#: The schedules a run count is pinned under: the serial one-chunk path,
#: and chunked tasks on a thread pool.
SCHEDULES = {"serial": {},
             "thread": {"executor": "thread", "max_workers": 2,
                        "chunk_size": 3}}

RUN_COUNT_CASES = [
    pytest.param(family, backend, schedule,
                 id="-".join([family]
                             + ([backend] if backend != "batch" else [])
                             + ([schedule] if schedule != "serial" else [])))
    for schedule in SCHEDULES for backend in SHARED for family in MONITORS]


def count_runs(monkeypatch) -> list:
    """Lanes run and label walks taken, appended as they happen.

    Surveillance and program sweeps run lanes (of the instrumented
    flowchart, for surveillance); timed and high-water run label walks,
    one per point.
    """
    from repro.flowchart import batchpath
    from repro.surveillance import dynamic

    runs = []

    def counting(function, points_of):
        def wrapper(*args, **kwargs):
            runs.append(points_of(args))
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(batchpath, "_run_lanes", counting(
        batchpath._run_lanes, lambda args: len(args[2])))
    monkeypatch.setattr(dynamic, "_walk",
                        counting(dynamic._walk, lambda args: 1))
    return runs


class TestSharedRuns:
    @pytest.mark.parametrize("family, backend, schedule", RUN_COUNT_CASES)
    def test_one_labelled_run_per_flowchart_point(self, family, backend,
                                                  schedule, monkeypatch):
        runs = count_runs(monkeypatch)
        programs = PROGRAMS + [figure_library.nested_branch_program()]
        points = sum(len(grid(f.arity)) for f in programs)

        results = sweep(family, backend, programs=programs,
                        **SCHEDULES[schedule])
        assert sum(runs) == points
        assert sum(r.domain_size for r in results) == sum(
            len(grid(f.arity)) * 2 ** f.arity for f in programs)
        # Runs are shared by the schedule, not kept: a second sweep
        # runs every point again.
        sweep(family, backend, programs=programs, **SCHEDULES[schedule])
        assert sum(runs) == 2 * points

    @pytest.mark.parametrize("family", ["timed", "highwater"])
    def test_labelled_sweeps_take_no_walk(self, family, monkeypatch):
        # Channel-free flowcharts run their labels in batch lanes of the
        # labelled function on every shared schedule: the interpreter's
        # label walk is never taken.  Every label walk starts at
        # ``_start``; a lane crossing its budget under the cap resumes
        # the walk mid-block to find its fault, and starts none.
        from repro.surveillance import dynamic

        walks = []
        start = dynamic._start

        def counted(*args, **kwargs):
            walks.append(args[0].name)
            return start(*args, **kwargs)

        monkeypatch.setattr(dynamic, "_start", counted)
        for backend in SHARED:
            for schedule in SCHEDULES.values():
                sweep(family, backend, programs=PROGRAMS + MIXED,
                      fuel=12, value_cap=6, **schedule)
        assert walks == []

    def test_sharing_needs_no_cache_capacity(self, monkeypatch, tmp_path):
        # 600 one-point chunks per pair: a sweep that shared runs
        # through a bounded cache of chunks would have evicted each
        # chunk before the second policy asked for it.
        runs = count_runs(monkeypatch)
        points = ProductDomain.integer_grid(0, 599, 1)
        results = sweep("program", "compiled",
                        programs=[figure_library.parity_program()],
                        grid=lambda arity: points, chunk_size=1,
                        checkpoint=str(tmp_path / "ck.jsonl"))
        assert [r.domain_size for r in results] == [600, 600]
        assert sum(runs) == 600

    @pytest.mark.parametrize("family", MONITORS)
    def test_no_mechanism_built_on_a_fault_free_sweep(self, family,
                                                      monkeypatch):
        built = []
        registered = FACTORIES[family]

        def factory(*args, **kwargs):
            built.append(args[:2])
            return registered(*args, **kwargs)

        monkeypatch.setitem(FACTORIES, family, factory)
        results = sweep(family, "batch")
        assert built == []
        # Names come from the factories' own rule, unchanged.
        reference = sweep(per_point(family), "compiled")
        assert ([r.mechanism_name for r in results]
                == [r.mechanism_name for r in reference])


class TestBackendAccounting:
    def test_batch_chunks_recorded(self):
        for result in sweep("program", "batch", chunk_size=3):
            assert set(result.backends) == {"batch"}
            assert sum(result.backends.values()) >= 1

    def test_per_point_sweep_records_its_tier(self):
        # A callable factory is evaluated point by point on the tier
        # it asked for.
        for result in sweep(per_point("program"), "compiled"):
            assert set(result.backends) == {"compiled"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            sweep("program", "warp")


class TestChaosAndQuarantine:
    def test_poisoned_point_quarantined_identically(self, tmp_path):
        # A chaos poison point crashes its chunk; quarantine bisects it
        # per-point regardless of backend, so the verdicts match the
        # per-point run and the surviving chunks are labelled with the
        # tier that actually re-evaluated them.
        plan = FaultPlan(seed=3, poison_points=((1, 2),))
        chaos.install(plan)
        try:
            batch_results = sweep("program", "batch")
        finally:
            chaos.clear()
        chaos.install(plan)
        try:
            plain_results = sweep("program", "interpreted")
            for family in MONITORS:
                _, ledger = assert_shared_matches_per_point(
                    tmp_path, family, chunk_size=4)
                assert b"!crash[MemoryError]" in ledger
        finally:
            chaos.clear()
        assert rows(batch_results) == rows(plain_results)
        backends = set()
        for result in batch_results:
            backends |= set(result.backends)
        assert "compiled" in backends  # the degraded pair is visible


class TestCheckpointResume:
    def test_interrupt_and_resume_under_batch(self, tmp_path):
        for family in FAMILIES:
            baseline = rows(sweep(family, "interpreted", chunk_size=3))
            for backend in SHARED:
                name = f"{family}-{backend}"
                path = str(tmp_path / f"{name}.jsonl")
                with pytest.raises(SweepInterruptedError):
                    sweep(family, backend, chunk_size=3, checkpoint=path,
                          stop=lambda: "signal")
                ledger = tmp_path / f"{name}.ledger"
                resumed = sweep(family, backend, chunk_size=3,
                                checkpoint=path, resume=True,
                                audit=str(ledger))
                assert rows(resumed) == baseline
                # The resumed ledger re-derives every chunk, journalled
                # or not, exactly as an uninterrupted per-policy sweep
                # writes it.
                _, reference = decisions(tmp_path, per_point(family),
                                         backend, chunk_size=3)
                assert ledger.read_bytes() == reference

                _, summaries, _ = load_checkpoint(path)
                # something was journalled across the two runs
                assert summaries
                assert {summary.backend
                        for summary in summaries.values()} == {
                    BATCH_TIER[family]}

    def test_resume_across_backends_is_legitimate(self, tmp_path):
        # Rows are backend-independent, so a journal written per-point
        # may finish on shared runs (and vice versa) with identical rows.
        path = str(tmp_path / "ck.jsonl")
        with pytest.raises(SweepInterruptedError):
            sweep("program", "interpreted", chunk_size=3, checkpoint=path,
                  stop=lambda: "signal")
        resumed = sweep("program", "compiled", chunk_size=3,
                        checkpoint=path, resume=True)
        assert rows(resumed) == rows(sweep("program", "interpreted",
                                           chunk_size=3))


def violation_fields(ring):
    """The multiset of a trace's ``violation`` events, by the fields a
    per-point run gives each."""
    return Counter((event["program"], event["source"], event.get("steps"),
                    event.get("timed"), event.get("early"))
                   for event in ring.events("violation"))


def fault_events(ring):
    """The multiset of a trace's fault events, by (kind, program)."""
    return Counter((event["kind"], event["program"])
                   for kind in ("fuel_exhausted", "value_cap_exceeded")
                   for event in ring.events(kind))


def per_point_outcomes(family, fuel, value_cap):
    """Outcome counts of the family's per-policy mechanisms over
    ``TALLIED`` x ``tally_grid``, called point by point, with the
    ``surveillance.*`` run counters their surveil calls record, the
    fields of their ``violation`` events and their fault events."""
    counts = Counter()
    ring = obs.RingBufferSink(capacity=1 << 16)
    with obs.observed(metrics=True, reset=True, sinks=[ring]) as registry:
        for flowchart in TALLIED:
            domain = tally_grid(flowchart.arity)
            for policy in all_allow_policies(flowchart.arity):
                mechanism = FACTORIES[family](flowchart, policy, domain,
                                              fuel, value_cap=value_cap,
                                              backend="compiled")
                for point in domain:
                    counts["points"] += 1
                    try:
                        output = mechanism(*point)
                    except FuelExhaustedError:
                        counts["fuel"] += 1
                    except ValueCapExceededError:
                        counts["cap"] += 1
                    else:
                        if not is_violation(output):
                            continue
                        notice = str(output)
                        counts["fuel" if notice.startswith("Λ!fuel[")
                               else "cap" if notice.startswith("Λ!cap[")
                               else "violation"] += 1
        counters = registry.snapshot()["counters"]
    counts["runs"] = counters.get("surveillance.runs", 0)
    counts["steps"] = counters.get("surveillance.steps_total", 0)
    return counts, violation_fields(ring), fault_events(ring)


class TestObservability:
    @pytest.mark.parametrize("backend", ["batch", "compiled",
                                         "interpreted"])
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    @pytest.mark.parametrize("family", MONITORS)
    def test_sweep_counters_match_per_point_outcomes(self, family,
                                                     executor, backend):
        # Each decision counts a fault once, whether the batch path
        # tallies it or the per-point run that faulted records it.
        expected, events, _ = per_point_outcomes(family, fuel=10,
                                                 value_cap=4)
        assert expected["fuel"] and expected["cap"] and expected["violation"]
        # Timed and high-water count their surveilled runs and steps on
        # every backend, as the per-point surveil calls do.
        assert bool(expected["runs"]) == (family != "surveillance")
        source = "instrumented" if family == "surveillance" else (
            "surveillance")

        def counted(sinks=()):
            with obs.observed(metrics=True, reset=True,
                              sinks=sinks) as registry:
                sweep(family, backend, programs=TALLIED, grid=tally_grid,
                      fuel=10, value_cap=4, executor=executor,
                      max_workers=2, chunk_size=16)
                counters = registry.snapshot()["counters"]
            return {"violation": counters.get("violations.raised", 0),
                    "source": counters.get(f"violations.{source}", 0),
                    "fuel": counters.get("run.fuel_exhausted", 0),
                    "cap": counters.get("run.value_cap_exceeded", 0),
                    "points": counters.get("sweep.points_evaluated", 0),
                    "runs": counters.get("surveillance.runs", 0),
                    "steps": counters.get("surveillance.steps_total", 0)}

        counters = counted()
        assert counters == {"violation": expected["violation"],
                            "source": expected["violation"],
                            "fuel": expected["fuel"],
                            "cap": expected["cap"],
                            "points": expected["points"],
                            "runs": expected["runs"],
                            "steps": expected["steps"]}
        # A trace still gets one event per decision, and each
        # violation event carries the fields of the per-point run's.
        ring = obs.RingBufferSink(capacity=1 << 16)
        assert counted([ring]) == counters
        assert {"violation": len(ring.events("violation")),
                "fuel": len(ring.events("fuel_exhausted")),
                "cap": len(ring.events("value_cap_exceeded"))} == {
            "violation": counters["violation"], "fuel": counters["fuel"],
            "cap": counters["cap"]}
        assert violation_fields(ring) == events

    @pytest.mark.parametrize("backend", ["batch", "compiled",
                                         "interpreted"])
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_fault_events_name_the_program_that_ran(self, family, executor,
                                                    backend):
        # A fault event names the flowchart that ran, as the per-point
        # run's does (the instrumented one for surveillance), not the
        # mechanism one policy's decision was made for.
        _, _, expected = per_point_outcomes(family, fuel=10, value_cap=4)
        assert {kind for kind, _ in expected} == {"fuel_exhausted",
                                                  "value_cap_exceeded"}
        ring = obs.RingBufferSink(capacity=1 << 16)
        with obs.observed(metrics=True, reset=True, sinks=[ring]):
            sweep(family, backend, programs=TALLIED, grid=tally_grid,
                  fuel=10, value_cap=4, executor=executor, max_workers=2,
                  chunk_size=16)
        assert fault_events(ring) == expected

    def test_explain_mode_degrades_to_per_point(self):
        # --explain replays per-point provenance; the batch path would
        # skip the instrumented per-point run, so explain wins.
        ring = obs.RingBufferSink()
        with obs.observed(sinks=[ring], reset=True, explain=True):
            results = sweep("surveillance", "batch")
        assert rows(results) == rows(sweep("surveillance", "interpreted"))
        assert ring.events("explanation")


#: Batch sweeps of both batch-tier families, then a check that nothing
#: on their path imported NumPy.
NO_NUMPY_SWEEP = """
import sys
from repro.flowchart import library
from repro.verify import parallel_soundness_sweep
programs = [library.forgetting_program(), library.gcd_program(),
            library.policy_loop_program()]
for family in ("program", "surveillance"):
    parallel_soundness_sweep(programs, family, backend="batch",
                             executor="serial", fuel=30)
assert "numpy" not in sys.modules, "a batch sweep imported numpy"
"""


class TestNoNumPy:
    @pytest.mark.skipif(importlib.util.find_spec("numpy") is None,
                        reason="needs an importable numpy to refuse")
    def test_batch_sweeps_never_import_numpy(self):
        # The summariser decodes each batch in plain Python: with NumPy
        # importable, a fresh interpreter running program and
        # surveillance batch sweeps never loads it.
        result = subprocess.run(
            [sys.executable, "-c", NO_NUMPY_SWEEP],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
            text=True)
        assert result.returncode == 0, result.stderr
