"""Sweeps under ``backend="batch"``: same rows, chunk-level dispatch.

The batch path changes *how* a sweep chunk is evaluated (one run per
grid point with no policy, decided for every policy of a pair by
bitmask tests, instead of a per-policy per-point loop), never *what*
it computes: every test here pins the batch sweep's rows — and, for
the monitor families, its audit-ledger bytes — to the per-point
sweep's, across families, budgets, executors, lane engines, chaos
plans, and checkpoint resume, and checks that the tier that actually
evaluated each pair is recorded.
"""

import pytest

from repro import obs
from repro.core import ProductDomain
from repro.core.errors import ReproError, SweepInterruptedError
from repro.flowchart import library as figure_library
from repro.verify import (FACTORIES, FaultPlan, chaos,
                          parallel_soundness_sweep)
from repro.verify.checkpoint import load_checkpoint

PROGRAMS = [figure_library.forgetting_program(),
            figure_library.parity_program()]

MONITORS = ["surveillance", "timed", "highwater"]
FAMILIES = ["program"] + MONITORS

#: The tier a batch sweep's chunks report: the label walks of the
#: timed and high-water families are interpreter-level.
BATCH_TIER = {"program": "batch", "surveillance": "batch",
              "timed": "interpreted", "highwater": "interpreted"}

#: Loops, branches, three inputs and policy epochs: every way a run can
#: end (halt, timed guard, epoch change, fuel, cap).
MIXED = [figure_library.timing_loop(), figure_library.gcd_program(),
         figure_library.nested_branch_program(),
         figure_library.countdown_pair_program(),
         figure_library.policy_loop_program(),
         figure_library.policy_branch_program()]


def grid(arity):
    return ProductDomain.integer_grid(0, 2, arity)


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


def decisions(tmp_path, family, **kwargs):
    """Named rows and audit-ledger bytes of a batch-backend sweep."""
    ledger = tmp_path / f"{len(list(tmp_path.iterdir()))}.ledger"
    results = sweep(family, "batch", audit=str(ledger), **kwargs)
    named = [row + (r.mechanism_name,)
             for row, r in zip(rows(results), results)]
    return named, ledger.read_bytes()


def assert_shared_matches_per_point(tmp_path, family, **kwargs):
    """Shared runs (any executor) == per-policy runs (serial)."""
    shared = decisions(tmp_path, family, **kwargs)
    kwargs.update(executor="serial")
    kwargs.pop("max_workers", None)
    assert shared == decisions(tmp_path, per_point(family), **kwargs)
    return shared


class TestRowParity:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_batch_rows_match_per_point_rows(self, family, tmp_path):
        assert rows(sweep(family, "batch")) == rows(sweep(family))
        assert_shared_matches_per_point(tmp_path, family, chunk_size=4)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_all_fault_sweep_matches(self, family):
        # fuel=1 makes every point fault: the batch summary must carry
        # the same distinguished fuel notice per class as the per-point
        # walk does.
        assert (rows(sweep(family, "batch", fuel=1))
                == rows(sweep(family, fuel=1)))

    @pytest.mark.parametrize("family", MONITORS)
    def test_every_fuel_budget_matches(self, family, tmp_path):
        # A J-violation the allow-all instrumented run did not take is
        # one box longer, and a timed guard can stop a run before it
        # runs dry: every budget from 1 to 40 must decide each policy
        # exactly as its own run would.
        wide = lambda arity: ProductDomain.integer_grid(
            0, 3 if arity < 3 else 1, arity)
        # Both lane engines decide surveillance (vector and per-lane).
        engines = ("numpy", "python") if family == "surveillance" else (
            None,)
        for fuel in range(1, 41):
            for lanes in engines:
                assert_shared_matches_per_point(
                    tmp_path, family, programs=MIXED, grid=wide, fuel=fuel,
                    chunk_size=8, lane_engine=lanes)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_capped_sweep_matches(self, family, tmp_path):
        assert (rows(sweep(family, "batch", value_cap=4))
                == rows(sweep(family, value_cap=4)))
        wide = lambda arity: ProductDomain.integer_grid(0, 9, arity)
        for cap in (1, 2, 4):
            assert_shared_matches_per_point(tmp_path, family,
                                            programs=MIXED[:2], grid=wide,
                                            value_cap=cap, chunk_size=16)

    def test_python_lanes_match(self, tmp_path):
        # Explicit lane selection (the serving path) — no env mutation.
        assert (rows(sweep("program", "batch", lane_engine="python"))
                == rows(sweep("program")))
        assert (rows(sweep("surveillance", "batch", lane_engine="python"))
                == rows(sweep("surveillance")))
        for family in MONITORS:
            for lanes in ("numpy", "python"):
                assert_shared_matches_per_point(
                    tmp_path, family, programs=MIXED, lane_engine=lanes,
                    fuel=30, chunk_size=5)

    def test_chunked_and_pooled_executors_match(self, tmp_path):
        baseline = rows(sweep("program"))
        assert rows(sweep("program", "batch", chunk_size=3)) == baseline
        assert rows(sweep("program", "batch", executor="thread",
                          max_workers=2, chunk_size=3)) == baseline
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

    def test_gcd_wide_grid_matches(self):
        programs = [figure_library.gcd_program()]
        wide = lambda arity: ProductDomain.integer_grid(1, 6, arity)
        assert (rows(sweep("program", "batch", programs=programs,
                           grid=wide))
                == rows(sweep("program", programs=programs, grid=wide)))

    def test_walk_families_record_the_interpreted_tier(self):
        # Timed and high-water decide every policy from one label walk
        # per point; the walk is interpreter-level, per point or shared,
        # whatever the backend asked for.
        for family in ("timed", "highwater"):
            shared = sweep(family, "batch")
            per_pair = sweep(family, "compiled")
            assert rows(shared) == rows(per_pair)
            for result in shared + per_pair:
                assert set(result.backends) == {"interpreted"}


class TestSharedRuns:
    @pytest.mark.parametrize("family", MONITORS)
    def test_one_labelled_run_per_flowchart_point(self, family,
                                                  monkeypatch):
        from repro.flowchart import batchpath
        from repro.flowchart.fastpath import clear_result_memo
        from repro.surveillance import dynamic

        runs = []

        def counting(function, points_of):
            def wrapper(*args, **kwargs):
                runs.append(points_of(args))
                return function(*args, **kwargs)
            return wrapper

        # Surveillance runs lanes of the instrumented flowchart; timed
        # and high-water run label walks, one per point.
        for lanes in ("_drive_numpy", "_drive_python"):
            monkeypatch.setattr(batchpath, lanes, counting(
                getattr(batchpath, lanes), lambda args: len(args[1])))
        monkeypatch.setattr(dynamic, "_walk",
                            counting(dynamic._walk, lambda args: 1))
        programs = PROGRAMS + [figure_library.nested_branch_program()]
        points = sum(len(grid(f.arity)) for f in programs)

        clear_result_memo()
        results = sweep(family, "batch", programs=programs)
        assert sum(runs) == points
        assert sum(r.domain_size for r in results) == sum(
            len(grid(f.arity)) * 2 ** f.arity for f in programs)
        sweep(family, "batch", programs=programs)
        assert sum(runs) == points  # the rows memo still holds them
        clear_result_memo()
        sweep(family, "batch", programs=programs)
        assert sum(runs) == 2 * points

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
        for result in sweep("program", "compiled"):
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
            plain_results = sweep("program")
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
            path = str(tmp_path / f"{family}.jsonl")
            baseline = rows(sweep(family, chunk_size=3))

            with pytest.raises(SweepInterruptedError):
                sweep(family, "batch", chunk_size=3, checkpoint=path,
                      stop=lambda: "signal")
            ledger = tmp_path / f"{family}.ledger"
            resumed = sweep(family, "batch", chunk_size=3,
                            checkpoint=path, resume=True, audit=str(ledger))
            assert rows(resumed) == baseline
            # The resumed ledger re-derives every chunk, journalled or
            # not, exactly as an uninterrupted per-policy sweep writes it.
            _, reference = decisions(tmp_path, per_point(family),
                                     chunk_size=3)
            assert ledger.read_bytes() == reference

            _, summaries, _ = load_checkpoint(path)
            # something was journalled across the two runs
            assert summaries
            assert {summary.backend for summary in summaries.values()} == {
                BATCH_TIER[family]}

    def test_resume_across_backends_is_legitimate(self, tmp_path):
        # Rows are backend-independent, so a journal written per-point
        # may finish under batch (and vice versa) with identical rows.
        path = str(tmp_path / "ck.jsonl")
        with pytest.raises(SweepInterruptedError):
            sweep("program", chunk_size=3, checkpoint=path,
                  stop=lambda: "signal")
        resumed = sweep("program", "batch", chunk_size=3,
                        checkpoint=path, resume=True)
        assert rows(resumed) == rows(sweep("program", chunk_size=3))


class TestObservability:
    def test_batch_events_emitted(self):
        from repro.flowchart.batchpath import clear_batch_caches

        clear_batch_caches()
        ring = obs.RingBufferSink()
        with obs.observed(sinks=[ring], reset=True):
            sweep("program", "batch")
        compiled = ring.events("batch_compiled")
        assert compiled and all(event["engine"] in ("numpy", "python")
                                for event in compiled)

    def test_explain_mode_degrades_to_per_point(self):
        # --explain replays per-point provenance; the batch path would
        # skip the instrumented per-point run, so explain wins.
        ring = obs.RingBufferSink()
        with obs.observed(sinks=[ring], reset=True, explain=True):
            results = sweep("surveillance", "batch")
        assert rows(results) == rows(sweep("surveillance"))
        assert ring.events("explanation")
