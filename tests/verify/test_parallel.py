"""The parallel sweep must reproduce the serial sweep exactly.

Every executor mode — serial, thread, process — is compared field-by-
field against :func:`repro.verify.soundness_sweep` on the same
(flowchart, policy) product, and the single-pass
``check_soundness_with_accepts`` is checked against a brute-force
recount.
"""

import contextlib
import multiprocessing

import pytest

from repro.core.mechanism import is_violation
from repro.core.errors import ReproError
from repro.core.soundness import check_soundness, check_soundness_with_accepts
from repro.flowchart import library
from repro.verify import (FACTORIES, chaos, parallel_soundness_sweep,
                          resolve_factory, soundness_sweep)
from repro.verify.enumerate import default_grid
from repro.verify.parallel import (ChunkSummary, evaluate_chunk,
                                   merge_chunks)

FLOWCHARTS = [library.forgetting_program(), library.parity_program(),
              library.max_program()]


def rows(results):
    return [(r.program_name, r.policy_name, r.mechanism_name,
             r.sound, r.accepts, r.domain_size) for r in results]


@pytest.fixture(scope="module")
def serial_baseline():
    return soundness_sweep(FLOWCHARTS, FACTORIES["surveillance"])


@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_executor_matches_serial_sweep(executor, serial_baseline):
    parallel = parallel_soundness_sweep(
        FLOWCHARTS, "surveillance", executor=executor, max_workers=2,
        chunk_size=5)
    assert rows(parallel) == rows(serial_baseline)


def live_pool_threads():
    from concurrent.futures import process

    return {thread for thread in list(process._threads_wakeups)
            if thread.is_alive()}


def test_process_executor_matches_serial_sweep(serial_baseline):
    before = live_pool_threads()
    parallel = parallel_soundness_sweep(
        FLOWCHARTS, "surveillance", executor="process", max_workers=2,
        chunk_size=7)
    assert rows(parallel) == rows(serial_baseline)
    # A pool whose every task landed is joined before the sweep returns.
    assert not live_pool_threads() - before


def test_auto_executor_small_product_stays_correct():
    # 3^k points per pair is far below the auto-serial threshold, so
    # "auto" degrades to serial — and must still match.
    auto = parallel_soundness_sweep(FLOWCHARTS, "program", executor="auto")
    serial = soundness_sweep(FLOWCHARTS, FACTORIES["program"])
    assert rows(auto) == rows(serial)


def test_callable_factory_accepted_by_thread_executor():
    def factory(flowchart, policy, domain):
        return FACTORIES["surveillance"](flowchart, policy, domain)

    parallel = parallel_soundness_sweep(
        [library.parity_program()], factory, executor="thread",
        max_workers=2, chunk_size=3)
    serial = soundness_sweep([library.parity_program()], factory)
    assert rows(parallel) == rows(serial)


def test_process_executor_rejects_unpicklable_factory(tmp_path):
    from repro import obs
    from repro.obs import runtime

    # The error comes before the sweep has any side effect.
    ledger = tmp_path / "audit.jsonl"
    ledger.write_text("an earlier sweep's ledger\n")
    ring = obs.RingBufferSink()
    with obs.observed(sinks=[ring], reset=True):
        with pytest.raises(ReproError, match="pickling"):
            parallel_soundness_sweep(
                [library.parity_program()],
                lambda flowchart, policy, domain:
                    FACTORIES["surveillance"](flowchart, policy, domain),
                executor="process", audit=str(ledger))
        open_span = runtime.current_span()
    assert ledger.read_text() == "an earlier sweep's ledger\n"
    assert open_span is None
    assert not ring.events("sweep_start")
    assert "sweep.count" not in obs.snapshot()["counters"]


def test_unknown_executor_and_factory_rejected():
    with pytest.raises(ReproError, match="executor"):
        parallel_soundness_sweep(FLOWCHARTS, "surveillance",
                                 executor="gpu")
    with pytest.raises(ReproError, match="factory"):
        resolve_factory("quantum")


def test_chunk_merge_equals_whole_domain_summary():
    flowchart = library.max_program()
    domain = default_grid(flowchart.arity)
    from repro.core.policy import allow
    policy = allow(1, arity=flowchart.arity)
    mechanism = FACTORIES["surveillance"](flowchart, policy, domain)

    points = list(domain)
    whole = evaluate_chunk(mechanism, policy, points)
    split = [evaluate_chunk(mechanism, policy, points[i:i + 2])
             for i in range(0, len(points), 2)]
    assert merge_chunks(split) == merge_chunks([whole])


def test_merge_detects_cross_chunk_conflict():
    # Same policy class in two chunks, different representatives: the
    # conflict is only visible at merge time.
    agree = ChunkSummary(1, {(): "A"}, False)
    differ = ChunkSummary(1, {(): "B"}, False)
    sound, accepts = merge_chunks([agree, differ])
    assert not sound and accepts == 2
    sound, _ = merge_chunks([agree, ChunkSummary(0, {(): "A"}, False)])
    assert sound


def test_single_pass_accepts_equals_brute_force():
    from repro.core.policy import allow
    flowchart = library.forgetting_program()
    domain = default_grid(flowchart.arity)
    policy = allow(2, arity=flowchart.arity)
    mechanism = FACTORIES["surveillance"](flowchart, policy, domain)

    report, accepts = check_soundness_with_accepts(mechanism, policy, domain)
    brute_accepts = sum(
        1 for point in domain if not is_violation(mechanism(*point)))
    assert accepts == brute_accepts
    assert report.sound == check_soundness(mechanism, policy, domain).sound


# ---------------------------------------------------------------------------
# Fuel threading (regression: fuel used to be accepted and ignored)
# ---------------------------------------------------------------------------

class TestFuelThreading:
    def test_tiny_fuel_changes_results_and_matches_serial(self):
        # gcd loops long enough that fuel=3 truncates every run, so the
        # sweep's verdicts and acceptance counts shift; the parallel
        # sweep must shift identically.  (Before the fix, the parallel
        # sweep accepted fuel and silently dropped it on the way to the
        # mechanism factories.)
        flowcharts = [library.gcd_program()]
        serial_tiny = soundness_sweep(flowcharts, FACTORIES["surveillance"],
                                      fuel=3)
        serial_default = soundness_sweep(flowcharts,
                                         FACTORIES["surveillance"])
        assert rows(serial_tiny) != rows(serial_default)
        for executor in ("serial", "thread", "process"):
            parallel = parallel_soundness_sweep(
                flowcharts, "surveillance", fuel=3, executor=executor,
                max_workers=2, chunk_size=3)
            assert rows(parallel) == rows(serial_tiny), executor

    def test_exhausted_run_yields_distinguished_fuel_notice(self):
        from repro.verify.enumerate import fuel_notice

        flowchart = library.gcd_program()
        domain = default_grid(flowchart.arity)
        from repro.core.policy import allow
        policy = allow(1, 2, arity=flowchart.arity)
        mechanism = FACTORIES["surveillance"](flowchart, policy, domain,
                                              fuel=2)
        summary = evaluate_chunk(mechanism, policy, list(domain))
        assert summary.accepts == 0
        assert all(output == fuel_notice(2)
                   for output in summary.classes.values())

    def test_legacy_three_arg_factory_rejected_for_explicit_fuel(self):
        def legacy(flowchart, policy, domain):
            return FACTORIES["surveillance"](flowchart, policy, domain)

        with pytest.raises(ReproError, match="fuel"):
            parallel_soundness_sweep([library.parity_program()], legacy,
                                     fuel=7, executor="thread",
                                     max_workers=2)


# ---------------------------------------------------------------------------
# Argument validation
# ---------------------------------------------------------------------------

class TestValidation:
    @pytest.mark.parametrize("chunk_size", [0, -3])
    def test_nonpositive_chunk_size_rejected(self, chunk_size):
        with pytest.raises(ReproError, match="chunk_size"):
            parallel_soundness_sweep(FLOWCHARTS, "surveillance",
                                     executor="thread",
                                     chunk_size=chunk_size)

    @pytest.mark.parametrize("max_workers", [0, -1])
    def test_nonpositive_max_workers_rejected(self, max_workers):
        with pytest.raises(ReproError, match="max_workers"):
            parallel_soundness_sweep(FLOWCHARTS, "surveillance",
                                     executor="thread",
                                     max_workers=max_workers)

    def test_nonpositive_chunk_timeout_rejected(self):
        with pytest.raises(ReproError, match="chunk_timeout"):
            parallel_soundness_sweep(FLOWCHARTS, "surveillance",
                                     executor="thread", chunk_timeout=0)

    def test_negative_retries_rejected(self):
        with pytest.raises(ReproError, match="max_chunk_retries"):
            parallel_soundness_sweep(FLOWCHARTS, "surveillance",
                                     executor="thread",
                                     max_chunk_retries=-1)


# ---------------------------------------------------------------------------
# Fault tolerance: retries, inline recovery, pool degradation, timeouts
# ---------------------------------------------------------------------------

class KeyedFaults:
    """A chaos plan that faults exact ``(pair, chunk, attempt)`` keys:
    ``crash`` is a set of keys, ``delay`` maps keys to seconds."""

    seed = 0

    def __init__(self, crash=(), delay=None):
        self.crash = set(crash)
        self.delay = delay or {}

    def decide(self, pair, chunk, attempt):
        key = (pair, chunk, attempt)
        return chaos.FaultDecision(crash=key in self.crash,
                                   delay=self.delay.get(key, 0.0))

    def poisons(self, point):
        return False


@contextlib.contextmanager
def keyed_faults(**keys):
    """Install a :class:`KeyedFaults` plan for the sweeps in the block."""
    chaos.install(KeyedFaults(**keys))
    try:
        yield
    finally:
        chaos.clear()


class TestFaultTolerance:
    def test_injected_failure_is_retried_not_fatal(self, serial_baseline):
        from repro import obs

        ring = obs.RingBufferSink()
        with keyed_faults(crash={(0, 0, 0)}), obs.observed(sinks=[ring],
                                                           reset=True):
            results = parallel_soundness_sweep(
                FLOWCHARTS, "surveillance", executor="thread",
                max_workers=2, chunk_size=5)
        assert rows(results) == rows(serial_baseline)
        retries = ring.events("worker_retry")
        assert retries and retries[0]["pair"] == 0
        assert "injected" in retries[0]["reason"]
        counters = obs.snapshot()["counters"]
        assert counters["sweep.chunks_retried"] >= 1

    def test_injected_process_failure_is_retried(self, serial_baseline):
        from repro import obs

        # Pair 4 is parity's first pair, so it keys a task.
        ring = obs.RingBufferSink()
        with keyed_faults(crash={(4, 0, 0)}), obs.observed(sinks=[ring],
                                                           reset=True):
            results = parallel_soundness_sweep(
                FLOWCHARTS, "surveillance", executor="process",
                max_workers=2, chunk_size=7)
        assert rows(results) == rows(serial_baseline)
        retries = ring.events("worker_retry")
        assert [(event["pair"], event["chunk"]) for event in retries] == [
            (4, 0)]
        assert "injected" in retries[0]["reason"]

    def test_poisoned_chunk_recovered_inline(self, serial_baseline):
        from repro import obs

        # Chunk (0, 0) fails on both pooled attempts; after the retry
        # budget the parent evaluates it inline, so the sweep still
        # completes with exact results.
        with keyed_faults(crash={(0, 0, 0), (0, 0, 1)}), obs.observed(
                reset=True):
            results = parallel_soundness_sweep(
                FLOWCHARTS, "surveillance", executor="thread",
                max_workers=2, chunk_size=5, max_chunk_retries=1)
        assert rows(results) == rows(serial_baseline)
        counters = obs.snapshot()["counters"]
        assert counters["sweep.chunks_failed"] == 1
        assert counters["sweep.chunks_retried"] == 1

    def test_broken_process_pool_degrades_to_thread(self, monkeypatch,
                                                    serial_baseline):
        from concurrent.futures import BrokenExecutor

        from repro import obs
        from repro.verify import parallel as parallel_module

        class ExplodingPool:
            def __init__(self, max_workers=None, initializer=None,
                         initargs=()):
                pass

            def submit(self, *args, **kwargs):
                raise BrokenExecutor("simulated dead pool")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor",
                            ExplodingPool)
        ring = obs.RingBufferSink()
        with obs.observed(sinks=[ring], reset=True):
            results = parallel_soundness_sweep(
                FLOWCHARTS, "surveillance", executor="process",
                max_workers=2, chunk_size=5)
        assert rows(results) == rows(serial_baseline)
        degraded = ring.events("pool_degraded")
        assert degraded
        assert degraded[0]["from_mode"] == "process"
        assert degraded[0]["to_mode"] == "thread"

    def test_timed_out_chunk_is_retried(self, serial_baseline):
        from repro import obs

        ring = obs.RingBufferSink()
        with keyed_faults(delay={(0, 0, 0): 0.6}), obs.observed(
                sinks=[ring], reset=True):
            results = parallel_soundness_sweep(
                FLOWCHARTS, "surveillance", executor="thread",
                max_workers=2, chunk_size=5, chunk_timeout=0.15)
        assert rows(results) == rows(serial_baseline)
        retries = ring.events("worker_retry")
        assert retries and "timeout" in retries[0]["reason"]

    def test_progress_callback_sees_every_pair(self):
        seen = []
        results = parallel_soundness_sweep(
            FLOWCHARTS, "surveillance", executor="thread", max_workers=2,
            chunk_size=5,
            progress=lambda completed, total, result:
                seen.append((completed, total, result.program_name)))
        assert len(seen) == len(results)
        assert seen[-1][0] == len(results)
        assert all(total == len(results) for _, total, _ in seen)


class TestRetryBackoff:
    def test_attempt_zero_is_free(self):
        from repro.verify.parallel import retry_backoff
        assert retry_backoff(0, 0, 0) == 0.0
        assert retry_backoff(3, 7, 0, seed=9) == 0.0

    def test_deterministic_in_seed_and_coordinates(self):
        from repro.verify.parallel import retry_backoff
        first = [retry_backoff(pair, chunk, attempt, seed=5)
                 for pair in range(3) for chunk in range(3)
                 for attempt in range(1, 5)]
        second = [retry_backoff(pair, chunk, attempt, seed=5)
                  for pair in range(3) for chunk in range(3)
                  for attempt in range(1, 5)]
        assert first == second
        assert len(set(first)) > 1  # jitter actually varies
        assert first != [retry_backoff(pair, chunk, attempt, seed=6)
                         for pair in range(3) for chunk in range(3)
                         for attempt in range(1, 5)]

    def test_exponential_base_with_bounded_jitter(self):
        from repro.verify.parallel import (_BACKOFF_BASE_S, _BACKOFF_CAP_S,
                                           retry_backoff)
        for attempt in range(1, 12):
            base = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * 2 ** (attempt - 1))
            value = retry_backoff(0, 0, attempt, seed=1)
            assert 0.5 * base <= value <= base
        # The ladder is capped: deep attempts never exceed the cap.
        assert retry_backoff(0, 0, 50, seed=1) <= _BACKOFF_CAP_S

    def test_retried_sweep_rows_stay_identical(self, serial_baseline):
        # The backoff sleeps ride the worker-side delay channel; rows
        # must stay bit-identical however many retries fire.
        from repro import obs

        # Tasks are keyed by their first pair: 0 (forgetting), 4
        # (parity) and 6 (max).
        failures = {(0, 0, 0), (0, 0, 1), (4, 0, 0)}
        ring = obs.RingBufferSink()
        with keyed_faults(crash=failures), obs.observed(sinks=[ring],
                                                        reset=True):
            results = parallel_soundness_sweep(
                FLOWCHARTS, "surveillance", executor="thread",
                max_workers=2, chunk_size=5, max_chunk_retries=3)
        assert rows(results) == rows(serial_baseline)
        # Each injected failure fired once; the event names the attempt
        # it schedules next.
        assert sorted((event["pair"], event["chunk"], event["attempt"] - 1)
                      for event in ring.events("worker_retry")) == sorted(
            failures)


# ---------------------------------------------------------------------------
# The plan reaches each process worker once
# ---------------------------------------------------------------------------

class TestPlanShippedOnce:
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="counts calls through a patch that "
                               "fork-started workers inherit")
    @pytest.mark.parametrize("family", ["program", "surveillance"])
    def test_process_workers_compile_each_flowchart_once(
            self, family, monkeypatch, tmp_path):
        from repro.flowchart import fastpath

        log = tmp_path / "compilations.log"
        generate_source = fastpath.generate_source

        def counted(flowchart, *args, **kwargs):
            with open(log, "a") as handle:
                handle.write(f"{flowchart.name}\n")
            return generate_source(flowchart, *args, **kwargs)

        monkeypatch.setattr(fastpath, "generate_source", counted)
        # Fresh flowcharts: nothing in this process has compiled them.
        programs = [library.gcd_program(), library.parity_program(),
                    library.max_program(), library.mixer_program()]
        # Chunks of 2 points: one task per chunk of a flowchart's grid.
        tasks = sum((len(default_grid(flowchart.arity)) + 1) // 2
                    for flowchart in programs)
        assert tasks > 2 * len(programs)
        results = parallel_soundness_sweep(
            programs, family, executor="process", max_workers=2,
            chunk_size=2, backend="compiled")
        assert all(set(result.backends) == {"batch"} for result in results)
        compilations = log.read_text().splitlines()
        # Each worker compiles each flowchart at most once.
        assert len(programs) <= len(compilations) <= 2 * len(programs)



# ---------------------------------------------------------------------------
# Channel programs
# ---------------------------------------------------------------------------

#: x2 decides whether the receive finds a message: Λ!msg otherwise.
CHANNEL_RELAY = ("program p(x1, x2) { if x2 == 0 { send ch(x1) }; "
                 "recv ch(u); y := u }")


def relay():
    from repro.flowchart.parser import parse_program

    return parse_program(CHANNEL_RELAY).compile()


class TestChannelPrograms:
    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_surveillance_sweep_matches_the_interpreter_mechanism(
            self, executor, backend):
        from repro.surveillance import surveillance_mechanism
        from repro.surveillance.instrument import instrumented_name
        from repro.verify.enumerate import all_allow_policies

        results = parallel_soundness_sweep(
            [relay()], "surveillance", executor=executor, max_workers=2,
            chunk_size=4, backend=backend)
        reference = soundness_sweep(
            [relay()], lambda flowchart, policy, domain:
                surveillance_mechanism(flowchart, policy, domain))
        verdicts = [(r.program_name, r.policy_name, r.sound, r.accepts,
                     r.domain_size) for r in results]
        assert verdicts == [(r.program_name, r.policy_name, r.sound,
                             r.accepts, r.domain_size) for r in reference]
        # Rows keep the family's instrumented names.
        assert [r.mechanism_name for r in results] == [
            instrumented_name(relay(), policy)
            for policy in all_allow_policies(2)]

    @pytest.mark.parametrize("family", ["timed", "highwater"])
    def test_walk_counters_ignore_channel_faults(self, family):
        from repro import obs

        def counters(backend):
            with obs.observed(reset=True) as registry:
                parallel_soundness_sweep([relay()], family,
                                         executor="serial", backend=backend)
                counters = registry.snapshot()["counters"]
            return {name: counters.get(name, 0)
                    for name in ("violations.raised",
                                 "violations.surveillance",
                                 "run.fuel_exhausted",
                                 "run.value_cap_exceeded")}

        # A Λ!msg channel fault is no violation, on either path.
        interpreted = counters("interpreted")
        assert interpreted["violations.raised"]
        assert counters("compiled") == interpreted
