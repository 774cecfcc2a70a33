"""Command-line interface: analyse programs for policies from a shell.

Subcommands:

- ``run``         — execute a program on given inputs, print value + steps;
- ``analyze``     — build a protection mechanism for (program, policy) and
  report soundness, acceptance, and per-input verdicts;
- ``sweep``       — soundness sweep of a mechanism family across library
  programs and every allow-policy, optionally across a worker pool;
- ``certify``     — static certification verdict with the flow analysis;
- ``lint``        — flowlint: run the static analysis passes (influence
  verdict, timing channels, hygiene) over one program or the whole
  library, optionally with the static-vs-dynamic precision harness;
- ``transform``   — apply a Section 4/5 transform and print the result;
- ``dot``         — render a flowchart (optionally its surveillance
  instrumentation) as Graphviz DOT;
- ``library``     — list the paper's built-in figure programs;
- ``experiments`` — list the experiment index E01–E27;
- ``metrics``     — observability utilities: print the live metrics
  registry, render a ``--metrics-json`` file, validate a JSONL trace,
  or dump the trace-event schema (see ``docs/OBSERVABILITY.md``).

Programs come from a file / literal source in the concrete syntax
(see :mod:`repro.flowchart.parser`) or from the figure library::

    python -m repro analyze --library forgetting --policy "allow(2)" \
        --low 0 --high 3
    python -m repro run --source "program p(x1) { y := x1 * 2 }" -- 21
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core import (ProductDomain, VALUE_AND_TIME, VALUE_ONLY,
                   check_soundness_with_accepts)
from .core.errors import ReproError
from .flowchart import library as figure_library
from .flowchart.fastpath import BACKEND_ALIASES, BACKENDS, run_flowchart
from .flowchart.interpreter import as_program
from .flowchart.parser import parse_policy, parse_program
from .flowchart.program import Flowchart
from .verify import Table

#: Library programs addressable from the command line.
LIBRARY = {
    "timing-loop": figure_library.timing_loop,
    "forgetting": figure_library.forgetting_program,
    "reconvergence": figure_library.reconvergence_program,
    "example7": figure_library.example7_program,
    "example8": figure_library.example8_program,
    "example9": figure_library.example9_program,
    "parity": figure_library.parity_program,
    "guarded-copy": figure_library.guarded_copy_program,
    "mixer": figure_library.mixer_program,
    "max": figure_library.max_program,
    "nested-branch": figure_library.nested_branch_program,
    "accumulate": figure_library.accumulate_program,
    "fault-channel": figure_library.fault_channel_program,
    "gcd": figure_library.gcd_program,
    "min": figure_library.min_program,
    "countdown-pair": figure_library.countdown_pair_program,
    "policy-tighten": figure_library.policy_tighten_program,
    "policy-loosen": figure_library.policy_loosen_program,
    "policy-branch": figure_library.policy_branch_program,
    "policy-loop": figure_library.policy_loop_program,
    "downgrade-launder": figure_library.downgrade_launder_program,
    "downgrade-guarded": figure_library.downgrade_guarded_program,
    "downgrade-partial": figure_library.downgrade_partial_program,
    "downgrade-then-tighten": figure_library.downgrade_then_tighten_program,
}

MECHANISMS = ("surveillance", "timed", "highwater", "maximal", "none")


def _load_flowchart(args) -> Flowchart:
    sources = [bool(args.library), bool(args.source), bool(args.file)]
    if sum(sources) != 1:
        raise ReproError(
            "provide exactly one of --library, --source, --file")
    if args.library:
        try:
            return LIBRARY[args.library]()
        except KeyError:
            known = ", ".join(sorted(LIBRARY))
            raise ReproError(
                f"unknown library program {args.library!r}; "
                f"known: {known}") from None
    if args.file:
        with open(args.file) as handle:
            source = handle.read()
    else:
        source = args.source
    return parse_program(source).compile()


def _add_program_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--library", help="a built-in figure program")
    parser.add_argument("--source", help="program text (concrete syntax)")
    parser.add_argument("--file", help="path to a program file")


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    # Choices come from the tier registry (plus its aliases), so an
    # unknown backend is rejected by argparse — usage message listing
    # every registered tier, exit status 2 — before any work starts.
    choices = tuple(BACKENDS) + tuple(sorted(BACKEND_ALIASES))
    parser.add_argument("--backend", choices=choices, default=None,
                        help="execution tier (default: compiled, or "
                             "the REPRO_BACKEND environment variable); "
                             "compiled and batch sweeps share each "
                             "point's run across policies, interpreted "
                             "sweeps run every point once per policy")


def _build_mechanism(kind: str, flowchart, policy, domain, output_model,
                     backend=None):
    from .core import maximal_mechanism, program_as_mechanism
    from .surveillance import (highwater_mechanism, surveillance_mechanism,
                               timed_surveillance_mechanism)

    program = as_program(flowchart, domain, output_model, backend=backend)
    if kind == "surveillance":
        return surveillance_mechanism(flowchart, policy, domain,
                                      output_model=output_model,
                                      program=program)
    if kind == "timed":
        return timed_surveillance_mechanism(flowchart, policy, domain,
                                            output_model=output_model,
                                            program=program)
    if kind == "highwater":
        return highwater_mechanism(flowchart, policy, domain,
                                   output_model=output_model,
                                   program=program)
    if kind == "maximal":
        return maximal_mechanism(program, policy, domain).mechanism
    return program_as_mechanism(program)


def _check_positive(name: str, value, kind: str = "integer") -> None:
    if value is not None and value <= 0:
        raise ReproError(f"{name} must be a positive {kind}; got {value}")


def command_run(args) -> int:
    _check_positive("--value-cap", args.value_cap)
    flowchart = _load_flowchart(args)
    inputs = tuple(int(value) for value in args.inputs)
    result = run_flowchart(flowchart, inputs, fuel=args.fuel,
                           backend=args.backend, value_cap=args.value_cap)
    print(f"value: {result.value}")
    print(f"steps: {result.steps}")
    return 0


def command_analyze(args) -> int:
    flowchart = _load_flowchart(args)
    domain = ProductDomain.integer_grid(args.low, args.high,
                                        flowchart.arity)
    policy = parse_policy(args.policy, arity=flowchart.arity)
    output_model = VALUE_AND_TIME if args.time else VALUE_ONLY
    mechanism = _build_mechanism(args.mechanism, flowchart, policy, domain,
                                 output_model, backend=args.backend)

    report, accepted = check_soundness_with_accepts(mechanism, policy, domain)
    print(f"program:   {flowchart.name} (arity {flowchart.arity})")
    print(f"policy:    {policy.name}")
    print(f"mechanism: {mechanism.name}")
    print(f"domain:    [{args.low}..{args.high}]^{flowchart.arity}"
          f" = {len(domain)} inputs")
    print(f"sound:     {report.sound}")
    if not report.sound:
        print(f"witness:   {report.witness}")
    print(f"accepts:   {accepted}/{len(domain)}")

    if args.verbose:
        table = Table("per-input verdicts", ["input", "output"])
        for point in domain:
            table.add_row(str(point), str(mechanism(*point)))
        table.show()
    return 0 if report.sound else 1


def command_certify(args) -> int:
    if args.library:
        # Library programs are flowcharts: use the CFG-level certifier.
        from .staticflow import certify_flowchart

        flowchart = _load_flowchart(args)
        policy = parse_policy(args.policy, arity=flowchart.arity)
        certificate = certify_flowchart(flowchart, policy)
        print(f"program: {flowchart.name} (flowchart, CFG certifier)")
        print(f"policy:  {policy.name}")
        verdict = "CERTIFIED" if certificate.certified else "REJECTED"
        print(f"verdict: {verdict} "
              f"(ȳ = {sorted(certificate.output_label)}, "
              f"J = {sorted(certificate.allowed)})")
        return 0 if certificate.certified else 1

    sources = [bool(args.source), bool(args.file)]
    if sum(sources) != 1:
        raise ReproError(
            "provide exactly one of --library, --source, --file")
    if args.file:
        with open(args.file) as handle:
            text = handle.read()
    else:
        text = args.source
    program = parse_program(text)

    from .staticflow import analyse, certify

    policy = parse_policy(args.policy,
                          arity=len(program.input_variables))
    certificate = certify(program, policy)
    analysis = analyse(program)
    print(f"program: {program.name}")
    print(f"policy:  {policy.name}")
    for variable, label in sorted(analysis.labels.items()):
        print(f"  label({variable}) = {sorted(label)}")
    verdict = "CERTIFIED" if certificate.certified else "REJECTED"
    print(f"verdict: {verdict} "
          f"(ȳ = {sorted(certificate.output_label)}, "
          f"J = {sorted(certificate.allowed)})")
    return 0 if certificate.certified else 1


def command_transform(args) -> int:
    flowchart = _load_flowchart(args)
    from .flowchart.analysis import find_ite_regions, find_while_regions
    from .flowchart.transforms import (duplicate_assignment_transform,
                                       ite_transform, while_transform)

    if args.transform == "ite":
        regions = find_ite_regions(flowchart)
        if not regions:
            raise ReproError("no if-then-else region found")
        result = ite_transform(flowchart, regions[0],
                               detect_identical_arms=args.smart)
    elif args.transform == "while":
        regions = find_while_regions(flowchart)
        if not regions:
            raise ReproError("no while region found")
        result = while_transform(flowchart, regions[0])
    else:
        regions = find_ite_regions(flowchart)
        if not regions:
            raise ReproError("no if-then-else region found")
        result = duplicate_assignment_transform(flowchart, regions[0])

    print(result.pretty())
    if args.check:
        from .flowchart.transforms import functionally_equivalent

        domain = ProductDomain.integer_grid(args.low, args.high,
                                            flowchart.arity)
        equivalent = functionally_equivalent(flowchart, result, domain)
        print(f"\nfunctionally equivalent on "
              f"[{args.low}..{args.high}]^{flowchart.arity}: {equivalent}")
        return 0 if equivalent else 1
    return 0


def command_sweep(args) -> int:
    import json
    import signal as _signal
    import time as _time

    from . import obs
    from .core.errors import SweepInterruptedError
    from .flowchart.fastpath import resolve_backend
    from .verify import FaultPlan, parallel_soundness_sweep, unsound_results
    from .verify import chaos as chaos_module

    _check_positive("--value-cap", args.value_cap)
    _check_positive("--deadline", args.deadline, kind="number of seconds")
    if args.resume and not args.checkpoint:
        raise ReproError(
            "--resume restores a sweep journal; add --checkpoint PATH "
            "pointing at the journal to resume from")

    if args.programs:
        names = [name.strip() for name in args.programs.split(",")]
    else:
        # The sweep's soundness reference is fixed-policy
        # noninterference against the initial policy, which mislabels
        # intentional declassification — dynamic-policy programs are
        # judged by the precision harness's epoch-aware reference
        # instead, so the default sweep set excludes them.  Explicit
        # --programs selection still works (the unsound verdicts are
        # then the NI baseline, by request).
        names = [name for name in sorted(LIBRARY)
                 if not LIBRARY[name]().has_dynamic_policy()]
    try:
        flowcharts = [LIBRARY[name]() for name in names]
    except KeyError as error:
        known = ", ".join(sorted(LIBRARY))
        raise ReproError(
            f"unknown library program {error.args[0]!r}; "
            f"known: {known}") from None

    progress = None
    if args.progress:
        def progress(completed, total, result):
            print(f"  [{completed}/{total}] {result.program_name} x "
                  f"{result.policy_name}: sound={result.sound} "
                  f"accepts={result.accepts}/{result.domain_size}",
                  file=sys.stderr, flush=True)

    trace_sink = None
    sinks = []
    if args.trace:
        trace_sink = obs.JsonlSink(args.trace)
        sinks.append(trace_sink)
    if args.explain and not args.trace:
        raise ReproError(
            "--explain emits provenance into the trace stream; "
            "add --trace PATH")
    observing = bool(args.metrics_json or sinks)
    if observing:
        obs.enable(metrics=True, sinks=sinks, reset=True,
                   explain=args.explain)

    # A checkpointed sweep converts SIGINT/SIGTERM into a graceful stop:
    # the runner drains in-flight chunks, journals them, and raises
    # SweepInterruptedError so a later --resume completes the sweep.
    stop_signal: List[str] = []
    stop = None
    saved_handlers = []
    if args.checkpoint:
        def request_stop(signum, frame):
            stop_signal.append(_signal.Signals(signum).name)

        def stop():
            return "signal" if stop_signal else None

        for signum in (_signal.SIGINT, _signal.SIGTERM):
            try:
                saved_handlers.append(
                    (signum, _signal.signal(signum, request_stop)))
            except ValueError:
                pass  # not the main thread; run without handlers

    if args.chaos:
        chaos_module.install(FaultPlan.parse(args.chaos))

    # The backend travels to the sweep (and its mechanism factories,
    # across process pools) as an explicit argument; mutating
    # ``os.environ`` here used to leak one invocation's choice into
    # everything else sharing the process.
    backend = resolve_backend(args.backend) if args.backend else None
    interrupted = None
    try:
        started = _time.perf_counter()
        try:
            results = parallel_soundness_sweep(
                flowcharts, args.mechanism,
                grid=lambda arity: ProductDomain.integer_grid(
                    args.low, args.high, arity),
                fuel=args.fuel,
                executor=args.executor, max_workers=args.jobs,
                chunk_size=args.chunk_size,
                chunk_timeout=args.chunk_timeout,
                max_chunk_retries=args.retries,
                progress=progress,
                value_cap=args.value_cap,
                checkpoint=args.checkpoint,
                resume=args.resume,
                stop=stop,
                deadline=args.deadline,
                backend=backend,
                audit=args.audit)
        except SweepInterruptedError as error:
            interrupted = error
            results = []
        elapsed = _time.perf_counter() - started
    finally:
        if args.chaos:
            chaos_module.clear()
        for signum, handler in saved_handlers:
            _signal.signal(signum, handler)
        if observing:
            snapshot = obs.snapshot()
            obs.disable()
            if trace_sink is not None:
                trace_sink.close()

    if interrupted is not None:
        print(f"error: {interrupted}", file=sys.stderr)
        # Conventional timeout/signal statuses so scripts (and the
        # SIGKILL-resume integration test) can tell the cases apart.
        return 124 if interrupted.reason == "deadline" else 130

    table = Table(f"soundness sweep ({args.mechanism} mechanisms)",
                  ["program", "policy", "sound", "accepts"])
    for result in results:
        table.add_row(result.program_name, result.policy_name,
                      str(result.sound),
                      f"{result.accepts}/{result.domain_size}")
    print(table.render())
    failures = unsound_results(results)
    print(f"{len(results)} (program, policy) pairs in {elapsed:.2f}s "
          f"[executor={args.executor}]; unsound: {len(failures)}")

    if args.results_json:
        rows = [
            {
                "program": result.program_name,
                "policy": result.policy_name,
                "sound": result.sound,
                "accepts": result.accepts,
                "domain_size": result.domain_size,
                # Chunk count per backend that *actually* evaluated the
                # pair — after any pool degradation or batch fallback —
                # so a row shows when a batch sweep quietly retreated.
                "backends": result.backends,
            }
            for result in results
        ]
        with open(args.results_json, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=2, sort_keys=True)
            handle.write("\n")

    if args.metrics_json:
        payload = {
            "meta": {
                "command": "sweep",
                "mechanism": args.mechanism,
                "executor": args.executor,
                "backend": backend,
                "fuel": args.fuel,
                "value_cap": args.value_cap,
                "programs": names,
                "pairs": len(results),
                "unsound": len(failures),
                "elapsed_s": round(elapsed, 6),
            },
        }
        payload.update(snapshot)
        with open(args.metrics_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if not failures or args.mechanism == "program" else 1


def command_explain(args) -> int:
    """Violation provenance: why does the mechanism say Λ here?"""
    import json

    from . import obs

    flowchart = _load_flowchart(args)
    policy = parse_policy(args.policy, arity=flowchart.arity)
    if args.static:
        if args.inputs:
            raise ReproError(
                "--static derives the compile-time chain; it takes no "
                "concrete inputs")
        explanation = obs.explain_static(flowchart, policy)
    else:
        if not args.inputs:
            raise ReproError(
                "explain replays one point: give its integer inputs, or "
                "pass --static for the compile-time chain")
        point = tuple(int(value) for value in args.inputs)
        explanation = obs.explain(flowchart, policy, point,
                                  timed=args.timed, fuel=args.fuel)
    if args.json:
        print(json.dumps(explanation.to_dict(), indent=2, sort_keys=True))
    else:
        print(explanation.render())
    return 1 if explanation.violated else 0


def command_trace(args) -> int:
    """Offline analytics over a JSONL trace written by ``sweep --trace``."""
    import json

    from . import obs

    try:
        events = obs.load_trace(args.trace)
    except OSError as error:
        raise ReproError(f"cannot read trace {args.trace!r}: {error}")

    if args.action == "summarize":
        summary = obs.summarize(events)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        print(f"trace:     {args.trace}")
        print(f"events:    {summary['events']} "
              f"across {summary['processes']} process(es)")
        kinds = summary["kinds"]
        if kinds:
            table = Table("events by kind", ["kind", "count"])
            for kind in sorted(kinds):
                table.add_row(kind, str(kinds[kind]))
            print(table.render())
        spans = summary["spans"]
        print(f"spans:     {spans['total']} in {spans['roots']} tree(s), "
              f"{len(spans['problems'])} problem(s)")
        if spans["by_op"]:
            table = Table("span timing by op",
                          ["op", "count", "total_s", "max_s"])
            for op, stats in spans["by_op"].items():
                table.add_row(op, str(stats["count"]),
                              f"{stats['total_s']:.6f}",
                              f"{stats['max_s']:.6f}")
            print(table.render())
        print(f"points:    {summary['points_evaluated']} evaluated, "
              f"{summary['points_accepted']} accepted")
        print(f"incidents: {summary['violations']} violation(s), "
              f"{summary['worker_retries']} retry(ies), "
              f"{summary['pool_degradations']} degradation(s)")
        recovery = summary["recovery"]
        line = (f"recovery:  {recovery['points_quarantined']} point(s) "
                f"quarantined in {recovery['chunks_quarantined']} "
                f"chunk(s), {recovery['checkpoints_written']} "
                f"checkpoint(s) written, {recovery['chunks_restored']} "
                f"chunk(s) restored")
        if recovery["interruptions"]:
            line += (" — interrupted: "
                     + ", ".join(recovery["interruptions"]))
        print(line)
        dynamic = summary["dynamic_policy"]
        print(f"dynamic:   {dynamic['policy_changes']} policy change(s) "
              f"(max epoch {dynamic['max_epoch']}), "
              f"{dynamic['downgrades']} downgrade(s), "
              f"{dynamic['epoch_violations']} epoch violation(s)")
        audit = summary["audit"]
        line = (f"audit:     {audit['appended']} record(s) appended, "
                f"{audit['rotations']} rotation(s), "
                f"{audit['rate_spikes']} rate spike(s)")
        if audit["spiked_tenants"]:
            line += " — spiked: " + ", ".join(audit["spiked_tenants"])
        print(line)
        return 0

    if args.action == "slow":
        rows = obs.slowest_spans(events, top=args.top)
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True))
            return 0
        table = Table(f"slowest {len(rows)} span(s)",
                      ["span", "op", "elapsed_s", "detail"])
        for row in rows:
            detail = " ".join(
                f"{key}={row[key]}" for key in
                ("program", "policy", "pair", "chunk", "executor")
                if key in row)
            table.add_row(row["span"], row["op"],
                          f"{row['elapsed_s']:.6f}", detail)
        print(table.render())
        return 0

    if args.action == "explain":
        point = None
        if args.point:
            point = [int(value) for value in args.point.split(",")]
        records = obs.find_explanations(events, point=point,
                                        program=args.program)
        if args.json:
            print(json.dumps(records, indent=2, sort_keys=True))
            return 0 if records else 1
        if not records:
            print("no explanation events match "
                  "(was the sweep run with --explain and --trace?)",
                  file=sys.stderr)
            return 1
        for record in records:
            print(obs.render_explanation_event(record))
            print()
        return 0

    # spans
    forest = obs.build_span_tree(events)
    if args.tree:
        print(obs.render_tree(forest, max_children=args.max_children))
    print(f"{len(forest.spans)} span(s), {len(forest.roots)} root(s), "
          f"{len(forest.problems)} problem(s)")
    if args.expect_single_root and not forest.single_rooted:
        print(f"expected a single rooted tree, found {len(forest.roots)} "
              "root(s)", file=sys.stderr)
        return 1
    return 0


def command_metrics(args) -> int:
    import json

    from . import obs

    if args.schema:
        print(json.dumps(obs.EVENT_SCHEMA, indent=2, sort_keys=True))
        return 0
    if args.validate:
        from .obs.audit import _records_end

        # A crash's torn last line is skipped, as the journal reader
        # and --resume skip it; a bad line anywhere else is a problem.
        with open(args.validate, "rb") as handle:
            data = handle.read()
        end = _records_end(data)
        count, problems = obs.validate_jsonl(data[:end].split(b"\n"))
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"{args.validate}: {count} event(s), "
              f"{len(problems)} problem(s)")
        if end < len(data):
            print(f"{args.validate}: skipped a torn last line "
                  f"({len(data) - end} byte(s))")
        return 0 if not problems else 1

    if args.from_json:
        with open(args.from_json, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        meta = snapshot.get("meta")
        if meta and not args.prometheus:
            for key in sorted(meta):
                print(f"{key}: {meta[key]}")
            print()
    else:
        # Live snapshot of this process's registry (mostly interesting
        # from the REPL or after an in-process sweep).
        snapshot = obs.snapshot()

    if args.prometheus:
        # Text exposition format: scrape-ready, round-trips the snapshot.
        sys.stdout.write(obs.snapshot_to_prometheus(snapshot))
        return 0

    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    if counters:
        table = Table("counters", ["name", "value"])
        for name in sorted(counters):
            table.add_row(name, str(counters[name]))
        print(table.render())
    if gauges:
        table = Table("gauges", ["name", "value"])
        for name in sorted(gauges):
            table.add_row(name, str(gauges[name]))
        print(table.render())
    if histograms:
        table = Table("histograms", ["name", "count", "sum", "min", "max"])
        for name in sorted(histograms):
            hist = histograms[name]
            table.add_row(name, str(hist.get("count")),
                          str(hist.get("sum")), str(hist.get("min")),
                          str(hist.get("max")))
        print(table.render())
    if not (counters or gauges or histograms):
        print("no metrics recorded")
    return 0


def command_audit(args) -> int:
    """Inspect and verify the hash-chained enforcement audit ledger."""
    import json

    from .obs.audit import (NOTICE_KINDS, ledger_stats, load_ledger,
                            query_records, tail_records, verify_ledger)

    if args.action == "verify":
        result = verify_ledger(args.ledger)
        if args.json:
            print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        else:
            for problem in result.problems:
                print(problem, file=sys.stderr)
            seal = "sealed" if result.sealed else "no head file"
            status = "ok" if result.ok else "TAMPERED"
            print(f"{args.ledger}: {status} — {result.records} record(s), "
                  f"{seal}")
        return 0 if result.ok else 1

    if args.action == "tail":
        records = tail_records(args.ledger, count=args.count)
    else:
        records = load_ledger(args.ledger)

    if args.action in ("tail", "query"):
        if args.action == "query":
            if args.kind is not None and args.kind not in NOTICE_KINDS:
                raise ReproError(
                    f"unknown notice kind {args.kind!r}; "
                    f"known: {', '.join(sorted(NOTICE_KINDS))}")
            records = query_records(records, tenant=args.tenant,
                                    kind=args.kind,
                                    endpoint=args.endpoint,
                                    since=args.since, until=args.until)
        if args.json:
            print(json.dumps(records, indent=2, sort_keys=True))
        else:
            # One canonical JSON object per line — the ledger's own
            # format, so output pipes straight back into jq/grep.
            for record in records:
                print(json.dumps(record, sort_keys=True,
                                 separators=(",", ":")))
        return 0

    # stats
    stats = ledger_stats(records, window=args.window)
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    table = Table(f"per-tenant decisions ({stats['records']} record(s))",
                  ["tenant", "total", "accepts", "notices", "rate",
                   f"last-{args.window}", "spike"])
    for tenant in sorted(stats["tenants"]):
        row = stats["tenants"][tenant]
        window = row["window"]
        table.add_row(tenant, str(row["total"]), str(row["accepts"]),
                      str(row["notices"]),
                      f"{row['violation_rate']:.3f}",
                      f"{window['rate']:.3f}",
                      "SPIKE" if window["spike"] else "-")
    print(table.render())
    spiked = [tenant for tenant in sorted(stats["tenants"])
              if stats["tenants"][tenant]["window"]["spike"]]
    if spiked:
        print(f"violation-rate spike(s): {', '.join(spiked)}")
    return 0


def command_lint(args) -> int:
    import json

    from .analysis import PassManager, precision_harness

    if args.all:
        if args.library or args.source or args.file:
            raise ReproError(
                "--all lints the whole library; it excludes "
                "--library/--source/--file")
        flowcharts = [LIBRARY[name]() for name in sorted(LIBRARY)]
    else:
        flowcharts = [_load_flowchart(args)]

    manager = PassManager.with_default_passes()
    reports = []
    for flowchart in flowcharts:
        policy = None
        if args.policy:
            try:
                policy = parse_policy(args.policy, arity=flowchart.arity)
            except ReproError:
                if not args.all:
                    raise
                # Lint-the-library mode: a policy naming an input this
                # program lacks simply skips the influence verdict.
                policy = None
        reports.append(manager.run(flowchart, policy))

    exit_code = 1 if any(report.has_errors for report in reports) else 0

    precision = None
    if args.precision:
        precision = precision_harness(
            flowcharts,
            grid=lambda arity: ProductDomain.integer_grid(
                args.low, args.high, arity))
        if precision.unsound_pairs():
            exit_code = 1

    if args.json:
        payload = {
            "programs": len(reports),
            "errors": sum(len(report.errors) for report in reports),
            "exit_code": exit_code,
            "reports": [report.to_dict() for report in reports],
        }
        if precision is not None:
            payload["precision"] = precision.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for report in reports:
            print(report.render())
            print()
        if precision is not None:
            print(precision.render())
            print()
        total = sum(len(report.diagnostics) for report in reports)
        errors = sum(len(report.errors) for report in reports)
        print(f"{len(reports)} program(s) linted: {total} diagnostic(s), "
              f"{errors} error(s)")
    return exit_code


def command_serve(args) -> int:
    """Run the multi-tenant enforcement service (see docs/SERVING.md).

    This is the one place the serving stack reads the environment: the
    server's startup flushes the four env caches and captures their
    values as explicit defaults, so handlers never consult
    ``os.environ`` again.
    """
    import asyncio
    import signal as _signal

    # Lazy: the serve package imports the CLI's LIBRARY (late, for
    # request validation); importing it lazily here keeps `repro run`
    # and friends free of asyncio machinery.
    from .serve import ReproServer, ServerConfig, TenantRegistry

    _check_positive("--value-cap", args.value_cap)
    _check_positive("--fuel", args.fuel)
    if not 0.0 <= args.audit_sample <= 1.0:
        raise ReproError(
            f"--audit-sample must be in [0, 1]; got {args.audit_sample}")
    _check_positive("--audit-max-bytes", args.audit_max_bytes)
    if args.tenants:
        try:
            tenants = TenantRegistry.from_file(args.tenants)
        except (OSError, ValueError) as error:
            raise ReproError(
                f"cannot load tenants config {args.tenants!r}: {error}")
    else:
        tenants = None

    trace_sink = None
    if args.trace:
        from . import obs

        trace_sink = obs.JsonlSink(args.trace)
        obs.enable(metrics=True, sinks=[trace_sink], reset=True)

    config = ServerConfig(
        host=args.host, port=args.port, tenants=tenants,
        fuel=args.fuel, value_cap=args.value_cap,
        backend=args.backend or "batch",
        executor=args.executor, jobs=args.jobs,
        batch_window_ms=args.batch_window_ms,
        cache_size=args.cache_size, workers=args.workers,
        audit_path=args.audit, audit_sample=args.audit_sample,
        audit_max_bytes=args.audit_max_bytes)

    async def _run() -> None:
        server = ReproServer(config)
        await server.start()
        # SIGINT/SIGTERM stop the serving loop gracefully: in-flight
        # requests drain, the root span closes, sinks get the whole
        # tree (the CI serve trace is validated for exactly this).
        loop = asyncio.get_running_loop()
        for signum in (_signal.SIGINT, _signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or exotic platform
        print(f"repro serve listening on "
              f"http://{config.host}:{server.port} "
              f"[backend={server.default_backend} fuel={server.fuel} "
              f"value_cap={server.default_value_cap}]", flush=True)
        await server.wait_stopped()

    try:
        asyncio.run(_run())
        print("repro serve: shut down cleanly", file=sys.stderr)
    except KeyboardInterrupt:
        print("repro serve: interrupted", file=sys.stderr)
    finally:
        if trace_sink is not None:
            from . import obs

            obs.disable()
            trace_sink.close()
    return 0


def command_dot(args) -> int:
    from .flowchart.dot import to_dot

    flowchart = _load_flowchart(args)
    if args.instrument:
        from .surveillance import instrument

        policy = parse_policy(args.instrument, arity=flowchart.arity)
        flowchart = instrument(flowchart, policy)
    print(to_dot(flowchart))
    return 0


#: The experiment index (see DESIGN.md / EXPERIMENTS.md).
EXPERIMENTS = (
    ("E01", "Example 3", "trivial mechanisms", "bench_e01_trivial.py"),
    ("E02", "Theorem 1", "union of sound mechanisms", "bench_e02_union.py"),
    ("E03", "Theorem 2", "maximal mechanism", "bench_e03_maximal.py"),
    ("E04", "Theorem 3", "surveillance soundness + instrumentation",
     "bench_e04_surveillance.py"),
    ("E05", "Theorem 3'", "observable time: M vs M'", "bench_e05_timed.py"),
    ("E06", "p.48", "surveillance vs high-water", "bench_e06_highwater.py"),
    ("E07", "p.49", "surveillance not maximal", "bench_e07_not_maximal.py"),
    ("E08", "Example 7", "ite transform helps", "bench_e08_ite_transform.py"),
    ("E09", "Example 8", "transform hurts", "bench_e09_transform_hurts.py"),
    ("E10", "Example 9", "assignment duplication", "bench_e10_duplication.py"),
    ("E11", "Section 2", "timing channel", "bench_e11_timing.py"),
    ("E12", "Section 2", "tape + tab(i)", "bench_e12_tape.py"),
    ("E13", "Example 5", "logon program", "bench_e13_logon.py"),
    ("E14", "Section 2", "password work factor", "bench_e14_workfactor.py"),
    ("E15", "Example 1", "Fenton halt semantics", "bench_e15_fenton.py"),
    ("E16", "Examples 2/4", "file-system monitors",
     "bench_e16_filesystem.py"),
    ("E17", "Theorem 4", "non-effectiveness", "bench_e17_undecidable.py"),
    ("E18", "Section 5", "static vs dynamic", "bench_e18_static.py"),
    ("E19", "Section 2", "lattice of sound mechanisms",
     "bench_e19_lattice.py"),
    ("E20", "Section 2 dual", "data security", "bench_e20_integrity.py"),
    ("E21", "Example 6/§6", "capability systems",
     "bench_e21_capability.py"),
    ("E22", "Section 2", "resource-usage channel",
     "bench_e22_resource_channel.py"),
    ("E23", "Section 5", "efficient enforcement",
     "bench_e23_efficiency.py"),
    ("E24", "§4 Ruzzo", "halting-oracle maximal mechanism",
     "bench_e24_ruzzo.py"),
    ("E25", "Section 2", "history-dependent sessions",
     "bench_e25_history.py"),
    ("E26", "Section 6", "cross-model enforcement (Fenton compiler)",
     "bench_e26_cross_model.py"),
    ("E27", "Section 6", "page-fault observable ladder",
     "bench_e27_page_faults.py"),
)


def command_experiments(args) -> int:
    table = Table("experiment index (EXPERIMENTS.md has paper-vs-measured)",
                  ["id", "paper anchor", "claim", "bench"])
    for row in EXPERIMENTS:
        table.add_row(*row)
    print(table.render())
    return 0


def command_library(args) -> int:
    table = Table("built-in figure programs", ["name", "inputs", "boxes"])
    for name in sorted(LIBRARY):
        flowchart = LIBRARY[name]()
        table.add_row(name, ", ".join(flowchart.input_variables),
                      len(flowchart.boxes))
    print(table.render())
    return 0


def command_dist(args) -> int:
    """``repro dist run``: a multi-node enforcement run vs its serial row."""
    from . import obs
    from .dist import run_distributed, serial_reference
    from .verify.chaos import FaultPlan

    _check_positive("--fuel", args.fuel)
    _check_positive("--value-cap", args.value_cap)
    _check_positive("--nodes", args.nodes)
    _check_positive("--timeout", args.timeout, kind="number of seconds")
    flowchart = _load_flowchart(args)
    if not flowchart.has_channels():
        print("note: program has no send/recv boxes; the run is "
              "distributed anyway (control migrates between nodes)",
              file=sys.stderr)
    policy = parse_policy(args.policy, flowchart.arity)
    inputs = tuple(int(value) for value in args.inputs)
    plan = FaultPlan.parse(args.chaos) if args.chaos else None

    sinks = []
    if args.trace:
        sinks.append(obs.JsonlSink(args.trace))
    if sinks:
        obs.enable(metrics=True, sinks=sinks, reset=True)
    try:
        reference = serial_reference(flowchart, inputs, policy.allowed,
                                     fuel=args.fuel,
                                     value_cap=args.value_cap)
        result = run_distributed(flowchart, inputs, policy.allowed,
                                 nodes=args.nodes, plan=plan,
                                 fuel=args.fuel, value_cap=args.value_cap,
                                 timeout=args.timeout)
    finally:
        if sinks:
            obs.disable()
            for sink in sinks:
                sink.close()

    row = result.row()
    print(f"program:  {flowchart.name} on {inputs}")
    print(f"nodes:    {args.nodes}  (crashes={result.crashes}, "
          f"recoveries={result.recoveries})")
    print(f"messages: {result.messages_sent} sent, "
          f"{result.messages_retried} retried")
    print(f"serial:   outcome={reference['outcome']} "
          f"steps={reference['steps']}")
    print(f"dist:     outcome={row['outcome']} steps={row['steps']} "
          f"({result.elapsed_s}s)")
    if reference == row:
        print("rows match: serial == distributed")
        return 0
    if (plan is not None and plan.msg_corrupt > 0
            and row["outcome"].startswith("Λ!msg[corrupt:")):
        # A corrupting plan is *expected* to diverge — but only into the
        # totalized notice, never into a silent wrong answer.
        print("rows differ: corruption totalized as "
              f"{row['outcome']} (expected under a corrupting plan)")
        return 0
    print("rows DIFFER: the distributed run is not the serial run",
          file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Jones & Lipton (1975) policy-enforcement toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="execute a program")
    _add_program_arguments(run_parser)
    _add_backend_argument(run_parser)
    run_parser.add_argument("--fuel", type=int, default=100_000)
    run_parser.add_argument("--value-cap", type=int, default=None,
                            help="bit-length budget per assigned value "
                                 "(default: REPRO_VALUE_CAP or uncapped)")
    run_parser.add_argument("inputs", nargs="+",
                            help="integer inputs, in order")
    run_parser.set_defaults(handler=command_run)

    analyze_parser = commands.add_parser(
        "analyze", help="soundness/acceptance of a mechanism")
    _add_program_arguments(analyze_parser)
    analyze_parser.add_argument("--policy", required=True,
                                help='e.g. "allow(2)"')
    analyze_parser.add_argument("--mechanism", choices=MECHANISMS,
                                default="surveillance")
    analyze_parser.add_argument("--low", type=int, default=0)
    analyze_parser.add_argument("--high", type=int, default=3)
    analyze_parser.add_argument("--time", action="store_true",
                                help="make running time observable")
    analyze_parser.add_argument("--verbose", action="store_true",
                                help="print per-input verdicts")
    _add_backend_argument(analyze_parser)
    analyze_parser.set_defaults(handler=command_analyze)

    sweep_parser = commands.add_parser(
        "sweep", help="soundness sweep over library programs "
                      "(optionally parallel)")
    from .verify import EXECUTORS, FACTORIES
    sweep_parser.add_argument("--programs",
                              help="comma-separated library names "
                                   "(default: all)")
    sweep_parser.add_argument("--mechanism", choices=sorted(FACTORIES),
                              default="surveillance")
    sweep_parser.add_argument("--executor", choices=EXECUTORS,
                              default="auto")
    sweep_parser.add_argument("--jobs", type=int, default=None,
                              help="worker count (default: cpu count)")
    sweep_parser.add_argument("--low", type=int, default=0)
    sweep_parser.add_argument("--high", type=int, default=2)
    sweep_parser.add_argument("--fuel", type=int, default=100_000,
                              help="step budget per mechanism run; "
                                   "exhausted runs record the "
                                   "distinguished fuel notice")
    sweep_parser.add_argument("--chunk-size", type=int, default=None,
                              help="grid points per pool task")
    sweep_parser.add_argument("--chunk-timeout", type=float, default=None,
                              help="seconds before a pooled task is "
                                   "abandoned and retried")
    sweep_parser.add_argument("--retries", type=int, default=2,
                              help="pool retries per failed task before "
                                   "inline recovery")
    sweep_parser.add_argument("--value-cap", type=int, default=None,
                              help="bit-length budget per assigned value; "
                                   "wider values record the distinguished "
                                   "cap notice (default: REPRO_VALUE_CAP "
                                   "or uncapped)")
    sweep_parser.add_argument("--checkpoint", metavar="PATH",
                              help="journal completed chunks to PATH "
                                   "(crash-safe JSONL; see --resume)")
    sweep_parser.add_argument("--resume", action="store_true",
                              help="restore completed chunks from the "
                                   "--checkpoint journal before sweeping")
    sweep_parser.add_argument("--deadline", type=float, default=None,
                              help="wall-clock budget in seconds; an "
                                   "expired sweep drains, journals, and "
                                   "exits 124")
    sweep_parser.add_argument("--chaos", metavar="SPEC",
                              help="inject deterministic faults, e.g. "
                                   '"seed=3,crash=0.2,delay=0.1,'
                                   'poison=1:2" (testing/CI)')
    sweep_parser.add_argument("--results-json", metavar="PATH",
                              help="write the sweep rows as JSON for "
                                   "machine comparison")
    sweep_parser.add_argument("--progress", action="store_true",
                              help="print per-pair progress to stderr")
    sweep_parser.add_argument("--metrics-json", metavar="PATH",
                              help="write the metrics registry snapshot "
                                   "as JSON after the sweep")
    sweep_parser.add_argument("--trace", metavar="PATH",
                              help="write the structured JSONL trace-event "
                                   "stream to PATH")
    sweep_parser.add_argument("--explain", action="store_true",
                              help="attach violation provenance "
                                   "(explanation events) to the trace; "
                                   "requires --trace")
    sweep_parser.add_argument("--audit", metavar="PATH",
                              help="append every enforcement decision to "
                                   "a hash-chained audit ledger at PATH "
                                   "(bit-identical across executors; see "
                                   "repro audit)")
    _add_backend_argument(sweep_parser)
    sweep_parser.set_defaults(handler=command_sweep)

    explain_parser = commands.add_parser(
        "explain", help="violation provenance: the input-index influence "
                        "chain behind a mechanism verdict")
    _add_program_arguments(explain_parser)
    explain_parser.add_argument("--policy", required=True,
                                help='e.g. "allow(1)"')
    explain_parser.add_argument("--timed", action="store_true",
                                help="Theorem 3' mechanism (halts before "
                                     "disallowed tests)")
    explain_parser.add_argument("--static", action="store_true",
                                help="derive the chain from the flowlint "
                                     "influence fixpoint (no point needed)")
    explain_parser.add_argument("--fuel", type=int, default=100_000)
    explain_parser.add_argument("--json", action="store_true",
                                help="machine-readable explanation")
    explain_parser.add_argument("inputs", nargs="*",
                                help="the point to replay (integer inputs)")
    explain_parser.set_defaults(handler=command_explain)

    trace_parser = commands.add_parser(
        "trace", help="offline analytics over a JSONL trace "
                      "(see sweep --trace)")
    trace_parser.add_argument("action",
                              choices=("summarize", "slow", "explain",
                                       "spans"),
                              help="summarize | slow | explain | spans")
    trace_parser.add_argument("trace", help="path to the JSONL trace file")
    trace_parser.add_argument("--top", type=int, default=10,
                              help="spans to list (slow)")
    trace_parser.add_argument("--point", metavar="I,J,...",
                              help="filter explanations to one point, "
                                   'e.g. "2,3" (explain)')
    trace_parser.add_argument("--program",
                              help="filter explanations by program name "
                                   "(explain)")
    trace_parser.add_argument("--tree", action="store_true",
                              help="print the reconstructed span tree "
                                   "(spans)")
    trace_parser.add_argument("--max-children", type=int, default=0,
                              help="truncate wide tree levels to N children "
                                   "(spans; 0 = unlimited)")
    trace_parser.add_argument("--expect-single-root", action="store_true",
                              help="exit 1 unless the spans form exactly "
                                   "one rooted tree (spans)")
    trace_parser.add_argument("--json", action="store_true",
                              help="machine-readable output")
    trace_parser.set_defaults(handler=command_trace)

    metrics_parser = commands.add_parser(
        "metrics", help="observability: registry snapshots, trace "
                        "validation, event schema")
    metrics_parser.add_argument("--schema", action="store_true",
                                help="print the trace-event schema as JSON")
    metrics_parser.add_argument("--validate", metavar="TRACE",
                                help="validate a JSONL trace file against "
                                     "the event schema (a torn last line "
                                     "is skipped and reported)")
    metrics_parser.add_argument("--from-json", metavar="PATH",
                                help="render a --metrics-json snapshot file")
    metrics_parser.add_argument("--prometheus", action="store_true",
                                help="print the snapshot in Prometheus "
                                     "text-exposition format")
    metrics_parser.set_defaults(handler=command_metrics)

    audit_parser = commands.add_parser(
        "audit", help="inspect and verify the hash-chained enforcement "
                      "audit ledger (see serve/sweep --audit)")
    audit_parser.add_argument("action",
                              choices=("tail", "query", "stats", "verify"),
                              help="tail | query | stats | verify")
    audit_parser.add_argument("ledger",
                              help="path to the audit JSONL ledger")
    audit_parser.add_argument("--count", type=int, default=10,
                              help="records to show (tail)")
    audit_parser.add_argument("--tenant",
                              help="filter by tenant name (query)")
    audit_parser.add_argument("--kind",
                              help="filter by notice kind: accept | fuel | "
                                   "cap | crash | epoch | violation (query)")
    audit_parser.add_argument("--endpoint",
                              help="filter by endpoint, e.g. /execute or "
                                   "sweep (query)")
    audit_parser.add_argument("--since", type=float, default=None,
                              help="unix-time lower bound; records without "
                                   "a timestamp are excluded (query)")
    audit_parser.add_argument("--until", type=float, default=None,
                              help="unix-time upper bound (query)")
    audit_parser.add_argument("--window", type=int, default=50,
                              help="rolling window for the spike flag "
                                   "(stats)")
    audit_parser.add_argument("--json", action="store_true",
                              help="machine-readable output")
    audit_parser.set_defaults(handler=command_audit)

    certify_parser = commands.add_parser(
        "certify", help="static certification (structured source only)")
    certify_parser.add_argument("--library",
                                help="a built-in figure program "
                                     "(CFG-level certifier)")
    certify_parser.add_argument("--source")
    certify_parser.add_argument("--file")
    certify_parser.add_argument("--policy", required=True)
    certify_parser.set_defaults(handler=command_certify)

    lint_parser = commands.add_parser(
        "lint", help="flowlint: static analysis passes over a program "
                     "or the whole library")
    _add_program_arguments(lint_parser)
    lint_parser.add_argument("--all", action="store_true",
                             help="lint every built-in library program")
    lint_parser.add_argument("--policy",
                             help="allow policy for the influence verdict, "
                                  'e.g. "allow(2)" (optional)')
    lint_parser.add_argument("--json", action="store_true",
                             help="machine-readable report on stdout")
    lint_parser.add_argument("--precision", action="store_true",
                             help="append the static-vs-dynamic precision "
                                  "harness (all allow policies x grid)")
    lint_parser.add_argument("--low", type=int, default=0,
                             help="precision grid lower bound")
    lint_parser.add_argument("--high", type=int, default=2,
                             help="precision grid upper bound")
    lint_parser.set_defaults(handler=command_lint)

    library_parser = commands.add_parser(
        "library", help="list built-in figure programs")
    library_parser.set_defaults(handler=command_library)

    transform_parser = commands.add_parser(
        "transform", help="apply a Section 4/5 transform")
    _add_program_arguments(transform_parser)
    transform_parser.add_argument("--transform", required=True,
                                  choices=("ite", "while", "duplicate"))
    transform_parser.add_argument("--smart", action="store_true",
                                  help="detect identical arms (ite only)")
    transform_parser.add_argument("--check", action="store_true",
                                  help="verify functional equivalence")
    transform_parser.add_argument("--low", type=int, default=0)
    transform_parser.add_argument("--high", type=int, default=3)
    transform_parser.set_defaults(handler=command_transform)

    dot_parser = commands.add_parser(
        "dot", help="render a flowchart as Graphviz DOT")
    _add_program_arguments(dot_parser)
    dot_parser.add_argument("--instrument", metavar="POLICY",
                            help="render the surveillance instrumentation "
                                 'for a policy, e.g. "allow(2)"')
    dot_parser.set_defaults(handler=command_dot)

    experiments_parser = commands.add_parser(
        "experiments", help="list the experiment index E01-E27")
    experiments_parser.set_defaults(handler=command_experiments)

    dist_parser = commands.add_parser(
        "dist", help="distributed enforcement across node processes")
    dist_commands = dist_parser.add_subparsers(dest="dist_command",
                                               required=True)
    dist_run = dist_commands.add_parser(
        "run", help="run a program across N nodes and compare with the "
                    "serial row")
    _add_program_arguments(dist_run)
    dist_run.add_argument("--policy", required=True,
                          help='the allow policy, e.g. "allow(1, 2)"')
    dist_run.add_argument("--nodes", type=int, default=2,
                          help="node process count (default 2)")
    dist_run.add_argument("--chaos", metavar="SPEC", default=None,
                          help="seeded fault plan, e.g. "
                               '"seed=7,drop=0.2,dup=0.1,kill=0.05" '
                               "(see repro.verify.chaos.FaultPlan.parse)")
    dist_run.add_argument("--fuel", type=int, default=100_000)
    dist_run.add_argument("--value-cap", type=int, default=None,
                          help="bit-length budget per assigned value")
    dist_run.add_argument("--timeout", type=float, default=60.0,
                          help="supervision deadline in seconds")
    dist_run.add_argument("--trace", metavar="PATH", default=None,
                          help="write a JSONL trace (cross-node span "
                               "tree; inspect with repro trace spans)")
    dist_run.add_argument("inputs", nargs="+",
                          help="integer inputs, in order")
    dist_run.set_defaults(handler=command_dist)

    serve_parser = commands.add_parser(
        "serve", help="run the multi-tenant enforcement service "
                      "(HTTP/JSON; see docs/SERVING.md)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8080,
                              help="listen port (0 = ephemeral; the bound "
                                   "port is printed at startup)")
    serve_parser.add_argument("--tenants", metavar="PATH",
                              help="JSON tenant-budget config; omitting it "
                                   "admits everyone under the defaults")
    serve_parser.add_argument("--fuel", type=int, default=100_000,
                              help="server default fuel ceiling")
    serve_parser.add_argument("--value-cap", type=int, default=None,
                              help="server default value cap (default: "
                                   "REPRO_VALUE_CAP, read once at startup)")
    _add_backend_argument(serve_parser)
    serve_parser.add_argument("--executor", choices=("auto", "serial",
                                                     "thread", "process"),
                              default="thread",
                              help="sweep executor (default: thread — "
                                   "pools degrade process→thread→serial "
                                   "on failure)")
    serve_parser.add_argument("--jobs", type=int, default=None,
                              help="sweep worker count")
    serve_parser.add_argument("--workers", type=int, default=8,
                              help="request worker threads")
    serve_parser.add_argument("--batch-window-ms", type=float, default=2.0,
                              help="upper bound on how long an /execute "
                                   "request waits to share a batch; it "
                                   "waits only while a batch for its key "
                                   "executes (default: 2)")
    serve_parser.add_argument("--cache-size", type=int, default=4096,
                              help="shared response-cache entries")
    serve_parser.add_argument("--trace", metavar="PATH",
                              help="write the structured JSONL trace-event "
                                   "stream to PATH")
    serve_parser.add_argument("--audit", metavar="PATH",
                              help="append every enforcement decision to a "
                                   "hash-chained audit ledger at PATH "
                                   "(per-tenant opt-out/sampling via the "
                                   "tenants config; see repro audit)")
    serve_parser.add_argument("--audit-sample", type=float, default=1.0,
                              help="server-wide ledger sampling rate in "
                                   "[0, 1] (default 1.0; tenants may thin "
                                   "further, never widen)")
    serve_parser.add_argument("--audit-max-bytes", type=int, default=None,
                              help="rotate the ledger when it would exceed "
                                   "this size (generations keep their own "
                                   "chains and head seals)")
    serve_parser.set_defaults(handler=command_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage message (unknown subcommand,
        # bad --backend choice, --help, ...).  Surface its status as a
        # return code so programmatic callers get an int, not an
        # exception unwinding as a traceback.
        if exc.code is None:
            return 0
        if isinstance(exc.code, int):
            return exc.code
        print(exc.code, file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-table; not an error.
        # Detach stdout so interpreter shutdown does not re-raise on flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
