"""Command-line interface of the tool chain.

``python -m repro`` exposes the paper's workflow on textual AADL files::

    python -m repro analyse  model.aadl --root MySystem.impl          # full tool chain
    python -m repro schedule model.aadl --root MySystem.impl --policy EDF
    python -m repro translate model.aadl --root MySystem.impl -o out/ # SIGNAL sources
    python -m repro simulate model.aadl --root MySystem.impl --hyperperiods 4 --vcd trace.vcd
    python -m repro casestudy --list                                  # bundled case studies
    python -m repro serve --port 8000                                 # HTTP simulation service

When ``--root`` is omitted the tool picks the first system implementation of
the first package, which is the common single-system case.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, NoReturn, Optional, Tuple

from .aadl.errors import AadlError
from .aadl.model import AadlModel, default_root
from .aadl.parser import parse_file
from .casestudies import CATALOG, catalog_names, load_case_study
from .core import ToolchainOptions, TranslationConfig, run_toolchain
from .scheduling import SchedulingError, SchedulingPolicy, export_affine_clocks
from .sig.engine import (
    DEFAULT_BACKEND,
    backend_names,
    create_backend,
    default_scenario,
    simulate_batch,
)
from .sig.printer import to_signal_source
from .sig.sinks import SinkSelection, TraceSink, WindowSink
from .sig.values import ABSENT
from .sig.vcd import StreamingVcdSink


def _checked(convert, accept, expected: str):
    """An argparse type: *convert* the text, then require *accept* of it."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


#: Counts where 0 means "off" or "default" (``--window``, ``--workers``).
_non_negative_int = _checked(int, lambda value: value >= 0, "a non-negative integer")
#: Sizes and horizons that must be at least 1.
_positive_int = _checked(int, lambda value: value >= 1, "a positive integer")
#: Timeouts.
_positive_seconds = _checked(
    float,
    lambda value: math.isfinite(value) and value > 0,
    "a positive, finite number of seconds",
)


def _print_plan_stats(model, backend_name) -> None:
    """Print the execution-plan partition breakdown for ``--plan-stats``.

    Shows the compiled plan shape for every backend and the stratum partition
    (pre-sweep / recurrence / residual / post-sweep) for the
    vectorized backend — the residue composition, without digging through
    benchmark extras.
    """
    runner = create_backend(model, backend=backend_name, strict=False)
    plan = getattr(runner, "plan", None)
    if plan is None:  # reference backend: compile the plan just for the report
        from .sig.engine import compile_plan

        plan = compile_plan(model)
    print(f"plan statistics [{backend_name} backend]")
    print(f"  {plan.statistics().summary()}")
    vector = getattr(runner, "vector_plan", None)
    if vector is not None:
        print(f"  {vector.statistics().summary()}")


def _sink_selection(args: argparse.Namespace) -> SinkSelection:
    """The result sinks ``simulate --stats/--deltas`` asks for."""
    return SinkSelection(
        stats=args.stats,
        deltas=bool(args.deltas),
        deltas_watch=_watched(args.deltas) if args.deltas else None,
    )


def _watched(text: str) -> Optional[Tuple[str, ...]]:
    """The signals of a ``--deltas SIGNALS|all`` flag (``None`` = all)."""
    if text.strip().lower() == "all":
        return None
    return tuple(name.strip() for name in text.split(",") if name.strip())


class _AlarmSink(TraceSink):
    """Track the instants at which ``*_Alarm`` signals fire during streaming.

    With ``--no-trace`` there is no materialised trace to scan, but the
    deadline-alarm report (and the command's non-zero exit code on fired
    alarms) must survive: this O(alarm signals) sink watches just the alarm
    columns of each instant.
    """

    def __init__(self) -> None:
        self.fired = {}
        self._watch = []

    def on_header(self, header) -> None:
        super().on_header(header)
        self._watch = [
            (index, name)
            for index, name in enumerate(header.signals)
            if name.endswith("_Alarm")
        ]

    def on_instant(self, instant, values) -> None:
        for index, name in self._watch:
            if values[index] is not ABSENT:
                self.fired.setdefault(name, []).append(instant)

    def result(self):
        """Mapping of fired alarm signal -> instants of activation."""
        return self.fired


def _usage_error(message: str) -> NoReturn:
    """A user error: one ``error:`` line on stderr, exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_model(path: str) -> Tuple[AadlModel, Optional[str], Optional[str]]:
    """``(model, catalog root, catalog package)`` of a model argument.

    A bundled case-study name (``repro casestudy --list``) loads that
    catalog entry, whose root implementation and package become the
    defaults; anything else is an ``.aadl`` path.  A path that cannot be
    read or parsed is a user error: one ``error:`` line on stderr, exit
    code 2.
    """
    if path in catalog_names():
        entry = load_case_study(path)
        return entry.load_model(), entry.root_implementation, entry.default_package
    try:
        return parse_file(path), None, None
    except OSError as exc:
        _usage_error(f"cannot read model {path!r}: {exc.strerror or exc}")
    except AadlError as exc:
        _usage_error(str(exc))


def _toolchain(
    args: argparse.Namespace,
    simulate: bool = True,
    sinks=None,
    materialize_trace: bool = True,
) -> "ToolchainResult":
    model, catalog_root, catalog_package = _load_model(args.model)
    root = args.root or catalog_root or default_root(model)
    if root is None:
        _usage_error("no system implementation found; pass --root explicitly")
    try:
        policy = SchedulingPolicy.from_name(getattr(args, "policy", "RM"))
    except ValueError as exc:
        _usage_error(str(exc))
    options = ToolchainOptions(
        root_implementation=root,
        default_package=catalog_package or next(iter(model.packages), None),
        translation=TranslationConfig(
            include_scheduler=not getattr(args, "no_scheduler", False),
            scheduling_policy=policy,
        ),
        simulate_hyperperiods=getattr(args, "hyperperiods", 2) if simulate else 0,
        strict_validation=not getattr(args, "lenient", False),
        backend=getattr(args, "backend", DEFAULT_BACKEND),
        sinks=sinks,
        materialize_trace=materialize_trace,
        # The CLI warm-starts across invocations by default (persistent
        # artifact store under REPRO_CACHE_DIR / ~/.cache/repro);
        # --no-cache keeps a single run self-contained.
        store=not getattr(args, "no_cache", False),
    )
    try:
        return run_toolchain(model, options)
    except SchedulingError as exc:
        _usage_error(f"no static schedule: {exc} (try another --policy, or --no-scheduler)")
    except AadlError as exc:
        _usage_error(str(exc))


# ----------------------------------------------------------------------
# sub-commands
# ----------------------------------------------------------------------
def _print_warm_start(result) -> None:
    """One line acknowledging a persistent-cache restore (CI greps for it)."""
    if result.store_hit:
        print(
            "warm start: analyses restored from the persistent cache "
            f"(fingerprint {result.store_fingerprint[:12]})"
        )


def cmd_analyse(args: argparse.Namespace) -> int:
    result = _toolchain(args)
    _print_warm_start(result)
    print(result.summary())
    print()
    print(result.clock_report.summary())
    print()
    print(result.determinism.summary())
    print(result.deadlocks.summary())
    for processor, report in result.schedulability.items():
        print()
        print(f"[{processor}]")
        print(report.summary())
    if result.diagnostics.diagnostics:
        print()
        print("Validation findings:")
        print(result.diagnostics.summary())
    return 0 if (result.determinism.deterministic and result.deadlocks.deadlock_free) else 1


def cmd_schedule(args: argparse.Namespace) -> int:
    result = _toolchain(args, simulate=False)
    if not result.schedules:
        print("no schedulable threads found (is the process bound to a processor?)")
        return 1
    for processor, schedule in result.schedules.items():
        print(f"Schedule for {processor} ({schedule.policy.value}), "
              f"hyper-period {schedule.hyperperiod_ms} ms, utilisation {schedule.processor_utilisation():.2f}")
        for row in schedule.table():
            print(
                f"  {row['task']:<16s} job {row['job']:<2d} dispatch {row['dispatch_ms']:>7.2f}  "
                f"start {row['start_ms']:>7.2f}  complete {row['complete_ms']:>7.2f}  "
                f"deadline {row['deadline_ms']:>7.2f}"
            )
        if args.affine:
            print()
            print(export_affine_clocks(schedule).summary())
    return 0


def cmd_translate(args: argparse.Namespace) -> int:
    result = _toolchain(args, simulate=False)
    os.makedirs(args.output, exist_ok=True)
    system_path = os.path.join(args.output, f"{result.translation.system_model.name}.sig")
    with open(system_path, "w", encoding="utf-8") as handle:
        handle.write(to_signal_source(result.translation.system_model))
    written = [system_path]
    for process in result.translation.processes.values():
        path = os.path.join(args.output, f"{process.name}.sig")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(to_signal_source(process.model))
        written.append(path)
    print(f"wrote {len(written)} SIGNAL source file(s) to {args.output}")
    for path in written:
        print(f"  {path}")
    stats = result.translation.statistics()
    print(f"generated {stats['models']} process models, {stats['signals']} signals, "
          f"{stats['equations']} equations, {stats['trace_links']} traceability links")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.no_trace and args.vcd:
        _usage_error(
            "--vcd renders the materialised trace, which --no-trace disables; "
            "use --stream-vcd to write the waveform while simulating"
        )
    # Streaming sinks observe the simulation instant by instant; with
    # --no-trace nothing else is retained, so memory stays O(signals)
    # however many hyper-periods are simulated.
    selection = _sink_selection(args)
    sinks = selection(0)
    selected = list(sinks)
    alarm_sink = None
    window_sink = None
    if args.stream_vcd:
        sinks.append(StreamingVcdSink(args.stream_vcd, timescale="1 ms"))
    if args.window > 0:
        window_sink = WindowSink(args.window)
        sinks.append(window_sink)
    if args.no_trace:
        # The deadline-alarm report (and exit code) must survive --no-trace.
        alarm_sink = _AlarmSink()
        sinks.append(alarm_sink)

    result = _toolchain(args, sinks=sinks or None, materialize_trace=not args.no_trace)
    _print_warm_start(result)
    if result.trace is None and not result.scenario_length:
        print("nothing was simulated (no schedule could be synthesised)")
        return 1
    if args.plan_stats:
        _print_plan_stats(result.translation.system_model, args.backend)
        if result.calculus_stats is not None:
            print(f"  {result.calculus_stats.summary()}")
        elif result.store_hit:
            print("  clock calculus skipped: analyses restored from the persistent cache")
    if result.trace is not None:
        print(f"simulated {result.trace.length} instants "
              f"({args.hyperperiods} hyper-period(s)), {len(result.trace.flows)} signals recorded "
              f"[{result.backend_name} backend]")
    else:
        print(f"simulated {result.scenario_length} instants "
              f"({args.hyperperiods} hyper-period(s)), streamed to {len(sinks)} sink(s), "
              f"no trace materialised [{result.backend_name} backend]")
    if args.stream_vcd:
        print(f"streaming VCD trace written to {args.stream_vcd}")
    results = selection.named([sink.result() for sink in selected])
    if results.get("stats") is not None:
        print(results["stats"].summary(limit=20))
    if window_sink is not None and window_sink.result() is not None:
        window = window_sink.result()
        present = sum(
            1 for name in window.flows if window.count_present(name)
        )
        print(
            f"window: last {window.length} instant(s) retained "
            f"(from instant {window_sink.start_instant}), "
            f"{present}/{len(window.flows)} signals active in the window"
        )
    if results.get("deltas") is not None:
        print(results["deltas"].summary(limit=20))
    if args.scenario_length:
        # Horizon sweep: ONE unbounded symbolic scenario (O(inputs) memory
        # however long the horizons are), reused at every requested length
        # by passing length= at simulate time.
        stimuli = result.options.stimuli_periods if result.options else None
        scenario = default_scenario(result.translation.system_model, None, stimuli)
        runner = create_backend(
            result.translation.system_model, backend=args.backend, strict=False
        )
        print(f"scenario-length sweep over {len(args.scenario_length)} horizon(s) "
              f"[one symbolic scenario, {len(scenario.inputs)} driven signal(s)]")
        for horizon in args.scenario_length:
            (stats,) = SinkSelection(stats=True)(0)
            runner.run(scenario, sinks=[stats], length=horizon)
            streamed = stats.result()
            busiest = max(
                streamed.per_signal.values(), key=lambda entry: entry.present, default=None
            )
            top = (
                f", busiest {busiest.name} present {busiest.present}"
                if busiest is not None
                else ""
            )
            print(f"  length {horizon:>10d}: {streamed.length} instants streamed, "
                  f"{len(streamed.per_signal)} signals{top}")
    if args.batch > 0:
        from .casestudies.generator import scenario_sweep

        scenarios = scenario_sweep(
            result.translation.system_model,
            length=result.scenario_length,
            variants=args.batch,
            base_stimuli=None,
        )
        batch = simulate_batch(
            result.translation.system_model,
            scenarios,
            strict=False,
            backend=args.backend,
            collect_errors=True,
            workers=args.workers,
            # With --no-trace the sweep streams too: each scenario aggregates
            # into a per-worker statistics sink instead of materialising.
            sink_factory=SinkSelection(stats=True) if args.no_trace else None,
            # Supervision knobs; faulted scenarios are reported, not fatal.
            timeout=args.timeout,
            retries=args.retries,
            max_failures=args.max_failures,
        )
        print(batch.summary())
    fired = {}
    if result.trace is not None:
        alarms = {n: result.trace.clock_of(n) for n in result.trace.signals() if n.endswith("_Alarm")}
        fired = {n: ticks for n, ticks in alarms.items() if ticks}
        print(f"deadline alarms: {fired if fired else 'none'}")
    elif alarm_sink is not None:
        fired = alarm_sink.fired
        print(f"deadline alarms: {fired if fired else 'none'}")
    if result.profile is not None:
        print(result.profile.summary())
    if args.vcd:
        signals = None
        if not args.all_signals:
            signals = sorted(
                n for n in result.trace.signals()
                if n.endswith(("_dispatch", "_start", "_complete", "_Alarm"))
            )
        result.write_vcd(args.vcd, signals=signals)
        print(f"VCD trace written to {args.vcd}")
    return 0 if not fired else 1


def cmd_casestudy(args: argparse.Namespace) -> int:
    if args.list or not args.name:
        print("bundled case studies:")
        for entry in CATALOG:
            print(f"  {entry.name:<20s} {entry.description}")
        return 0
    entry = load_case_study(args.name)
    root = entry.instantiate()
    from .aadl.instance import instance_report

    report = instance_report(root)
    print(f"{entry.name}: {entry.description}")
    for key, value in report.as_dict().items():
        print(f"  {key:<12s}: {value}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    # Lazy import: the store package is only needed by cache users.
    from .store import ArtifactStore, default_cache_dir

    root = args.dir or default_cache_dir()
    if os.path.exists(root) and not os.path.isdir(root):
        _usage_error(f"cache directory {root!r} is not a directory")
    if args.cache_command == "prune" and not args.max_size_mb >= 0:
        _usage_error(f"--max-size-mb must be non-negative, got {args.max_size_mb:g}")
    store = ArtifactStore(root)
    if args.cache_command == "stats":
        stats = store.stats()
        print(f"persistent cache at {stats['root']}")
        print(f"  entries : {stats['entries']} ({stats['bytes'] / 1024.0:.1f} KiB)")
        for kind in sorted(stats["kinds"]):
            bucket = stats["kinds"][kind]
            print(
                f"  {kind:<10s}: {bucket['entries']} artifact(s), "
                f"{bucket['bytes'] / 1024.0:.1f} KiB"
            )
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"removed {removed} artifact(s) from {store.root}")
        return 0
    if args.cache_command == "prune":
        removed = store.prune(args.max_size_mb)
        stats = store.stats()
        print(
            f"pruned {removed} least-recently-used artifact(s); "
            f"{stats['entries']} remain ({stats['bytes'] / 1024.0:.1f} KiB, "
            f"budget {args.max_size_mb:g} MiB)"
        )
        return 0
    raise SystemExit(f"error: unknown cache command {args.cache_command!r}")


def _parse_predicate(text: str):
    """Parse one ``--where`` clause: ``column<op>value`` with ``<op>`` one of
    ``== != <= >= < =`` (``=`` is equality shorthand); the value side is
    JSON where it parses, a bare string otherwise."""
    import json as _json

    for op, canonical in (
        ("==", "=="), ("!=", "!="), ("<=", "<="), (">=", ">="),
        ("<", "<"), (">", ">"), ("=", "=="),
    ):
        if op in text:
            column, _, raw = text.partition(op)
            raw = raw.strip()
            try:
                value = _json.loads(raw)
            except ValueError:
                value = raw
            return (column.strip(), canonical, value)
    _usage_error(f"cannot parse --where clause {text!r} (use column=value)")


def cmd_sweep(args: argparse.Namespace) -> int:
    # Lazy import in the house style.
    from .sweep import SweepResultStore, run_sweep, stimulus_space
    from .sweep.shards import dumps_json

    if args.sweep_command == "run":
        if args.min_period > args.max_period:
            _usage_error(
                f"--min-period {args.min_period} exceeds --max-period {args.max_period}"
            )
        result = _toolchain(args, simulate=False)
        model = result.translation.system_model
        space = stimulus_space(
            model, args.scenarios, seed=args.seed,
            period_range=(args.min_period, args.max_period),
        )
        deltas = None
        if args.deltas:
            # 'all' watches every recorded signal, as on 'simulate'; the
            # manifest keeps the explicit list its resume check compares.
            deltas = _watched(args.deltas)
            if deltas is None:
                deltas = tuple(result.flat_model.signals)
        try:
            sweep_result = run_sweep(
                model,
                space,
                args.out,
                partition_size=args.partition_size,
                strict=False,
                backend=args.backend,
                workers=args.workers,
                length=args.length,
                deltas=deltas,
                timeout=args.timeout,
                retries=args.retries,
                max_failures=args.max_failures,
                resume=args.resume,
            )
        except RuntimeError as exc:
            # An existing manifest without --resume, or one that does not
            # match this run: the user picked the wrong directory or flags.
            _usage_error(str(exc))
        print(sweep_result.summary())
        if sweep_result.aggregate is not None:
            print(sweep_result.aggregate.summary(limit=10))
        print(f"shard store written to {args.out}")
        return 0 if sweep_result.ok else 1

    where = [_parse_predicate(clause) for clause in (getattr(args, "where", None) or [])]
    try:
        store = SweepResultStore(args.dir)
    except (OSError, ValueError, RuntimeError) as exc:
        _usage_error(f"cannot open sweep store: {exc}")
    if args.sweep_command == "info":
        manifest = store.manifest
        state = "complete" if store.complete else "incomplete"
        print(
            f"sweep store at {args.dir}: {store.count} scenario(s), "
            f"{len(store.partitions())}/{-(-store.count // manifest['partition_size']) if store.count else 0} "
            f"partition(s) ({state}), {manifest['shard_format']} shards"
        )
        print(
            f"  process {manifest['process']!r}, backend {manifest['backend']!r}, "
            f"space {manifest['space'].get('kind', '?')} "
            f"(fingerprint {manifest['space_fingerprint'][:12]})"
        )
        for table in ("scenarios", "statistics", "deltas"):
            print(f"  {table:<10s}: {store.rows(table)} row(s)")
        print(
            f"  {manifest['error_count']} error(s), {manifest['fault_count']} "
            f"fault(s), {manifest['warning_count']} warning(s)"
        )
        aggregate = store.aggregate()
        if aggregate is not None:
            print(aggregate.summary(limit=10))
        return 0
    if args.sweep_command == "query":
        columns = None
        if args.columns:
            columns = [name.strip() for name in args.columns.split(",") if name.strip()]
        count = 0
        for row in store.query(args.table, columns=columns, where=where, limit=args.limit):
            print(dumps_json(row))
            count += 1
        print(f"-- {count} row(s)", file=sys.stderr)
        return 0
    raise SystemExit(f"error: unknown sweep command {args.sweep_command!r}")


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve.server import ServiceServer
    from .serve.service import ServiceConfig, SimulationService

    for flag, value in (
        ("--cache-capacity", args.cache_capacity),
        ("--max-concurrent", args.max_concurrent),
    ):
        if value < 1:
            _usage_error(f"{flag} must be at least 1, got {value}")
    if not 0 <= args.port <= 65535:
        _usage_error(f"--port must be in 0..65535, got {args.port}")
    service = SimulationService(
        ServiceConfig(
            cache_capacity=args.cache_capacity,
            max_concurrent=args.max_concurrent,
            default_backend=args.backend,
            # A served process warm-starts from (and publishes to) the
            # persistent store by default; --no-cache isolates it.
            store=not args.no_cache,
        )
    )
    try:
        server = ServiceServer((args.host, args.port), service)
    except OSError as exc:
        _usage_error(f"cannot listen on {args.host}:{args.port}: {exc.strerror or exc}")
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


# ----------------------------------------------------------------------
class _Parser(argparse.ArgumentParser):
    """An argument error (a bad number, a missing flag) is a usage error
    like any other: one ``error:`` line naming the subcommand, exit 2."""

    def error(self, message: str) -> NoReturn:
        _usage_error(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Polychronous analysis and validation for timed software architectures in AADL",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "model",
            help="path to an .aadl file, or the name of a bundled case study "
            "(see 'repro casestudy --list')",
        )
        p.add_argument("--root", help="root system implementation (default: first system implementation found)")
        p.add_argument("--policy", default="RM", help="scheduling policy: RM, DM, EDF or Priority (default RM)")
        p.add_argument("--no-scheduler", action="store_true", help="translate without scheduler synthesis")
        p.add_argument("--lenient", action="store_true", help="continue on validation errors")
        p.add_argument(
            "--backend",
            default=DEFAULT_BACKEND,
            choices=backend_names(),
            help=f"simulation backend (default {DEFAULT_BACKEND})",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="bypass the persistent artifact cache for this run: neither "
            "restore analyses from nor publish them to REPRO_CACHE_DIR / "
            "~/.cache/repro (see 'repro cache' for maintenance)",
        )

    def add_run_flags(p: argparse.ArgumentParser, scope: str) -> None:
        """The supervision and change-log flags of ``simulate`` and ``sweep run``."""
        p.add_argument(
            "--workers", type=_non_negative_int, default=1, metavar="W",
            help=f"shard {scope} over W worker processes "
            "(0 = one per core; results are identical to --workers 1)",
        )
        p.add_argument(
            "--timeout", type=_positive_seconds, default=None, metavar="SECONDS",
            help=f"a wall-clock timeout per scenario attempt of {scope}: hung "
            "workers are replaced, failed attempts retried, and unrecoverable "
            "scenarios reported as faults",
        )
        p.add_argument(
            "--retries", type=_non_negative_int, default=None, metavar="N",
            help=f"retry each failed scenario of {scope} up to N times with "
            "exponential backoff (default 2)",
        )
        p.add_argument(
            "--max-failures", type=_non_negative_int, default=None, metavar="N",
            help="circuit breaker: after more than N failed attempts, stop "
            "retrying and fault the remaining scenarios fast",
        )
        p.add_argument(
            "--deltas", metavar="SIGNALS",
            help="record a change log watching the comma-separated SIGNALS "
            "('all' watches every recorded signal): only instants where a "
            "watched signal changed presence or value are kept — O(changes) "
            "memory for sparse long-horizon monitoring",
        )

    analyse = sub.add_parser("analyse", help="run the complete tool chain and print every report")
    add_common(analyse)
    analyse.add_argument(
        "--hyperperiods", type=_non_negative_int, default=2,
        help="hyper-periods to simulate (default 2; 0 skips the simulation)",
    )
    analyse.set_defaults(func=cmd_analyse)

    schedule = sub.add_parser("schedule", help="synthesise and print the static schedule")
    add_common(schedule)
    schedule.add_argument("--affine", action="store_true", help="also print the affine clock export")
    schedule.set_defaults(func=cmd_schedule)

    translate = sub.add_parser("translate", help="generate the SIGNAL sources")
    add_common(translate)
    translate.add_argument("-o", "--output", default="signal_out", help="output directory (default signal_out/)")
    translate.set_defaults(func=cmd_translate)

    simulate = sub.add_parser("simulate", help="simulate the scheduled model and optionally dump a VCD trace")
    add_common(simulate)
    simulate.add_argument(
        "--hyperperiods", type=_positive_int, default=2,
        help="hyper-periods to simulate (default 2)",
    )
    simulate.add_argument("--vcd", help="path of the VCD trace to write")
    simulate.add_argument("--all-signals", action="store_true", help="record every signal in the VCD trace")
    simulate.add_argument(
        "--batch",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="additionally run N randomised stimulus scenarios through one prepared backend",
    )
    add_run_flags(simulate, "the --batch sweep")
    simulate.add_argument(
        "--stream-vcd",
        metavar="PATH",
        help="write the VCD trace incrementally while simulating "
        "(O(signals) memory; combine with --no-trace for very long runs). "
        "Variable widths come from the declared signal types — unlike --vcd, "
        "which scans the finished trace — so undeclared or unusually-typed "
        "signals may render with generic register widths",
    )
    simulate.add_argument(
        "--stats",
        action="store_true",
        help="aggregate per-signal statistics while simulating and print them",
    )
    simulate.add_argument(
        "--plan-stats",
        action="store_true",
        help="print the execution-plan partition breakdown for the chosen "
        "backend (vectorized strata incl. recurrence scans and the "
        "residual sweep)",
    )
    simulate.add_argument(
        "--window",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="retain only the last N instants in a ring-buffer window sink "
        "(combine with --no-trace to debug the end of a long run in "
        "O(signals x N) memory)",
    )
    simulate.add_argument(
        "--scenario-length",
        type=_non_negative_int,
        nargs="+",
        default=None,
        metavar="N",
        help="additionally sweep the scheduled model over these horizons, "
        "reusing ONE unbounded symbolic scenario with the length supplied "
        "at simulate time (constant scenario memory however long N is)",
    )
    simulate.add_argument(
        "--no-trace",
        action="store_true",
        help="do not materialise the simulation trace (streaming sinks only; "
        "disables the post-hoc --vcd export and profiling — the deadline-alarm "
        "report and exit code are preserved through a streaming alarm sink)",
    )
    simulate.set_defaults(func=cmd_simulate)

    casestudy = sub.add_parser("casestudy", help="inspect the bundled case studies")
    casestudy.add_argument("name", nargs="?", help="case study name")
    casestudy.add_argument("--list", action="store_true", help="list the available case studies")
    casestudy.set_defaults(func=cmd_casestudy)

    cache = sub.add_parser(
        "cache",
        help="inspect and maintain the persistent artifact cache",
    )
    cache.add_argument(
        "--dir",
        metavar="PATH",
        help="cache directory to operate on (default: REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("stats", help="print entry counts and sizes per artifact kind")
    cache_sub.add_parser("clear", help="remove every cached artifact")
    prune = cache_sub.add_parser(
        "prune", help="evict least-recently-used artifacts down to a size budget"
    )
    prune.add_argument(
        "--max-size-mb",
        type=float,
        required=True,
        metavar="N",
        help="target size of the cache after pruning, in MiB",
    )
    cache.set_defaults(func=cmd_cache)

    sweep = sub.add_parser(
        "sweep",
        help="fleet-scale scenario sweeps over a shard store (run / query / info)",
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    sweep_run = sweep_sub.add_parser(
        "run",
        help="execute a randomised stimulus sweep into a columnar shard store",
    )
    add_common(sweep_run)
    sweep_run.add_argument(
        "--out", required=True, metavar="DIR",
        help="sweep directory for the shards and the manifest",
    )
    sweep_run.add_argument(
        "--scenarios", type=_non_negative_int, default=1000, metavar="N",
        help="scenarios to enumerate from the seeded random space (default 1000)",
    )
    sweep_run.add_argument(
        "--seed", type=int, default=0, help="seed of the scenario space (default 0)"
    )
    sweep_run.add_argument(
        "--length", type=_non_negative_int, default=100, metavar="N",
        help="horizon of every scenario, in instants (default 100)",
    )
    sweep_run.add_argument(
        "--partition-size", type=_positive_int, default=1024, metavar="P",
        help="scenarios per partition/shard — bounds peak memory (default 1024)",
    )
    sweep_run.add_argument(
        "--min-period", type=_positive_int, default=2, metavar="N",
        help="smallest random stimulus period (default 2)",
    )
    sweep_run.add_argument(
        "--max-period", type=_positive_int, default=12, metavar="N",
        help="largest random stimulus period (default 12)",
    )
    add_run_flags(sweep_run, "each partition")
    sweep_run.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted sweep from its manifest: completed "
        "partitions are skipped, crash-torn shards quarantined",
    )
    sweep_run.set_defaults(func=cmd_sweep)

    sweep_query = sweep_sub.add_parser(
        "query",
        help="stream matching rows of a sweep store as JSON lines",
    )
    sweep_query.add_argument("dir", help="sweep directory (shards + manifest)")
    sweep_query.add_argument(
        "--table", default="scenarios", choices=["scenarios", "statistics", "deltas"],
        help="table to scan (default scenarios)",
    )
    sweep_query.add_argument(
        "--columns", metavar="A,B,...",
        help="project the yielded rows onto these comma-separated columns",
    )
    sweep_query.add_argument(
        "--where", action="append", metavar="COL=VALUE",
        help="filter clause (repeatable): column=value, column!=value, "
        "column<=value...",
    )
    sweep_query.add_argument(
        "--limit", type=_non_negative_int, default=None, metavar="N",
        help="stop after N rows",
    )
    sweep_query.set_defaults(func=cmd_sweep)

    sweep_info = sweep_sub.add_parser(
        "info",
        help="print a sweep store's manifest summary and sweep-level statistics",
    )
    sweep_info.add_argument("dir", help="sweep directory (shards + manifest)")
    sweep_info.set_defaults(func=cmd_sweep)

    serve = sub.add_parser(
        "serve",
        help="start the HTTP simulation service",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8000, help="bind port, 0 for any free one (default 8000)")
    serve.add_argument(
        "--cache-capacity",
        type=int,
        default=32,
        metavar="N",
        help="compiled models kept resident in the LRU plan cache (default 32)",
    )
    serve.add_argument(
        "--max-concurrent",
        type=int,
        default=4,
        metavar="N",
        help="simulations executing at once before requests get 503 busy (default 4)",
    )
    serve.add_argument(
        "--backend",
        default=DEFAULT_BACKEND,
        choices=backend_names(),
        help=f"default simulation backend of requests naming none (default {DEFAULT_BACKEND})",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="do not back the plan cache with the persistent artifact store "
        "(cold starts then always pay the full toolchain)",
    )
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
