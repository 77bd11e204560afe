"""Trace sinks: observe a simulation instant by instant.

Every engine delivers its trace through sinks.  A :class:`TraceSink`
receives each resolved instant as the engine *pushes* it, so a run that
only aggregates keeps O(signals) memory however long the scenario is.  A
run without ``sinks=`` is a run into one :class:`MaterializeSink`, which
keeps the whole :class:`~repro.sig.simulator.SimulationTrace`.

The protocol is four calls, driven by every backend
(:class:`~repro.sig.simulator.Simulator`,
:class:`~repro.sig.engine.plan.ExecutionPlan` and the vectorized
:class:`~repro.sig.engine.vectorized.VectorExecutionPlan`):

1. :meth:`TraceSink.on_header` — once per run, before the first instant,
   with a :class:`TraceHeader` describing the run (process name, scenario
   length, recorded signal names in record order, declared signal types);
2. :meth:`TraceSink.on_instant` — once per instant, with the instant index
   and a tuple of values (one entry per recorded name, ``ABSENT`` where the
   signal does not occur);
3. :meth:`TraceSink.on_block` — instead of ``on_instant``, once per block
   of consecutive instants the vectorized executor resolved at once, with
   one column of values per recorded name, when the sink is the run's only
   sink and overrides this method; the default replays the block through
   ``on_instant`` row by row;
4. :meth:`TraceSink.on_close` — once per run, after the last instant (also
   on abnormal termination, so file-backed sinks always flush).

Five sinks ship with the kernel:

* :class:`MaterializeSink` — builds the
  :class:`~repro.sig.simulator.SimulationTrace` a run without ``sinks=``
  returns; pass it explicitly when a run should stream into other sinks
  *and* keep the full trace;
* :class:`StatisticsSink` — constant-memory per-signal aggregates
  (present/absent counts, numeric min/max, first/last occurrence), the
  natural sink for long-horizon runs;
* :class:`WindowSink` — a ring buffer of the last N instants,
  materialisable on demand (CLI ``--window N``), for debugging workflows
  that only need the end of a long run;
* :class:`DeltaSink` — a change log retaining only the instants at which a
  watched signal changed presence or value (CLI ``--deltas SIGNALS``),
  O(changes) memory for sparse long-horizon monitoring;
* :class:`~repro.sig.vcd.StreamingVcdSink` (in :mod:`repro.sig.vcd`) —
  writes the VCD waveform incrementally to disk while the simulation runs.

Sinks plug in everywhere a simulation is launched: ``simulate(...,
sinks=[...])``, ``backend.run(..., sinks=[...])``, ``simulate_batch(...,
sink_factory=...)`` (one fresh sink per scenario, worker-safe, results
merged back in scenario order), ``ToolchainOptions.sinks`` and the CLI
(``repro simulate --stream-vcd out.vcd --stats``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .simulator import SimulationTrace
from .values import ABSENT, Flow, SignalType, is_present


@dataclass
class TraceHeader:
    """Everything a sink may want to know about a run before it starts.

    ``signals`` preserves the record order *including duplicates*: a name
    listed twice is delivered twice per instant, and :class:`MaterializeSink`
    appends both occurrences into one shared flow.  ``warnings`` is the
    *live* list the running backend appends to; sinks that snapshot it must
    copy it in :meth:`TraceSink.on_close`, when it is complete.
    """

    #: Name of the (flattened) process being simulated.
    process_name: str
    #: Scenario length in instants (the number of instants a run that
    #: completes normally delivers, one by one or in blocks).
    length: int
    #: Recorded signal names, in record order, duplicates preserved.
    signals: Tuple[str, ...]
    #: Declared :class:`~repro.sig.values.SignalType` by signal name.
    #: Undeclared (scenario-only) recorded names are simply missing.
    types: Mapping[str, SignalType] = field(default_factory=dict)
    #: The run's warning list — live, shared with the backend.
    warnings: List[str] = field(default_factory=list)


class TraceSink:
    """Base class of streaming trace sinks (see the module docstring).

    Subclasses override :meth:`on_instant` (required) and usually
    :meth:`on_header` / :meth:`on_close`; :meth:`result` returns whatever
    the sink produced, in a picklable form so batched runs can ship it back
    from worker processes (see ``simulate_batch(sink_factory=...)``).

    :meth:`on_close` may be invoked on a sink whose :meth:`on_header` never
    ran (another sink of the same run failed first); :attr:`header` is
    ``None`` in that case, and overrides should bail out early, as the
    built-in sinks do.
    """

    #: The current run's header (``None`` until :meth:`on_header`).
    header: Optional[TraceHeader] = None

    def on_header(self, header: TraceHeader) -> None:
        """Called once per run before the first instant."""
        self.header = header

    def on_instant(self, instant: int, values: Tuple[Any, ...]) -> None:
        """Called once per instant with one value per recorded name
        (``ABSENT`` where the signal does not occur)."""
        raise NotImplementedError

    def on_block(self, start: int, columns: Sequence[Sequence[Any]]) -> None:
        """Called for a block of instants starting at *start*, with one
        column of values per recorded name (in header order).

        The default replays the block through :meth:`on_instant`, so a sink
        only overrides this to consume whole columns at once.  The
        vectorized executor calls an override only when the sink is the
        run's single sink; alongside other sinks, every sink gets each
        instant through :meth:`on_instant`, in instant order.
        """
        for offset, values in enumerate(zip(*columns)):
            self.on_instant(start + offset, values)

    def on_close(self) -> None:
        """Called once per run after the last instant (even on failure)."""

    def result(self) -> Any:
        """The sink's (picklable) product, available after :meth:`on_close`."""
        return None


#: What callers may pass wherever sinks are accepted: one sink or several.
SinkOrSinks = Union[TraceSink, Sequence[TraceSink]]

#: Per-scenario sink factory of the batched APIs: called with the scenario
#: index, returns the sink(s) that scenario streams into.
SinkFactory = Callable[[int], SinkOrSinks]


def as_sink_list(sinks: Optional[SinkOrSinks]) -> List[TraceSink]:
    """Normalise a ``sinks=`` argument (``None``, one sink, or a sequence)."""
    if sinks is None:
        return []
    if isinstance(sinks, TraceSink):
        return [sinks]
    return list(sinks)


def resolve_sinks(
    sinks: Optional[SinkOrSinks],
) -> Tuple[List[TraceSink], Optional["MaterializeSink"]]:
    """The sink list of one run, plus the sink whose trace the run returns.

    ``None`` means "return the trace": the run drives one fresh
    :class:`MaterializeSink`.  Anything else (an empty list included) is
    driven as given and the run returns ``None``.
    """
    if sinks is None:
        materialize = MaterializeSink()
        return [materialize], materialize
    return as_sink_list(sinks), None


def close_sinks(sinks: Sequence[TraceSink]) -> None:
    """Close every sink, even when one of them raises on close.

    The drivers call this from their ``finally`` blocks: one sink failing
    to write its final bytes (disk full, closed pipe) must not leave the
    remaining sinks' file handles open.  The first close error is re-raised
    after every sink has been given its :meth:`TraceSink.on_close` call.
    """
    first_error: Optional[BaseException] = None
    for sink in sinks:
        try:
            sink.on_close()
        except BaseException as error:  # noqa: BLE001 - every sink must close
            if first_error is None:
                first_error = error
    if first_error is not None:
        raise first_error


class MaterializeSink(TraceSink):
    """Build the full :class:`~repro.sig.simulator.SimulationTrace` of a run.

    Every backend's ``run()`` without ``sinks=`` returns this sink's trace
    (flows, shared duplicate-name flows, warnings); the catalog-wide parity
    tests (``tests/integration/test_sink_parity.py``) pin that the trace is
    the same whether its instants arrive one by one or in blocks.  Pass it
    explicitly to stream into other sinks *and* keep the full trace, or use
    it as the oracle when validating a new sink.
    """

    def __init__(self) -> None:
        self.trace: Optional[SimulationTrace] = None
        self._lists: Dict[str, List[Any]] = {}
        self._plan: List[List[Any]] = []
        self._distinct = True
        self._instants_seen = 0

    def on_header(self, header: TraceHeader) -> None:
        super().on_header(header)
        # Duplicate names share one list and are appended once per
        # occurrence, so one flow interleaves both occurrences.
        self._lists = {}
        self._plan = [self._lists.setdefault(name, []) for name in header.signals]
        self._distinct = len(self._lists) == len(self._plan)
        self._instants_seen = 0

    def on_instant(self, instant: int, values: Tuple[Any, ...]) -> None:
        for out, value in zip(self._plan, values):
            out.append(value)
        self._instants_seen = instant + 1

    def on_block(self, start: int, columns: Sequence[Sequence[Any]]) -> None:
        if not self._distinct:
            # A shared duplicate-name flow interleaves per instant, which
            # only the row-by-row replay reproduces.
            super().on_block(start, columns)
            return
        for out, column in zip(self._plan, columns):
            out.extend(column)
        if columns:
            self._instants_seen = start + len(columns[0])

    def on_close(self) -> None:
        if self.header is None:
            return
        # An aborted run yields a trace of the instants that completed, so
        # the declared length never exceeds the recorded flows.
        self.trace = SimulationTrace(
            process_name=self.header.process_name,
            length=min(self.header.length, self._instants_seen),
            flows={name: Flow(name, values) for name, values in self._lists.items()},
            warnings=list(self.header.warnings),
        )

    def result(self) -> Optional[SimulationTrace]:
        """The materialised trace (``None`` until :meth:`on_close`)."""
        return self.trace


@dataclass
class SignalStatistics:
    """Constant-memory aggregate of one recorded signal."""

    name: str
    #: Instants at which the signal was present / absent.
    present: int = 0
    absent: int = 0
    #: Smallest and largest present value, ``None`` while no present value
    #: has been seen *or* after the range was dropped (see
    #: :attr:`range_dropped`).
    minimum: Any = None
    maximum: Any = None
    #: First and last instants of presence (``None`` when never present).
    first_instant: Optional[int] = None
    last_instant: Optional[int] = None
    #: ``True`` once the signal carried mutually unorderable value types.
    #: The range is then meaningless and is reported as ``None`` — and the
    #: dropped state is *absorbing* under both :meth:`observe` and
    #: :meth:`merge`, which is what makes the aggregate associative: were a
    #: stale range kept instead, the reported min/max would depend on the
    #: order in which values (or partitions) arrived.
    range_dropped: bool = False

    def observe(self, instant: int, value: Any) -> None:
        """Fold one instant into the aggregate."""
        if not is_present(value):
            self.absent += 1
            return
        self.present += 1
        if self.first_instant is None:
            self.first_instant = instant
        self.last_instant = instant
        if self.range_dropped:
            return
        try:
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value
        except TypeError:
            # Mixed/unorderable value types: keep the counts, drop the
            # range entirely (a partial range would be order-dependent).
            self.minimum = None
            self.maximum = None
            self.range_dropped = True

    def merge(self, other: "SignalStatistics") -> "SignalStatistics":
        """Fold another aggregate of the *same* signal into this one.

        Counts add; the presence window widens to cover both operands; the
        value range combines unless either operand dropped it (or the two
        ranges are mutually unorderable, which drops it here for the same
        reason :meth:`observe` does).  The operation is associative and
        commutative, so per-partition statistics of a sweep compose into
        sweep-level aggregates in any grouping — without re-reading shards.
        Returns ``self`` (mutated in place) for chaining.
        """
        if other.name != self.name:
            raise ValueError(
                f"cannot merge statistics of {other.name!r} into {self.name!r}"
            )
        self.present += other.present
        self.absent += other.absent
        if other.first_instant is not None:
            if self.first_instant is None or other.first_instant < self.first_instant:
                self.first_instant = other.first_instant
        if other.last_instant is not None:
            if self.last_instant is None or other.last_instant > self.last_instant:
                self.last_instant = other.last_instant
        if self.range_dropped or other.range_dropped:
            self.minimum = None
            self.maximum = None
            self.range_dropped = True
            return self
        try:
            if other.minimum is not None and (
                self.minimum is None or other.minimum < self.minimum
            ):
                self.minimum = other.minimum
            if other.maximum is not None and (
                self.maximum is None or other.maximum > self.maximum
            ):
                self.maximum = other.maximum
        except TypeError:
            self.minimum = None
            self.maximum = None
            self.range_dropped = True
        return self


@dataclass
class TraceStatistics:
    """Per-signal aggregates of one streamed run (see :class:`StatisticsSink`).

    The flow-level accessors (:meth:`count_present`, :meth:`clock_length`)
    mirror their :class:`~repro.sig.simulator.SimulationTrace` counterparts
    so sweep reports can switch between materialised and streamed runs, and
    :func:`batch_statistics_summary` aggregates many of these exactly like
    :func:`~repro.sig.engine.batch.batch_flow_summary` aggregates traces.
    """

    process_name: str
    length: int
    per_signal: Dict[str, SignalStatistics] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)

    def signals(self) -> List[str]:
        """The recorded signal names, sorted (as ``SimulationTrace.signals``)."""
        return sorted(self.per_signal)

    def __contains__(self, name: str) -> bool:
        return name in self.per_signal

    def __len__(self) -> int:
        return self.length

    def count_present(self, name: str) -> int:
        """Number of instants at which *name* was present."""
        return self.per_signal[name].present

    def merge(self, other: "TraceStatistics") -> "TraceStatistics":
        """Fold another run's aggregates of the same process into this one.

        The composition the sweep layer builds on: per-partition
        :class:`TraceStatistics` merge into sweep-level aggregates without
        re-reading shards.  ``length`` adds (total instants simulated),
        per-signal entries merge via :meth:`SignalStatistics.merge`
        (signals present in only one operand are copied over), and
        warnings concatenate.  Associative and commutative up to warning
        order, so partitions may be merged in any grouping.  Returns
        ``self`` (mutated in place) for chaining.
        """
        if other.process_name != self.process_name:
            raise ValueError(
                f"cannot merge statistics of process {other.process_name!r} "
                f"into {self.process_name!r}"
            )
        self.length += other.length
        for name, entry in other.per_signal.items():
            mine = self.per_signal.get(name)
            if mine is None:
                self.per_signal[name] = SignalStatistics(
                    name=entry.name,
                    present=entry.present,
                    absent=entry.absent,
                    minimum=entry.minimum,
                    maximum=entry.maximum,
                    first_instant=entry.first_instant,
                    last_instant=entry.last_instant,
                    range_dropped=entry.range_dropped,
                )
            else:
                mine.merge(entry)
        self.warnings.extend(other.warnings)
        return self

    def summary(self, limit: int = 0) -> str:
        """Human-readable table; *limit* > 0 keeps the busiest signals only."""
        stats = sorted(self.per_signal.values(), key=lambda s: (-s.present, s.name))
        shown = stats[:limit] if limit > 0 else stats
        lines = [
            f"streamed statistics of {self.process_name!r}: {self.length} instants, "
            f"{len(self.per_signal)} signals, {len(self.warnings)} warning(s)"
        ]
        for entry in shown:
            window = (
                f" [{entry.first_instant}..{entry.last_instant}]"
                if entry.first_instant is not None
                else ""
            )
            span = (
                f", range {entry.minimum!r}..{entry.maximum!r}"
                if entry.minimum is not None
                else ""
            )
            lines.append(
                f"  {entry.name:<40s} present {entry.present:>8d}{window}{span}"
            )
        if limit > 0 and len(stats) > limit:
            lines.append(f"  ... and {len(stats) - limit} more signal(s)")
        return "\n".join(lines)


class StatisticsSink(TraceSink):
    """Aggregate every instant into per-signal statistics, O(signals) memory.

    This is the sink of choice for long-horizon runs: a million-instant
    simulation leaves behind one :class:`SignalStatistics` per signal
    instead of a million-entry flow per signal.  The product
    (:class:`TraceStatistics`, via :meth:`result`) is picklable, so batched
    sweeps can compute it in worker processes and merge in scenario order.
    """

    def __init__(self) -> None:
        self.statistics: Optional[TraceStatistics] = None
        self._stats: Dict[str, SignalStatistics] = {}
        self._plan: List[SignalStatistics] = []
        self._instants_seen = 0

    def on_header(self, header: TraceHeader) -> None:
        super().on_header(header)
        self._stats = {}
        # A duplicated record name observes twice per instant, matching the
        # double-append of MaterializeSink's shared flow.
        self._plan = [
            self._stats.setdefault(name, SignalStatistics(name)) for name in header.signals
        ]
        self._instants_seen = 0

    def on_instant(self, instant: int, values: Tuple[Any, ...]) -> None:
        for entry, value in zip(self._plan, values):
            entry.observe(instant, value)
        self._instants_seen = instant + 1

    def on_close(self) -> None:
        if self.header is None:
            return
        # As with MaterializeSink, an aborted run reports the instants that
        # actually completed, keeping present+absent sums equal to length.
        self.statistics = TraceStatistics(
            process_name=self.header.process_name,
            length=min(self.header.length, self._instants_seen),
            per_signal=self._stats,
            warnings=list(self.header.warnings),
        )

    def result(self) -> Optional[TraceStatistics]:
        """The aggregated statistics (``None`` until :meth:`on_close`)."""
        return self.statistics


class WindowSink(TraceSink):
    """Ring buffer of the last *capacity* instants, materialisable on demand.

    Debugging a long-horizon run usually needs the instants *around the
    end* (an alarm, an abort), not the whole trace: a
    :class:`MaterializeSink` would keep O(signals x instants) memory, this
    sink keeps O(signals x capacity) whatever the scenario length.  The CLI
    exposes it as ``repro simulate --window N``.

    :meth:`materialize` (and :meth:`result` after the run closed) rebuilds
    a :class:`~repro.sig.simulator.SimulationTrace` of the retained window;
    its instant 0 is the run's instant :attr:`start_instant`.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"window capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._rows: Deque[Tuple[int, Tuple[Any, ...]]] = deque(maxlen=capacity)
        self._closed_trace: Optional[SimulationTrace] = None

    def on_header(self, header: TraceHeader) -> None:
        """Reset the window for a new run."""
        super().on_header(header)
        self._rows.clear()
        self._closed_trace = None

    def on_instant(self, instant: int, values: Tuple[Any, ...]) -> None:
        """Push one instant into the ring (evicting the oldest when full)."""
        self._rows.append((instant, values))

    def on_close(self) -> None:
        """Freeze the window into the trace :meth:`result` will return."""
        if self.header is None:
            return
        self._closed_trace = self.materialize()

    @property
    def start_instant(self) -> int:
        """The run instant the window's instant 0 corresponds to."""
        return self._rows[0][0] if self._rows else 0

    def materialize(self) -> SimulationTrace:
        """Rebuild a :class:`~repro.sig.simulator.SimulationTrace` of the
        retained window (callable mid-run as well as after close)."""
        if self.header is None:
            raise RuntimeError("the window sink has not observed a run yet")
        lists: Dict[str, List[Any]] = {}
        plan = [lists.setdefault(name, []) for name in self.header.signals]
        for _, values in self._rows:
            for out, value in zip(plan, values):
                out.append(value)
        return SimulationTrace(
            process_name=self.header.process_name,
            length=len(self._rows),
            flows={name: Flow(name, values) for name, values in lists.items()},
            warnings=list(self.header.warnings),
        )

    def result(self) -> Optional[SimulationTrace]:
        """The window trace frozen at close (``None`` until then)."""
        return self._closed_trace


@dataclass
class DeltaLog:
    """Change log of one streamed run (see :class:`DeltaSink`).

    ``entries`` holds, in instant order, one ``(instant, changes)`` pair
    per instant at which at least one watched signal changed, where
    ``changes`` maps the signal name to its new value (``ABSENT`` when the
    signal just became absent).  ``change_counts`` aggregates the number of
    change instants per watched signal.
    """

    process_name: str
    length: int
    watched: Tuple[str, ...]
    entries: List[Tuple[int, Dict[str, Any]]] = field(default_factory=list)
    change_counts: Dict[str, int] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        """Number of change instants retained."""
        return len(self.entries)

    def changes_of(self, name: str) -> List[Tuple[int, Any]]:
        """The ``(instant, new value)`` transitions of one watched signal."""
        return [
            (instant, changes[name])
            for instant, changes in self.entries
            if name in changes
        ]

    def summary(self, limit: int = 0) -> str:
        """One line of totals plus the busiest signals (*limit* > 0 trims)."""
        ranked = sorted(self.change_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        shown = ranked[:limit] if limit > 0 else ranked
        lines = [
            f"change log of {self.process_name!r}: {len(self.entries)} change "
            f"instant(s) across {len(self.watched)} watched signal(s) over "
            f"{self.length} instants"
        ]
        for name, count in shown:
            lines.append(f"  {name:<40s} {count:>8d} change(s)")
        if limit > 0 and len(ranked) > limit:
            lines.append(f"  ... and {len(ranked) - limit} more signal(s)")
        return "\n".join(lines)


class DeltaSink(TraceSink):
    """Record only the instants at which a watched signal *changed*.

    The sparse complement of :class:`MaterializeSink` for long-horizon
    monitoring: a million-instant run whose watched signals change a
    hundred times leaves behind a hundred entries — O(changes), not
    O(instants).  A change is a presence edge (absent→present or
    present→absent) or a value change while present; instant 0 records
    every watched signal that starts out present (the edge from "before
    time", where everything is absent).

    *signals* restricts the watch list (``None`` watches every recorded
    signal); watched names the run does not record are ignored.  The CLI
    exposes this sink as ``repro simulate --deltas SIGNALS``.
    """

    def __init__(self, signals: Optional[Iterable[str]] = None) -> None:
        self.watch_signals = None if signals is None else tuple(signals)
        self.entries: List[Tuple[int, Dict[str, Any]]] = []
        self.change_counts: Dict[str, int] = {}
        self._watch: List[Tuple[int, str]] = []
        self._previous: List[Any] = []
        self._instants_seen = 0
        self._log: Optional[DeltaLog] = None

    def on_header(self, header: TraceHeader) -> None:
        """Resolve the watch list against the run's recorded signals."""
        super().on_header(header)
        wanted = None if self.watch_signals is None else set(self.watch_signals)
        seen: set = set()
        self._watch = []
        for index, name in enumerate(header.signals):
            # A duplicated record name delivers identical values at every
            # occurrence; watch the first occurrence only.
            if name in seen or (wanted is not None and name not in wanted):
                continue
            seen.add(name)
            self._watch.append((index, name))
        self._previous = [ABSENT] * len(self._watch)
        self.entries = []
        self.change_counts = {name: 0 for _, name in self._watch}
        self._instants_seen = 0
        self._log = None

    def on_instant(self, instant: int, values: Tuple[Any, ...]) -> None:
        """Fold one instant in, retaining it only when something changed."""
        changes: Optional[Dict[str, Any]] = None
        previous = self._previous
        for position, (index, name) in enumerate(self._watch):
            value = values[index]
            before = previous[position]
            if value is before:
                continue
            if (value is ABSENT) != (before is ABSENT):
                changed = True  # presence edge
            else:
                try:
                    changed = bool(value != before)
                except Exception:
                    # Values that refuse comparison count as changed: the
                    # log must never silently drop a transition.
                    changed = True
            if changed:
                if changes is None:
                    changes = {}
                changes[name] = value
                self.change_counts[name] += 1
                previous[position] = value
        if changes is not None:
            self.entries.append((instant, changes))
        self._instants_seen = instant + 1

    def on_close(self) -> None:
        """Freeze the change log :meth:`result` will return."""
        if self.header is None:
            return
        self._log = DeltaLog(
            process_name=self.header.process_name,
            length=min(self.header.length, self._instants_seen),
            watched=tuple(name for _, name in self._watch),
            entries=self.entries,
            change_counts=self.change_counts,
            warnings=list(self.header.warnings),
        )

    def result(self) -> Optional[DeltaLog]:
        """The frozen :class:`DeltaLog` (``None`` until :meth:`on_close`)."""
        return self._log


def presence_summary(signal: str, counts: List[Optional[int]]) -> Dict[str, Any]:
    """Assemble the shared batch-summary dictionary from presence counts.

    One assembly serves both :func:`batch_statistics_summary` (streamed
    batches) and :func:`repro.sig.engine.batch.batch_flow_summary`
    (materialised batches), so their output stays identical by construction
    rather than by test: per-scenario presence counts (``None`` for failed
    scenarios or unrecorded signals), their total, and the min/max over the
    successful scenarios.
    """
    present = [count for count in counts if count is not None]
    return {
        "signal": signal,
        "per_scenario": counts,
        "total": sum(present),
        "min": min(present) if present else None,
        "max": max(present) if present else None,
    }


def batch_statistics_summary(
    results: Iterable[Optional[TraceStatistics]], signal: str
) -> Dict[str, Any]:
    """Aggregate one signal across a batch of streamed runs.

    The streamed counterpart of
    :func:`repro.sig.engine.batch.batch_flow_summary`: feed it the
    ``sink_results`` of a ``simulate_batch(sink_factory=...)`` run whose
    factory makes :class:`StatisticsSink` objects, and it returns the
    identical summary dictionary (see :func:`presence_summary`).
    """
    counts: List[Optional[int]] = []
    for stats in results:
        if stats is None or signal not in stats:
            counts.append(None)
        else:
            counts.append(stats.count_present(signal))
    return presence_summary(signal, counts)


class _AlwaysAbsent:
    """O(1) stand-in for a flow the trace does not hold: ⊥ at every index."""

    def __getitem__(self, index: int) -> Any:
        return ABSENT


_ALWAYS_ABSENT = _AlwaysAbsent()


def replay_trace(
    trace: SimulationTrace,
    sinks: SinkOrSinks,
    signals: Optional[Iterable[str]] = None,
    types: Optional[Mapping[str, SignalType]] = None,
) -> None:
    """Drive *sinks* from an already-materialised trace.

    This is how the post-hoc exporters reuse the streaming machinery: the
    legacy :func:`repro.sig.vcd.write_vcd` is a replay of the trace through
    a :class:`~repro.sig.vcd.StreamingVcdSink`.  *signals* restricts (and
    orders) the replayed names, defaulting to the trace's sorted signal
    list; names the trace does not hold replay as always-absent.
    """
    sink_list = as_sink_list(sinks)
    names = tuple(signals) if signals is not None else tuple(trace.signals())
    try:
        header = TraceHeader(
            process_name=trace.process_name,
            length=trace.length,
            signals=names,
            types=dict(types) if types is not None else {},
            warnings=trace.warnings,
        )
        for sink in sink_list:
            sink.on_header(header)
        flows = [trace.flows.get(name, _ALWAYS_ABSENT) for name in names]
        for instant in range(trace.length):
            values = tuple(flow[instant] for flow in flows)
            for sink in sink_list:
                sink.on_instant(instant, values)
    finally:
        close_sinks(sink_list)


__all__ = [
    "DeltaLog",
    "DeltaSink",
    "MaterializeSink",
    "SignalStatistics",
    "SinkFactory",
    "SinkOrSinks",
    "StatisticsSink",
    "TraceHeader",
    "TraceSink",
    "TraceStatistics",
    "WindowSink",
    "as_sink_list",
    "batch_statistics_summary",
    "close_sinks",
    "presence_summary",
    "replay_trace",
    "resolve_sinks",
]
