"""The partitioned sweep executor: fleet-scale runs at flat memory.

:func:`run_sweep` turns a lazy :class:`~repro.sweep.spaces.ScenarioSpace`
into a shard store on disk without ever holding more than one *partition*
of the sweep in memory:

1. the backend is prepared **once** (``create_backend``) and reused across
   every partition via ``simulate_batch(runner=...)`` — the same warm path
   the serving layer uses, so a 100-partition sweep pays one compile;
2. the space is sliced into bounded partitions; each partition builds its
   scenarios lazily (:meth:`~repro.sweep.spaces.ScenarioSpace.batch` is the
   only place more than one scenario object exists), runs them through
   ``simulate_batch`` in **streaming mode** — every scenario drives a fresh
   :class:`~repro.sig.sinks.StatisticsSink` (plus a
   :class:`~repro.sig.sinks.DeltaSink` when ``deltas=`` watches signals)
   and no trace is ever materialised, in any process;
3. the partition's rows are flushed as JSONL table shards
   (:class:`~repro.sweep.shards.ShardWriter`, atomic rename), the running
   sweep aggregate absorbs the partition's statistics via the documented
   :meth:`~repro.sig.sinks.TraceStatistics.merge`, and the manifest is
   atomically rewritten — the partition's *commit point*;
4. the partition's results are dropped.  Peak memory is
   O(partition_size + signals), flat in the number of scenarios — the E20
   gate measures exactly this.

Each partition runs through the supervised executor, tuned by the same
knobs (``timeout=``, ``retries=``, ``scenario_budget=``, ``fault_plan=``...);
unrecoverable scenarios surface as
:class:`~repro.sig.engine.supervisor.ScenarioFault` rows in the
``scenarios`` table — **re-keyed to the global scenario id** (supervisor
faults are batch-local) — and survivors are unaffected.  A caller-supplied
``fault_plan`` is applied per partition, with its batch-local indices.

Interrupted sweeps resume: ``run_sweep(..., resume=True)`` validates the
space fingerprint against the manifest, quarantines crash-torn shard files
the manifest does not list, and re-executes only the missing partitions —
byte-identical to an uninterrupted run, because spaces are pure functions
of the scenario index.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..sig.engine.backends import DEFAULT_BACKEND, create_backend
from ..sig.engine.batch import check_length, simulate_batch
from ..sig.process import ProcessModel
from ..sig.sinks import DeltaSink, StatisticsSink, TraceStatistics
from .manifest import (
    MANIFEST_VERSION,
    deserialize_aggregate,
    load_manifest,
    quarantine_orphans,
    serialize_aggregate,
    write_manifest,
)
from .shards import SHARD_FORMAT, ShardWriter, delta_rows, scenario_row, statistics_rows
from .spaces import ScenarioSpace

#: Progress callback: called with an event name (``"partition-start"``,
#: ``"partition-flushed"``, ``"partition-complete"``) and the partition
#: index.  ``partition-flushed`` fires after the partition's shard files
#: are renamed into place but *before* the manifest commits them — the
#: window a crash leaves orphans in, which the resume tests exploit.
ProgressCallback = Callable[[str, int], None]


class _SweepSinks:
    """Picklable per-scenario sink factory of a sweep partition.

    A top-level class (not a closure) so ``workers > 1`` can pickle it to
    worker processes: every scenario gets a fresh ``StatisticsSink``, plus
    a ``DeltaSink`` over the watched signals when the sweep records deltas.
    """

    def __init__(self, deltas: Optional[Tuple[str, ...]]) -> None:
        self.deltas = deltas

    def __call__(self, index: int) -> Any:
        if self.deltas is None:
            return StatisticsSink()
        return [StatisticsSink(), DeltaSink(self.deltas)]


@dataclass
class SweepResult:
    """Outcome of one :func:`run_sweep` call (fresh or resumed).

    Detailed per-scenario results live in the shard store
    (:meth:`store` opens it); this object carries the run-level outcome:
    cumulative counts from the manifest plus the faults/errors of the
    partitions *this call* executed (with global scenario ids).
    """

    #: The sweep directory (shards + manifest).
    directory: str
    #: Shard format of the store (always ``"jsonl"``).
    shard_format: str
    #: Total scenarios of the space.
    count: int
    #: Scenarios per partition.
    partition_size: int
    #: Total number of partitions.
    partitions: int
    #: Partition indices executed by this call, in execution order.
    executed: List[int] = field(default_factory=list)
    #: Partitions already complete in the manifest when this call started.
    skipped: int = 0
    #: Shard files quarantined before resuming (crash debris).
    quarantined: List[str] = field(default_factory=list)
    #: Unrecoverable scenarios of the partitions this call executed, as
    #: :class:`~repro.sig.engine.supervisor.ScenarioFault` entries re-keyed
    #: to global scenario ids.
    faults: List[Any] = field(default_factory=list)
    #: Deterministic model errors of the partitions this call executed,
    #: as ``(global scenario id, SimulationError)`` pairs.
    errors: List[Tuple[int, Any]] = field(default_factory=list)
    #: Cumulative counts over the whole sweep (including resumed history).
    fault_count: int = 0
    error_count: int = 0
    warning_count: int = 0
    #: The sweep-level merged statistics (``None`` for an empty sweep).
    aggregate: Optional[TraceStatistics] = None
    #: Seconds spent preparing the backend (once) / executing partitions.
    compile_seconds: float = 0.0
    run_seconds: float = 0.0
    #: ``True`` when every partition of the space is in the manifest.
    complete: bool = True

    def __len__(self) -> int:
        return self.count

    @property
    def ok(self) -> bool:
        """``True`` when the sweep is complete with no faults or errors."""
        return self.complete and not self.fault_count and not self.error_count

    def store(self) -> "Any":
        """Open the sweep's shard store for post-hoc queries."""
        from .store import SweepResultStore

        return SweepResultStore(self.directory)

    def summary(self) -> str:
        """One paragraph of sweep outcome."""
        resumed = f", {self.skipped} resumed" if self.skipped else ""
        quarantine = (
            f", {len(self.quarantined)} shard(s) quarantined" if self.quarantined else ""
        )
        state = "complete" if self.complete else "incomplete"
        lines = [
            f"sweep of {self.count} scenario(s) in {self.partitions} "
            f"partition(s) of {self.partition_size} ({self.shard_format} shards, "
            f"{state}): {len(self.executed)} partition(s) executed{resumed}"
            f"{quarantine}, {self.error_count} error(s), {self.fault_count} "
            f"fault(s), {self.warning_count} warning(s) "
            f"(prepare {self.compile_seconds * 1000.0:.1f} ms, "
            f"run {self.run_seconds * 1000.0:.1f} ms)"
        ]
        for index, error in self.errors:
            lines.append(f"  scenario {index}: {type(error).__name__}: {error}")
        for fault in self.faults:
            lines.append(f"  {fault.summary()}")
        return "\n".join(lines)


def _base_manifest(
    process_name: str,
    space: ScenarioSpace,
    *,
    count: int,
    partition_size: int,
    record: Optional[List[str]],
    length: Optional[int],
    deltas: Optional[Tuple[str, ...]],
    backend: str,
) -> Dict[str, Any]:
    """The manifest of a fresh sweep, before any partition completes."""
    return {
        "version": MANIFEST_VERSION,
        "process": process_name,
        "space": space.describe(),
        "space_fingerprint": space.fingerprint(),
        "count": count,
        "partition_size": partition_size,
        "shard_format": SHARD_FORMAT,
        "record": record,
        "length": length,
        "deltas": list(deltas) if deltas is not None else None,
        "backend": backend,
        "partitions": {},
        "aggregate": None,
        "fault_count": 0,
        "error_count": 0,
        "warning_count": 0,
        "complete": False,
    }


def _check_resumable(manifest: Dict[str, Any], fresh: Dict[str, Any]) -> None:
    """Refuse to resume a manifest whose identity or shape changed."""
    for key in (
        "process",
        "space_fingerprint",
        "count",
        "partition_size",
        "record",
        "length",
        "deltas",
    ):
        if manifest.get(key) != fresh[key]:
            raise RuntimeError(
                f"cannot resume sweep: manifest {key} is {manifest.get(key)!r} "
                f"but this run would use {fresh[key]!r}"
            )


def run_sweep(
    process: ProcessModel,
    space: ScenarioSpace,
    out: str,
    *,
    partition_size: int = 1024,
    record: Optional[Iterable[str]] = None,
    strict: bool = True,
    backend: str = DEFAULT_BACKEND,
    workers: int = 1,
    length: Optional[int] = None,
    deltas: Optional[Iterable[str]] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
    max_failures: Optional[int] = None,
    scenario_budget: Any = None,
    fault_plan: Any = None,
    shard_format: str = SHARD_FORMAT,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
) -> SweepResult:
    """Execute a scenario space partition by partition into a shard store.

    *process* is prepared once on *backend* and reused across partitions;
    *space* is any :class:`~repro.sweep.spaces.ScenarioSpace`; *out* is the
    sweep directory (created if needed) that will hold the shards and the
    manifest.  ``partition_size`` bounds both the scenarios in flight and
    the rows per shard; ``length`` overrides the scenario horizon exactly
    as in ``simulate_batch`` (required for unbounded symbolic scenarios);
    ``deltas`` adds a change-log table over the named signals; the
    supervision knobs (``timeout``/``retries``/``backoff``/``max_failures``/
    ``scenario_budget``/``fault_plan``) are ``simulate_batch``'s, applied
    per partition (a ``fault_plan``'s indices are batch-local to each
    partition), with faults re-keyed to global scenario ids in the ``scenarios`` table.

    ``shard_format`` must be ``"jsonl"``, the only shard format (the
    argument stays for callers that name it).  An existing manifest is
    refused unless ``resume=True``, in which case completed partitions
    are skipped, crash debris is quarantined, and only the missing
    partitions execute — producing the same store an uninterrupted run
    would have.  ``progress`` observes partition lifecycle events (see
    :data:`ProgressCallback`).

    Returns a :class:`SweepResult`; per-scenario detail is in the store
    (:meth:`SweepResult.store`).
    """
    if partition_size <= 0:
        raise ValueError(f"partition_size must be positive, got {partition_size}")
    check_length(length)
    record_list = list(record) if record is not None else None
    deltas_tuple = tuple(deltas) if deltas is not None else None
    if shard_format != SHARD_FORMAT:
        raise ValueError(
            f"unknown shard format {shard_format!r}; sweeps write {SHARD_FORMAT!r} shards"
        )
    count = len(space)
    total_partitions = math.ceil(count / partition_size) if count else 0

    writer = ShardWriter(out)  # creates the directory
    fresh = _base_manifest(
        process.name,
        space,
        count=count,
        partition_size=partition_size,
        record=record_list,
        length=length,
        deltas=deltas_tuple,
        backend=backend,
    )
    existing = load_manifest(out)
    quarantined: List[str] = []
    if existing is not None:
        if not resume:
            raise RuntimeError(
                f"sweep directory {out!r} already holds a manifest; pass "
                f"resume=True to continue it (or choose a fresh directory)"
            )
        _check_resumable(existing, fresh)
        manifest = existing
        quarantined = quarantine_orphans(out, manifest)
    else:
        manifest = fresh
        write_manifest(out, manifest)

    aggregate = deserialize_aggregate(manifest.get("aggregate"))
    result = SweepResult(
        directory=out,
        shard_format=SHARD_FORMAT,
        count=count,
        partition_size=partition_size,
        partitions=total_partitions,
        skipped=len(manifest["partitions"]),
        quarantined=quarantined,
        fault_count=manifest["fault_count"],
        error_count=manifest["error_count"],
        warning_count=manifest["warning_count"],
    )

    pending = [
        index
        for index in range(total_partitions)
        if str(index) not in manifest["partitions"]
    ]
    runner = None
    started = time.perf_counter()
    if pending:
        runner = create_backend(process, backend=backend, strict=strict)
    result.compile_seconds = time.perf_counter() - started
    factory = _SweepSinks(deltas_tuple)
    run_started = time.perf_counter()

    for index in pending:
        if progress is not None:
            progress("partition-start", index)
        start = index * partition_size
        stop = min(start + partition_size, count)
        built = [space.build(i) for i in range(start, stop)]
        scenarios = [scenario for _, scenario in built]
        batch = simulate_batch(
            process,
            scenarios,
            record=record_list,
            collect_errors=True,
            workers=workers,
            sink_factory=factory,
            length=length,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            max_failures=max_failures,
            scenario_budget=scenario_budget,
            fault_plan=fault_plan,
            runner=runner,
        )
        errors = {local: error for local, error in batch.errors}
        faults = {fault.scenario: fault for fault in batch.faults}

        scenario_table: List[Dict[str, Any]] = []
        statistics_table: List[Dict[str, Any]] = []
        deltas_table: List[Dict[str, Any]] = []
        partition_warnings = 0
        for local in range(stop - start):
            scenario_id = start + local
            params = built[local][0]
            payload = batch.sink_results[local]
            if local in faults:
                fault = faults[local]
                result.faults.append(
                    dataclasses.replace(fault, scenario=scenario_id)
                )
                scenario_table.append(
                    scenario_row(
                        scenario_id,
                        "fault",
                        params,
                        kind=fault.kind,
                        detail=fault.message,
                        attempts=fault.attempts,
                    )
                )
                continue
            if local in errors:
                error = errors[local]
                result.errors.append((scenario_id, error))
                scenario_table.append(
                    scenario_row(
                        scenario_id,
                        "error",
                        params,
                        kind=type(error).__name__,
                        detail=str(error),
                    )
                )
                continue
            if deltas_tuple is None:
                stats, delta_log = payload, None
            else:
                stats, delta_log = payload
            warnings = len(stats.warnings)
            partition_warnings += warnings
            scenario_table.append(
                scenario_row(scenario_id, "ok", params, warnings=warnings)
            )
            statistics_table.extend(statistics_rows(scenario_id, stats))
            if delta_log is not None:
                deltas_table.extend(delta_rows(scenario_id, delta_log))
            # Warning *lists* never reach the aggregate (memory must stay
            # flat in the scenario count); the count is in the manifest.
            stats.warnings = []
            if aggregate is None:
                aggregate = TraceStatistics(
                    process_name=stats.process_name, length=0
                )
            aggregate.merge(stats)

        files = {
            "scenarios": writer.write("scenarios", index, scenario_table),
            "statistics": writer.write("statistics", index, statistics_table),
        }
        rows = {
            "scenarios": len(scenario_table),
            "statistics": len(statistics_table),
        }
        if deltas_tuple is not None:
            files["deltas"] = writer.write("deltas", index, deltas_table)
            rows["deltas"] = len(deltas_table)
        if progress is not None:
            progress("partition-flushed", index)

        manifest["partitions"][str(index)] = {
            "start": start,
            "stop": stop,
            "files": files,
            "rows": rows,
        }
        manifest["fault_count"] += len(batch.faults)
        manifest["error_count"] += len(batch.errors)
        manifest["warning_count"] += partition_warnings
        manifest["aggregate"] = serialize_aggregate(aggregate)
        manifest["complete"] = len(manifest["partitions"]) == total_partitions
        write_manifest(out, manifest)
        result.executed.append(index)
        result.fault_count = manifest["fault_count"]
        result.error_count = manifest["error_count"]
        result.warning_count = manifest["warning_count"]
        if progress is not None:
            progress("partition-complete", index)

    if not manifest["complete"] and len(manifest["partitions"]) == total_partitions:
        manifest["complete"] = True
        write_manifest(out, manifest)
    result.run_seconds = time.perf_counter() - run_started
    result.aggregate = aggregate
    result.complete = manifest["complete"]
    return result


__all__ = [
    "ProgressCallback",
    "SweepResult",
    "run_sweep",
]
