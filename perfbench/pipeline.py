"""Workloads and the pipeline request of the pipeline benchmark.

One *request* carries one AADL model through the paper's whole tool chain,
as a user of ``repro`` would drive it, calling only the program's own entry
points:

1. **analyse** — :func:`repro.core.run_toolchain` without simulation:
   parse, instantiate, validate, translate (scheduler synthesis +
   ASME2SSME), schedulability, flatten, clock calculus, determinism,
   deadlock detection;
2. **plan_compile** — :func:`repro.sig.engine.create_backend` on the flat
   model;
3. **simulate** — run one stimulus scenario over the workload's horizon;
4. **sweep** + **sweep_query** — a partitioned :func:`repro.sweep.run_sweep`
   over a seeded stimulus space into JSONL shards, then read the
   statistics table back from the shard store;
5. **serve_submit** + **serve_simulate** — submit the source to a
   :class:`~repro.serve.SimulationService` and send simulate requests.

Every workload runs every layer, so every per-layer number exists on every
workload; the workloads differ in which layer dominates (see
:data:`WORKLOADS`).  The analysis stages inside ``run_toolchain`` are timed
by :func:`instrument`, which wraps the callables the tool chain looks up,
only when spans are on.

Outputs are checked against an oracle computed once per run, outside the
timed loop: the clock report of the flat (non-modular) clock calculus for
the analysis, and the ``reference`` interpreter for traces, sweep
statistics and served statistics.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple
from unittest import mock

import repro.core.toolchain as toolchain
from repro.aadl.instance import Instantiator
from repro.aadl.printer import render_model
from repro.casestudies import PRODUCER_CONSUMER_AADL, load_case_study
from repro.core import ToolchainOptions, run_toolchain
from repro.core.translator import Asme2SsmeTranslator, TranslationConfig
from repro.serve import ServiceConfig, SimulationService
from repro.serve.programs import scenario_to_payload, statistics_to_payload
from repro.sig.analysis import build_clock_report
from repro.sig.calculus_modular import ModularClockCalculus
from repro.sig.engine import create_backend, simulate_batch
from repro.sig.process import ProcessModel
from repro.sig.sinks import MaterializeSink, StatisticsSink
from repro.sweep import SweepResultStore, run_sweep, stimulus_space
from repro.sweep.shards import statistics_rows


@dataclass(frozen=True)
class Workload:
    """One row of the benchmark matrix: inputs and per-stage sizes.

    Why each workload exists is recorded next to its name in
    ``BENCHMARK.json``.
    """

    #: Case-study catalog entries the requests cycle through.
    models: Tuple[str, ...]
    backend: str
    #: Instants of the simulate stage and of every served simulation.
    horizon: int
    #: Stimulus scenarios drawn per model; requests cycle through them.
    scenarios: int
    sweep_scenarios: int
    sweep_partition: int
    sweep_length: int
    #: Simulate requests sent to the service per pipeline request.
    serve_requests: int


PAPER = ("producer_consumer",)
#: Three generated catalog designs of growing size (314, 541 and 777 flat
#: signals) and the paper's large integration model (2200).
DESIGNS = ("cabin_pressure", "landing_gear", "sensor_fusion", "large_integration")
#: Models whose thread set the rate-monotonic scheduler synthesis rejects;
#: they are analysed without a synthesised scheduler, as the serving and
#: warm-start gates (E18, E19) analyse them.
UNSCHEDULED = frozenset({"large_integration"})

WORKLOADS: Dict[str, Workload] = {
    "analyse": Workload(
        models=DESIGNS, backend="compiled", horizon=16, scenarios=1,
        sweep_scenarios=2, sweep_partition=2, sweep_length=16, serve_requests=1,
    ),
    "simulate": Workload(
        models=PAPER, backend="vectorized", horizon=256, scenarios=4,
        sweep_scenarios=2, sweep_partition=2, sweep_length=32, serve_requests=1,
    ),
    "sweep": Workload(
        models=PAPER, backend="compiled", horizon=16, scenarios=1,
        sweep_scenarios=24, sweep_partition=6, sweep_length=16, serve_requests=1,
    ),
    "serve": Workload(
        models=PAPER, backend="compiled", horizon=32, scenarios=8,
        sweep_scenarios=2, sweep_partition=2, sweep_length=16, serve_requests=24,
    ),
}


@dataclass
class Model:
    """One AADL source with its root, the analysed flat model and inputs."""

    name: str
    source: str
    options: ToolchainOptions
    flat: Any = None
    #: Analysis digest of the set-up's run (see :func:`analysis_digest`).
    digest: Dict[str, Any] = field(default_factory=dict)
    scenarios: List[Any] = field(default_factory=list)
    sweep_space: Any = None
    #: Simulate-request bodies, one per scenario.
    request_bodies: List[Dict[str, Any]] = field(default_factory=list)
    submit_body: Dict[str, Any] = field(default_factory=dict)


@dataclass
class State:
    """Everything a run needs before its first timed request."""

    workload: Workload
    models: List[Model]
    #: ``(model index, scenario index)`` pairs, cycled by the timed loop.
    items: List[Tuple[int, int]]
    service: Any
    workdir: str


def _model_sources(workload: Workload, rng: random.Random) -> List[Model]:
    """The workload's AADL sources, in a seeded order.

    The paper's model keeps its hand-written text; generated designs are
    rendered to AADL text so every request starts from a parse.
    """
    names = list(workload.models)
    rng.shuffle(names)
    models = []
    for name in names:
        entry = load_case_study(name)
        source = (
            PRODUCER_CONSUMER_AADL if name == "producer_consumer"
            else render_model(entry.load_model())
        )
        options = ToolchainOptions(
            root_implementation=entry.root_implementation,
            default_package=entry.default_package,
            translation=TranslationConfig(include_scheduler=name not in UNSCHEDULED),
            simulate_hyperperiods=0,
            cost_model=None,
        )
        models.append(Model(name, source, options))
    return models


def setup(name: str, seed: int, workdir: str) -> State:
    """Build a run's inputs from *seed* and a fresh service.

    Analyses each source once through :func:`run_toolchain` (its flat model
    names the inputs the stimulus scenarios drive) and builds the request
    bodies.
    """
    workload = WORKLOADS[name]
    rng = random.Random(f"perfbench:{name}:{seed}")
    models = _model_sources(workload, rng)
    items: List[Tuple[int, int]] = []
    for index, model in enumerate(models):
        result = run_toolchain(model.source, model.options)
        model.flat = result.flat_model
        model.digest = analysis_digest(result)
        draws = stimulus_space(model.flat, workload.scenarios, seed=rng.randrange(2**31))
        model.scenarios = [draws.scenario(i) for i in range(workload.scenarios)]
        model.sweep_space = stimulus_space(
            model.flat, workload.sweep_scenarios, seed=rng.randrange(2**31)
        )
        model.submit_body = {
            "source": model.source,
            "root": model.options.root_implementation,
            "package": model.options.default_package,
            "include_scheduler": model.options.translation.include_scheduler,
        }
        model.request_bodies = [
            {
                "scenarios": [scenario_to_payload(scenario)],
                "length": workload.horizon,
                "backend": workload.backend,
                "strict": False,
                "include_trace": False,
                "sinks": ["stats"],
            }
            for scenario in model.scenarios
        ]
        items.extend((index, j) for j in range(workload.scenarios))
    # One resident model: a repeated source hits the plan cache, a cycle of
    # distinct sources evicts on every submit.
    service = SimulationService(
        ServiceConfig(cache_capacity=1, max_concurrent=1, default_backend=workload.backend)
    )
    return State(workload, models, items, service, workdir)


def _clock_digest(clock) -> Tuple[Any, ...]:
    return (
        clock.clock_count, clock.signal_count, sorted(clock.roots),
        clock.endochronous, clock.master_clock,
        sorted(clock.null_clock_signals), list(clock.unresolved_constraints),
        clock.hierarchy_depth,
    )


def analysis_digest(result) -> Dict[str, Any]:
    """The comparable outcome of one :func:`run_toolchain` (plain values only)."""
    return {
        "signals": result.flat_model.signal_count(),
        "hyperperiods": sorted(
            (name, schedule.hyperperiod_ms, len(schedule.jobs))
            for name, schedule in result.schedules.items()
        ),
        "clock": _clock_digest(result.clock_report),
        "determinism": (
            result.determinism.checked_signals,
            [str(issue) for issue in result.determinism.issues],
        ),
        "deadlocks": [list(cycle) for cycle in result.deadlocks.cycles],
    }


def _statistics_factory(index: int) -> StatisticsSink:
    return StatisticsSink()


def oracle(state: State) -> Dict[str, Any]:
    """Reference outputs of every request the run can make.

    The clock report comes from the flat clock calculus, which the tool
    chain's modular calculus must match; traces and statistics come from
    the ``reference`` interpreter — the executable semantics every backend
    must match bit for bit.
    """
    workload = state.workload
    expected: Dict[str, Any] = {"clock": {}, "trace": {}, "stats": {}, "sweep": {}}
    for index, model in enumerate(state.models):
        expected["clock"][index] = _clock_digest(build_clock_report(model.flat))
        interpreter = create_backend(model.flat, backend="reference", strict=False)
        for j, scenario in enumerate(model.scenarios):
            materialize, stats = MaterializeSink(), StatisticsSink()
            interpreter.run(scenario, sinks=[materialize, stats], length=workload.horizon)
            expected["trace"][index, j] = materialize.trace
            # Compared after a JSON round trip, as a client reads it.
            expected["stats"][index, j] = json.loads(
                json.dumps(statistics_to_payload(stats.result()))
            )
        space = model.sweep_space
        batch = simulate_batch(
            model.flat,
            [space.scenario(i) for i in range(len(space))],
            strict=False,
            backend="reference",
            sink_factory=_statistics_factory,
            length=workload.sweep_length,
        )
        rows: List[Dict[str, Any]] = []
        for scenario_id, stats in enumerate(batch.sink_results):
            rows.extend(statistics_rows(scenario_id, stats))
        expected["sweep"][index] = rows
    return expected


def _spanned(tracer, name: str, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return function(*args, **kwargs)

    return wrapper


#: The callables :func:`run_toolchain` reaches for each analysis stage, as
#: ``(owner, attribute, span)``: module globals of ``repro.core.toolchain``
#: and methods of the classes it instantiates.
STAGES = (
    (toolchain, "parse_string", "parse"),
    (Instantiator, "instantiate", "instantiate"),
    (toolchain, "validate", "validate"),
    (Asme2SsmeTranslator, "translate", "translate"),
    (toolchain, "task_set_from_threads", "schedulability"),
    (toolchain, "analyse_schedulability", "schedulability"),
    (toolchain, "analyse_synchronizability", "schedulability"),
    (ProcessModel, "flatten", "flatten"),
    (ModularClockCalculus, "run", "clock_calculus"),
    (toolchain, "build_clock_report", "clock_calculus"),
    (toolchain, "check_determinism", "determinism"),
    (toolchain, "detect_deadlocks", "deadlock"),
)


def instrument(tracer) -> contextlib.ExitStack:
    """Wrap every :data:`STAGES` callable in a span of *tracer*.

    The tool chain runs unchanged; closing the returned stack restores the
    originals.  Only ``--trace 1`` runs install it.
    """
    stack = contextlib.ExitStack()
    for owner, attribute, name in STAGES:
        original = getattr(owner, attribute)
        stack.enter_context(
            mock.patch.object(owner, attribute, _spanned(tracer, name, original))
        )
    return stack


def request(state: State, number: int, tracer) -> Dict[str, Any]:
    """One pipeline request on item ``number % len(items)``; returns outputs.

    The sweep's shard directory is left in place, under
    ``outputs["sweep_dir"]``, for the caller to remove after timing.
    """
    workload = state.workload
    index, j = state.items[number % len(state.items)]
    model = state.models[index]
    outputs: Dict[str, Any] = {"item": (index, j)}
    with tracer.span("request"):
        with tracer.span("analyse"):
            outputs["analysis"] = analysis = run_toolchain(model.source, model.options)
        flat = analysis.flat_model
        with tracer.span("plan_compile"):
            runner = create_backend(flat, backend=workload.backend, strict=False)
        with tracer.span("simulate"):
            outputs["trace"] = runner.run(model.scenarios[j], length=workload.horizon)
        vector_plan = getattr(runner, "vector_plan", None)
        if vector_plan is not None:
            outputs["vector_blocks"] = vector_plan.vector_blocks
            outputs["fallback_blocks"] = vector_plan.fallback_blocks

        outputs["sweep_dir"] = out = os.path.join(state.workdir, f"sweep-{number}")
        with tracer.span("sweep"):
            outputs["sweep"] = run_sweep(
                flat, model.sweep_space, out,
                partition_size=workload.sweep_partition,
                strict=False,
                backend=workload.backend,
                length=workload.sweep_length,
                shard_format="jsonl",
            )
        with tracer.span("sweep_query"):
            outputs["sweep_rows"] = list(SweepResultStore(out).query("statistics"))

        service = state.service
        before = service.cache.stats()
        with tracer.span("serve_submit"):
            fingerprint = service.submit(model.submit_body)["fingerprint"]
        served = []
        with tracer.span("serve_simulate"):
            for r in range(workload.serve_requests):
                k = (j + r) % len(model.scenarios)
                served.append((k, service.simulate(fingerprint, model.request_bodies[k])))
        after = service.cache.stats()
        outputs["served"] = served
        outputs["cache_hits"] = after["hits"] - before["hits"]
        outputs["cache_misses"] = after["misses"] - before["misses"]
    return outputs


def check(state: State, outputs: Dict[str, Any], expected: Dict[str, Any]) -> List[str]:
    """Differences between one request's outputs and the oracle (empty = correct)."""
    index, j = outputs["item"]
    model = state.models[index]
    problems = []
    digest = analysis_digest(outputs["analysis"])
    if digest != model.digest or digest["clock"] != expected["clock"][index]:
        problems.append(
            f"{model.name}: analysis differs from the set-up run or the flat clock calculus"
        )
    if outputs["trace"] != expected["trace"][index, j]:
        problems.append(f"{model.name}: trace differs from the reference interpreter")
    if not outputs["sweep"].ok or outputs["sweep_rows"] != expected["sweep"][index]:
        problems.append(f"{model.name}: sweep statistics differ from the reference")
    for k, response in outputs["served"]:
        response = json.loads(json.dumps(response))
        results = response.get("results") or [{}]
        if not response.get("ok") or results[0].get("stats") != expected["stats"][index, k]:
            problems.append(f"{model.name}: served statistics differ from the reference")
    return problems
