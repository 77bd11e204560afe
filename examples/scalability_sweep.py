"""Scalability sweep: translation, clock calculus and batched simulation.

Run with::

    python examples/scalability_sweep.py [--workers W]

Reproduces the scalability discussion of Section IV-E with synthetic models
from the case-study generator: the number of generated SIGNAL signals,
equations and synchronisation classes (clocks) is reported for increasing
model sizes — comparing the flat clock calculus with the modular one (same
classes, hierarchy and verdicts; the modular solver reuses the per-process
structure and memoises repeated subprocess shapes) — together with the
catalog of more than ten case studies and a many-scenario simulation batch
comparing backends and, when requested, sharding the batch over worker
processes.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.aadl.instance import Instantiator, instance_report
from repro.casestudies import CATALOG, GeneratorConfig, generate_case_study, scenario_sweep
from repro.core import TranslationConfig, translate_system
from repro.sig.calculus_modular import ModularClockCalculus
from repro.sig.clock_calculus import run_clock_calculus
from repro.sig.engine import simulate_batch


def sweep() -> None:
    print(
        f"{'model':<14s} {'threads':>7s} {'signals':>8s} {'equations':>9s} {'clocks':>7s} "
        f"{'flat (s)':>9s} {'modular (s)':>12s} {'speedup':>8s}"
    )
    for processes, threads in [(1, 4), (2, 4), (2, 8), (4, 8), (6, 10), (10, 10)]:
        config = GeneratorConfig(
            name=f"Sweep{processes}x{threads}",
            processes=processes,
            threads_per_process=threads,
            harmonic=True,
            seed=processes + threads,
        )
        generated = generate_case_study(config)
        root = Instantiator(generated.model, default_package=config.name).instantiate(
            generated.root_implementation
        )
        result = translate_system(root, TranslationConfig(include_scheduler=False))

        start = time.perf_counter()
        flat = result.system_model.flatten()
        calculus = run_clock_calculus(flat, flatten=False)
        flat_seconds = time.perf_counter() - start

        start = time.perf_counter()
        modular_calc = ModularClockCalculus(result.system_model)
        modular = modular_calc.run()
        modular_seconds = time.perf_counter() - start
        assert modular.same_analysis(calculus), "modular clock calculus diverged"

        print(
            f"{processes}x{threads:<12d} {config.total_threads:>7d} {flat.signal_count():>8d} "
            f"{flat.equation_count():>9d} {calculus.clock_count():>7d} "
            f"{flat_seconds:>9.2f} {modular_seconds:>12.2f} "
            f"{flat_seconds / max(modular_seconds, 1e-9):>7.1f}x"
        )


def catalog() -> None:
    print()
    print("Case-study catalog (more than ten designs, Section IV-E):")
    for entry in CATALOG:
        root = entry.instantiate()
        report = instance_report(root)
        print(f"  {entry.name:<20s} {report.threads:>3d} threads, {report.components:>4d} components — {entry.description}")


def simulation_batch(variants: int = 16, workers: int = 1) -> None:
    """Run one scheduled model over many scenarios: backends, then sharding."""
    print()
    print(f"Batched simulation ({variants} randomised scenarios, every backend):")
    config = GeneratorConfig(
        name="BatchDemo", processes=2, threads_per_process=4, harmonic=True, seed=21
    )
    generated = generate_case_study(config)
    root = Instantiator(generated.model, default_package=config.name).instantiate(
        generated.root_implementation
    )
    result = translate_system(root, TranslationConfig(include_scheduler=True))
    schedule = next(iter(result.schedules.values()))
    scenarios = scenario_sweep(
        result.system_model,
        length=schedule.simulation_length(2),
        variants=variants,
        seed=config.seed,
    )
    timings = {}
    for backend in ("reference", "compiled", "vectorized"):
        start = time.perf_counter()
        batch = simulate_batch(
            result.system_model, scenarios, strict=False, backend=backend, collect_errors=True
        )
        timings[backend] = time.perf_counter() - start
        print(f"  {backend:<10s} {batch.summary()}")
    if timings["compiled"] > 0:
        print(f"  compiled backend speedup: {timings['reference'] / timings['compiled']:.1f}x")
    if timings["vectorized"] > 0:
        print(
            "  vectorized backend speedup over compiled: "
            f"{timings['compiled'] / timings['vectorized']:.1f}x"
        )

    if workers != 1:
        print()
        print(f"Process-parallel sharding (compiled backend, workers={workers}):")
        start = time.perf_counter()
        sharded = simulate_batch(
            result.system_model,
            scenarios,
            strict=False,
            backend="compiled",
            collect_errors=True,
            workers=workers,
        )
        sharded_seconds = time.perf_counter() - start
        print(f"  {sharded.summary()}")
        print(
            f"  sequential {timings['compiled']:.2f}s vs sharded {sharded_seconds:.2f}s "
            f"({timings['compiled'] / max(sharded_seconds, 1e-9):.1f}x on "
            f"{os.cpu_count() or 1} core(s))"
        )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="also shard the simulation batch over this many worker processes "
        "(0 = one per core)",
    )
    args = parser.parse_args()
    sweep()
    catalog()
    simulation_batch(workers=args.workers)
