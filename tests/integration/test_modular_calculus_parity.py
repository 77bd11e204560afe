"""Modular clock-calculus parity over the full case-study catalog.

The modular solver (per-subprocess extraction, memoisation, composition at
interface signals) must produce the *identical* analysis — synchronisation
classes, resolved clocks, hierarchy, endochrony verdicts, unresolved
constraints, the whole printed report — as flattening the model and running
the flat solver.  This is the contract that lets the tool chain default to
the modular calculus.

The modular solver's cyclic-cluster fallback, ``_resolve_worklist``, must
moreover resolve exactly the clocks of the pairwise loop, key order
included.  That loop is copied verbatim below as the oracle and compared on
every catalog model's extracted system and on random small clock systems.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudies import GeneratorConfig, catalog_names, generate_case_study, load_case_study
from repro.aadl.instance import Instantiator
from repro.core import TranslationConfig, translate_system
from repro.scheduling.static_scheduler import SchedulingError
from repro.sig.calculus_modular import ExtractionCache, ModularClockCalculus
from repro.sig.clock_calculus import (
    ClockCalculus,
    _defined_clocks,
    _resolve_directed,
    _resolve_worklist,
    run_clock_calculus,
)
from repro.sig.clocks import Clock, ClockAtom


@pytest.fixture(scope="module")
def system_models():
    """Translate each catalog entry once (no scheduler: the analysis layer
    does not depend on it and this keeps the flat oracle affordable)."""
    cache = {}

    def get(name):
        if name not in cache:
            entry = load_case_study(name)
            result = translate_system(
                entry.instantiate(), TranslationConfig(include_scheduler=False)
            )
            cache[name] = result.system_model
        return cache[name]

    return get


def assert_same_calculus(system_model, cache=None):
    flat = system_model.flatten()
    reference = run_clock_calculus(flat, flatten=False)
    calculus = ModularClockCalculus(system_model, cache=cache)
    modular = calculus.run()

    assert modular.same_analysis(reference)
    # The printed report is what the tool chain shows: identical text too.
    assert modular.report() == reference.report()
    # Belt and braces on the individual verdicts the acceptance names.
    assert [cls.members for cls in modular.classes] == [cls.members for cls in reference.classes]
    assert [(n.representative, n.parent, n.depth) for n in modular.hierarchy] == [
        (n.representative, n.parent, n.depth) for n in reference.hierarchy
    ]
    assert modular.endochronous == reference.endochronous
    return calculus, modular


@pytest.mark.parametrize("name", catalog_names())
def test_modular_calculus_matches_flat_on_catalog(name, system_models):
    assert_same_calculus(system_models(name))


def test_modular_calculus_matches_flat_on_generated_model():
    config = GeneratorConfig(
        name="ParityGen", processes=3, threads_per_process=5, harmonic=True, seed=42
    )
    generated = generate_case_study(config)
    root = Instantiator(generated.model, default_package=config.name).instantiate(
        generated.root_implementation
    )
    system_model = translate_system(root, TranslationConfig(include_scheduler=False)).system_model
    calculus, result = assert_same_calculus(system_model)
    # The generated model instantiates the same port/observer shapes for every
    # thread: the memoised extractions must actually be reused.
    assert calculus.stats.extraction_hits > calculus.stats.extraction_misses
    assert result.resolution == "directed"


def test_modular_calculus_matches_flat_with_scheduler():
    entry = load_case_study("sensor_fusion")
    system_model = translate_system(
        entry.instantiate(), TranslationConfig(include_scheduler=True)
    ).system_model
    assert_same_calculus(system_model)


def test_cyclic_cluster_falls_back_to_flat_solver():
    """producer_consumer has a genuinely cyclic clock cluster: the modular
    solver must detect it, fall back to the worklist replay of the flat
    solver's pairwise fixpoint, and still match."""
    entry = load_case_study("producer_consumer")
    system_model = translate_system(
        entry.instantiate(), TranslationConfig(include_scheduler=False)
    ).system_model
    calculus, result = assert_same_calculus(system_model)
    assert result.resolution == "iterative-fallback"


def test_extraction_cache_is_reusable_across_runs():
    cache = ExtractionCache()
    entry = load_case_study("cruise_control")
    system_model = translate_system(
        entry.instantiate(), TranslationConfig(include_scheduler=False)
    ).system_model
    assert_same_calculus(system_model, cache=cache)
    first_misses = cache.misses
    # A second run over the same tree is answered from the cache alone.
    calculus, _ = assert_same_calculus(system_model, cache=cache)
    assert cache.misses == first_misses
    assert calculus.stats.extraction_misses == 0
    assert calculus.stats.extraction_hits > 0


# ----------------------------------------------------------------------
# the cyclic-cluster fallback against the verbatim pairwise loop
# ----------------------------------------------------------------------
def _pairwise_oracle(defined_clocks, rep_count):
    """The flat solver's pairwise fixpoint, copied verbatim."""
    resolved = dict(defined_clocks)
    for _ in range(rep_count + 1):
        changed = False
        for rep, clock in list(resolved.items()):
            new_clock = clock
            for other, other_clock in resolved.items():
                if other == rep:
                    continue
                if other in new_clock.base_signals():
                    if rep in other_clock.base_signals():
                        continue
                    candidate = new_clock.substitute_signal(other, other_clock)
                    if candidate != new_clock:
                        new_clock = candidate
            if new_clock != resolved[rep]:
                resolved[rep] = new_clock
                changed = True
        if not changed:
            break
    return resolved


def assert_same_resolution(defined_clocks, rep_count):
    expected = _pairwise_oracle(defined_clocks, rep_count)
    actual = _resolve_worklist(defined_clocks, rep_count)
    assert actual == expected
    assert list(actual) == list(expected)
    # Clock equality compares the products tuple in order: bit-identical.
    assert [actual[rep].products for rep in actual] == [expected[rep].products for rep in expected]


@pytest.mark.parametrize("name", catalog_names())
def test_worklist_fallback_matches_pairwise_loop_on_catalog(name):
    """Scheduled where synthesis succeeds: the scheduler adds the clocks the
    tool chain analyses by default."""
    entry = load_case_study(name)
    try:
        translation = translate_system(entry.instantiate(), TranslationConfig(include_scheduler=True))
    except SchedulingError:
        translation = translate_system(entry.instantiate(), TranslationConfig(include_scheduler=False))
    flat = translation.system_model.flatten()
    uf, defined = _defined_clocks(flat.signals, ClockCalculus(flat)._extract())
    assert_same_resolution(defined, len(uf.classes()))
    if name == "producer_consumer":
        assert _resolve_directed(defined) is None  # the cyclic cluster


_NAMES = ("a", "b", "c", "d", "e", "f")

_atoms = st.builds(ClockAtom, st.sampled_from(("sig", "sig", "true", "false")), st.sampled_from(_NAMES))
_products = st.frozensets(_atoms, max_size=3)


@st.composite
def _clock_systems(draw):
    """Small systems over a few names: some defined, some free.  Clocks are
    either normalised or raw ``Clock(products=...)`` tuples, which may hold
    duplicate, absorbed or contradictory products, as the normalisation step
    of the solver leaves them."""
    reps = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=len(_NAMES), unique=True))
    system = {}
    for rep in reps:
        products = draw(st.lists(_products, max_size=3))
        if draw(st.booleans()):
            system[rep] = Clock(products=tuple(products))
        else:
            clock = Clock.null()
            for product in products:
                clock = clock.union(Clock.from_product(product))
            system[rep] = clock
    rep_count = draw(st.integers(min_value=0, max_value=len(_NAMES)))
    return system, rep_count


@settings(max_examples=400, deadline=None)
@given(_clock_systems())
def test_worklist_fallback_matches_pairwise_loop_on_random_systems(case):
    defined_clocks, rep_count = case
    assert_same_resolution(defined_clocks, rep_count)
