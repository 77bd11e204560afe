"""Property-based fuzzing of the vectorized backend (skips without hypothesis).

Hypothesis generates random environment scenarios *and* random block sizes
and drives them through the vectorized backend against the reference
interpreter on a translated catalog model.  The property: traces (values and
Python value types), warnings and failures are identical whatever the block
partitioning — including the blocks that fall back to the pure sweep.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.casestudies import load_case_study
from repro.core import TranslationConfig, translate_system
from repro.sig.engine import ReferenceBackend, VectorizedBackend
from repro.sig.simulator import Scenario

_LENGTH = 16


def _system_model():
    entry = load_case_study("cruise_control")
    result = translate_system(entry.instantiate(), TranslationConfig(include_scheduler=True))
    return result.system_model


@pytest.fixture(scope="module")
def system_model():
    return _system_model()


@pytest.fixture(scope="module")
def input_names(system_model):
    ticks = [d.name for d in system_model.inputs() if d.name == "tick" or d.name.endswith("_tick")]
    stimuli = [d.name for d in system_model.inputs() if d.name not in ticks]
    return ticks, stimuli


@st.composite
def _scenarios(draw, ticks, stimuli):
    scenario = Scenario(_LENGTH)
    for tick in ticks:
        if draw(st.booleans()):
            scenario.set_always(tick)
    for name in stimuli[: draw(st.integers(min_value=0, max_value=len(stimuli)))]:
        kind = draw(st.sampled_from(["periodic", "explicit", "silent"]))
        if kind == "periodic":
            period = draw(st.integers(min_value=1, max_value=8))
            scenario.set_periodic(name, period, phase=draw(st.integers(min_value=0, max_value=period - 1)))
        elif kind == "explicit":
            instants = draw(
                st.lists(st.integers(min_value=0, max_value=_LENGTH - 1), max_size=6, unique=True)
            )
            scenario.set_at(name, {instant: True for instant in instants})
    return scenario


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data(), block_size=st.integers(min_value=1, max_value=24))
def test_vectorized_matches_reference_on_random_scenarios(
    system_model, input_names, data, block_size
):
    ticks, stimuli = input_names
    scenario = data.draw(_scenarios(ticks, stimuli))

    reference = ReferenceBackend(system_model, strict=False)
    vectorized = VectorizedBackend(system_model, strict=False, block_size=block_size)

    outcomes = []
    for runner in (reference, vectorized):
        try:
            trace = runner.run(scenario)
        except Exception as error:  # noqa: BLE001 - compared across backends
            outcomes.append((type(error).__name__, str(error)))
        else:
            outcomes.append(
                (
                    {name: flow.values for name, flow in trace.flows.items()},
                    [
                        (name, [type(v).__name__ for v in flow.values])
                        for name, flow in sorted(trace.flows.items())
                    ],
                    trace.warnings,
                )
            )
    assert outcomes[0] == outcomes[1]
