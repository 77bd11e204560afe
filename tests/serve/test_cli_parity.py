"""CLI parity: ``repro simulate --stats --deltas all --no-trace`` answers
what the service answers for the same request.

The command line and ``POST /models/{fp}/simulate`` take their result
sinks from one :class:`~repro.sig.sinks.SinkSelection`, so the CLI's
statistics and change log of the paper's producer/consumer model, encoded
with the service's own encoders, must equal the served ``stats`` and
``deltas`` payloads of the matching body: the default scenario over two
hyper-periods, non-strict, no trace.
"""

from __future__ import annotations

import pytest

from repro.casestudies.catalog import load_case_study
from repro.cli import _sink_selection, _toolchain, build_parser
from repro.serve.programs import delta_log_to_payload, statistics_to_payload
from repro.serve.service import SimulationService

CASE = "producer_consumer"


@pytest.fixture(scope="module")
def served():
    from repro.aadl.printer import render_model

    case = load_case_study(CASE)
    service = SimulationService()
    fingerprint = service.submit(
        {
            "source": render_model(case.load_model()),
            "root": case.root_implementation,
            "package": case.default_package,
        }
    )["fingerprint"]
    response = service.simulate(
        fingerprint,
        {
            "scenarios": [{"default": True}],
            "hyperperiods": 2,
            "strict": False,
            "sinks": ["stats", "deltas"],
            "include_trace": False,
        },
    )
    assert response["ok"]
    (result,) = response["results"]
    return result


@pytest.fixture(scope="module")
def cli():
    args = build_parser().parse_args(
        ["simulate", CASE, "--stats", "--deltas", "all", "--no-trace", "--no-cache"]
    )
    selection = _sink_selection(args)
    sinks = selection(0)
    result = _toolchain(args, sinks=sinks, materialize_trace=False)
    assert result.trace is None and result.scenario_length
    return selection.named([sink.result() for sink in sinks])


class TestCliParity:
    def test_same_sinks(self, cli, served):
        assert set(cli) == {"stats", "deltas"}
        assert set(served) == {"index", "stats", "deltas"}

    def test_statistics(self, cli, served):
        assert statistics_to_payload(cli["stats"]) == served["stats"]

    def test_change_log_watches_every_signal(self, cli, served):
        assert delta_log_to_payload(cli["deltas"]) == served["deltas"]
        assert len(served["deltas"]["watched"]) > 1
