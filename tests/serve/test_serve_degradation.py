"""The service core stands alone: no HTTP transport needed to use it.

``repro.serve`` (fingerprinting, plan cache, service core, wire codecs)
must import without the HTTP adapter — only ``repro serve`` and the HTTP
tests import :mod:`repro.serve.server` — and carry the full serving
contract when driven directly.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro


def test_core_import_does_not_pull_in_http_server():
    """Importing repro.serve must not import the adapter or http.server."""
    code = (
        "import sys\n"
        "import repro.serve\n"
        "import repro.serve.service\n"
        "leaked = [m for m in ('http.server', 'repro.serve.server') if m in sys.modules]\n"
        "assert not leaked, f'repro.serve imported the HTTP adapter: {leaked}'\n"
        "print('clean')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "clean" in result.stdout


def test_service_core_works_without_http_stack():
    """The transport-independent core carries the full serving contract."""
    from repro.casestudies.catalog import load_case_study
    from repro.aadl.printer import render_model
    from repro.serve.service import SimulationService

    case = load_case_study("producer_consumer")
    service = SimulationService()
    submitted = service.submit(
        {
            "source": render_model(case.load_model()),
            "root": case.root_implementation,
            "package": case.default_package,
        }
    )
    response = service.simulate(
        submitted["fingerprint"],
        {"scenarios": [{"default": True}], "hyperperiods": 1},
    )
    assert response["ok"] is True
    assert response["results"][0]["trace"]["length"] > 0
