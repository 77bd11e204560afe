"""Soft-dependency degradation: the serving layer without fastapi/uvicorn.

``repro.serve`` (fingerprinting, plan cache, service core, wire codecs)
must import and work on a bare install; only ``create_app`` / ``repro
serve`` require the HTTP stack, and when it is missing they must fail
with one clear actionable message (``SERVE_FALLBACK_MESSAGE``) instead of
a bare ImportError — mirroring the numpy/vectorized degradation
contract.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro import cli
from repro.serve import (
    SERVE_FALLBACK_MESSAGE,
    create_app,
    serve_available,
    uvicorn_available,
)

HAS_FASTAPI = serve_available()


def test_core_import_does_not_pull_in_http_stack():
    """Importing repro.serve must not import fastapi/pydantic/uvicorn."""
    code = (
        "import sys\n"
        "import repro.serve\n"
        "import repro.serve.service\n"
        "leaked = [m for m in ('fastapi', 'pydantic', 'uvicorn', 'starlette')\n"
        "          if m in sys.modules]\n"
        "assert not leaked, f'repro.serve leaked HTTP deps: {leaked}'\n"
        "print('clean')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "clean" in result.stdout


def test_availability_probes_are_booleans():
    assert isinstance(serve_available(), bool)
    assert isinstance(uvicorn_available(), bool)


def test_fallback_message_is_actionable():
    assert "pip install" in SERVE_FALLBACK_MESSAGE
    assert "serve" in SERVE_FALLBACK_MESSAGE


@pytest.mark.skipif(HAS_FASTAPI, reason="fastapi installed; degraded paths inert")
class TestWithoutFastapi:
    def test_create_app_raises_with_fallback_message(self):
        with pytest.raises(ImportError) as excinfo:
            create_app()
        assert SERVE_FALLBACK_MESSAGE in str(excinfo.value)

    def test_cli_serve_check_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["serve", "--check"])
        assert excinfo.value.code not in (0, None)
        message = str(excinfo.value.code) + capsys.readouterr().err
        assert "fastapi" in message or SERVE_FALLBACK_MESSAGE in message

    def test_cli_serve_refuses_to_start(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["serve", "--port", "0"])
        assert excinfo.value.code not in (0, None)


@pytest.mark.skipif(not HAS_FASTAPI, reason="fastapi not installed")
class TestWithFastapi:
    def test_create_app_builds(self):
        app = create_app()
        assert app.state.service is not None

    def test_cli_serve_check_reports_ok(self, capsys):
        cli.main(["serve", "--check"])
        out = capsys.readouterr().out
        assert "serve" in out.lower()


def test_service_core_works_without_http_stack():
    """The framework-free core carries the full serving contract."""
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
