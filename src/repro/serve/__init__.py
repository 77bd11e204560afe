"""Simulation-as-a-service: the long-lived HTTP serving layer.

This package turns the toolchain into a resident server so compilation is
amortised across all traffic instead of paid per CLI invocation:

* :mod:`repro.serve.cache` — the fingerprint-keyed LRU plan cache with
  single-flight compilation;
* :mod:`repro.serve.programs` — the JSON wire codec of symbolic scenario
  programs and simulation results;
* :mod:`repro.serve.service` — the framework-independent service core
  (submit / simulate / stream / backpressure);
* :mod:`repro.serve.errors` — the typed error taxonomy and its HTTP
  status mapping;
* :mod:`repro.serve.app` — the thin FastAPI adapter (only importable when
  fastapi is installed).

FastAPI and uvicorn are **soft dependencies** following the numpy
pattern: importing ``repro.serve`` (and everything above except ``app``)
never imports them, :func:`serve_available` reports whether the HTTP
layer can run, and :func:`create_app` raises a clean ImportError naming
the install command otherwise.  The whole service core — conformance,
fuzz, fault and benchmark suites included — runs without them; only the
HTTP transport needs the extra::

    pip install "repro-aadl-polychrony[serve]"
    repro serve --port 8000
"""

from __future__ import annotations

from typing import Any

from .cache import PlanCache, canonical_source, model_fingerprint
from .errors import ERROR_STATUS, ServeError, error_payload
from .programs import SimulateRequest, scenario_from_payload, scenario_to_payload
from .service import CachedModel, ServiceConfig, SimulationService, SimulationStream

__all__ = [
    "ERROR_STATUS",
    "CachedModel",
    "PlanCache",
    "SERVE_FALLBACK_MESSAGE",
    "ServeError",
    "ServiceConfig",
    "SimulateRequest",
    "SimulationService",
    "SimulationStream",
    "canonical_source",
    "create_app",
    "error_payload",
    "model_fingerprint",
    "scenario_from_payload",
    "scenario_to_payload",
    "serve_available",
    "uvicorn_available",
]

#: One-line explanation used by the CLI and ImportErrors when the HTTP
#: layer is requested without its soft dependencies installed.
SERVE_FALLBACK_MESSAGE = (
    "the HTTP serving layer needs fastapi (and uvicorn to run a server); "
    'install the serve extra: pip install "repro-aadl-polychrony[serve]"'
)


def serve_available() -> bool:
    """``True`` when fastapi is importable (the HTTP layer can be built)."""
    try:
        import fastapi  # noqa: F401
    except ImportError:
        return False
    return True


def uvicorn_available() -> bool:
    """``True`` when uvicorn is importable (``repro serve`` can run)."""
    try:
        import uvicorn  # noqa: F401
    except ImportError:
        return False
    return True


def create_app(config: Any = None) -> Any:
    """Build the FastAPI application over a fresh service core.

    Lazy by design: :mod:`repro.serve.app` (and hence fastapi) is imported
    only here, so ``import repro.serve`` works on installations without
    the serve extra.  Raises ImportError with an actionable message when
    fastapi is missing.
    """
    if not serve_available():
        raise ImportError(SERVE_FALLBACK_MESSAGE)
    from .app import build_app

    return build_app(config)
