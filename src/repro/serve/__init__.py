"""Simulation-as-a-service: the long-lived HTTP serving layer.

This package turns the toolchain into a resident server so compilation is
amortised across all traffic instead of paid per CLI invocation:

* :mod:`repro.serve.cache` — the fingerprint-keyed LRU plan cache with
  single-flight compilation;
* :mod:`repro.serve.programs` — the JSON wire codec of symbolic scenario
  programs and simulation results;
* :mod:`repro.serve.service` — the transport-independent service core
  (submit / simulate / stream / backpressure);
* :mod:`repro.serve.errors` — the typed error taxonomy and its HTTP
  status mapping;
* :mod:`repro.serve.server` — the HTTP adapter, one
  :class:`http.server.ThreadingHTTPServer` over the service core.

Everything is standard library.  ``import repro.serve`` leaves the
adapter out (only ``repro serve`` and its tests import
:mod:`repro.serve.server`), so library callers drive the service core
directly::

    repro serve --port 8000
"""

from __future__ import annotations

from .cache import PlanCache, canonical_source, model_fingerprint
from .errors import ERROR_STATUS, ServeError, error_payload
from .programs import SimulateRequest, scenario_from_payload, scenario_to_payload
from .service import CachedModel, ServiceConfig, SimulationService, SimulationStream

__all__ = [
    "ERROR_STATUS",
    "CachedModel",
    "PlanCache",
    "ServeError",
    "ServiceConfig",
    "SimulateRequest",
    "SimulationService",
    "SimulationStream",
    "canonical_source",
    "error_payload",
    "model_fingerprint",
    "scenario_from_payload",
    "scenario_to_payload",
]
