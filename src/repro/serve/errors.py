"""Typed error taxonomy of the serving layer.

Every failure the service can report — over HTTP or through the
transport-independent :class:`~repro.serve.service.SimulationService` core — is a
:class:`ServeError` carrying a stable machine-readable ``code``, the HTTP
status it maps to, and a human-readable message.  The codes are the wire
contract (documented in ``docs/API.md``):

======================== ====== ============================================================
code                     status meaning
======================== ====== ============================================================
``invalid-model``        422    the submitted AADL failed to parse, instantiate or validate
``unschedulable``        422    scheduler synthesis failed (resubmit with
                                ``include_scheduler: false`` to analyse anyway)
``invalid-program``      422    a scenario program or simulate request failed validation
``model-not-found``      404    no cached model under that fingerprint (evicted or never
                                submitted — resubmit the source)
``unknown-backend``      422    the requested simulation backend is not registered
``busy``                 503    the server-level concurrency limit rejected the request
                                (backpressure; retry later)
``stream-closed``        409    the simulation stream was already consumed or cancelled
``bad-request``          400    the HTTP request is malformed: no valid ``Content-Length``,
                                a body over the size cap, or a body that is not UTF-8 JSON
``not-found``            404    no route matches the request path
``method-not-allowed``   405    the path exists, but not for this HTTP method
======================== ====== ============================================================

Scenario-level failures inside an accepted simulation do **not** fail the
HTTP request: deterministic model errors
(:class:`~repro.sig.simulator.SimulationError`) and supervision faults
(:class:`~repro.sig.engine.supervisor.ScenarioFault`, kinds ``crash`` /
``timeout`` / ``budget`` / ``error``) are rendered per scenario by
:func:`simulation_error_payload` and :func:`fault_payload` inside a 200
response — partial results are the point of supervised execution.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = [
    "ERROR_STATUS",
    "ServeError",
    "error_payload",
    "fault_payload",
    "invalid_program",
    "require",
    "simulation_error_payload",
]

#: ``code -> HTTP status`` of every request-level error the service raises.
ERROR_STATUS: Dict[str, int] = {
    "invalid-model": 422,
    "unschedulable": 422,
    "invalid-program": 422,
    "model-not-found": 404,
    "unknown-backend": 422,
    "busy": 503,
    "stream-closed": 409,
    "bad-request": 400,
    "not-found": 404,
    "method-not-allowed": 405,
    "internal": 500,
}


class ServeError(Exception):
    """A request-level service failure with a stable code and HTTP status.

    The HTTP adapter maps it to a JSON error response via
    :func:`error_payload`; callers of the service core catch it directly
    and read :attr:`code` / :attr:`status`.
    """

    def __init__(self, code: str, message: str, **extra: Any) -> None:
        if code not in ERROR_STATUS:
            raise ValueError(f"unknown serve error code {code!r}")
        super().__init__(message)
        self.code = code
        self.status = ERROR_STATUS[code]
        self.message = message
        self.extra = extra

    def __repr__(self) -> str:
        """Debug form showing code, status and message."""
        return f"ServeError({self.code!r}, status={self.status}, {self.message!r})"


def error_payload(error: ServeError) -> Dict[str, Any]:
    """The JSON body of a :class:`ServeError` response."""
    body: Dict[str, Any] = {
        "error": {
            "code": error.code,
            "status": error.status,
            "message": error.message,
        }
    }
    if error.extra:
        body["error"].update(error.extra)
    return body


def fault_payload(fault: Any) -> Dict[str, Any]:
    """Render one :class:`~repro.sig.engine.supervisor.ScenarioFault` as JSON.

    The ``kind`` field carries the supervisor's failure taxonomy unchanged
    (``crash`` / ``timeout`` / ``budget`` / ``error``); the worker-side
    traceback travels only for ``error`` faults, exactly as the supervisor
    recorded it.
    """
    payload: Dict[str, Any] = {
        "scenario": fault.scenario,
        "kind": fault.kind,
        "attempts": fault.attempts,
        "message": fault.message,
    }
    if fault.worker is not None:
        payload["worker"] = fault.worker
    if fault.traceback:
        payload["traceback"] = fault.traceback
    return payload


def simulation_error_payload(index: int, error: Exception) -> Dict[str, Any]:
    """Render one deterministic model error (`SimulationError`) as JSON."""
    return {
        "scenario": index,
        "type": type(error).__name__,
        "message": str(error),
    }


def require(condition: bool, code: str, message: str, **extra: Any) -> None:
    """Raise a :class:`ServeError` unless *condition* holds (validation helper)."""
    if not condition:
        raise ServeError(code, message, **extra)


def invalid_program(message: str, **extra: Any) -> ServeError:
    """Shorthand for the ``invalid-program`` validation error."""
    return ServeError("invalid-program", message, **extra)

