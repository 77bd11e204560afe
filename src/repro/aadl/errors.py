"""Diagnostics for the AADL front-end.

All front-end failures carry a :class:`SourceLocation` so that error messages
point back to the textual model, the way the OSATE editor does.  Non-fatal
findings (warnings produced by the legality checks) are collected in a
:class:`DiagnosticCollector` instead of being raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class SourceLocation:
    """Position of a construct in an AADL source text."""

    line: int
    column: int
    filename: str = "<aadl>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class AadlError(Exception):
    """Base class of all AADL front-end errors."""

    def __init__(self, message: str, location: Optional[SourceLocation] = None) -> None:
        self.location = location
        self.message = message
        super().__init__(f"{location}: {message}" if location else message)


class AadlSyntaxError(AadlError):
    """Lexical or syntactic error in the textual model."""


class AadlSemanticError(AadlError):
    """Name-resolution, typing or legality error in the declarative model."""


class AadlInstantiationError(AadlError):
    """Error raised while building the instance model."""


@dataclass
class Diagnostic:
    """A single warning or error finding."""

    severity: str  # "error" | "warning" | "info"
    message: str
    location: Optional[SourceLocation] = None
    subject: Optional[str] = None  # qualified name of the model element

    def __str__(self) -> str:
        prefix = f"[{self.severity}]"
        where = f" ({self.location})" if self.location else ""
        about = f" {self.subject}:" if self.subject else ""
        return f"{prefix}{about} {self.message}{where}"


@dataclass
class DiagnosticCollector:
    """Accumulates findings of the validation passes."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def error(self, message: str, subject: Optional[str] = None, location: Optional[SourceLocation] = None) -> None:
        self.diagnostics.append(Diagnostic("error", message, location, subject))

    def warning(self, message: str, subject: Optional[str] = None, location: Optional[SourceLocation] = None) -> None:
        self.diagnostics.append(Diagnostic("warning", message, location, subject))

    def info(self, message: str, subject: Optional[str] = None, location: Optional[SourceLocation] = None) -> None:
        self.diagnostics.append(Diagnostic("info", message, location, subject))

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    def extend(self, other: "DiagnosticCollector") -> None:
        self.diagnostics.extend(other.diagnostics)

    def summary(self) -> str:
        if not self.diagnostics:
            return "no findings"
        return "\n".join(str(d) for d in self.diagnostics)


class AadlValidationError(AadlError, ValueError):
    """Strict validation found at least one error diagnostic.

    The message names the first error and the error count on one line;
    :attr:`diagnostics` keeps every finding.
    """

    def __init__(self, diagnostics: DiagnosticCollector) -> None:
        self.diagnostics = diagnostics
        errors = diagnostics.errors
        super().__init__(
            f"AADL validation failed with {len(errors)} error(s), first: {errors[0]}"
        )
