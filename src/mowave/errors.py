"""Exception types shared across the package."""

from __future__ import annotations


class MowaveError(Exception):
    """Base class for all package errors."""


class ConfigError(MowaveError):
    """Malformed or inconsistent problem configuration."""


class ValidationError(MowaveError):
    """A problem spec failed the admissibility checks.

    Carries the full report so callers can print per-check diagnostics.
    """

    def __init__(self, report):
        self.report = report
        failed = ", ".join(c.name for c in report.failures)
        super().__init__(f"assumption checks failed: {failed}")


class BlowUpError(MowaveError):
    """The discrete solution left the finite range: a numerical instability,
    since the exact solution stays finite; message says why.

    Attributes:
        time: simulation time at which a non-finite value was first seen.
    """

    def __init__(self, time: float, message: str):
        self.time = float(time)
        super().__init__(message)


class ResourceLimitError(MowaveError):
    """A run would exceed the memory cap, solver.MEMORY_CAP_BYTES."""


class UnsupportedConfigError(MowaveError):
    """The request is outside what the certificate machinery covers."""
