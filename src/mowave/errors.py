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
    """The discrete solution left the finite range.

    Attributes:
        time: simulation time at which a non-finite value was first seen.
    """

    def __init__(self, time: float):
        self.time = float(time)
        super().__init__(f"solution blew up (non-finite values) at t={self.time:.6g}")


class ResourceLimitError(MowaveError):
    """A run would exceed a hard memory or snapshot budget."""


class UnsupportedConfigError(MowaveError):
    """The request is outside what the certificate machinery covers."""


class DegenerateDataError(MowaveError):
    """A fit was requested on data with no usable content."""
