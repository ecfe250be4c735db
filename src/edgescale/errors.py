"""Exception types shared across the package."""


class EdgeScaleError(Exception):
    """Base class for all edgescale errors."""


class InvalidParameter(EdgeScaleError):
    """A model parameter is outside its valid domain (nonpositive rate, c < 1, ...)."""


class UnstableSystem(EdgeScaleError):
    """Arrival rate meets or exceeds the pool's total drain rate; no steady state exists."""


class CapExceeded(EdgeScaleError):
    """Container search passed the configured hard cap; input is pathological."""


class InfeasibleDeadline(EdgeScaleError):
    """The deadline is not achievable by any container count (service tail alone exceeds it)."""


class InvalidSchedule(EdgeScaleError):
    """Workload schedule is empty or malformed."""


class ParseError(EdgeScaleError):
    """A data file is syntactically malformed. Carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(EdgeScaleError):
    """A data file parsed but violates its schema (negative counts, duplicate keys, ...)."""


class NoCapacity(EdgeScaleError):
    """No cluster node can fit the requested container size."""


class ConfigError(EdgeScaleError):
    """Scenario configuration is invalid; message names the offending file/field."""


class InvalidFraction(EdgeScaleError):
    """CPU fraction outside (0, 1]."""
