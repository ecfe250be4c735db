"""Exception types shared across the package."""


class EdgeScaleError(Exception):
    """Base class for all edgescale errors."""


class InvalidParameter(EdgeScaleError):
    """A parameter is outside its valid domain: a CPU fraction outside (0, 1],
    too few oracle requests, or more than `validate` may serve."""


class CapExceeded(EdgeScaleError):
    """Container search passed the configured hard cap; input is pathological."""


class InfeasibleDeadline(EdgeScaleError):
    """The deadline is not achievable by any container count (service tail alone exceeds it)."""


class ParseError(EdgeScaleError):
    """A data file is malformed or breaks its schema; the message names the line when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")


class NoCapacity(EdgeScaleError):
    """No cluster node can fit the requested container size."""


class ConfigError(EdgeScaleError):
    """Scenario configuration is invalid; message names the offending file/field."""

