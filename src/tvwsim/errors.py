"""Exception hierarchy shared across the simulator modules."""


class TvwsimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TvwsimError):
    """Invalid configuration value, unknown key, or unresolvable file reference."""


class ParseError(TvwsimError):
    """Malformed input file. Carries the offending line number when known."""

    def __init__(self, message, line=None, path=None):
        self.line = line
        self.path = path
        loc = ""
        if path is not None:
            loc += f"{path}"
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)


class AlignmentError(ConfigError):
    """Channel grid boundaries do not align with the channel width."""


class ResolutionError(TvwsimError):
    """Resolution bandwidth too coarse to separate the narrowband carriers."""


class CoverageError(TvwsimError):
    """A spectrum or matrix does not cover the requested frequency range."""


class CalibrationError(TvwsimError):
    """Detector threshold calibration failed or was never performed."""


class StaleSensingError(TvwsimError):
    """A spectrum decision was requested without fresh reports for a grey channel."""


class DegenerateContourError(TvwsimError):
    """Protected contour collapses below the propagation reference distance."""


class SweepRangeError(TvwsimError):
    """An ACIR sweep or map does not span the requested crossing."""


class StartupError(TvwsimError):
    """Simulation cannot start from the configured initial state."""
