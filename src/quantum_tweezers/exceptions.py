"""Exception hierarchy."""


class TweezersError(Exception):
    """Base class for package-specific failures."""


class InfeasibleScheduleError(TweezersError, ValueError):
    """A pulse schedule cannot satisfy its resonance-crossing constraints."""


class IntegrationError(TweezersError, RuntimeError):
    """Time propagation failed (non-finite state or norm drift)."""


class ConfigError(ValueError):
    """Configuration file is malformed or inconsistent."""
