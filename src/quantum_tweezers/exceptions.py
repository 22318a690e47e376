"""Exception hierarchy.  The CLI exits 2 on a ConfigError or an
InfeasibleScheduleError and 3 on an IntegrationError."""


class TweezersError(Exception):
    """A failure of one point: a sweep records it as a NaN point."""


class InfeasibleScheduleError(TweezersError, ValueError):
    """A pulse schedule cannot be built from its values; raised by the range
    check that finds it.  The CLI reports it as a config error."""


class IntegrationError(TweezersError, RuntimeError):
    """Time propagation failed (non-finite state or norm drift)."""


class ConfigError(ValueError):
    """Configuration file is malformed or inconsistent; a fault of the whole
    run, so it stops a sweep or optimize run too."""
