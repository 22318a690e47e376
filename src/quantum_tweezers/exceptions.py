"""Exception hierarchy, and how the checks that raise them read a number
(_float) or an integer (_integer) and show a value (_shown).  The CLI exits
2 on a ConfigError or an InfeasibleScheduleError and 3 on an
IntegrationError."""

import math
from numbers import Real


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


def _float(raw) -> float:
    """A real number as a float: NaN for a bool or a value that is not a real
    number, and an infinity for an int too large for a float."""
    try:
        return float(raw) if isinstance(raw, Real) and not isinstance(raw, bool) else math.nan
    except OverflowError:
        return math.inf if raw > 0 else -math.inf


def _integer(raw) -> bool:
    """Whether raw is an integer as operator.index takes it, and not a bool."""
    return hasattr(raw, "__index__") and not isinstance(raw, bool)


def _shown(value) -> str:
    """repr(value), but an int past Python's int-to-string limit, alone or in
    a list or an object, as its digit count, counted without that string."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, dict):
            return "{" + ", ".join(f"{_shown(k)}: {_shown(v)}" for k, v in value.items()) + "}"
        if not isinstance(value, int):
            return "[" + ", ".join(map(_shown, value)) + "]"
        digits = int(abs(value).bit_length() * math.log10(2)) + 1  # exact, or one over
        return f"a {digits - (abs(value) < 10 ** (digits - 1))}-digit integer"
