"""Time-dependent pulse envelopes and (detuning, drive) schedule assembly.

Width convention: the Gaussian envelope is peak * exp(-(t - c)^2 / T^2)
with width T and no factor 2 in the exponent.  Getting this wrong silently
rescales every width by sqrt(2), so it is pinned here and tested.

Schedules are evaluated only on their finite window [t_start, t_end]; the
builders place the window several pulse widths beyond the outermost
feature so the truncated tails contribute less than ~1e-8 of a pulse area.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .constants import HBAR
from .exceptions import ConfigError, InfeasibleScheduleError
from .levels import LevelModel, resonance_detunings

__all__ = [
    "Envelope",
    "Constant",
    "LinearRamp",
    "Gaussian",
    "TanhPlateau",
    "OffsetSum",
    "PulseSchedule",
    "build_scrap_schedule",
    "build_two_atom_scrap_schedule",
    "build_pi_pulse",
    "envelope_to_dict",
    "envelope_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
]


class Envelope:
    """Base class: a pointwise-evaluable function of time, defined for all t."""

    def __call__(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Envelope):
    value: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.full(t.shape, self.value) if t.ndim else float(self.value)


@dataclass(frozen=True)
class LinearRamp(Envelope):
    """start + rate * (t - t_ref)."""

    start: float
    rate: float
    t_ref: float = 0.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.start + self.rate * (t - self.t_ref)
        return out if out.ndim else float(out)


# Below this Gaussian width (s), ((t - center)/width)**2 can overflow to inf
# close to the centre; exp(-inf) is then the exact 0, so that overflow is
# silenced.  At or above it the square stays finite for |t - center| < 1.3e4
# s, and the call skips np.errstate: entered on every call, it made the
# chirp workloads' envelope time about 40% longer.
_TINY_WIDTH = 1e-150


@dataclass(frozen=True)
class Gaussian(Envelope):
    """peak * exp(-(t - center)^2 / width^2)."""

    peak: float
    center: float
    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise InfeasibleScheduleError("gaussian width must be strictly positive")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.width < _TINY_WIDTH:
            with np.errstate(over="ignore"):
                out = self._value(t)
        else:
            out = self._value(t)
        return out if out.ndim else float(out)

    def _value(self, t):
        return self.peak * np.exp(-((t - self.center) / self.width) ** 2)


@dataclass(frozen=True)
class TanhPlateau(Envelope):
    """Smooth switch-on / plateau / switch-off pulse.

    (peak/2) * [tanh((t - t_on + 2 t_r) / t_r) - tanh((t - t_on - w - 2 t_r) / t_r)]

    with t_on = start_time, w = plateau_width, t_r = ramp_time.  The value
    is within e^-4 of peak across [start_time, start_time + plateau_width]
    once the plateau is a few ramp times wide.
    """

    peak: float
    start_time: float
    plateau_width: float
    ramp_time: float

    def __post_init__(self):
        if not self.ramp_time > 0:
            raise InfeasibleScheduleError("ramp_time must be strictly positive")
        if not self.plateau_width > 0:
            raise InfeasibleScheduleError("plateau_width must be strictly positive")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        tr = self.ramp_time
        rising = np.tanh((t - self.start_time + 2.0 * tr) / tr)
        falling = np.tanh((t - self.start_time - self.plateau_width - 2.0 * tr) / tr)
        out = 0.5 * self.peak * (rising - falling)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class OffsetSum(Envelope):
    """offset + inner(t); used for detuning pulses riding on a baseline."""

    offset: float
    inner: Envelope

    def __call__(self, t):
        return self.offset + self.inner(t)


@dataclass(frozen=True)
class PulseSchedule:
    """A (detuning(t), Omega_L(t)) pair on a finite window, both in rad/s."""

    detuning: Envelope
    rabi: Envelope
    t_start: float
    t_end: float

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise InfeasibleScheduleError("schedule window must satisfy t_start < t_end")

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


def build_scrap_schedule(omega_hat: float, t_omega: float, delta_hat: float,
                         t_delta: float, tau: float, delta_tau: float,
                         e1: float, hbar: float = HBAR) -> PulseSchedule:
    """Stark-chirp schedule: Gaussian detuning pulse plus Gaussian pump.

    The detuning pulse delta_offset + delta_hat * exp(-(t - tau)^2/T_d^2)
    is centred at t = tau, and delta_offset is solved so that it crosses
    the one-atom resonance E1/hbar at t1 = 0 and t2 = 2 tau.  The pump
    Gaussian is centred at t1 - delta_tau: delta_tau = 0 puts the pump peak
    on the first crossing (adiabatic first, diabatic second), and
    delta_tau = -2 tau moves it onto the second crossing, exchanging the
    passage order.
    """
    if not (t_omega > 0 and t_delta > 0 and tau > 0):
        raise InfeasibleScheduleError("t_omega, t_delta and tau must be strictly positive")
    if delta_hat == 0:
        raise InfeasibleScheduleError("delta_hat must be non-zero")
    delta_offset = e1 / hbar - delta_hat * math.exp(-(tau / t_delta) ** 2)
    t1, t2 = 0.0, 2.0 * tau
    pump_center = t1 - delta_tau
    pump = Gaussian(peak=omega_hat, center=pump_center, width=t_omega)
    detuning = OffsetSum(offset=delta_offset,
                         inner=Gaussian(peak=delta_hat, center=tau, width=t_delta))
    t_lo = min(pump_center - 4.0 * t_omega, t1 - t_delta)
    t_hi = max(pump_center + 4.0 * t_omega, t2 + t_delta)
    return PulseSchedule(detuning=detuning, rabi=pump, t_start=t_lo, t_end=t_hi)


def build_two_atom_scrap_schedule(omega_hat: float, t_omega: float,
                                  delta_hat: float, t_delta: float,
                                  baseline_depth: float, e1: float, e12: float,
                                  ramp_time: float,
                                  hbar: float = HBAR) -> PulseSchedule:
    """Sequential two-atom Stark-chirp schedule.

    One Gaussian detuning pulse sweeps up through both resonances (first
    E1/hbar for 0->1 at t = 0, then (E2-E1)/hbar for 1->2) while a
    flat-top tanh pump, with tanh edges of ramp_time, stays on across both
    crossings and switches off before the detuning comes back down through
    them.  The pump switches on 0.5 t_omega before the 0->1 crossing and
    its plateau ends 0.3 t_omega after the rising 1->2 crossing.
    baseline_depth is how far below the 0->1 resonance the detuning sits
    between pulses.
    """
    if not (t_omega > 0 and t_delta > 0 and baseline_depth > 0):
        raise InfeasibleScheduleError("t_omega, t_delta and baseline_depth must be positive")
    d01 = e1 / hbar
    d12 = e12 / hbar
    gap = d12 - d01
    if gap <= 0:
        raise InfeasibleScheduleError(
            "level ladder is not anharmonic: d12 <= d01, sequential transfer "
            "cannot be resolved")
    if delta_hat <= baseline_depth + gap:
        raise InfeasibleScheduleError(
            f"detuning pulse maximum {delta_hat:.3g} rad/s never reaches the "
            f"1->2 resonance (needs > {baseline_depth + gap:.3g} rad/s)")
    lead = 0.5 * t_omega
    lag = 0.3 * t_omega
    delta_offset = d01 - baseline_depth
    # centre the detuning pulse so the rising 0->1 crossing sits at t = 0
    center = t_delta * math.sqrt(math.log(delta_hat / baseline_depth))
    t_cross_12 = center - t_delta * math.sqrt(
        math.log(delta_hat / (baseline_depth + gap)))
    pump = TanhPlateau(peak=omega_hat, start_time=-lead,
                       plateau_width=t_cross_12 + lag + lead,
                       ramp_time=ramp_time)
    detuning = OffsetSum(offset=delta_offset,
                         inner=Gaussian(peak=delta_hat, center=center,
                                        width=t_delta))
    t_lo = -lead - 4.0 * ramp_time - 2.0 * t_omega
    t_hi = 2.0 * center + 2.0 * t_omega
    return PulseSchedule(detuning=detuning, rabi=pump, t_start=t_lo, t_end=t_hi)


def build_pi_pulse(model: LevelModel, transition: tuple[int, int] | str,
                   t_omega: float) -> PulseSchedule:
    """Resonant Gaussian pulse with effective area pi on one transition.

    The transition is a (lower, upper) pair or its "0-1" / "1-2" spelling.
    The drive peak is solved so that the collective coupling integrates to
    pi: Omega_hat = sqrt(pi) / (kappa sqrt(n+1) T), with the detuning held
    at the transition's resonance (d01 for 0->1, d12 for 1->2).
    """
    if not t_omega > 0:
        raise InfeasibleScheduleError("t_omega must be strictly positive")
    if isinstance(transition, str):
        parts = transition.split("-")
        transition = (int(parts[0]), int(parts[1]))
    lower, upper = transition
    if upper != lower + 1 or not 0 <= lower < model.n_max:
        raise InfeasibleScheduleError(f"unsupported transition {transition}")
    res = resonance_detunings(model)
    detuning = res.d01 if lower == 0 else res.d12
    peak = math.sqrt(math.pi) / (model.rabi_units[lower] * t_omega)
    return PulseSchedule(
        detuning=Constant(detuning),
        rabi=Gaussian(peak=peak, center=0.0, width=t_omega),
        t_start=-5.0 * t_omega,
        t_end=5.0 * t_omega,
    )


# --- JSON (de)serialization -------------------------------------------------

# JSON tag of each envelope class; its fields follow in dataclass order
_ENVELOPE_TAGS = {Constant: "constant", LinearRamp: "linear_ramp",
                  Gaussian: "gaussian", TanhPlateau: "tanh_plateau",
                  OffsetSum: "offset_sum"}
_ENVELOPE_CLASSES = {tag: cls for cls, tag in _ENVELOPE_TAGS.items()}


def envelope_to_dict(env: Envelope) -> dict:
    tag = _ENVELOPE_TAGS.get(type(env))
    if tag is None:
        raise TypeError(f"unknown envelope type {type(env).__name__}")
    out = {"type": tag}
    for f in fields(env):
        value = getattr(env, f.name)
        out[f.name] = envelope_to_dict(value) if isinstance(value, Envelope) else value
    return out


def _require(data: dict, key: str, owner: str):
    if key not in data:
        raise ConfigError(f"{owner} requires the key {key!r}")
    return data[key]


def _finite(raw, name: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, not {value!r}")
    return value


def envelope_from_dict(data: dict) -> Envelope:
    """Inverse of envelope_to_dict.

    ConfigError names a field that is missing, not finite, or out of range
    (such as a Gaussian width that is not positive).
    """
    cls = _ENVELOPE_CLASSES.get(data.get("type"))
    if cls is None:
        raise ConfigError(f"unknown envelope type {data.get('type')!r}")
    owner = f"a {data['type']!r} envelope"

    def value(f):
        raw = (_require(data, f.name, owner)
               if f.default is MISSING else data.get(f.name, f.default))
        return (envelope_from_dict(raw) if isinstance(raw, dict)
                else _finite(raw, f"{owner}'s {f.name!r}"))

    args = [value(f) for f in fields(cls)]
    try:
        return cls(*args)
    except InfeasibleScheduleError as exc:
        raise ConfigError(f"{owner}: {exc}") from exc


def schedule_to_dict(schedule: PulseSchedule) -> dict:
    return {
        "detuning": envelope_to_dict(schedule.detuning),
        "rabi": envelope_to_dict(schedule.rabi),
        "window": [schedule.t_start, schedule.t_end],
    }


def schedule_from_dict(data: dict) -> PulseSchedule:
    """Inverse of schedule_to_dict.

    ConfigError names a missing key, a field that is not finite or out of
    range, or a window whose start is not before its end.
    """
    window = _require(data, "window", "a schedule")
    detuning = envelope_from_dict(_require(data, "detuning", "a schedule"))
    rabi = envelope_from_dict(_require(data, "rabi", "a schedule"))
    t_start = _finite(window[0], "a schedule's 'window'")
    t_end = _finite(window[1], "a schedule's 'window'")
    try:
        return PulseSchedule(detuning=detuning, rabi=rabi, t_start=t_start, t_end=t_end)
    except InfeasibleScheduleError as exc:
        raise ConfigError(f"a schedule's 'window' {[t_start, t_end]}: {exc}") from exc
