"""Closed-form companions to the simulation.

Dressed two-level states, the asymptotic avoided-crossing transfer
formula, and every analytic validity bound on ramp rates, pulse widths and
drive strengths.  All "much greater / much less than" conditions are
reported as numeric margins (ratio of the dominant to the subdominant
side, so bigger is better) together with flags at documented thresholds:
strong pass at >= 10, weak pass at >= 3, fail below 3.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace

from .constants import HBAR
from .exceptions import ConfigError, InfeasibleScheduleError
from .levels import LevelModel, rabi_coupling

__all__ = [
    "DressedPair",
    "AdiabaticityReport",
    "ScrapPulseParams",
    "dressed",
    "lz_probability",
    "adiabaticity_parameter",
    "sequential_lz",
    "ramp_rate_bound",
    "min_transfer_time",
    "scrap_crossing_slope",
    "scrap_adiabatic_condition",
    "scrap_pump_width_bound",
    "validity_check",
]

STRONG_MARGIN = 10.0
WEAK_MARGIN = 3.0
# the transfer probability validity_check's ramp-rate and time limits reach
THRESHOLD_PROBABILITY = 0.99


@dataclass(frozen=True)
class DressedPair:
    """Eigenpair of the two-level reduction at one instant.

    epsilon_plus/minus are the dressed energies (J), theta the mixing
    angle fixed to [0, pi/2] (continuous across the crossing), and delta
    the energy splitting (J), minimal and equal to hbar |Omega01| on
    resonance.
    """

    epsilon_plus: float
    epsilon_minus: float
    theta: float
    delta: float


def dressed(model: LevelModel, detuning: float, omega_l: float) -> DressedPair:
    """Dressed energies and mixing angle of the {|0>, |1>} pair.

    With Delta1 = detuning - E1/hbar and coupling Omega01,

        eps_pm = hbar Delta1 / 2 +- (hbar/2) sqrt(Delta1^2 + Omega01^2)
        tan(2 theta) = Omega01 / Delta1,   theta in [0, pi/2].
    """
    hbar = model.hbar
    delta1 = detuning - model.derived.e1 / hbar
    omega01 = rabi_coupling(model, 0, omega_l)
    root = math.hypot(delta1, omega01)
    eps_plus = 0.5 * hbar * delta1 + 0.5 * hbar * root
    eps_minus = 0.5 * hbar * delta1 - 0.5 * hbar * root
    theta = 0.5 * math.atan2(abs(omega01), delta1)
    return DressedPair(
        epsilon_plus=eps_plus,
        epsilon_minus=eps_minus,
        theta=theta,
        delta=hbar * root,
    )


def adiabaticity_parameter(splitting: float, ramp_rate: float,
                           hbar: float = HBAR) -> float:
    """alpha = pi delta^2 / (2 hbar^2 |rate|) for splitting delta (J).

    A non-zero rate whose denominator underflows to 0, or a splitting whose
    square overflows, raises InfeasibleScheduleError.
    """
    if ramp_rate == 0:
        return math.inf
    denominator = 2.0 * hbar**2 * abs(ramp_rate)
    if denominator == 0:
        raise InfeasibleScheduleError(
            f"ramp rate {ramp_rate!r} rad/s^2 underflows the adiabaticity parameter")
    try:
        splitting_squared = splitting**2
    except OverflowError:
        raise InfeasibleScheduleError(
            f"splitting {splitting!r} J overflows the adiabaticity parameter") from None
    return math.pi * splitting_squared / denominator


def lz_probability(splitting: float, ramp_rate: float,
                   hbar: float = HBAR) -> float:
    """Asymptotic transfer probability 1 - exp(-alpha) through one crossing.

    splitting is the minimum energy gap (J) and ramp_rate the detuning
    sweep rate (rad/s^2) at the crossing.  A zero rate is the fully
    adiabatic limit; 1 is returned with a warning.
    """
    if ramp_rate == 0:
        warnings.warn("zero ramp rate: returning the adiabatic limit P = 1",
                      stacklevel=2)
        return 1.0
    return 1.0 - math.exp(-adiabaticity_parameter(splitting, ramp_rate, hbar))


def sequential_lz(model: LevelModel, omega_l: float, ramp_rate: float) -> float:
    """Two-atom sequential-sweep prediction P_{0->2} = P01 * P12.

    The splittings are hbar |Omega01| and hbar |Omega12| = sqrt(2) times
    larger, so the second crossing is automatically more adiabatic.
    """
    hbar = model.hbar
    d1 = hbar * abs(rabi_coupling(model, 0, omega_l))
    d2 = hbar * abs(rabi_coupling(model, 1, omega_l))
    return lz_probability(d1, ramp_rate, hbar) * lz_probability(d2, ramp_rate, hbar)


def ramp_rate_bound(splitting: float, p0: float, hbar: float = HBAR) -> float:
    """Largest sweep rate (rad/s^2) reaching threshold probability p0.

    pi (E/hbar)^2 / (2 |ln(1 - p0)|) for a splitting-scale energy E (J).
    Pass the actual crossing splitting for the tight bound, or the
    two-atom interaction shift dE2 for the looser selectivity-limited
    bound (the usable splitting is capped well below dE2).
    """
    if not 0.0 < p0 < 1.0:
        raise ValueError("threshold probability must lie strictly in (0, 1)")
    return math.pi * (splitting / hbar) ** 2 / (2.0 * abs(math.log1p(-p0)))


def min_transfer_time(delta_e2: float, p0: float, hbar: float = HBAR) -> float:
    """Minimum single-atom sweep duration (s) for threshold probability p0.

    (2/pi) |ln(1 - p0)| / (|dE2|/hbar); equivalently (|dE2|/hbar) divided
    by the ramp-rate bound, taking the swept detuning span ~ |dE2|/hbar.
    """
    if not 0.0 < p0 < 1.0:
        raise ValueError("threshold probability must lie strictly in (0, 1)")
    return (2.0 / math.pi) * abs(math.log1p(-p0)) / (abs(delta_e2) / hbar)


def scrap_crossing_slope(delta_hat: float, t_delta: float, tau: float) -> float:
    """|d detuning/dt| (rad/s^2) at the crossings of a Stark-chirp detuning pulse.

    2 |delta_hat| tau / T_d^2 * exp(-tau^2/T_d^2), for crossings tau before
    and after the pulse peak.  A width whose square underflows to 0 or
    overflows raises InfeasibleScheduleError.
    """
    try:
        width_squared = t_delta**2
    except OverflowError:
        width_squared = math.inf
    if width_squared == 0 or math.isinf(width_squared):
        flow = "underflows" if width_squared == 0 else "overflows"
        raise InfeasibleScheduleError(
            f"detuning-pulse width {t_delta!r} s {flow} the crossing slope")
    return 2.0 * abs(delta_hat) * tau / width_squared * math.exp(-(tau / t_delta) ** 2)


def scrap_adiabatic_condition(delta_hat: float, t_delta: float, tau: float,
                              delta_e2: float, hbar: float = HBAR) -> float:
    """Margin of the Stark-chirp adiabaticity condition at the first crossing.

    Compares pi dE2^2 / (4 hbar^2) against half the crossing slope,
    delta_hat tau / T_d^2 * exp(-tau^2/T_d^2); >> 1 (threshold 10) means
    the crossing can be swept adiabatically at the allowed couplings.
    tau is the time from the first crossing to the detuning-pulse peak.
    """
    if not (t_delta > 0 and tau > 0):
        raise InfeasibleScheduleError("t_delta and tau must be strictly positive")
    lhs = math.pi * (delta_e2 / hbar) ** 2 / 4.0
    rhs = scrap_crossing_slope(delta_hat, t_delta, tau) / 2.0
    if rhs == 0.0:
        return math.inf
    return lhs / rhs


def scrap_pump_width_bound(omega_hat_eff: float, delta_hat: float,
                           t_delta: float, tau: float) -> tuple[float, float]:
    """Minimum pump width and the crossing jump time, both in seconds.

    Returns (t_omega_min, t_jump) where

        t_omega_min = Omega_eff T_d^2 / (tau delta_hat) * exp(tau^2/T_d^2)
        t_jump      = 2 Omega_eff / |ddelta/dt at the first crossing|.

    The pump must be at least this wide for the passage at the first
    crossing to complete while the pump is on.  Where tau delta_hat
    underflows to 0, or T_d^2 to 0 or past the largest float, it raises
    InfeasibleScheduleError.
    """
    if not (t_delta > 0 and tau > 0 and delta_hat != 0):
        raise InfeasibleScheduleError("t_delta and tau must be positive, delta_hat non-zero")
    slope = scrap_crossing_slope(delta_hat, t_delta, tau)  # checks T_d^2
    sweep = tau * abs(delta_hat)
    if sweep == 0:
        raise InfeasibleScheduleError(
            f"detuning amplitude {delta_hat!r} rad/s underflows the pump-width bound")
    exponent = (tau / t_delta) ** 2
    t_min = abs(omega_hat_eff) * t_delta**2 / sweep * math.exp(exponent)
    t_jump = math.inf if slope == 0.0 else 2.0 * abs(omega_hat_eff) / slope
    return t_min, t_jump


def _flag(margin: float) -> str:
    if margin >= STRONG_MARGIN:
        return "strong"
    if margin >= WEAK_MARGIN:
        return "weak"
    return "fail"


@dataclass(frozen=True)
class ScrapPulseParams:
    """Stark-chirp pulse parameters the analytic validity bounds are built from."""

    omega_hat: float   # pump peak Omega_L (rad/s)
    t_omega: float     # pump width (s)
    delta_hat: float   # detuning-pulse amplitude (rad/s)
    t_delta: float     # detuning-pulse width (s)
    tau: float         # first crossing to detuning-pulse peak (s)


@dataclass(frozen=True)
class AdiabaticityReport:
    """Numeric margins for every validity condition, and their flags.

    Margins are ratios (large is good); each is flagged 'strong' (>= 10),
    'weak' (>= 3) or 'fail'.  Fields that need pulse parameters are None
    when no schedule information was supplied.  The ramp-rate and time
    limits are at THRESHOLD_PROBABILITY.
    """

    omega01: float              # collective 0<->1 coupling (rad/s)
    two_level_margin: float     # (dE2/hbar) / |Omega01|
    single_particle_margin: float  # min(nu_a) / |Omega01|
    ramp_rate_limit: float      # rad/s^2
    tau_min: float              # s
    alpha_ad: float | None = None          # at the first crossing, if known
    scrap_adiabatic_margin: float | None = None
    scrap_pump_width_margin: float | None = None  # t_omega / t_omega_min
    scrap_diabatic_margin: float | None = None    # suppression at 2nd crossing
    t_jump: float | None = None

    @property
    def flags(self) -> dict:
        """The flag of each margin given, keyed by its name less "_margin"."""
        return {f.name.removesuffix("_margin"): _flag(getattr(self, f.name))
                for f in fields(self)
                if f.name.endswith("_margin") and getattr(self, f.name) is not None}

    @property
    def all_strong(self) -> bool:
        return all(v == "strong" for v in self.flags.values())

    @property
    def any_fail(self) -> bool:
        return any(v == "fail" for v in self.flags.values())


def _anharmonicity(model: LevelModel) -> float:
    """(E2 - 2 E1) / hbar in rad/s; ConfigError if it is zero."""
    delta_e2_over_hbar = (model.derived.e2 - 2.0 * model.derived.e1) / model.hbar
    if delta_e2_over_hbar == 0.0:
        raise ConfigError("the anharmonicity E2 - 2 E1 is zero: no crossing "
                          "selects an atom number")
    return delta_e2_over_hbar


def validity_check(model: LevelModel, omega_l: float,
                   scrap: ScrapPulseParams | None = None) -> AdiabaticityReport:
    """Evaluate every analytic validity condition for a drive strength.

    Always reports the two-level margin (coupling far below the two-atom
    interaction shift) and the single-particle margin (coupling far below
    the trap frequency), plus the ramp-rate and transfer-time limits at
    THRESHOLD_PROBABILITY.  With Stark-chirp pulse parameters it also
    reports the chirp adiabaticity margin, the pump-width margin and the
    diabaticity of the second crossing.  A model with no anharmonicity
    (E2 = 2 E1) has no finite transfer time and raises ConfigError.
    """
    hbar = model.hbar
    omega01 = abs(rabi_coupling(model, 0, omega_l))
    delta_e2_over_hbar = _anharmonicity(model)
    delta_e2 = hbar * delta_e2_over_hbar
    report = AdiabaticityReport(
        omega01=omega01,
        two_level_margin=math.inf if omega01 == 0 else delta_e2_over_hbar / omega01,
        single_particle_margin=(math.inf if omega01 == 0
                                else min(model.derived.system.nu_a) / omega01),
        ramp_rate_limit=ramp_rate_bound(delta_e2, THRESHOLD_PROBABILITY, hbar),
        tau_min=min_transfer_time(delta_e2, THRESHOLD_PROBABILITY, hbar))
    if scrap is None:
        return report
    omega_eff = abs(rabi_coupling(model, 0, scrap.omega_hat))
    ad_margin = scrap_adiabatic_condition(
        scrap.delta_hat, scrap.t_delta, scrap.tau, delta_e2, hbar)
    t_min, t_jump = scrap_pump_width_bound(
        omega_eff, scrap.delta_hat, scrap.t_delta, scrap.tau)
    # pump suppression at the second crossing, 2*tau after the first:
    # its residual coupling must be negligible for a diabatic passage.
    residual = math.exp(-(2.0 * scrap.tau / scrap.t_omega) ** 2)
    slope = scrap_crossing_slope(scrap.delta_hat, scrap.t_delta, scrap.tau)
    alpha_first = adiabaticity_parameter(hbar * omega_eff, slope, hbar)
    alpha_second = adiabaticity_parameter(hbar * omega_eff * residual, slope, hbar)
    return replace(
        report, alpha_ad=alpha_first, scrap_adiabatic_margin=ad_margin,
        scrap_pump_width_margin=math.inf if t_min == 0 else scrap.t_omega / t_min,
        scrap_diabatic_margin=math.inf if alpha_second == 0 else 1.0 / alpha_second,
        t_jump=t_jump)
