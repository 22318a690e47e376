"""Named parameter sets for the figure-style experiments.

The physical system is a reservoir of ~1e3 Rb-87 atoms at peak density
3e19 m^-3 in a shallow trap (2pi x 100 Hz), with the steep trap at
2pi x 30 kHz ("fig3a"-family) or 2pi x 100 kHz ("fig3b").  Scattering
lengths are config inputs: the intra-state defaults are the standard
Rb-87 background value of 100.4 Bohr radii, while the inter-state default
is deliberately small (1 Bohr radius, an effective value) so that the
reservoir-collision shift is orders of magnitude below the chemical
potential, the regime the reduced model is built for.  Supply measured
values for a concrete hyperfine pair.

Pulse-shape parameters (detuning-pulse amplitude, crossing delay, gate
fractions) are not fixed by first principles; the values here were chosen
so the documented working points sit inside their high-efficiency regions
and are recorded as part of the preset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .constants import BOHR_RADIUS, RB87_MASS
from .params import PhysicalSystem

__all__ = [
    "RampGeometry",
    "ScrapPreset",
    "TwoAtomScrapPreset",
    "PiPreset",
    "Preset",
    "get_preset",
    "PRESET_NAMES",
]


@dataclass(frozen=True)
class RampGeometry:
    """Shape of the gated linear-sweep protocol, in dimensionless units.

    With q = (E2 - 2 E1)/hbar the level anharmonicity, the sweep starts
    start_depth_frac * q below the one-atom resonance and ends
    end_above_frac_1 * q past it (one atom) or end_above_frac_2 * q past
    the 1->2 resonance (two atoms).  The drive is a flat-top pulse: it
    switches on at gate_start_frac of the time to the first crossing, its
    plateau holds through the crossing's jump region (jump_coeff * the
    coupling / the remaining detuning span, floored and capped), and the
    falling tanh edge uses 1/edge_divisor of the leftover tail so the
    switch-off stays slow compared to the dressed-state gap.  Switching
    the drive off after the sweep maps the dressed state onto the bare
    trapped state, which is what lets the measured populations reach the
    asymptotic avoided-crossing values.
    """

    start_depth_frac: float = 1.5
    end_above_frac_1: float = 0.85
    end_above_frac_2: float = 1.0
    gate_start_frac: float = 0.4
    jump_coeff: float = 1.8
    min_off_frac: float = 0.18
    max_off_frac: float = 0.55
    edge_divisor: float = 5.0


@dataclass(frozen=True)
class ScrapPreset:
    """Single-atom Stark-chirp pulse-pair parameters.

    The detuning-pulse width tracks the pump width (t_delta_factor) and
    the first crossing leads the detuning peak by tau_factor pump widths;
    the crossings are then 2 * tau apart.  delta_hat is fixed in rad/s.
    """

    omega_hat: float = 1.5e4      # pump peak Omega_L (rad/s)
    t_omega: float = 1.5e-3       # pump width (s)
    t_delta_factor: float = 2.0   # t_delta = factor * t_omega
    tau_factor: float = 1.25      # tau = factor * t_omega
    delta_hat: float = 2.0e4      # detuning-pulse amplitude (rad/s)

    def t_delta(self, t_omega: float) -> float:
        return self.t_delta_factor * t_omega

    def tau(self, t_omega: float) -> float:
        return self.tau_factor * t_omega


@dataclass(frozen=True)
class TwoAtomScrapPreset:
    """Sequential two-atom Stark-chirp parameters (flat-top pump)."""

    omega_hat: float = 1.5e4
    t_omega: float = 1.5e-3
    t_delta_factor: float = 2.0
    delta_hat: float = 4.6e4       # must clear both resonances
    baseline_depth: float = 2.0e4  # rad/s below the 0->1 resonance
    ramp_time_factor: float = 0.2  # tanh edge time / t_omega

    def t_delta(self, t_omega: float) -> float:
        return self.t_delta_factor * t_omega


@dataclass(frozen=True)
class PiPreset:
    """Resonant pulse-area protocol parameters."""

    t_omega: float = 1.5e-3  # pump width (s)


@dataclass(frozen=True)
class Preset:
    """A physical system plus canonical protocol parameters."""

    name: str
    system: PhysicalSystem
    omega_l: float  # drive strength for sweep protocols (rad/s)
    ramp: RampGeometry = field(default_factory=RampGeometry)
    scrap: ScrapPreset = field(default_factory=ScrapPreset)
    scrap2: TwoAtomScrapPreset = field(default_factory=TwoAtomScrapPreset)
    pi: PiPreset = field(default_factory=PiPreset)


def _rb87_system(nu_a: float, a_ab_bohr: float = 1.0) -> PhysicalSystem:
    return PhysicalSystem(
        atom_mass=RB87_MASS,
        nu_a=(nu_a, nu_a, nu_a),
        nu_b=(2.0 * math.pi * 100.0,) * 3,
        atom_number=1000,
        peak_density=3.0e19,
        a_aa=100.4 * BOHR_RADIUS,
        a_bb=100.4 * BOHR_RADIUS,
        a_ab=a_ab_bohr * BOHR_RADIUS,
    )


_FIG3A = Preset(
    name="fig3a",
    system=_rb87_system(2.0 * math.pi * 30e3),
    omega_l=4.0e3,
)

_FIG3B = Preset(
    name="fig3b",
    system=_rb87_system(2.0 * math.pi * 100e3),
    omega_l=3.0e4,
)

_CATALOG = {
    "fig3a": _FIG3A,
    "fig3b": _FIG3B,
    # figure 4/6/7 protocols run on the fig3a system; the presets differ
    # only in which protocol block is considered canonical.
    "fig4": replace(_FIG3A, name="fig4"),
    "fig6": replace(_FIG3A, name="fig6"),
    "fig7": replace(_FIG3A, name="fig7"),
}

PRESET_NAMES = tuple(sorted(_CATALOG))


def get_preset(name: str) -> Preset:
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
