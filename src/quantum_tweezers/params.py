"""Raw experimental inputs and every derived quantity of the reduced model.

Conventions
-----------
* All frequencies are angular (rad/s).  Trap frequencies quoted as
  "2pi x 30 kHz" therefore enter as ``2*pi*30e3``; a drive strength quoted
  as "4 kHz" enters as ``4e3`` (see :mod:`quantum_tweezers.config` for the
  string parser that applies this convention to config files).
* Energies are in joules, lengths in metres, densities in m^-3.
* The reservoir condensate is treated as flat at its peak density across
  the (much smaller) steep trap, and the trapped-atom ground state as the
  Gaussian ground state of the harmonic trap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import SI, UnitSystem

__all__ = [
    "PhysicalSystem",
    "DerivedParams",
    "oscillator_length",
    "coupling_constant",
    "chemical_potential",
    "collision_shift",
    "overlap_factor",
    "scattering_shift",
    "derive_all",
]

# min steep-trap frequency should dominate the reservoir trap by at least
# this factor; below it we warn (the reduced model degrades gracefully).
STEEPNESS_WARN_RATIO = 10.0


def _as_vec3(value) -> tuple[float, float, float]:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.repeat(arr, 3)
    if arr.shape != (3,):
        raise ValueError(f"expected a scalar or 3-vector, got shape {arr.shape}")
    return (float(arr[0]), float(arr[1]), float(arr[2]))


@dataclass(frozen=True)
class PhysicalSystem:
    """Raw experimental inputs.

    Parameters
    ----------
    atom_mass : float
        Atomic mass (kg).
    nu_a, nu_b : scalar or 3-vector
        Angular trap frequencies (rad/s) of the steep trap (a) and the
        reservoir trap (b) along x, y, z.  A scalar means isotropic.
    atom_number : int
        Number of reservoir atoms N.
    peak_density : float
        Peak reservoir density n_b (m^-3).
    a_aa, a_bb, a_ab : float
        s-wave scattering lengths (m) for a-a, b-b and a-b collisions.
    mu_override : float, optional
        Chemical potential (J) supplied directly (e.g. a Thomas-Fermi
        value); when None the uniform mean-field estimate g_bb*n_b is used.
    """

    atom_mass: float
    nu_a: tuple[float, float, float]
    nu_b: tuple[float, float, float]
    atom_number: int
    peak_density: float
    a_aa: float
    a_bb: float
    a_ab: float
    mu_override: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "nu_a", _as_vec3(self.nu_a))
        object.__setattr__(self, "nu_b", _as_vec3(self.nu_b))
        positives = {
            "atom_mass": self.atom_mass,
            "atom_number": self.atom_number,
            "peak_density": self.peak_density,
        }
        for name, value in positives.items():
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive, got {value}")
        for name, vec in (("nu_a", self.nu_a), ("nu_b", self.nu_b)):
            if not all(v > 0 for v in vec):
                raise ValueError(f"all components of {name} must be positive, got {vec}")
        if min(self.nu_a) < STEEPNESS_WARN_RATIO * min(self.nu_b):
            warnings.warn(
                "steep-trap frequencies do not dominate the reservoir trap "
                f"(min nu_a = {min(self.nu_a):.3g} rad/s vs min nu_b = "
                f"{min(self.nu_b):.3g} rad/s); the reduced model assumes "
                "min(nu_a) >> min(nu_b)",
                stacklevel=2,
            )


def oscillator_length(mass: float, angular_frequency: float,
                      units: UnitSystem = SI) -> float:
    """Harmonic-oscillator ground-state size sqrt(hbar / (M nu)).

    Parameters are the atomic mass and the angular trap frequency along one
    axis; the return value is the 1/e half-width of the Gaussian ground
    state along that axis.
    """
    if not (mass > 0 and angular_frequency > 0):
        raise ValueError("mass and angular_frequency must be positive")
    return math.sqrt(units.hbar / (mass * angular_frequency))


def coupling_constant(mass: float, scattering_length: float,
                      units: UnitSystem = SI) -> float:
    """Contact-interaction strength g = 4 pi hbar^2 a / M (J m^3).

    Sign follows the sign of the scattering length.
    """
    if not mass > 0:
        raise ValueError("mass must be positive")
    return 4.0 * math.pi * units.hbar**2 * scattering_length / mass


def chemical_potential(system: PhysicalSystem, units: UnitSystem = SI) -> float:
    """Reservoir chemical potential (J).

    Uniform mean-field estimate mu = g_bb * n_b at peak density, unless the
    system carries an explicit ``mu_override`` (e.g. a Thomas-Fermi value).
    """
    if system.mu_override is not None:
        return system.mu_override
    g_bb = coupling_constant(system.atom_mass, system.a_bb, units)
    return g_bb * system.peak_density


def collision_shift(g_aa: float, osc_lengths) -> float:
    """Two-atom collisional shift in the steep-trap ground state (J).

    For the Gaussian ground state the density-overlap integral evaluates in
    closed form, giving g_aa / ((2 pi)^(3/2) a_x a_y a_z).
    """
    ax, ay, az = _as_vec3(osc_lengths)
    if not (ax > 0 and ay > 0 and az > 0):
        raise ValueError("oscillator lengths must be positive")
    return g_aa / ((2.0 * math.pi) ** 1.5 * ax * ay * az)


def overlap_factor(osc_lengths, peak_density: float) -> float:
    """Dimensionless wavefunction-overlap factor kappa.

    kappa = sqrt(n_b) * integral of the steep-trap Gaussian ground state,
    i.e. prod_axis 2^(1/2) pi^(1/4) a_ho^(1/2) times sqrt(n_b).  The
    collective coupling between adjacent atom-number states is then
    Omega_L * kappa * sqrt(n + 1).
    """
    ax, ay, az = _as_vec3(osc_lengths)
    if not (ax > 0 and ay > 0 and az > 0 and peak_density >= 0):
        raise ValueError("oscillator lengths must be positive, density non-negative")
    integral = (2.0 ** 0.5 * math.pi ** 0.25) ** 3 * math.sqrt(ax * ay * az)
    return math.sqrt(peak_density) * integral


def scattering_shift(g_ab: float, n: int, peak_density: float) -> float:
    """Mean-field shift of n trapped atoms from collisions with the reservoir (J).

    Flat-condensate approximation: the reservoir density is constant at its
    peak value across the trapped-atom wavefunction, so the overlap integral
    collapses to g_ab * n * n_b.  Exactly linear in n.
    """
    if n < 0:
        raise ValueError("atom count n must be non-negative")
    return g_ab * n * peak_density


@dataclass(frozen=True)
class DerivedParams:
    """Every derived quantity of the reduced model, all SI."""

    system: PhysicalSystem
    osc_lengths: tuple[float, float, float]  # steep-trap ground-state sizes (m)
    g_aa: float  # J m^3
    g_bb: float
    g_ab: float
    mu: float  # J
    delta_e_coll: float  # two-atom collisional shift (J)
    e_sc1: float  # reservoir-collision shift for one trapped atom (J)
    kappa: float  # dimensionless coupling overlap
    e1: float  # one-atom resonance energy (J)
    e2: float  # two-atom resonance energy (J)
    units: UnitSystem = field(default=SI, repr=False)

    def e_sc(self, n: int) -> float:
        """Reservoir-collision shift for n trapped atoms (J), linear in n."""
        if n < 0:
            raise ValueError("atom count n must be non-negative")
        return n * self.e_sc1

    def as_dict(self) -> dict:
        """Flat dict of the physical fields (for reports and JSON export)."""
        hbar = self.units.hbar
        return {
            "osc_length_x_m": self.osc_lengths[0],
            "osc_length_y_m": self.osc_lengths[1],
            "osc_length_z_m": self.osc_lengths[2],
            "g_aa_J_m3": self.g_aa,
            "g_bb_J_m3": self.g_bb,
            "g_ab_J_m3": self.g_ab,
            "mu_J": self.mu,
            "mu_over_hbar_rad_s": self.mu / hbar,
            "delta_e_coll_J": self.delta_e_coll,
            "delta_e_coll_over_hbar_rad_s": self.delta_e_coll / hbar,
            "e_sc1_J": self.e_sc1,
            "kappa": self.kappa,
            "e1_J": self.e1,
            "e2_J": self.e2,
            "e1_over_hbar_rad_s": self.e1 / hbar,
            "e2_over_hbar_rad_s": self.e2 / hbar,
        }


def derive_all(system: PhysicalSystem, units: UnitSystem = SI) -> DerivedParams:
    """Compute every derived parameter from the raw inputs.

    The resonance energies are

        E1 = (1/2) sum_j hbar nu_aj + E_sc(1) - mu
        E2 =       sum_j hbar nu_aj + dE_coll + E_sc(2) - 2 mu

    with the radiative dipole-dipole shift fixed to zero (negligible for
    the trap/drive regimes this model targets).
    """
    hbar = units.hbar
    osc = tuple(oscillator_length(system.atom_mass, nu, units) for nu in system.nu_a)
    g_aa = coupling_constant(system.atom_mass, system.a_aa, units)
    g_bb = coupling_constant(system.atom_mass, system.a_bb, units)
    g_ab = coupling_constant(system.atom_mass, system.a_ab, units)
    mu = chemical_potential(system, units)
    de_coll = collision_shift(g_aa, osc)
    e_sc1 = scattering_shift(g_ab, 1, system.peak_density)
    kappa = overlap_factor(osc, system.peak_density)
    half_trap = 0.5 * hbar * sum(system.nu_a)
    e1 = half_trap + e_sc1 - mu
    e2 = 2.0 * half_trap + de_coll + 2.0 * e_sc1 - 2.0 * mu
    derived = DerivedParams(
        system=system,
        osc_lengths=osc,
        g_aa=g_aa,
        g_bb=g_bb,
        g_ab=g_ab,
        mu=mu,
        delta_e_coll=de_coll,
        e_sc1=e_sc1,
        kappa=kappa,
        e1=e1,
        e2=e2,
        units=units,
    )
    for name, value in derived.as_dict().items():
        if not math.isfinite(value):
            raise ValueError(f"derived parameter {name} is not finite: {value}")
    return derived
