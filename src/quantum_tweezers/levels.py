"""Truncated ladder of collective atom-number states and its Hamiltonian.

State |n> has n atoms in the steep-trap ground state and N - n left in the
reservoir.  With E(0) = 0 as the reference, the diagonal energies are
linear in the drive detuning,

    E(n, Delta) = bare_energy(n) - n hbar Delta,

and adjacent states are coupled with strength Omega_L * kappa * sqrt(n+1).
There is no direct |0> <-> |2> matrix element: the two-photon transfer
emerges from propagation through |1>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import DerivedParams

__all__ = [
    "LevelModel",
    "build_level_model",
    "rabi_coupling",
    "resonance_detunings",
    "hamiltonian_matrix",
]


@dataclass(frozen=True)
class LevelModel:
    """Truncated (n_max + 1)-level system.

    bare_energies[n] is E(n) at zero detuning (J); rabi_units[n] is the
    dimensionless coupling factor kappa * sqrt(n+1) for the |n> <-> |n+1>
    transition, so the physical coupling is Omega_L * rabi_units[n].
    """

    n_max: int
    bare_energies: tuple[float, ...]
    rabi_units: tuple[float, ...]
    derived: DerivedParams

    @property
    def dim(self) -> int:
        return self.n_max + 1

    @property
    def hbar(self) -> float:
        return self.derived.units.hbar


def build_level_model(derived: DerivedParams, n_max: int = 2) -> LevelModel:
    """Assemble the level ladder from derived parameters.

    For n > 2 the energies extrapolate the pairwise-collision picture,
    E_a(n) = n * (1/2) sum_j hbar nu_aj + C(n,2) * dE_coll, and couplings
    follow the sqrt(n+1) law.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    hbar = derived.units.hbar
    half_trap = 0.5 * hbar * sum(derived.system.nu_a)
    bare = []
    for n in range(n_max + 1):
        pairs = n * (n - 1) // 2
        bare.append(n * half_trap + pairs * derived.delta_e_coll
                    + derived.e_sc(n) - n * derived.mu)
    units = [derived.kappa * math.sqrt(n + 1) for n in range(n_max)]
    return LevelModel(
        n_max=n_max,
        bare_energies=tuple(bare),
        rabi_units=tuple(units),
        derived=derived,
    )


def rabi_coupling(model: LevelModel, n: int, omega_l: float) -> float:
    """Collective coupling between |n> and |n+1> (rad/s): Omega_L kappa sqrt(n+1)."""
    if not 0 <= n < model.n_max:
        raise ValueError(f"coupling index {n} outside 0..{model.n_max - 1}")
    return omega_l * model.rabi_units[n]


@dataclass(frozen=True)
class ResonanceDetunings:
    """Drive detunings (rad/s) at which level pairs become degenerate."""

    d01: float  # E(0) = E(1)
    d02: float  # E(0) = E(2), two-photon
    d12: float  # E(1) = E(2)


def resonance_detunings(model: LevelModel) -> ResonanceDetunings:
    """Resonant detunings d01 = E1/hbar, d02 = E2/2hbar, d12 = (E2-E1)/hbar."""
    hbar = model.hbar
    e1, e2 = model.derived.e1, model.derived.e2
    return ResonanceDetunings(d01=e1 / hbar, d02=e2 / (2.0 * hbar),
                              d12=(e2 - e1) / hbar)


def hamiltonian_matrix(model: LevelModel, detuning: float,
                       omega_l: float) -> np.ndarray:
    """Reduced Hamiltonian (J) at one instant, real symmetric (n_max+1)^2.

    Diagonal entries are E(n, Delta); the only off-diagonal entries are
    hbar * Omega_L * kappa * sqrt(n+1) / 2 on the (n, n+1) positions.
    """
    return hamiltonian_stack(model, [detuning], [omega_l])[0]


def hamiltonian_stack(model: LevelModel, detunings: np.ndarray,
                      omega_ls: np.ndarray) -> np.ndarray:
    """Vectorized Hamiltonians (K, dim, dim) for sampled schedule values.

    Same matrix as :func:`hamiltonian_matrix` for each (detuning, omega_l)
    pair; used by the propagator's inner loop.
    """
    detunings = np.asarray(detunings, dtype=float)
    omega_ls = np.asarray(omega_ls, dtype=float)
    dim = model.dim
    hbar = model.hbar
    h = np.zeros((detunings.size, dim, dim))
    for n in range(dim):
        h[:, n, n] = model.bare_energies[n] - n * hbar * detunings
    for n in range(dim - 1):
        coupling = 0.5 * hbar * model.rabi_units[n] * omega_ls
        h[:, n, n + 1] = coupling
        h[:, n + 1, n] = coupling
    return h
