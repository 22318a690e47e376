"""Derived-parameter formulas against frozen values and quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from quantum_tweezers import (
    HBAR,
    RB87_MASS,
    PhysicalSystem,
    chemical_potential,
    collision_shift,
    coupling_constant,
    derive_all,
    oscillator_length,
    overlap_factor,
    scattering_shift,
)
from quantum_tweezers import params
from quantum_tweezers.constants import ATOMIC_MASS

TWO_PI = 2.0 * math.pi


def _e_sc(derived, n):
    """The reservoir-collision shift of n trapped atoms (J)."""
    return scattering_shift(derived.g_ab, n, derived.system.peak_density)


class TestOscillatorLength:
    def test_fig_system_value(self):
        # sqrt(hbar / (M nu)) for Rb-87 at 2pi x 30 kHz
        got = oscillator_length(RB87_MASS, TWO_PI * 30e3)
        assert got == pytest.approx(6.2263e-8, rel=1e-4)

    def test_frequency_scaling(self):
        base = oscillator_length(RB87_MASS, TWO_PI * 30e3)
        quadrupled = oscillator_length(RB87_MASS, 4 * TWO_PI * 30e3)
        assert quadrupled == pytest.approx(base / 2, rel=1e-12, abs=0)

    def test_100khz_value(self):
        got = oscillator_length(RB87_MASS, TWO_PI * 100e3)
        assert got == pytest.approx(3.4102e-8, rel=1e-4)

    @pytest.mark.parametrize("mass,nu", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_domain_errors(self, mass, nu):
        with pytest.raises(ValueError):
            oscillator_length(mass, nu)


class TestCouplingConstant:
    def test_zero_scattering_length(self):
        assert coupling_constant(RB87_MASS, 0.0) == 0.0

    def test_hand_evaluated_value(self):
        got = coupling_constant(87 * ATOMIC_MASS, 5.3e-9)
        assert got == pytest.approx(5.128e-51, rel=2e-3, abs=0)

    def test_linearity(self):
        g1 = coupling_constant(RB87_MASS, 5.3e-9)
        g2 = coupling_constant(RB87_MASS, 10.6e-9)
        assert g2 == pytest.approx(2 * g1, rel=1e-12, abs=0)

    def test_sign_follows_scattering_length(self):
        assert coupling_constant(RB87_MASS, -1e-9) < 0

    @pytest.mark.parametrize("mass", [0.0, -RB87_MASS, math.nan])
    def test_rejects_a_mass_that_is_not_positive(self, mass):
        with pytest.raises(ValueError, match="^mass must be positive$"):
            coupling_constant(mass, 5e-9)


class TestChemicalPotential:
    def test_zero_density_limit(self, fig3a):
        import dataclasses
        tiny = dataclasses.replace(fig3a.system, peak_density=1e-30)
        assert chemical_potential(tiny) == pytest.approx(0.0, abs=1e-60)

    def test_matches_quoted_scale(self, fig3a):
        # mean-field estimate lands within a factor ~1.3 of 1.8e3 rad/s
        mu = chemical_potential(fig3a.system)
        ratio = (mu / HBAR) / 1.8e3
        assert 1 / 1.3 < ratio < 1.3

    def test_proportional_to_density(self, fig3a):
        import dataclasses
        doubled = dataclasses.replace(fig3a.system,
                                      peak_density=2 * fig3a.system.peak_density)
        assert chemical_potential(doubled) == pytest.approx(
            2 * chemical_potential(fig3a.system), rel=1e-12, abs=0)

    def test_override_wins(self, fig3a):
        import dataclasses
        fixed = dataclasses.replace(fig3a.system, mu_override=1.23e-31)
        assert chemical_potential(fixed) == 1.23e-31


class TestCollisionShift:
    def test_fig_system_value(self, fig3a_derived):
        # quoted as 2pi x 2 kHz, 15% tolerance
        got = fig3a_derived.delta_e_coll / HBAR
        assert got == pytest.approx(TWO_PI * 2e3, rel=0.15)

    def test_zero_coupling(self):
        assert collision_shift(0.0, (1e-7, 1e-7, 1e-7)) == 0.0

    def test_inverse_cube_scaling(self, fig3a_derived):
        g = fig3a_derived.g_aa
        lengths = fig3a_derived.osc_lengths
        halved = tuple(a / 2 for a in lengths)
        assert collision_shift(g, halved) == pytest.approx(
            8 * collision_shift(g, lengths), rel=1e-12, abs=0)

    def test_against_quadrature(self, fig3a_derived):
        # independent oracle: g_aa * integral |phi|^4 by 1-D quadratures
        g = fig3a_derived.g_aa
        total = g
        for a in fig3a_derived.osc_lengths:
            def phi2(x, a=a):
                return math.exp(-x**2 / a**2) / (math.sqrt(math.pi) * a)

            integral, _ = quad(lambda x: phi2(x)**2, -12 * a, 12 * a,
                               epsrel=1e-12, epsabs=0)
            total *= integral
        assert collision_shift(g, fig3a_derived.osc_lengths) == pytest.approx(
            total, rel=1e-6, abs=0)


class TestOverlapFactor:
    def test_fig_system_value(self, fig3a_derived):
        assert fig3a_derived.kappa == pytest.approx(0.56795, rel=1e-4)

    def test_zero_density(self, fig3a_derived):
        assert overlap_factor(fig3a_derived.osc_lengths, 0.0) == 0.0

    @pytest.mark.parametrize("lengths, density", [((0.0, 1e-7, 1e-7), 1e19),
                                                  ((1e-7, 1e-7, 1e-7), -1e19)])
    def test_domain_errors(self, lengths, density):
        with pytest.raises(ValueError, match="^oscillator lengths must be positive"):
            overlap_factor(lengths, density)

    def test_kappa_squared_linear_in_density(self, fig3a_derived):
        lengths = fig3a_derived.osc_lengths
        k1 = overlap_factor(lengths, 3e19)
        k2 = overlap_factor(lengths, 6e19)
        assert k2**2 == pytest.approx(2 * k1**2, rel=1e-12)

    def test_against_quadrature(self, fig3a_derived):
        # kappa = sqrt(n_b) * integral of the Gaussian ground state
        total = math.sqrt(fig3a_derived.system.peak_density)
        for a in fig3a_derived.osc_lengths:
            def phi(x, a=a):
                return math.exp(-x**2 / (2 * a**2)) / (math.pi * a**2) ** 0.25

            integral, _ = quad(phi, -14 * a, 14 * a, epsrel=1e-12, epsabs=0)
            total *= integral
        assert fig3a_derived.kappa == pytest.approx(total, rel=1e-6)


class TestScatteringShift:
    def test_zero_atoms(self):
        assert scattering_shift(1e-51, 0, 3e19) == 0.0

    def test_linear_in_n(self, fig3a_derived):
        e1 = fig3a_derived.e_sc1
        e2 = _e_sc(fig3a_derived, 2)
        assert e2 == pytest.approx(2 * e1, rel=1e-12, abs=0)

    def test_rejects_a_negative_atom_count(self):
        with pytest.raises(ValueError, match="^atom count n must be non-negative$"):
            scattering_shift(1e-51, -1, 3e19)

    def test_small_against_chemical_potential(self, fig3a_derived):
        # default inter-state scattering length keeps this shift far below mu
        assert fig3a_derived.e_sc1 < 0.05 * fig3a_derived.mu


class TestDeriveAll:
    def test_resonance_energy_identity(self, fig3a_derived):
        d = fig3a_derived
        lhs = d.e2 - 2 * d.e1
        rhs = d.delta_e_coll + _e_sc(d, 2) - 2 * d.e_sc1
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=0)

    def test_e1_dominated_by_trap_term(self, fig3a):
        d = derive_all(fig3a.system)
        trap = 0.5 * HBAR * sum(fig3a.system.nu_a)
        assert abs(d.e1 - trap) < 0.02 * trap

    def test_all_fields_finite(self, fig3a_derived):
        for value in fig3a_derived.as_dict().values():
            assert math.isfinite(value)

    def test_rejects_a_derived_parameter_that_is_not_finite(self, fig3a):
        # mu/hbar overflows, though mu itself is a finite float
        import dataclasses
        system = dataclasses.replace(fig3a.system, mu_override=1e300)
        with pytest.raises(ValueError, match="^derived parameter mu_over_hbar_rad_s is "
                                             "not finite: inf$"):
            derive_all(system)

    def test_anharmonicity_positive(self, fig3a_derived):
        d = fig3a_derived
        assert d.delta_e_coll + _e_sc(d, 2) - 2 * d.e_sc1 > 0
        assert d.e2 > 2 * d.e1

    def test_anharmonicity_sign_over_random_systems(self):
        # E2 > 2 E1 exactly when the pairwise shift budget is positive
        rng = np.random.default_rng(5)
        for _ in range(25):
            system = PhysicalSystem(
                atom_mass=RB87_MASS,
                nu_a=tuple(rng.uniform(1e5, 1e6, size=3)),
                nu_b=tuple(rng.uniform(1e2, 1e3, size=3)),
                atom_number=int(rng.integers(100, 5000)),
                peak_density=rng.uniform(1e18, 1e20),
                a_aa=rng.uniform(-6e-9, 6e-9),
                a_bb=rng.uniform(1e-10, 6e-9),
                a_ab=rng.uniform(0.0, 6e-9),
            )
            d = derive_all(system)
            budget = d.delta_e_coll + _e_sc(d, 2) - 2 * d.e_sc1
            if budget > 0:
                assert d.e2 > 2 * d.e1
            elif budget < 0:
                assert d.e2 < 2 * d.e1


class TestDimensionalAudit:
    def test_second_unit_system(self, fig3a, monkeypatch):
        """Recompute everything in micrometre/millisecond/amu units.

        A quantity of dimensions kg^a m^b s^c is divided by
        mass**a * length**b * time**c to express it in these units, and
        params.HBAR is patched to hbar in them.
        """
        mass, length, time = ATOMIC_MASS, 1e-6, 1e-3
        energy = mass * length**2 / time**2
        sys_si = fig3a.system
        scaled = PhysicalSystem(
            atom_mass=sys_si.atom_mass / mass,
            nu_a=tuple(nu * time for nu in sys_si.nu_a),
            nu_b=tuple(nu * time for nu in sys_si.nu_b),
            atom_number=sys_si.atom_number,
            peak_density=sys_si.peak_density * length**3,
            a_aa=sys_si.a_aa / length,
            a_bb=sys_si.a_bb / length,
            a_ab=sys_si.a_ab / length,
        )
        d_si = derive_all(sys_si)
        monkeypatch.setattr(params, "HBAR", HBAR / (energy * time))
        d_sc = derive_all(scaled)
        assert d_sc.kappa == pytest.approx(d_si.kappa, rel=1e-12, abs=0)
        for axis in range(3):
            assert d_sc.osc_lengths[axis] * length == pytest.approx(
                d_si.osc_lengths[axis], rel=1e-12, abs=0)
        for name in ("mu", "delta_e_coll", "e_sc1", "e1", "e2"):
            assert getattr(d_sc, name) * energy == pytest.approx(
                getattr(d_si, name), rel=1e-12, abs=0)
        for name in ("g_aa", "g_bb", "g_ab"):
            assert getattr(d_sc, name) * energy * length**3 == \
                pytest.approx(getattr(d_si, name), rel=1e-12, abs=0)


class TestPhysicalSystem:
    def test_rejects_nonpositive(self, fig3a):
        with pytest.raises(ValueError):
            PhysicalSystem(atom_mass=-1.0, nu_a=1e5, nu_b=1e2, atom_number=10,
                           peak_density=1e19, a_aa=5e-9, a_bb=5e-9, a_ab=5e-9)

    def test_warns_when_traps_comparable(self):
        with pytest.warns(UserWarning, match="steep-trap"):
            PhysicalSystem(atom_mass=RB87_MASS, nu_a=1e3, nu_b=9e2,
                           atom_number=10, peak_density=1e19,
                           a_aa=5e-9, a_bb=5e-9, a_ab=5e-9)

    @pytest.mark.parametrize("nu_a", [(1e5, 2e5), ((1e5,) * 3,) * 2])
    def test_rejects_a_frequency_that_is_not_a_scalar_or_3_vector(self, nu_a):
        with pytest.raises(ValueError, match="^expected a scalar or 3-vector, got shape"):
            PhysicalSystem(atom_mass=RB87_MASS, nu_a=nu_a, nu_b=1e2, atom_number=10,
                           peak_density=1e19, a_aa=5e-9, a_bb=5e-9, a_ab=5e-9)

    def test_scalar_becomes_isotropic(self):
        system = PhysicalSystem(atom_mass=RB87_MASS, nu_a=1e5, nu_b=1e2,
                                atom_number=10, peak_density=1e19,
                                a_aa=5e-9, a_bb=5e-9, a_ab=5e-9)
        assert system.nu_a == (1e5, 1e5, 1e5)

    def test_anisotropic_supported(self):
        system = PhysicalSystem(atom_mass=RB87_MASS, nu_a=(1e5, 2e5, 3e5),
                                nu_b=1e2, atom_number=10, peak_density=1e19,
                                a_aa=5e-9, a_bb=5e-9, a_ab=5e-9)
        derived = derive_all(system)
        assert derived.osc_lengths[0] > derived.osc_lengths[2]


class TestPresetCatalog:
    def test_fig3a_parameters(self, fig3a):
        assert fig3a.system.nu_a[0] == pytest.approx(TWO_PI * 30e3)
        assert fig3a.omega_l == pytest.approx(4e3)

    def test_fig3b_parameters(self, fig3b):
        assert fig3b.system.nu_a[0] == pytest.approx(TWO_PI * 100e3)
        assert fig3b.omega_l == pytest.approx(3e4)

    def test_unknown_name(self):
        from quantum_tweezers import get_preset
        with pytest.raises(KeyError):
            get_preset("fig99")
