"""Level ladder, couplings and the Hamiltonian matrix."""

import math

import numpy as np
import pytest

from quantum_tweezers import (
    HBAR,
    RB87_MASS,
    PhysicalSystem,
    build_level_model,
    derive_all,
    get_preset,
    hamiltonian_matrix,
    rabi_coupling,
    resonance_detunings,
)
from quantum_tweezers.levels import hamiltonian_stack


def _energy(model, n, detuning):
    """E(n, Delta), read off the Hamiltonian's diagonal."""
    return hamiltonian_matrix(model, detuning, 0.0)[n, n]


class TestLevelEnergy:
    def test_ground_state_is_reference(self, fig3a_model):
        for detuning in (0.0, 1e5, -3e5):
            assert _energy(fig3a_model, 0, detuning) == 0.0

    def test_one_atom_resonance(self, fig3a_model):
        d01 = fig3a_model.derived.e1 / HBAR
        assert _energy(fig3a_model, 1, d01) == pytest.approx(0.0, abs=1e-45)

    def test_two_atom_resonance(self, fig3a_model):
        d02 = fig3a_model.derived.e2 / (2 * HBAR)
        assert _energy(fig3a_model, 2, d02) == pytest.approx(0.0, abs=1e-45)

    def test_linear_detuning_dependence(self, fig3a_model):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(0, 3))
            d1, d2 = rng.uniform(-1e6, 1e6, size=2)
            lhs = _energy(fig3a_model, n, d1) - _energy(fig3a_model, n, d2)
            assert lhs == pytest.approx(-n * HBAR * (d1 - d2), rel=1e-12, abs=1e-50)


class TestRabiCoupling:
    def test_zero_drive(self, fig3a_model):
        assert rabi_coupling(fig3a_model, 0, 0.0) == 0.0

    def test_fig_system_value(self, fig3a_model):
        # kappa ~ 0.568 at drive 4e3 rad/s
        assert rabi_coupling(fig3a_model, 0, 4e3) == pytest.approx(2.28e3, rel=2e-2)

    def test_sqrt_enhancement(self, fig3a_model):
        ratio = rabi_coupling(fig3a_model, 1, 4e3) / rabi_coupling(fig3a_model, 0, 4e3)
        assert ratio == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_out_of_range(self, fig3a_model):
        with pytest.raises(ValueError):
            rabi_coupling(fig3a_model, 2, 4e3)

    # True gave the 0->1 coupling, and a float raised TypeError
    @pytest.mark.parametrize("n", [True, 0.5, 1.0])
    def test_index_that_is_not_an_integer(self, fig3a_model, n):
        with pytest.raises(ValueError, match=f"^coupling index {n} outside 0..1$"):
            rabi_coupling(fig3a_model, n, 4e3)


class TestResonanceDetunings:
    def test_harmonic_degeneracy(self, fig3a):
        import dataclasses
        harmonic = dataclasses.replace(fig3a.system, a_aa=0.0, a_ab=0.0)
        model = build_level_model(derive_all(harmonic))
        res = resonance_detunings(model)
        assert res.d01 == pytest.approx(res.d02, rel=1e-12)
        assert res.d01 == pytest.approx(res.d12, rel=1e-12)

    def test_anharmonic_ordering(self, fig3a_model):
        res = resonance_detunings(fig3a_model)
        assert res.d01 < res.d02 < res.d12

    def test_separation_equals_collision_shift(self, fig3a_model):
        # with the reservoir shift linear in n, d12 - d01 is the two-atom
        # collisional shift exactly
        res = resonance_detunings(fig3a_model)
        expected = fig3a_model.derived.delta_e_coll / HBAR
        assert res.d12 - res.d01 == pytest.approx(expected, rel=1e-9)


class TestHamiltonianMatrix:
    def test_diagonal_when_undriven(self, fig3a_model):
        h = hamiltonian_matrix(fig3a_model, 1e5, 0.0)
        assert np.all(h == np.diag(np.diag(h)))

    def test_hermitian_bit_exact(self, fig3a_model):
        h = hamiltonian_matrix(fig3a_model, 2.5e5, 4e3)
        assert np.array_equal(h, h.T.conj())

    def test_trace(self, fig3a_model):
        detuning = 2.5e5
        h = hamiltonian_matrix(fig3a_model, detuning, 4e3)
        # E(n, Delta) = bare(n) - n hbar Delta
        expected = sum(fig3a_model.bare_energies[n] - n * fig3a_model.hbar * detuning
                       for n in range(3))
        assert np.trace(h) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_two_level_block_eigenvalues(self, fig3a_model):
        """The {|0>,|1>} block reproduces the dressed closed form.

        Eigenvalues of [[0, c], [c, E]] are E/2 +- sqrt((E/2)^2 + c^2);
        E is the instantaneous level gap -hbar * Delta1.
        """
        rng = np.random.default_rng(3)
        d01 = fig3a_model.derived.e1 / HBAR
        for _ in range(25):
            detuning = d01 + rng.uniform(-5e4, 5e4)
            omega_l = rng.uniform(0.0, 2e4)
            h = hamiltonian_matrix(fig3a_model, detuning, omega_l)[:2, :2]
            gap = h[1, 1]
            coupling = h[0, 1]
            expected = np.sort([gap / 2 - math.hypot(gap / 2, coupling),
                                gap / 2 + math.hypot(gap / 2, coupling)])
            got = np.linalg.eigvalsh(h)
            scale = max(abs(expected).max(), 1e-40)
            assert np.all(np.abs(got - expected) <= 1e-12 * scale)

    def test_coupling_structure(self, fig3a_model):
        omega_l = 4e3
        h = hamiltonian_matrix(fig3a_model, 0.0, omega_l)
        assert h[0, 2] == 0.0
        assert h[0, 1] == pytest.approx(
            0.5 * HBAR * rabi_coupling(fig3a_model, 0, omega_l), rel=1e-12, abs=0)
        assert h[1, 2] == pytest.approx(
            0.5 * HBAR * rabi_coupling(fig3a_model, 1, omega_l), rel=1e-12, abs=0)


    def test_stack_fills_a_strided_out_in_place(self, fig3a_model):
        # the propagator fills its component-major (dim, dim, K) workspace
        # through the transposed view; a stale value must not survive
        rng = np.random.default_rng(5)
        detunings, omegas = rng.uniform(-1e6, 1e6, 7), rng.uniform(0.0, 2e4, 7)
        fresh = hamiltonian_stack(fig3a_model, detunings, omegas)
        component_major = np.full((3, 3, 7), np.nan)
        out = component_major.transpose(2, 0, 1)
        assert hamiltonian_stack(fig3a_model, detunings, omegas, out=out) is out
        assert out.tobytes() == fresh.tobytes()


class TestLadder:
    @staticmethod
    def _random_system(rng):
        # signed scattering lengths, and every other system a signed mu_override
        return PhysicalSystem(
            atom_mass=RB87_MASS,
            nu_a=tuple(rng.uniform(1e5, 1e7, size=3)),
            nu_b=tuple(rng.uniform(1e1, 1e3, size=3)),
            atom_number=int(rng.integers(1, 10_000)),
            peak_density=rng.uniform(1e16, 1e21),
            a_aa=rng.uniform(-6e-9, 6e-9),
            a_bb=rng.uniform(-6e-9, 6e-9),
            a_ab=rng.uniform(-6e-9, 6e-9),
            mu_override=rng.uniform(-1e-29, 1e-29) if rng.random() < 0.5 else None,
        )

    def test_bare_energies_are_derive_alls(self):
        # the propagated diagonal and every analytic bound read one E1 and E2;
        # repr compares bit for bit and tells -0.0 from 0.0
        rng = np.random.default_rng(40)
        systems = [get_preset(name).system for name in ("fig3a", "fig3b")]
        systems += [self._random_system(rng) for _ in range(1000)]
        for system in systems:
            derived = derive_all(system)
            for n_max in (1, 2):
                expected = (0.0, derived.e1, derived.e2)[:n_max + 1]
                assert repr(build_level_model(derived, n_max).bare_energies) == repr(expected)

    def test_takes_a_numpy_integer(self, fig3a_derived, fig3a_model):
        model = build_level_model(fig3a_derived, n_max=np.int64(2))
        assert model.bare_energies == fig3a_model.bare_energies
        assert model.rabi_units == fig3a_model.rabi_units


class TestTruncationExtrapolation:
    """The ladder is truncated at |1> or |2>, and nowhere else."""

    def test_rejects_trivial_ladder(self, fig3a_derived):
        with pytest.raises(ValueError):
            build_level_model(fig3a_derived, n_max=0)

    # 3 built a four-level model, True a two-level one, and a float raised
    # TypeError
    @pytest.mark.parametrize("n_max", [3, True, 1.5, 2.0])
    def test_rejects_a_larger_or_non_integer_ladder(self, fig3a_derived, n_max):
        with pytest.raises(ValueError, match=f"^n_max must be the integer 1 or 2, not {n_max}$"):
            build_level_model(fig3a_derived, n_max=n_max)
