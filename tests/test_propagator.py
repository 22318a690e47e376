"""Schroedinger propagation: analytic oracles, unitarity, convergence."""

import math
import sys
import threading
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from quantum_tweezers import (
    Constant,
    Envelope,
    Gaussian,
    IntegrationError,
    LinearRamp,
    OffsetSum,
    PulseSchedule,
    StepControl,
    Trajectory,
    build_level_model,
    build_pi_pulse,
    build_scrap_schedule,
    derive_all,
    get_preset,
    propagate,
    trajectory_to_csv,
    transfer_probability,
)
from quantum_tweezers import propagator
from quantum_tweezers.experiments import (
    _PROPAGATE_STEP_CONTROL,
    gated_ramp_schedule,
    preset_model,
)
from quantum_tweezers.levels import (
    hamiltonian_stack,
    rabi_coupling,
    resonance_detunings,
)


@pytest.fixture(scope="module")
def two_level(fig3a_derived):
    return build_level_model(fig3a_derived, n_max=1)


def _resonant_schedule(model, omega_l, duration):
    res = resonance_detunings(model)
    return PulseSchedule(Constant(res.d01), Constant(omega_l), 0.0, duration)


class TestAnalyticOracles:
    def test_resonant_rabi(self, two_level):
        omega_l = 4e3
        coupling = rabi_coupling(two_level, 0, omega_l)
        duration = 2 * math.pi / coupling
        traj = propagate(two_level, _resonant_schedule(two_level, omega_l, duration))
        expected = np.sin(coupling * traj.times / 2) ** 2
        assert np.max(np.abs(traj.populations[:, 1] - expected)) < 1e-7

    def test_full_inversion_time(self, two_level):
        omega_l = 4e3
        coupling = rabi_coupling(two_level, 0, omega_l)
        traj = propagate(two_level,
                         _resonant_schedule(two_level, omega_l, math.pi / coupling))
        assert transfer_probability(traj, 1) == pytest.approx(1.0, abs=1e-9)

    def test_generalized_rabi(self, two_level):
        omega_l = 4e3
        coupling = rabi_coupling(two_level, 0, omega_l)
        detuning_offset = 3.1e3
        res = resonance_detunings(two_level)
        schedule = PulseSchedule(Constant(res.d01 + detuning_offset),
                                 Constant(omega_l), 0.0, 3e-3)
        traj = propagate(two_level, schedule)
        geff = math.hypot(coupling, detuning_offset)
        expected = (coupling**2 / geff**2) * np.sin(geff * traj.times / 2) ** 2
        assert np.max(np.abs(traj.populations[:, 1] - expected)) < 1e-7

    def test_undriven_populations_frozen(self, fig3a_model):
        state = np.array([0.6, 0.8j, 0.0], dtype=complex)
        schedule = PulseSchedule(
            Gaussian(peak=3e5, center=1e-3, width=3e-4),  # detuning wiggle only
            Constant(0.0), 0.0, 2e-3)
        traj = propagate(fig3a_model, schedule, initial_state=state)
        assert np.max(np.abs(traj.populations - traj.populations[0])) < 1e-12


class TestUnitarity:
    def test_norm_conserved_through_scrap_pulse(self, fig3a_model, fig3a):
        from quantum_tweezers import build_scrap_schedule
        cfg = fig3a.scrap
        sched = build_scrap_schedule(cfg.omega_hat, cfg.t_omega, cfg.delta_hat,
                                     cfg.t_delta(cfg.t_omega),
                                     cfg.tau(cfg.t_omega), 0.0,
                                     fig3a_model.derived.e1)
        traj = propagate(fig3a_model, sched)
        norms = np.sum(traj.populations, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-9

    def test_populations_sum_to_one(self, fig3a_model):
        sched = _resonant_schedule(fig3a_model, 4e3, 2e-3)
        traj = propagate(fig3a_model, sched)
        np.testing.assert_allclose(np.sum(traj.populations, axis=1), 1.0,
                                   atol=1e-9)


class TestTimeReversal:
    def test_forward_backward_round_trip(self, fig3a_model):
        res = resonance_detunings(fig3a_model)
        forward = PulseSchedule(
            Constant(res.d01 + 2e3),
            Gaussian(peak=6e3, center=1.2e-3, width=4e-4), 0.0, 2.4e-3)
        traj = propagate(fig3a_model, forward)
        # time-mirrored drive, conjugated state: returns to the start
        backward = PulseSchedule(
            Constant(res.d01 + 2e3),
            Gaussian(peak=6e3, center=2.4e-3 - 1.2e-3, width=4e-4), 0.0, 2.4e-3)
        back = propagate(fig3a_model, backward,
                         initial_state=np.conj(traj.final_state))
        expected = np.zeros(3)
        expected[0] = 1.0
        assert np.max(np.abs(back.populations[-1] - expected)) < 1e-7


class TestConvergence:
    def test_step_halving_fourth_order(self, fig3a_model):
        """Measured convergence order stays within 4 +- 0.5."""
        res = resonance_detunings(fig3a_model)
        schedule = PulseSchedule(
            Constant(res.d01),
            Gaussian(peak=8e3, center=2.0e-3, width=6e-4), 0.0, 4e-3)

        def final_pops(n_steps):
            control = StepControl(h_override=schedule.duration / n_steps)
            traj = propagate(fig3a_model, schedule, step_control=control)
            return traj.populations[-1]

        reference = final_pops(8192)
        errors = [np.max(np.abs(final_pops(n) - reference))
                  for n in (64, 128, 256)]
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        for order in orders:
            assert 3.5 <= order <= 4.5, f"orders: {orders}, errors: {errors}"

    def test_step_halving_sixth_order(self, fig3a_model):
        """Halving the step divides the sixth-order error by about 64."""
        res = resonance_detunings(fig3a_model)
        schedule = PulseSchedule(
            Constant(res.d01),
            Gaussian(peak=8e3, center=2.0e-3, width=6e-4), 0.0, 4e-3)

        def final_pops(n_steps):
            control = StepControl(h_override=schedule.duration / n_steps, order=6)
            traj = propagate(fig3a_model, schedule, step_control=control)
            return traj.populations[-1]

        reference = final_pops(8192)
        errors = [np.max(np.abs(final_pops(n) - reference))
                  for n in (32, 64, 128)]
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
        for order in orders:
            assert 5.5 <= order <= 6.5, f"orders: {orders}, errors: {errors}"

    def test_step_halving_tolerance(self, fig3a_model):
        """Halving the automatically chosen step moves populations < 1e-8."""
        res = resonance_detunings(fig3a_model)
        schedule = PulseSchedule(
            Constant(res.d01),
            Gaussian(peak=8e3, center=2.0e-3, width=6e-4), 0.0, 4e-3)
        coarse = propagate(fig3a_model, schedule)
        fine = propagate(
            fig3a_model, schedule,
            step_control=StepControl(h_override=coarse.step / 2))
        assert np.max(np.abs(coarse.populations[-1] - fine.populations[-1])) < 1e-8


class TestTransferProbability:
    def test_trivial_window(self, fig3a_model):
        # 1 ns of resonant drive: P0 = cos^2(Omega_01 t / 2) = 1 - 1.29e-12
        omega_l, duration = 4e3, 1e-9
        traj = propagate(fig3a_model,
                         _resonant_schedule(fig3a_model, omega_l, duration))
        coupling = rabi_coupling(fig3a_model, 0, omega_l)
        expected = math.cos(coupling * duration / 2) ** 2
        assert transfer_probability(traj, 0) == pytest.approx(expected, abs=1e-14)
        assert np.sum(traj.populations[-1]) == pytest.approx(1.0, abs=1e-14)

    def test_range_checked(self, fig3a_model):
        traj = propagate(fig3a_model, _resonant_schedule(fig3a_model, 4e3, 1e-4))
        with pytest.raises(ValueError):
            transfer_probability(traj, 5)

    def test_in_unit_interval(self, fig3a_model):
        traj = propagate(fig3a_model, _resonant_schedule(fig3a_model, 8e3, 3e-3))
        for n in range(3):
            assert 0.0 <= transfer_probability(traj, n) <= 1.0

    @pytest.mark.parametrize("level", [True, 1.0, np.float64(1.0), "1", None],
                             ids=["bool", "float", "numpy_float", "str", "none"])
    def test_level_must_be_an_integer(self, fig3a_model, level):
        # a bool or a float passed the range check: True then raised numpy's
        # TypeError and 1.0 an IndexError
        traj = propagate(fig3a_model, _resonant_schedule(fig3a_model, 4e3, 1e-4))
        with pytest.raises(ValueError, match=r"^level index must be an integer in 0\.\.2, not "):
            transfer_probability(traj, level)
        assert transfer_probability(traj, np.int64(1)) == transfer_probability(traj, 1)

    def test_trajectories_compare_and_hash_by_identity(self, fig3a_model):
        # the generated __eq__ compared the array fields (ValueError for two
        # runs of one schedule) and __hash__ hashed them (TypeError)
        schedule = _resonant_schedule(fig3a_model, 4e3, 1e-4)
        a, b = (propagate(fig3a_model, schedule) for _ in range(2))
        assert a.states.tobytes() == b.states.tobytes()
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b, a}) == 2


class TestInputValidation:
    def test_unnormalized_initial_state(self, fig3a_model):
        sched = _resonant_schedule(fig3a_model, 4e3, 1e-4)
        with pytest.raises(ValueError):
            propagate(fig3a_model, sched, initial_state=np.array([2.0, 0, 0]))

    def test_wrong_dimension(self, fig3a_model):
        sched = _resonant_schedule(fig3a_model, 4e3, 1e-4)
        with pytest.raises(ValueError):
            propagate(fig3a_model, sched, initial_state=np.array([1.0, 0]))

    def test_nonfinite_schedule(self, fig3a_model):
        class Diverging(Constant):
            def __call__(self, t):
                with np.errstate(invalid="ignore"):
                    return np.asarray(t, dtype=float) * np.inf

        sched = PulseSchedule(Diverging(0.0), Constant(1e3), 0.0, 1e-3)
        with pytest.raises((ValueError, IntegrationError)):
            propagate(fig3a_model, sched)


class TestBlockedEvaluation:
    def test_block_boundaries_do_not_change_results(self, fig3a_model,
                                                    monkeypatch):
        # the vectorized inner loop processes steps in fixed-size blocks;
        # shrinking the block must not change a single bit
        sched = _resonant_schedule(fig3a_model, 4e3, 2e-3)
        reference = propagate(fig3a_model, sched)
        import quantum_tweezers.propagator as prop
        monkeypatch.setattr(prop, "_BLOCK", 97)
        blocked = propagate(fig3a_model, sched)
        np.testing.assert_array_equal(blocked.states, reference.states)


class TestKernel:
    @pytest.mark.parametrize("norm", [0.0, 1e-9, 1e-3, 0.1, 1.0, 7.0, 50.0])
    def test_exponential_matches_expm(self, norm):
        # exp(-iA) for random Hermitian A with spectral norm `norm`; from
        # 1.0 up the scaling-and-squaring path runs
        from scipy.linalg import expm
        rng = np.random.default_rng(int(norm * 1e3) + 7)
        a = rng.normal(size=(20, 3, 3)) + 1j * rng.normal(size=(20, 3, 3))
        a = a + a.conj().transpose(0, 2, 1)
        a *= norm / np.linalg.norm(a, ord=2, axis=(1, 2))[:, None, None]
        u = propagator._expm(np.ascontiguousarray((-1j * a).transpose(1, 2, 0)))
        u = u.transpose(2, 0, 1)
        bound = 1e-14 * max(1.0, norm)
        for k in range(a.shape[0]):
            assert np.max(np.abs(u[k] - expm(-1j * a[k]))) <= bound
            assert np.max(np.abs(u[k].conj().T @ u[k] - np.eye(3))) <= bound

    @staticmethod
    def _mixed_squarings():
        # exp(-iA) generators, four per squaring count 0 through 9, shuffled:
        # a 1-norm in [2^(s-3), 2^(s-2)) takes s squarings at theta = 0.25
        rng = np.random.default_rng(11)
        counts = rng.permutation(np.repeat(np.arange(10), 4))
        a = rng.normal(size=(counts.size, 3, 3)) + 1j * rng.normal(size=(counts.size, 3, 3))
        a = a + a.conj().transpose(0, 2, 1)
        one_norm = np.where(counts > 0, 1.5 * 2.0 ** (counts - 3.0), 0.2)
        a *= (one_norm / np.abs(a).sum(axis=1).max(axis=1))[:, None, None]
        return a, np.ascontiguousarray((-1j * a).transpose(1, 2, 0))

    def test_exponential_of_mixed_squarings(self):
        from scipy.linalg import expm
        a, x = self._mixed_squarings()
        norm = np.abs(x).sum(axis=0).max(axis=0)
        assert set(np.maximum(0, np.frexp(norm / propagator._THETA)[1])) == set(range(10))
        u = propagator._expm(x.copy()).copy()
        reversed_ = propagator._expm(x[..., ::-1].copy())[..., ::-1].copy()
        for k in range(x.shape[2]):
            alone = propagator._expm(x[..., k:k + 1].copy())
            assert u[..., k].tobytes() == alone[..., 0].tobytes()
            assert u[..., k].tobytes() == reversed_[..., k].tobytes()
            bound = 1e-14 * max(1.0, np.linalg.norm(a[k], ord=2))
            assert np.max(np.abs(u[..., k] - expm(-1j * a[k]))) <= bound

    @staticmethod
    def _unitary(rng):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    @classmethod
    def _close_eigenvalues(cls, rng):
        # two or three eigenvalues a gap of 1e-12 to 1 apart, at 1-norms of
        # about 1e-3 to 100, in a random eigenbasis
        matrices = []
        for gap in np.geomspace(1e-12, 1.0, 25):
            for scale in (1e-3, 0.3, 3.0, 30.0):
                base = scale * rng.uniform(-1.0, 1.0)
                for third in (2.0 * gap, scale * rng.uniform(1.0, 2.0)):
                    u = cls._unitary(rng)
                    matrices.append((u * (base + np.array([0.0, gap, third]))) @ u.conj().T)
        return matrices

    @classmethod
    def _degenerate_or_diagonal(cls, rng):
        matrices = []
        for scale in (0.0, 1e-8, 0.2, 3.0, 30.0):
            u = cls._unitary(rng)
            matrices += [scale * np.eye(3), np.diag(scale * rng.uniform(-1.0, 1.0, 3)),
                         (u * (scale * np.array([1.0, 1.0, -0.5]))) @ u.conj().T,
                         (u * (scale * np.array([0.7, 0.7, 0.7]))) @ u.conj().T]
        return matrices

    @pytest.mark.parametrize("kind", ["close_eigenvalues", "degenerate_or_diagonal"])
    def test_exponential_of_close_and_degenerate_eigenvalues(self, kind):
        # exp(-iA) for Hermitian A within 1e-14 max(1, |A|_1) of scipy's, in
        # the 1-norm: the accuracy a replacement of the kernel must keep
        from scipy.linalg import expm
        a = np.array(getattr(self, "_" + kind)(np.random.default_rng(5)))
        a = (a + a.conj().transpose(0, 2, 1)) / 2.0
        u = propagator._expm(np.ascontiguousarray((-1j * a).transpose(1, 2, 0)))
        u = u.transpose(2, 0, 1)
        for k in range(a.shape[0]):
            error = np.abs(u[k] - expm(-1j * a[k])).sum(axis=0).max()
            assert error <= 1e-14 * max(1.0, np.abs(a[k]).sum(axis=0).max())

    def test_warm_exponential_takes_no_new_arrays(self):
        # from a fresh thread, once the workspace has settled, a call leaves
        # it holding the arrays it found and traces less than one stack
        _, x = self._mixed_squarings()
        x = np.ascontiguousarray(np.repeat(x, 50, axis=2))

        def steady():
            for _ in range(6):
                pool = list(propagator._WORK.free)
                stack = x.copy()
                tracemalloc.start()
                try:
                    propagator._WORK.give(propagator._expm(stack))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                if sorted(map(id, propagator._WORK.free)) == sorted(map(id, pool)):
                    return peak
            raise AssertionError("the workspace did not settle in six calls")

        assert _in_fresh_thread(steady) < x.nbytes

    def test_block_boundaries_with_decimation(self, fig3a_model, monkeypatch):
        # stride > 1: each stored sample is one product of `stride` steps,
        # which must not depend on where the blocks split the steps
        sched = _resonant_schedule(fig3a_model, 4e3, 2e-3)
        control = StepControl(sample_cap=50)
        reference = propagate(fig3a_model, sched, step_control=control)
        monkeypatch.setattr(propagator, "_BLOCK", 97)
        blocked = propagate(fig3a_model, sched, step_control=control)
        assert reference.n_steps > 2 * 97  # several steps per stored sample
        np.testing.assert_array_equal(blocked.states, reference.states)

    def test_decimated_matches_every_step(self, fig3a_model):
        sched = _resonant_schedule(fig3a_model, 4e3, 2e-3)
        full = propagate(fig3a_model, sched)
        decimated = propagate(fig3a_model, sched,
                              step_control=StepControl(sample_cap=50))
        index = np.searchsorted(full.times, decimated.times)
        np.testing.assert_array_equal(full.times[index], decimated.times)
        assert np.max(np.abs(full.states[index] - decimated.states)) < 1e-13

    def test_norm_drift_of_long_chirp(self):
        # the fig4 Stark chirp at t_omega = 3.25 ms takes 8763 steps
        fig4 = get_preset("fig4")
        model = build_level_model(derive_all(fig4.system), n_max=2)
        cfg, t_omega = fig4.scrap, 3.25e-3
        sched = build_scrap_schedule(cfg.omega_hat, t_omega, cfg.delta_hat,
                                     cfg.t_delta(t_omega), cfg.tau(t_omega), 0.0,
                                     model.derived.e1, hbar=model.hbar)
        traj = propagate(model, sched)
        assert traj.n_steps == 8763
        norms = np.linalg.norm(traj.states, axis=1)
        assert traj.norm_drift == np.max(np.abs(norms**2 - 1.0))
        assert traj.norm_drift < 1e-13


class TestOutput:
    def test_sample_decimation(self, fig3a_model):
        sched = _resonant_schedule(fig3a_model, 4e3, 5e-3)
        traj = propagate(fig3a_model, sched,
                         step_control=StepControl(sample_cap=100))
        assert traj.times.size <= 100
        assert traj.times[-1] == pytest.approx(sched.t_end, rel=1e-12, abs=0)

    @pytest.mark.parametrize("sample_cap, n_steps", [
        (2, 1), (2, 511), (3, 511), (3, 512), (20, 511), (256, 255), (256, 511),
        (10_000, 9_999), (10_000, 19_999)])
    def test_sample_cap_bounds_the_samples(self, fig3a_model, sample_cap, n_steps):
        # both ends are stored and the count stays within the cap, also where
        # n / (cap - 1) is just over a whole number (511 steps at cap 256)
        schedule, _ = _stepped(fig3a_model, n_steps, sample_cap)
        control = StepControl(sample_cap=sample_cap,
                              h_override=schedule.duration / (n_steps - 0.5))
        traj = propagate(fig3a_model, schedule, step_control=control)
        assert traj.n_steps == n_steps
        assert 2 <= traj.times.size <= sample_cap
        assert traj.times[0] == schedule.t_start
        assert traj.times[-1] == pytest.approx(schedule.t_end, rel=1e-12, abs=0)

    # an infinite cap passed, to divide by zero in the sampled kernel, and
    # 2.5 stored 3 samples
    @pytest.mark.parametrize("sample_cap", [1, 0, -3, math.inf, 2.5])
    def test_sample_cap_keeps_both_ends(self, sample_cap):
        with pytest.raises(ValueError, match="sample_cap"):
            StepControl(sample_cap=sample_cap)

    def test_csv_layout(self, fig3a_model):
        traj = propagate(fig3a_model, _resonant_schedule(fig3a_model, 4e3, 1e-4),
                         step_control=StepControl(sample_cap=10))
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[:4] == ["time_s", "p0", "p1", "p2"]
        assert header[4:] == ["re_c0", "im_c0", "re_c1", "im_c1", "re_c2", "im_c2"]
        assert len(lines) == traj.times.size + 1

    def test_csv_deterministic(self, fig3a_model):
        sched = _resonant_schedule(fig3a_model, 4e3, 1e-3)
        a = trajectory_to_csv(propagate(fig3a_model, sched))
        b = trajectory_to_csv(propagate(fig3a_model, sched))
        assert a == b


def _stepped(model, n_steps, sample_cap):
    # a Gaussian drive with a linear detuning chirp, on exactly n_steps steps
    res = resonance_detunings(model)
    schedule = PulseSchedule(LinearRamp(res.d01 - 2e4, 2e7, 0.0),
                             Gaussian(peak=8e3, center=1.0e-3, width=4e-4),
                             0.0, 2e-3)
    control = StepControl(sample_cap=sample_cap,
                          h_override=schedule.duration / n_steps)
    return schedule, control


class TestScan:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_product_matches_matmul(self, dim):
        rng = np.random.default_rng(dim)
        shape = (dim, dim, 257)
        a, b = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
                for _ in range(2))
        a *= 10.0 ** rng.integers(-6, 6, size=shape)
        product = propagator._mul(a, b)
        expected = np.matmul(a.transpose(2, 0, 1), b.transpose(2, 0, 1))
        scale = np.matmul(np.abs(a).transpose(2, 0, 1), np.abs(b).transpose(2, 0, 1))
        error = np.abs(product.transpose(2, 0, 1) - expected)
        assert np.all(error <= 1e-15 * scale)

    @pytest.mark.parametrize("sample_cap", [10_000, 200, 20, 5])
    def test_scan_independent_of_block(self, fig3a_model, monkeypatch, sample_cap):
        # stride 1, a stride inside the group, a stride longer than the group,
        # and one (251) cut into pieces at blocks of 97 and 1; 1001 steps end
        # in a partial group (and a partial run when stride > 1)
        schedule, control = _stepped(fig3a_model, 1001, sample_cap)
        reference = propagate(fig3a_model, schedule, step_control=control)
        stride = math.ceil(reference.n_steps / (sample_cap - 1))
        group = max(1, propagator._GROUP // stride) * stride
        assert reference.n_steps == 1001 and reference.n_steps % group
        for block in (1, 97):
            monkeypatch.setattr(propagator, "_BLOCK", block)
            blocked = propagate(fig3a_model, schedule, step_control=control)
            np.testing.assert_array_equal(blocked.states, reference.states)
            np.testing.assert_array_equal(blocked.times, reference.times)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_reduce_runs_matches_chained_matmul(self, dim):
        # runs of lengths 2^k + 1, 2^k, odd and 1, and a pair of zero count;
        # each product as a chain of matmuls, and with the same bits when
        # its run is reduced alone
        runs = [(2, 9), (3, 8), (0, 6), (2, 5), (1, 3), (4, 1)]
        rng = np.random.default_rng(dim)
        count = sum(n * length for n, length in runs)
        raw = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
        unitaries = np.linalg.qr(raw)[0]

        def reduce(matrices, pairs):
            stack = propagator._WORK.take((dim, dim, len(matrices)))
            stack[...] = matrices.transpose(1, 2, 0)
            reduced = propagator._reduce_runs(stack, pairs)
            products = reduced.transpose(2, 0, 1).copy()
            propagator._WORK.give(reduced)
            return products

        products = reduce(unitaries, runs)
        assert products.shape == (sum(n for n, _ in runs), dim, dim)
        first = 0
        for product, length in zip(products, [length for n, length in runs
                                               for _ in range(n)]):
            run = unitaries[first:first + length]
            expected = np.linalg.multi_dot([*run[::-1], np.eye(dim)])
            assert np.max(np.abs(product - expected)) <= 1e-14 * np.max(np.abs(expected))
            assert reduce(run, [(1, length)])[0].tobytes() == product.tobytes()
            first += length

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(sample_cap=st.integers(2, 1200), block=st.integers(1, 3000))
    def test_decimated_final_state_matches_every_step(self, fig3a_model,
                                                      sample_cap, block):
        schedule, every_step = _stepped(fig3a_model, 1001, 10_000)
        full = propagate(fig3a_model, schedule, step_control=every_step)
        _, control = _stepped(fig3a_model, 1001, sample_cap)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(propagator, "_BLOCK", block)
            decimated = propagate(fig3a_model, schedule, step_control=control)
        assert np.max(np.abs(decimated.final_state - full.final_state)) < 1e-13
        index = np.searchsorted(full.times, decimated.times)
        np.testing.assert_array_equal(full.times[index], decimated.times)
        assert np.max(np.abs(full.states[index] - decimated.states)) < 1e-13


def _csv_by_rows(trajectory):
    # one row at a time, each float through repr: the reference layout
    dim = trajectory.dim
    header = (["time_s"] + [f"p{n}" for n in range(dim)]
              + [item for n in range(dim) for item in (f"re_c{n}", f"im_c{n}")])
    lines = [",".join(header)]
    for k in range(trajectory.times.size):
        row = [repr(float(trajectory.times[k]))]
        row += [repr(float(p)) for p in trajectory.populations[k]]
        for c in trajectory.states[k]:
            row += [repr(float(c.real)), repr(float(c.imag))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestCsv:
    def test_matches_row_by_row_repr(self):
        rows = 2 * propagator._CSV_ROWS + 37
        rng = np.random.default_rng(11)
        states = (rng.normal(size=(rows, 3)) + 1j * rng.normal(size=(rows, 3)))
        states *= 10.0 ** rng.integers(-300, 300, size=(rows, 3))
        states[0] = [-0.0, complex(0.0, -0.0), complex(-0.0, 5e-324)]
        states[1] = [complex(1.7976931348623157e308, -2.2250738585072014e-308),
                     1e-310, complex(-1e300, 1e-300)]
        populations = rng.uniform(size=(rows, 3))
        populations[0] = [-0.0, 5e-324, 1e300]
        times = np.linspace(-1e-3, 2e-3, rows)
        times[1] = -0.0
        trajectory = Trajectory(times=times, states=states, populations=populations,
                                n_steps=rows - 1, step=1e-6)
        assert trajectory_to_csv(trajectory) == _csv_by_rows(trajectory)

    def test_dense_ramp_csv_is_joined_once(self, fig3a, fig3a_model):
        # the 2049-row trajectory of `qtweezers propagate` on the slowest
        # ramp: the text and its rows at most, where the rows joined with
        # "\n" and then a last "\n" held three copies at once
        schedule = gated_ramp_schedule(fig3a_model, fig3a.omega_l, 3e5, target=1,
                                       geometry=fig3a.ramp)
        trajectory = propagate(fig3a_model, schedule,
                               step_control=_PROPAGATE_STEP_CONTROL)
        assert trajectory.times.size == 2049
        tracemalloc.start()
        try:
            text = trajectory_to_csv(trajectory)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == _csv_by_rows(trajectory)
        assert peak < 2.5 * len(text)

    def test_propagated_matches_row_by_row_repr(self, fig3a_model):
        schedule, control = _stepped(fig3a_model, 1001, 10_000)
        trajectory = propagate(fig3a_model, schedule, step_control=control)
        assert trajectory.times.size % propagator._CSV_ROWS
        assert trajectory_to_csv(trajectory) == _csv_by_rows(trajectory)


def _fig4_chirp(t_omega=3.25e-3, omega_hat=None):
    fig4 = get_preset("fig4")
    model = build_level_model(derive_all(fig4.system), n_max=2)
    cfg = fig4.scrap
    omega_hat = cfg.omega_hat if omega_hat is None else omega_hat
    schedule = build_scrap_schedule(omega_hat, t_omega, cfg.delta_hat,
                                    cfg.t_delta(t_omega), cfg.tau(t_omega), 0.0,
                                    model.derived.e1, hbar=model.hbar)
    return model, schedule


def _assert_same_bits(a, b):
    for name in ("times", "states", "populations"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.n_steps, a.step, a.norm_drift) == (b.n_steps, b.step, b.norm_drift)


def _in_fresh_thread(call):
    # a new thread starts with an empty workspace
    out = []
    worker = threading.Thread(target=lambda: out.append(call()))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive() and len(out) == 1
    return out[0]


def _steady_peak(model, schedule, control):
    # the trajectory and traced peak of the first call that leaves the
    # thread's workspace holding the arrays it found; the workspace may take
    # a few calls to settle, as arrays of several sizes share it
    for _ in range(6):
        pool = list(propagator._WORK.free)
        tracemalloc.start()
        try:
            trajectory = propagate(model, schedule, step_control=control)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if sorted(map(id, propagator._WORK.free)) == sorted(map(id, pool)):
            return trajectory, peak
    raise AssertionError("the workspace did not settle in six calls")


class TestWorkspace:
    """The block kernel's per-thread scratch arrays change no result."""

    @pytest.fixture(scope="class")
    def cases(self, fig3a_derived, fig3a_model):
        # dims 2 and 3, stride 1 and strides inside and beyond the group,
        # lengths that end in partial blocks, and a block of 97 steps
        two_level = build_level_model(fig3a_derived, n_max=1)
        fig4_model, chirp = _fig4_chirp(1.0e-3)
        stepped, every_step = _stepped(fig3a_model, 1001, 10_000)
        _, decimated = _stepped(fig3a_model, 1001, 20)
        return [
            (two_level, _resonant_schedule(two_level, 4e3, 2e-3), StepControl(), None),
            (fig3a_model, stepped, every_step, None),
            (fig4_model, chirp, StepControl(sample_cap=256), None),
            (fig3a_model, stepped, decimated, 97),
            (two_level, _resonant_schedule(two_level, 4e3, 1e-3),
             StepControl(sample_cap=37), 97),
        ]

    @staticmethod
    def _run(case):
        model, schedule, control, block = case
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(propagator, "_BLOCK", block)
            return propagate(model, schedule, step_control=control)

    def test_interleaved_calls_match_fresh_threads(self, cases):
        fresh = [_in_fresh_thread(lambda case=case: self._run(case)) for case in cases]
        for k in (0, 2, 1, 4, 3, 2, 0, 3, 1, 4):
            _assert_same_bits(self._run(cases[k]), fresh[k])

    def test_concurrent_threads_match_serial(self, cases):
        # _BLOCK is left alone here: patching a module global from several
        # threads at once would race
        serial = [propagate(model, schedule, step_control=control)
                  for model, schedule, control, _ in cases]
        results = {}

        def work(order):
            for k in order:
                model, schedule, control, _ = cases[k]
                results.setdefault(k, []).append(
                    propagate(model, schedule, step_control=control))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(order,))
                       for order in ([0, 1, 2, 3, 4], [2, 4, 3, 1, 0], [4, 3, 2, 1, 0])]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert sum(map(len, results.values())) == 15
        for k, trajectories in results.items():
            for trajectory in trajectories:
                _assert_same_bits(trajectory, serial[k])

    def test_returned_trajectory_is_not_reused(self, cases):
        first = self._run(cases[1])
        kept = Trajectory(times=first.times.copy(), states=first.states.copy(),
                          populations=first.populations.copy(),
                          n_steps=first.n_steps, step=first.step,
                          norm_drift=first.norm_drift)
        for case in cases:
            self._run(case)
        _assert_same_bits(first, kept)
        for array in (first.times, first.states, first.populations):
            assert not any(np.shares_memory(array, flat)
                           for flat in propagator._WORK.free)

    def test_warm_propagate_allocates_under_two_blocks(self):
        # the 8763-step fig4 chirp: with the workspace warm, the traced peak
        # stays below two block-sized arrays (the allocating kernel peaked at
        # 7.5); tracemalloc counts numpy's data, whatever the allocator does
        model, schedule = _fig4_chirp()
        trajectory, peak = _in_fresh_thread(lambda: _steady_peak(
            model, schedule, StepControl(sample_cap=256)))
        assert trajectory.n_steps == 8763
        assert peak < 2 * model.dim ** 2 * propagator._BLOCK * 16

    def test_warm_generator6_fills_the_hamiltonians_in_place(self):
        # H at each of a block's three Gauss-Legendre nodes is filled in place
        # into a workspace array of its own: a warm call traces no (3N, dim,
        # dim) float stack (a fresh stack, then copied in, put the peak at 1.6
        # such stacks)
        model, schedule = _fig4_chirp()
        count = propagator._BLOCK
        h = np.full(count, schedule.duration / 8763)
        times = schedule.t_start + np.arange(count) * h

        def warm_peak():
            for _ in range(3):
                propagator._WORK.give(propagator._generator6(model, schedule, times, h))
            tracemalloc.start()
            try:
                propagator._WORK.give(propagator._generator6(model, schedule, times, h))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert _in_fresh_thread(warm_peak) < 3 * count * model.dim ** 2 * 8

    def test_warm_final_states_hold_seven_arrays_of_at_most_a_block(self):
        # no kernel request is larger than one complex block, and at most the
        # exponential's seven arrays are out at once, so warm final-state
        # calls leave at most seven arrays in the workspace, none larger
        model, schedule = _fig4_chirp()
        controls = [StepControl(sample_cap=2), StepControl(order=6, sample_cap=2),
                    StepControl(order=6, spectral=True, sample_cap=2)]

        def warm_sizes():
            for _ in range(3):
                steps = [propagate(model, schedule, step_control=control).n_steps
                         for control in controls]
            return steps, [flat.nbytes for flat in propagator._WORK.free]

        steps, sizes = _in_fresh_thread(warm_sizes)
        assert steps[2] > propagator._BLOCK  # the spectral run spans more than one block
        assert len(sizes) <= 7
        assert max(sizes) <= model.dim ** 2 * propagator._BLOCK * 16

    def test_run_longer_than_a_block_allocates_under_two_blocks(self, fig3a_model):
        # two samples inside 200,000 steps: a run of 100,000 steps is cut into
        # pieces of at most a block (it peaked at 23 MB when a block held it)
        schedule, control = _stepped(fig3a_model, 200_000, 3)
        trajectory, peak = _in_fresh_thread(lambda: _steady_peak(
            fig3a_model, schedule, control))
        assert trajectory.n_steps == 200_000 and trajectory.times.size == 3
        assert peak < 2 * fig3a_model.dim ** 2 * propagator._BLOCK * 16


class TestSixthOrder:
    def test_order_is_4_or_6(self):
        assert StepControl().order == 4
        assert StepControl(order=np.int64(6)).order == 6
        for order in (0, 2, 5, 8, 6.5, "6", 6.0, np.float64(4)):
            with pytest.raises(ValueError, match="order must be"):
                StepControl(order=order)

    def test_spectral_is_a_bool(self):
        with pytest.raises(ValueError, match="spectral must be a bool"):
            StepControl(order=6, spectral="yes")

    def test_generator_matches_the_commutator_formula(self):
        # Blanes, Casas, Oteo & Ros (2009): three Gauss-Legendre nodes, with
        # the commutators written out in complex arithmetic
        model, schedule = _fig4_chirp(1.0e-3)
        count = 300
        h = schedule.duration / count
        times = schedule.t_start + np.arange(count) * h
        omega = propagator._generator6(model, schedule, times, h).transpose(2, 0, 1)
        nodes = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0
        stacks = [hamiltonian_stack(model, schedule.detuning(times + c * h),
                                    schedule.rabi(times + c * h)) for c in nodes]
        a1, a2, a3 = (-1j * h / model.hbar * s for s in stacks)

        def comm(x, y):
            return x @ y - y @ x

        alpha1 = a2
        alpha2 = math.sqrt(15.0) / 3.0 * (a3 - a1)
        alpha3 = 10.0 / 3.0 * (a3 - 2.0 * a2 + a1)
        c1 = comm(alpha1, alpha2)
        c2 = -comm(alpha1, 2.0 * alpha3 + c1) / 60.0
        expected = (alpha1 + alpha3 / 12.0
                    + comm(-20.0 * alpha1 - alpha3 + c1, alpha2 + c2) / 240.0)
        scale = np.max(np.abs(expected), axis=(1, 2))
        assert np.all(np.max(np.abs(omega - expected), axis=(1, 2)) <= 1e-15 * scale)
        np.testing.assert_array_equal(omega, -omega.conj().transpose(0, 2, 1))

    @pytest.mark.parametrize("sample_cap", [10_000, 256, 20])
    def test_block_size_does_not_change_a_bit(self, fig3a_model, monkeypatch,
                                              sample_cap):
        schedule, control = _stepped(fig3a_model, 1001, sample_cap)
        control = StepControl(sample_cap=sample_cap, h_override=control.h_override,
                              order=6)
        reference = propagate(fig3a_model, schedule, step_control=control)
        for block in (1, 97):
            monkeypatch.setattr(propagator, "_BLOCK", block)
            _assert_same_bits(propagate(fig3a_model, schedule, step_control=control),
                              reference)

    def test_step_rule_has_no_floor(self):
        # a fig4 chirp at t_omega = 0.25 ms: the fourth-order floor of 1000
        # steps decides there; the sixth-order error estimate has no floor
        # and accepts the finest grid of its first call, 512 steps
        model, schedule = _fig4_chirp(2.5e-4)
        fourth = propagate(model, schedule, step_control=StepControl(sample_cap=2))
        sixth = propagate(model, schedule,
                          step_control=StepControl(sample_cap=2, order=6))
        assert fourth.n_steps in (1000, 1001)  # window / (window / 1000), rounded up
        assert sixth.n_steps == 512 < fourth.n_steps
        assert np.max(np.abs(sixth.populations[-1] - fourth.populations[-1])) < 1e-9


def _final_states(model, schedule, psi, counts, order):
    """Final states, (len(counts), dim), of grids of counts[k] steps run in one _grids call."""
    grids = propagator._grids(model, schedule, psi, [(n, n) for n in counts], order)
    return np.array([states[-1] for _, states in grids])


class TestFinalStates:
    """Final states of the grid runner, and the sixth-order step controller."""

    @pytest.mark.parametrize("order", [4, 6])
    def test_grid_alone_or_stacked_at_any_block(self, fig3a_model, monkeypatch, order):
        # the grids share blocks and the 1001-step grid ends in a partial
        # piece; a grid's state must not change a bit for either
        schedule, _ = _stepped(fig3a_model, 1001, 2)
        psi = np.array([0.6, 0.48j, -0.64], dtype=complex)
        counts = [64, 128, 256, 1001]
        reference = _final_states(fig3a_model, schedule, psi, counts, order)
        for block in (1, 97, propagator._BLOCK):
            monkeypatch.setattr(propagator, "_BLOCK", block)
            stacked = _final_states(fig3a_model, schedule, psi, counts[::-1], order)
            assert stacked[::-1].tobytes() == reference.tobytes()
            for n, state in zip(counts, reference):
                alone = _final_states(fig3a_model, schedule, psi, [n], order)
                assert alone[0].tobytes() == state.tobytes()

    def test_sampled_grids_alone_or_together_at_any_block(self, fig3a_model, monkeypatch):
        # sampled and final-only grids in one call; at a block of 97 (pieces
        # of 64 steps) the grids' runs have 5, 4 and 1 pieces, so the runner
        # takes each grid's runs from between the others'
        schedule, _ = _stepped(fig3a_model, 1001, 2)
        psi = np.array([0.6, 0.48j, -0.64], dtype=complex)
        grids = [(1001, 250), (500, 250), (300, 300), (1001, 7)]
        reference = [propagator._grids(fig3a_model, schedule, psi, [grid], 4)[0]
                     for grid in grids]
        for block in (97, propagator._BLOCK):
            monkeypatch.setattr(propagator, "_BLOCK", block)
            together = propagator._grids(fig3a_model, schedule, psi, grids, 4)
            for (steps, states), (alone_steps, alone) in zip(together, reference):
                assert steps.tobytes() == alone_steps.tobytes()
                assert states.tobytes() == alone.tobytes()
        assert [len(steps) for steps, _ in reference] == [6, 3, 2, 144]

    @pytest.mark.parametrize("order", [4, 6])
    def test_final_state_matches_the_sampled_kernel(self, fig3a_model, order):
        schedule, control = _stepped(fig3a_model, 1001, 10_000)
        control = StepControl(h_override=control.h_override, order=order)
        sampled = propagate(fig3a_model, schedule, step_control=control)
        final = _final_states(fig3a_model, schedule, sampled.states[0], [1001], order)
        assert np.max(np.abs(final[0] - sampled.final_state)) < 1e-13
        two_ends = propagate(fig3a_model, schedule, step_control=StepControl(
            sample_cap=2, h_override=control.h_override, order=order))
        assert two_ends.final_state.tobytes() == final[0].tobytes()
        assert two_ends.times.tobytes() == sampled.times[[0, -1]].tobytes()
        assert (two_ends.n_steps, two_ends.step) == (sampled.n_steps, sampled.step)

    def test_sampled_sixth_order_takes_the_accepted_count(self):
        model, schedule = _fig4_chirp(1.0e-3)
        two_ends = propagate(model, schedule,
                             step_control=StepControl(sample_cap=2, order=6))
        sampled = propagate(model, schedule,
                            step_control=StepControl(sample_cap=256, order=6))
        assert sampled.n_steps == two_ends.n_steps
        assert sampled.step == two_ends.step
        assert np.max(np.abs(sampled.final_state - two_ends.final_state)) < 1e-13

    def test_samples_inside_the_window_meet_their_target(self):
        # the default fig4 chirp: at the 512 steps that hold its final
        # populations to 1e-11, the populations inside the window were up to
        # 5.8e-9 off; the samples now come from 1024 steps, at the times of
        # the 512-step grid's
        model, schedule = _fig4_chirp()
        two_ends = propagate(model, schedule, step_control=StepControl(sample_cap=2, order=6))
        sampled = propagate(model, schedule, step_control=StepControl(order=6))
        assert (two_ends.n_steps, sampled.n_steps, len(sampled.times)) == (512, 1024, 513)
        reference = propagate(model, schedule, step_control=StepControl(
            order=6, h_override=sampled.step / 8, sample_cap=513))
        assert np.array_equal(reference.times, sampled.times)
        assert np.max(np.abs(reference.populations - sampled.populations)) < 1e-10

    @pytest.mark.parametrize("power, accepted", [(6, 512), (2, 2048)])
    def test_estimate_divides_by_63_only_at_a_sixth_order_fall(self, monkeypatch,
                                                               power, accepted):
        # final populations 0.5 -+ c n^-power, scaled so that they move by
        # 63 x 0.5e-11 from 256 to 512 steps: a sixth-order fall accepts 512
        # steps, a second-order one (each change a quarter of the one
        # before) divides the change by 3 and doubles on until 2048 steps
        c = 63 * 0.5e-11 / (256.0 ** -power - 512.0 ** -power)

        def grids(model, schedule, psi, pairs, order):  # each grid's final state alone
            p = 0.5 + c * np.array([steps for steps, _ in pairs], dtype=float) ** -power
            finals = np.stack([np.sqrt(1.0 - p), np.sqrt(p), 0.0 * p], axis=1) + 0j
            return [(None, final[None]) for final in finals]

        monkeypatch.setattr(propagator, "_grids", grids)
        assert propagator._controlled(None, None, None)[0] == accepted

    def test_spectral_sixth_order_keeps_the_rule(self):
        # 20 points per period of the largest spectral scale, no floor
        model, schedule = _fig4_chirp(1.0e-3)
        omega_max = propagator._spectral_scale(model, schedule)
        control = StepControl(sample_cap=2, order=6, spectral=True)
        traj = propagate(model, schedule, step_control=control)
        assert traj.n_steps == math.ceil(schedule.duration / (2 * math.pi / (20 * omega_max)))
        estimated = propagate(model, schedule, step_control=StepControl(sample_cap=2, order=6))
        assert traj.n_steps != estimated.n_steps
        assert np.max(np.abs(traj.populations[-1] - estimated.populations[-1])) < 1e-10

    def test_step_limit_raises(self, monkeypatch):
        # below the 512 steps of the first call's finest grid, that call
        # stops on its step check before any grid runs
        model, schedule = _fig4_chirp(1.0e-3)
        monkeypatch.setattr(propagator, "_MAX_STEPS", 256)
        with pytest.raises(IntegrationError, match="no grid of up to 256 steps spans"):
            propagate(model, schedule, step_control=StepControl(sample_cap=2, order=6))

    def test_sample_step_limit_raises(self, monkeypatch, fig3a, fig3a_model):
        # no sample estimate meets a negative target: the sample test doubles
        # the accepted grid until the next would pass the step limit
        schedule = build_pi_pulse(fig3a_model, (0, 1), fig3a.pi.t_omega)
        monkeypatch.setattr(propagator, "_MAX_STEPS", 1024)
        monkeypatch.setattr(propagator, "_SAMPLE_TOLERANCE", -1.0)
        requests = _counted_grids(monkeypatch)
        with pytest.raises(IntegrationError, match=r"^no sixth-order grid of up to 1024 steps "
                           r"meets the -1e\+00 target inside the window: error estimate "
                           r"\S+ at 1024 steps$"):
            propagate(fig3a_model, schedule, step_control=StepControl(order=6))
        assert max(steps for pairs in requests for steps, _ in pairs) == 1024


def _counted_grids(monkeypatch):
    """Wrap _grids; returns the list of the (steps, stride) pairs of each call."""
    requests = []
    grids = propagator._grids

    def counted(model, schedule, psi, pairs, order):
        requests.append(list(pairs))
        return grids(model, schedule, psi, pairs, order)

    monkeypatch.setattr(propagator, "_grids", counted)
    return requests


_FIRST_CALL = [(128, 128), (256, 256), (512, 512)]  # final states only


class TestFirstCall:
    """The controller's first _grids call runs the 128- to 512-step grids."""

    @pytest.mark.parametrize("omega_hat, t_omega, accepted, calls", [
        (1.5e4, 0.5e-3, 512, 1), (1.5e4, 1.0e-3, 512, 1), (1e4 / 3, 3.25e-3, 1024, 2)])
    def test_calls_per_accepted_count(self, monkeypatch, omega_hat, t_omega,
                                      accepted, calls):
        model, schedule = _fig4_chirp(t_omega, omega_hat)
        requests = _counted_grids(monkeypatch)
        traj = propagate(model, schedule, step_control=StepControl(sample_cap=2, order=6))
        assert traj.n_steps == accepted
        assert requests[0] == _FIRST_CALL and len(requests) == calls
        assert all(pairs == [(n, n)] for pairs, n in zip(requests[1:], (1024, 2048)))
        # the accepted grid's state is the one it has alone
        (alone,) = _final_states(model, schedule, traj.states[0], [accepted], 6)
        assert traj.final_state.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("limit", [256, 512])
    def test_no_grid_above_the_step_limit(self, monkeypatch, limit):
        # the point needs 1024 steps; a limit below the first call's finest
        # grid stops that call on its step check, before any grid runs
        model, schedule = _fig4_chirp(3.25e-3, 1e4 / 3)
        monkeypatch.setattr(propagator, "_MAX_STEPS", limit)
        requests = _counted_grids(monkeypatch)
        match = f"no grid of up to {limit} steps spans" if limit < 512 else f"at {limit} steps"
        with pytest.raises(IntegrationError, match=match):
            propagate(model, schedule, step_control=StepControl(sample_cap=2, order=6))
        if limit < 512:
            assert requests == [_FIRST_CALL]
        else:
            assert max(steps for pairs in requests for steps, _ in pairs) == limit

    def test_a_pilot_grid_may_drift(self):
        # the fig4 chirp with its pump 1 s before the crossings: alone, the
        # 128-step grid drifts 2e-9 off the unit sphere; as a pilot of the
        # 512-step grid, which does not, it only fails the estimate
        fig4 = get_preset("fig4")
        model = build_level_model(derive_all(fig4.system), n_max=2)
        cfg, t_omega = fig4.scrap, fig4.scrap.t_omega
        schedule = build_scrap_schedule(cfg.omega_hat, t_omega, cfg.delta_hat,
                                        cfg.t_delta(t_omega), cfg.tau(t_omega), -1.0,
                                        model.derived.e1, hbar=model.hbar)
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(IntegrationError, match=r"norm drift .* \(steps=128,"):
            _final_states(model, schedule, psi, [128], 6)
        _final_states(model, schedule, psi, [64, 128, 256, 512], 6)
        traj = propagate(model, schedule, step_control=StepControl(sample_cap=2, order=6))
        reference = propagate(model, schedule, step_control=StepControl(
            sample_cap=2, order=6, h_override=traj.step / 4))
        assert np.max(np.abs(traj.populations[-1] - reference.populations[-1])) < 1e-10

    @pytest.mark.parametrize("counts, named", [
        ([64, 128, 256, 512], 64), ([512, 256, 128, 64], 512), ([64, 4096], 4096)])
    def test_non_finite_grids_name_the_first_in_grid_order(self, fig3a_model,
                                                           counts, named):
        # every grid goes non-finite; the one named is the first of the grids
        # ordered by piece count, most first, then as given
        schedule = PulseSchedule(Constant(0.0), Constant(math.nan), 0.0, 1e-3)
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        with np.errstate(invalid="ignore"), pytest.raises(
                IntegrationError, match=rf"non-finite amplitudes \(steps={named},"):
            _final_states(fig3a_model, schedule, psi, counts, 6)


def _ramp_cli_propagate():
    """The model and schedule of the fig3a ramp at 3e5 rad/s^2, qtweezers propagate's run."""
    preset = get_preset("fig3a")
    model = preset_model(preset)
    return model, gated_ramp_schedule(model, preset.omega_l, 3e5, geometry=preset.ramp)


class TestOneLadder:
    """A sampled sixth-order run computes each grid of its estimate once."""

    def test_each_grid_once(self, monkeypatch):
        # the first call's three grids hold final states only; 1024 and 2048
        # steps run sampled, and those samples serve both estimates.  Each
        # grid was run twice (7040 steps): for its final state, then sampled
        model, schedule = _ramp_cli_propagate()
        calls = _counted_grids(monkeypatch)
        traj = propagate(model, schedule, step_control=_PROPAGATE_STEP_CONTROL)
        assert traj.n_steps == 2048 and len(traj.times) == 2049
        assert calls == [_FIRST_CALL, [(1024, 1)], [(2048, 1)]]
        assert sum(steps for pairs in calls for steps, _ in pairs) == 3968

    def test_stride_that_does_not_match_recomputes_the_half_grid(self, monkeypatch):
        # at a cap of 1536 samples, the 1024-step rung is sampled at stride 1
        # and the 2048-step one at stride 2, so the sample test runs the
        # 1024-step grid again at stride 2; the samples are those of a run
        # that samples the accepted grids alone
        model, schedule = _ramp_cli_propagate()
        control = StepControl(sample_cap=1536, order=6)
        calls = _counted_grids(monkeypatch)
        traj = propagate(model, schedule, step_control=control)
        assert calls == [_FIRST_CALL, [(1024, 1)], [(2048, 2)], [(1024, 2)]]
        [(steps, alone)] = propagator._grids(model, schedule, traj.states[0], [(2048, 2)], 6)
        assert traj.n_steps == 2048
        assert traj.states.tobytes() == alone.tobytes()
        assert traj.times.tobytes() == (schedule.t_start + steps * traj.step).tobytes()


@dataclass(frozen=True)
class Sech(Envelope):
    """peak sech(t / width)."""

    peak: float
    width: float

    def __call__(self, t):
        return self.peak / np.cosh(np.asarray(t, dtype=float) / self.width)


# (T, g0 T, delta T): both pulse widths, each pulse area and detuning once
_ROSEN_ZENER = [(1e-4, 0.5, 2.0), (1e-4, 1.0, 0.0), (1e-4, 1.7, 0.3), (1e-4, 3.0, 1.0),
                (1e-4, 5.3, 4.0), (3e-4, 0.5, 1.0), (3e-4, 1.0, 4.0), (3e-4, 1.7, 2.0),
                (3e-4, 3.0, 0.3), (3e-4, 5.3, 0.0)]
_SIXTH_ORDER = [StepControl(order=6), StepControl(order=6, sample_cap=2)]


class TestClosedForms:
    """The sixth-order estimate against closed forms, at its 1e-11 target.

    A drive g(t) = g0 sech(t / T) at a constant detuning delta from
    resonance ends in p = sin^2(pi g0 T / 2) sech^2(pi delta T / 2) (Rosen &
    Zener, Phys. Rev. 40, 502 (1932)); the window of +-40 T leaves out about
    e^-40 of the pulse.  Both step controls of the estimate are run, the
    sampled one (propagate's) and the final-state one (the sweeps').
    """

    @staticmethod
    def _schedule(model, width, area, offset, rabi):
        # rabi: the two-level Rabi frequency per unit of Omega_L
        gap = (model.bare_energies[1] - model.bare_energies[0]) / model.hbar
        return PulseSchedule(Constant(gap - offset / width),
                             Sech(area / width / rabi, width), -40 * width, 40 * width)

    @staticmethod
    def _p(area, offset):
        return math.sin(math.pi * area / 2) ** 2 / math.cosh(math.pi * offset / 2) ** 2

    @pytest.mark.parametrize("control", _SIXTH_ORDER, ids=["sampled", "final"])
    @pytest.mark.parametrize("width, area, offset", _ROSEN_ZENER)
    def test_rosen_zener(self, two_level, control, width, area, offset):
        schedule = self._schedule(two_level, width, area, offset, two_level.rabi_units[0])
        traj = propagate(two_level, schedule, step_control=control)
        p = self._p(area, offset)
        assert np.max(np.abs(traj.populations[-1] - [1 - p, p])) < 1e-11

    @pytest.mark.parametrize("control", _SIXTH_ORDER, ids=["sampled", "final"])
    @pytest.mark.parametrize("width, area, offset", _ROSEN_ZENER)
    def test_spin_1(self, control, width, area, offset):
        # equally spaced levels and equal couplings u: the spin-1 image of a
        # two-level problem of Rabi frequency u Omega_L / sqrt 2 (Majorana,
        # Nuovo Cimento 9, 43 (1932)), which from |0> ends in (1 - p)^2,
        # 2 p (1 - p) and p^2
        model, _ = _fig4_chirp()
        e1, u = model.bare_energies[1] - model.bare_energies[0], model.rabi_units[0]
        model = replace(model, bare_energies=(0.0, e1, 2 * e1), rabi_units=(u, u))
        schedule = self._schedule(model, width, area, offset, u / math.sqrt(2))
        traj = propagate(model, schedule, step_control=control)
        p = self._p(area, offset)
        expected = [(1 - p) ** 2, 2 * p * (1 - p), p ** 2]
        assert np.max(np.abs(traj.populations[-1] - expected)) < 1e-11

    @pytest.mark.parametrize("control", _SIXTH_ORDER, ids=["sampled", "final"])
    @pytest.mark.parametrize("width, area, offset", _ROSEN_ZENER)
    def test_two_photon_resonance(self, control, width, area, offset):
        # the model's own couplings u0, u1 = sqrt 2 u0 at the two-photon
        # resonance Delta = E2 / 2 hbar, with E1 set so that H11 = hbar delta
        # and H00 = H22 = 0: the bright state (u0 |0> + u1 |2>) / n meets |1>
        # at Rabi frequency n Omega_L and the dark state does not move
        # (Morris & Shore, Phys. Rev. A 27, 906 (1983)).  With c the bright
        # state's Rosen-Zener survival amplitude, Gamma(z)^2 / Gamma(z + a)
        # Gamma(z - a), z = 1/2 + i delta T / 2 and a = n g0 T / 2, the run from
        # |0> ends in psi0 = (u0^2 c + u1^2) / n^2 and psi2 = u0 u1 (c - 1) / n^2,
        # so the amplitudes read the phase of c and its sign
        model, _ = _fig4_chirp()
        e2, (u0, u1) = model.bare_energies[2], model.rabi_units
        n2 = u0 ** 2 + u1 ** 2
        model = replace(model, bare_energies=(0.0, e2 / 2 + model.hbar * offset / width, e2))
        schedule = PulseSchedule(Constant(e2 / (2 * model.hbar)),
                                 Sech(area / width / math.sqrt(n2), width),
                                 -40 * width, 40 * width)
        traj = propagate(model, schedule, step_control=control)
        z = 0.5 + 0.5j * offset
        c = special.gamma(z) ** 2 * special.rgamma(z + area / 2) * special.rgamma(z - area / 2)
        psi0, psi2 = (u0 ** 2 * c + u1 ** 2) / n2, u0 * u1 * (c - 1) / n2
        expected = [abs(psi0) ** 2, u0 ** 2 / n2 * (1 - abs(c) ** 2), abs(psi2) ** 2]
        assert np.max(np.abs(traj.populations[-1] - expected)) < 1e-11
        assert np.max(np.abs(traj.states[-1, [0, 2]] - [psi0, psi2])) < 1e-10


def _mirrored(envelope, end):
    """The envelope of t, as a function of end - t."""
    if isinstance(envelope, Gaussian):
        return Gaussian(peak=envelope.peak, center=end - envelope.center,
                        width=envelope.width)
    return LinearRamp(envelope.start, -envelope.rate, end - envelope.t_ref)


@st.composite
def _smooth_runs(draw):
    # a linear chirp or a Gaussian detuning excursion around the 0-1
    # resonance, a Gaussian drive, a random start state and step count
    duration = draw(st.floats(2e-4, 4e-3))
    center = st.floats(0.2, 0.8).map(lambda u: u * duration)
    width = st.floats(0.1, 0.4).map(lambda u: u * duration)
    if draw(st.booleans()):
        detuning = LinearRamp(draw(st.floats(-3e4, 3e4)), draw(st.floats(-5e7, 5e7)),
                              draw(center))
    else:
        detuning = Gaussian(peak=draw(st.floats(-4e4, 4e4)), center=draw(center),
                            width=draw(width))
    rabi = Gaussian(peak=draw(st.floats(0.0, 2e4)), center=draw(center),
                    width=draw(width))
    state = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6)))
    state = state[:3] + 1j * state[3:]
    state = state / np.linalg.norm(state) if np.linalg.norm(state) > 0.1 else None
    return detuning, rabi, duration, state, draw(st.integers(16, 600))


class TestSmoothScheduleProperties:
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(run=_smooth_runs(), order=st.sampled_from([4, 6]))
    def test_unitary_and_time_reversible(self, fig3a_model, run, order):
        # a real symmetric H(t): the run over the time-mirrored schedule,
        # started from the conjugated final state, returns the conjugated
        # start state.  Both schemes are symmetric, so this holds to rounding
        # at any step
        detuning, rabi, duration, state, n_steps = run
        d01 = resonance_detunings(fig3a_model).d01
        control = StepControl(h_override=duration / n_steps, order=order)
        forward = PulseSchedule(OffsetSum(d01, detuning), rabi, 0.0, duration)
        traj = propagate(fig3a_model, forward, initial_state=state,
                         step_control=control)
        assert traj.norm_drift < 1e-12
        start = traj.states[0]
        backward = PulseSchedule(OffsetSum(d01, _mirrored(detuning, duration)),
                                 _mirrored(rabi, duration), 0.0, duration)
        back = propagate(fig3a_model, backward, initial_state=np.conj(traj.final_state),
                         step_control=control)
        assert back.norm_drift < 1e-12
        assert np.max(np.abs(back.final_state - np.conj(start))) < 1e-12


class TestOneContract:
    # an infinite step was taken, and propagated the whole window in one
    # step; so was True, as a 1 s step
    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf, True])
    def test_step_override_must_be_positive(self, h):
        with pytest.raises(ValueError, match="h_override must be positive"):
            StepControl(h_override=h)

    # the start state is held to the tolerance every propagated state is:
    # [1 + 1e-7, 0, 0] was taken, then failed as a norm drift of 2e-7, and a
    # NaN amplitude passed, to fail as non-finite amplitudes
    @pytest.mark.parametrize("state", [[1.0 + 1e-7, 0.0, 0.0], [1.0, math.nan, 0.0]],
                             ids=["off_by_1e-7", "nan"])
    def test_initial_state_outside_the_norm_tolerance(self, fig3a_model, state):
        schedule = _resonant_schedule(fig3a_model, 4e3, 1e-4)
        with pytest.raises(ValueError, match="initial state"):
            propagate(fig3a_model, schedule, initial_state=np.array(state))

    def test_initial_state_inside_the_norm_tolerance(self, fig3a_model):
        schedule = _resonant_schedule(fig3a_model, 4e3, 1e-4)
        traj = propagate(fig3a_model, schedule,
                         initial_state=np.array([1.0 + 2e-10, 0.0, 0.0]))
        assert traj.norm_drift <= propagator.NORM_TOLERANCE

    @pytest.mark.parametrize("h_override, reason", [
        (1e-20, "no grid of up to 16777216 steps"), (None, r"at the 0\.000e\+00 s step")])
    def test_step_count_out_of_range(self, fig3a_model, h_override, reason):
        # a 1e-4 s window at a 1e-20 s step; a 1e-322 s window at a
        # thousandth of it, which rounds to 0
        duration = 1e-4 if h_override else 1e-322
        schedule = _resonant_schedule(fig3a_model, 4e3, duration)
        with pytest.raises(IntegrationError, match=reason):
            propagate(fig3a_model, schedule,
                      step_control=StepControl(h_override=h_override))

    @pytest.mark.parametrize("sample_cap", [2, StepControl.sample_cap])
    def test_estimate_step_that_rounds_to_0(self, fig3a_model, sample_cap):
        # the sixth-order estimate held the same contract as the spectral
        # rule nowhere: on a 1e-322 s window its grids stepped by 0 and it
        # returned the start state at 256 steps
        schedule = _resonant_schedule(fig3a_model, 4e3, 1e-322)
        control = StepControl(sample_cap=sample_cap, order=6)
        with pytest.raises(IntegrationError, match=r"at the 0\.000e\+00 s step"):
            propagate(fig3a_model, schedule, step_control=control)
