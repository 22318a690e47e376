"""Schroedinger propagation: analytic oracles, unitarity, convergence."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantum_tweezers import (
    Constant,
    Gaussian,
    IntegrationError,
    LinearRamp,
    OffsetSum,
    PulseSchedule,
    StepControl,
    Trajectory,
    build_level_model,
    build_scrap_schedule,
    derive_all,
    get_preset,
    propagate,
    trajectory_to_csv,
    transfer_probability,
)
from quantum_tweezers import propagator
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
        assert traj.times[-1] == pytest.approx(sched.t_end, rel=1e-12)

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
        assert traj.times[-1] == pytest.approx(schedule.t_end, rel=1e-12)

    @pytest.mark.parametrize("sample_cap", [1, 0, -3])
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

    @pytest.mark.parametrize("sample_cap", [10_000, 200, 20])
    def test_scan_independent_of_block(self, fig3a_model, monkeypatch, sample_cap):
        # stride 1, a stride inside the group, a stride longer than the group;
        # 1001 steps end in a partial group (and a partial run when stride > 1)
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
        control = StepControl(sample_cap=256)
        propagate(model, schedule, step_control=control)
        tracemalloc.start()
        try:
            trajectory = propagate(model, schedule, step_control=control)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trajectory.n_steps == 8763
        assert peak < 2 * model.dim ** 2 * propagator._BLOCK * 16


class TestSixthOrder:
    def test_order_is_4_or_6(self):
        assert StepControl().order == 4
        for order in (0, 2, 5, 8, 6.5, "6"):
            with pytest.raises(ValueError):
                StepControl(order=order)

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
        # and accepts its 256-step pilot grid
        model, schedule = _fig4_chirp(2.5e-4)
        fourth = propagate(model, schedule, step_control=StepControl(sample_cap=2))
        sixth = propagate(model, schedule,
                          step_control=StepControl(sample_cap=2, order=6))
        assert fourth.n_steps in (1000, 1001)  # window / (window / 1000), rounded up
        assert sixth.n_steps < fourth.n_steps / 2
        assert np.max(np.abs(sixth.populations[-1] - fourth.populations[-1])) < 1e-9


class TestFinalStates:
    """The final-state core, _finals, and the sixth-order step controller."""

    @pytest.mark.parametrize("order", [4, 6])
    def test_grid_alone_or_stacked_at_any_block(self, fig3a_model, monkeypatch, order):
        # the grids share blocks and the 1001-step grid ends in a partial
        # piece; a grid's state must not change a bit for either
        schedule, _ = _stepped(fig3a_model, 1001, 2)
        psi = np.array([0.6, 0.48j, -0.64], dtype=complex)
        counts = [64, 128, 256, 1001]
        reference = propagator._finals(fig3a_model, schedule, psi, counts, order)
        for block in (1, 97, propagator._BLOCK):
            monkeypatch.setattr(propagator, "_BLOCK", block)
            stacked = propagator._finals(fig3a_model, schedule, psi, counts[::-1], order)
            assert stacked[::-1].tobytes() == reference.tobytes()
            for n, state in zip(counts, reference):
                alone = propagator._finals(fig3a_model, schedule, psi, [n], order)
                assert alone[0].tobytes() == state.tobytes()

    @pytest.mark.parametrize("order", [4, 6])
    def test_final_state_matches_the_sampled_kernel(self, fig3a_model, order):
        schedule, control = _stepped(fig3a_model, 1001, 10_000)
        control = StepControl(h_override=control.h_override, order=order)
        sampled = propagate(fig3a_model, schedule, step_control=control)
        final = propagator._finals(fig3a_model, schedule, sampled.states[0], [1001], order)
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

    @pytest.mark.parametrize("power, accepted", [(6, 256), (2, 1024)])
    def test_estimate_divides_by_63_only_at_a_sixth_order_fall(self, monkeypatch,
                                                               power, accepted):
        # final populations 0.5 -+ c n^-power, scaled so that they move by
        # 63 x 0.5e-11 from 128 to 256 steps: a sixth-order fall accepts 256
        # steps, a second-order one (each change a quarter of the one
        # before) divides the change by 3 and doubles on until 1024 steps
        c = 63 * 0.5e-11 / (128.0 ** -power - 256.0 ** -power)

        def finals(model, schedule, psi, counts, order):
            p = 0.5 + c * np.asarray(counts, dtype=float) ** -power
            return np.stack([np.sqrt(1.0 - p), np.sqrt(p), 0.0 * p], axis=1) + 0j

        monkeypatch.setattr(propagator, "_finals", finals)
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
        # the 1 ms fig4 chirp needs more than the 256-step pilot grid
        model, schedule = _fig4_chirp(1.0e-3)
        monkeypatch.setattr(propagator, "_MAX_STEPS", 256)
        with pytest.raises(IntegrationError, match="error estimate .* at 256 steps"):
            propagate(model, schedule, step_control=StepControl(sample_cap=2, order=6))


def _counted_finals(monkeypatch):
    """Wrap _finals; returns the list of the counts of each call."""
    requests = []
    finals = propagator._finals

    def counted(model, schedule, psi, counts, order):
        requests.append(list(counts))
        return finals(model, schedule, psi, counts, order)

    monkeypatch.setattr(propagator, "_finals", counted)
    return requests


class TestFirstCall:
    """The controller's first _finals call runs the 64- to 512-step grids."""

    @pytest.mark.parametrize("omega_hat, t_omega, accepted, calls", [
        (1.5e4, 0.5e-3, 256, 1), (1.5e4, 1.0e-3, 512, 1), (1e4 / 3, 3.25e-3, 1024, 2)])
    def test_calls_per_accepted_count(self, monkeypatch, omega_hat, t_omega,
                                      accepted, calls):
        model, schedule = _fig4_chirp(t_omega, omega_hat)
        requests = _counted_finals(monkeypatch)
        traj = propagate(model, schedule, step_control=StepControl(sample_cap=2, order=6))
        assert traj.n_steps == accepted
        assert requests[0] == [64, 128, 256, 512] and len(requests) == calls
        # the accepted grid's state is the one it has alone
        (alone,) = propagator._finals(model, schedule, traj.states[0], [accepted], 6)
        assert traj.final_state.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("limit", [256, 512])
    def test_no_grid_above_the_step_limit(self, monkeypatch, limit):
        # the point needs 1024 steps
        model, schedule = _fig4_chirp(3.25e-3, 1e4 / 3)
        monkeypatch.setattr(propagator, "_MAX_STEPS", limit)
        requests = _counted_finals(monkeypatch)
        with pytest.raises(IntegrationError, match=f"at {limit} steps"):
            propagate(model, schedule, step_control=StepControl(sample_cap=2, order=6))
        assert max(max(counts) for counts in requests) == limit

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
            propagator._finals(model, schedule, psi, [128], 6)
        propagator._finals(model, schedule, psi, [64, 128, 256, 512], 6)
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
            propagator._finals(fig3a_model, schedule, psi, counts, 6)


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
    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan])
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
