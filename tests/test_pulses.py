"""Envelope primitives, schedule builders and serialization."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from quantum_tweezers import (
    HBAR,
    Constant,
    Gaussian,
    InfeasibleScheduleError,
    LinearRamp,
    OffsetSum,
    PulseSchedule,
    TanhPlateau,
    build_pi_pulse,
    build_scrap_schedule,
    build_two_atom_scrap_schedule,
    pulse_area,
    schedule_from_dict,
    schedule_to_dict,
)
from quantum_tweezers.levels import resonance_detunings


class TestEnvelopes:
    def test_constant(self):
        env = Constant(5.0)
        assert env(0.0) == 5.0
        assert env(-3.3) == 5.0
        np.testing.assert_array_equal(env(np.array([0.0, 1.0])), [5.0, 5.0])

    def test_gaussian_peak_and_width_convention(self):
        # peak * exp(-(t-c)^2 / T^2): value at one width off-centre is 1/e
        env = Gaussian(peak=2.0, center=1.0, width=0.5)
        assert env(1.0) == 2.0
        assert env(1.5) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("width", [1e-300, 5e-324])
    def test_gaussian_of_tiny_width_is_exact_zero_off_centre(self, width):
        # the exponent overflows to inf off the centre (in the division too
        # at 5e-324); exp(-inf) is the exact 0, and no warning is raised
        env = Gaussian(peak=2.0, center=1e-4, width=width)
        np.testing.assert_array_equal(env(np.array([0.0, 1e-4, 2e-4])),
                                      [0.0, 2.0, 0.0])
        assert env(0.0) == 0.0

    def test_tanh_plateau_mid_value(self):
        # flat-top form: mid-plateau sits within e^-4 of the peak
        env = TanhPlateau(peak=3.0, start_time=0.0, plateau_width=1.0,
                          ramp_time=0.1)
        mid = env(0.5)
        assert abs(mid - 3.0) < 3.0 * math.exp(-4.0)

    def test_tanh_plateau_smoothness(self):
        env = TanhPlateau(peak=1.0, start_time=0.0, plateau_width=1.0,
                          ramp_time=0.05)
        ts = np.linspace(-0.5, 1.5, 20001)
        values = env(ts)
        slope = np.diff(values) / np.diff(ts)
        # |d/dt| is bounded by peak / ramp_time for the tanh edges
        assert np.max(np.abs(slope)) <= 1.0 / 0.05 + 1e-9

    def test_linear_ramp(self):
        env = LinearRamp(start=10.0, rate=2.0)
        assert env(3.0) == pytest.approx(16.0)

    def test_offset_sum(self):
        env = OffsetSum(offset=7.0, inner=Gaussian(1.0, 0.0, 1.0))
        assert env(0.0) == pytest.approx(8.0)

    def test_envelopes_continuous(self):
        for env in (Constant(1.0), LinearRamp(0.0, 5.0), Gaussian(1.0, 0.0, 1.0),
                    TanhPlateau(1.0, 0.0, 1.0, 0.1),
                    OffsetSum(1.0, Gaussian(1.0, 0.0, 0.5))):
            ts = np.linspace(-3.0, 3.0, 30001)
            values = np.asarray(env(ts), dtype=float)
            assert np.all(np.isfinite(values))
            assert np.max(np.abs(np.diff(values))) < 0.05

    def test_invalid_widths(self):
        with pytest.raises(ValueError):
            Gaussian(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            TanhPlateau(1.0, 0.0, 1.0, -0.1)


class TestPulseArea:
    def test_gaussian_closed_form(self):
        env = Gaussian(peak=2.5, center=0.3, width=0.7)
        got = pulse_area(env, 0.3 - 8 * 0.7, 0.3 + 8 * 0.7)
        assert got == pytest.approx(2.5 * 0.7 * math.sqrt(math.pi), rel=1e-10)

    def test_constant_area(self):
        assert pulse_area(Constant(3.0), 0.0, 2.0) == pytest.approx(6.0, rel=1e-12)

    def test_zero_envelope(self):
        assert pulse_area(Constant(0.0), 0.0, 1.0) == 0.0

    def test_additive_over_adjacent_windows(self):
        env = Gaussian(peak=1.0, center=0.5, width=0.4)
        total = pulse_area(env, -2.0, 3.0)
        split = pulse_area(env, -2.0, 0.7) + pulse_area(env, 0.7, 3.0)
        assert split == pytest.approx(total, rel=1e-10)

    def test_rejects_nonfinite(self):
        class Bad(Constant):
            def __call__(self, t):
                with np.errstate(invalid="ignore"):
                    return np.asarray(t) * math.inf

        with pytest.raises(ValueError):
            pulse_area(Bad(1.0), 0.0, 1.0)


def _crossings(schedule, energy, brackets):
    """The time in each (a, b) bracket where the detuning crosses energy/hbar."""
    target = energy / HBAR
    return [brentq(lambda t: schedule.detuning(t) - target, a, b,
                   xtol=1e-12 * schedule.duration) for a, b in brackets]


class TestScrapSchedule:
    def test_crossings_symmetric_about_pulse_center(self, fig3a_model):
        e1 = fig3a_model.derived.e1
        tau = 1.25e-3
        sched = build_scrap_schedule(1.5e4, 1e-3, 2e4, 2e-3, tau, 0.0, e1)
        # below resonance at both window ends, above it at the pulse peak:
        # the Gaussian bump crosses it once on each side
        below = sched.detuning(np.array([sched.t_start, sched.t_end]))
        assert np.all(below < e1 / HBAR) and sched.detuning(tau) > e1 / HBAR
        t1, t2 = _crossings(sched, e1, [(sched.t_start, tau), (tau, sched.t_end)])
        # equidistant from the detuning-pulse centre at t = tau
        assert (tau - t1) == pytest.approx(t2 - tau, rel=1e-9)

    def test_crossing_recovery(self, fig3a_model):
        e1 = fig3a_model.derived.e1
        tau = 1.25e-3
        sched = build_scrap_schedule(1.5e4, 1e-3, 2e4, 2e-3, tau, 0.0, e1)
        # the resonance is met at t1 = 0 and t2 = 2 tau, and exceeded between
        assert sched.detuning(0.0) == pytest.approx(e1 / HBAR, rel=1e-12)
        assert sched.detuning(2 * tau) == pytest.approx(e1 / HBAR, rel=1e-12)
        assert sched.detuning(tau) > e1 / HBAR

    def test_pump_centred_on_first_crossing(self, fig3a_model):
        e1 = fig3a_model.derived.e1
        sched = build_scrap_schedule(1.5e4, 1e-3, 2e4, 2e-3, 1.25e-3, 0.0, e1)
        assert sched.rabi.center == pytest.approx(0.0, abs=1e-12)

    def test_negative_delay_moves_pump_to_second_crossing(self, fig3a_model):
        e1 = fig3a_model.derived.e1
        tau = 1.25e-3
        sched = build_scrap_schedule(1.5e4, 1e-3, 2e4, 2e-3, tau, -2 * tau, e1)
        assert sched.rabi.center == pytest.approx(2 * tau, rel=1e-9)
        assert sched.detuning(sched.rabi.center) == pytest.approx(e1 / HBAR, rel=1e-12)
        assert sched.detuning(0.5 * (tau + sched.t_end)) < e1 / HBAR


class TestTwoAtomScrapSchedule:
    def test_crossings_against_both_resonances(self, fig3a_model):
        d = fig3a_model.derived
        sched = build_two_atom_scrap_schedule(1.5e4, 1e-3, 4.6e4, 2e-3, 2.0e4,
                                              d.e1, d.e2 - d.e1,
                                              ramp_time=0.2 * 1e-3)
        peak = sched.detuning.inner.center
        ends = sched.detuning(np.array([sched.t_start, sched.t_end]))
        assert np.all(ends < d.e1 / HBAR)
        assert d.e1 < d.e2 - d.e1 < HBAR * sched.detuning(peak)
        brackets = [(sched.t_start, peak), (peak, sched.t_end)]
        first = _crossings(sched, d.e1, brackets)
        second = _crossings(sched, d.e2 - d.e1, brackets)
        # rising order: 0->1 resonance first, then 1->2
        assert first[0] < second[0] < second[1] < first[1]
        assert first[0] == pytest.approx(0.0, abs=1e-9)
        assert sched.detuning(0.0) == pytest.approx(d.e1 / HBAR, rel=1e-12)

    def test_pump_is_flat_top(self, fig3a_model):
        d = fig3a_model.derived
        sched = build_two_atom_scrap_schedule(1.5e4, 1e-3, 4.6e4, 2e-3, 2.0e4,
                                              d.e1, d.e2 - d.e1,
                                              ramp_time=0.2 * 1e-3)
        assert isinstance(sched.rabi, TanhPlateau)
        peak = sched.detuning.inner.center
        t_12 = _crossings(sched, d.e2 - d.e1,
                          [(sched.t_start, peak), (peak, sched.t_end)])
        # on across both rising crossings, off by the falling 1->2 crossing
        assert sched.rabi(0.0) > 0.99 * 1.5e4
        assert sched.rabi(t_12[0]) > 0.99 * 1.5e4
        assert sched.rabi(t_12[1]) < 0.01 * 1.5e4

    def test_infeasible_when_pulse_too_small(self, fig3a_model):
        d = fig3a_model.derived
        with pytest.raises(InfeasibleScheduleError):
            build_two_atom_scrap_schedule(1.5e4, 1e-3, 2.0e4, 2e-3, 2.0e4,
                                          d.e1, d.e2 - d.e1,
                                          ramp_time=0.2 * 1e-3)


class TestPiPulse:
    def test_effective_area_is_pi(self, fig3a_model):
        sched = build_pi_pulse(fig3a_model, (0, 1), 1.5e-3)
        area = pulse_area(sched.rabi, sched.t_start, sched.t_end)
        assert area * fig3a_model.rabi_units[0] == pytest.approx(math.pi, abs=1e-8)

    def test_solved_peak(self, fig3a_model):
        t_omega = 1.5e-3
        sched = build_pi_pulse(fig3a_model, (0, 1), t_omega)
        expected_eff = math.sqrt(math.pi) / t_omega
        assert sched.rabi.peak * fig3a_model.rabi_units[0] == pytest.approx(
            expected_eff, rel=1e-12)

    def test_second_transition_detuning(self, fig3a_model):
        res = resonance_detunings(fig3a_model)
        sched = build_pi_pulse(fig3a_model, "1-2", 1.5e-3)
        assert sched.detuning(0.0) == pytest.approx(res.d12, rel=1e-12)
        area = pulse_area(sched.rabi, sched.t_start, sched.t_end)
        assert area * fig3a_model.rabi_units[1] == pytest.approx(math.pi, abs=1e-8)

    def test_rejects_bad_transition(self, fig3a_model):
        with pytest.raises(ValueError):
            build_pi_pulse(fig3a_model, (0, 2), 1e-3)


class TestSerialization:
    def test_round_trip(self, fig3a_model):
        e1 = fig3a_model.derived.e1
        sched = build_scrap_schedule(1.5e4, 1e-3, 2e4, 2e-3, 1.25e-3, 0.0, e1)
        data = schedule_to_dict(sched)
        back = schedule_from_dict(data)
        ts = np.linspace(sched.t_start, sched.t_end, 500)
        np.testing.assert_allclose(back.detuning(ts), sched.detuning(ts), rtol=0)
        np.testing.assert_allclose(back.rabi(ts), sched.rabi(ts), rtol=0)
        assert (back.t_start, back.t_end) == (sched.t_start, sched.t_end)

    def test_schema_shape(self):
        sched = PulseSchedule(Constant(1.0), Gaussian(2.0, 0.0, 1.0), -4.0, 4.0)
        data = schedule_to_dict(sched)
        assert set(data) == {"detuning", "rabi", "window"}
        assert data["window"] == [-4.0, 4.0]
        assert data["rabi"]["type"] == "gaussian"

    def test_json_compatible(self):
        import json
        sched = PulseSchedule(
            OffsetSum(2.0, Gaussian(1.0, 0.5, 0.2)),
            TanhPlateau(1.0, 0.0, 1.0, 0.1), -1.0, 2.0)
        text = json.dumps(schedule_to_dict(sched))
        back = schedule_from_dict(json.loads(text))
        assert back.rabi(0.5) == pytest.approx(sched.rabi(0.5), rel=1e-15)
