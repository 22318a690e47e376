"""Envelope primitives, schedule builders and serialization."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
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
    schedule_from_dict,
)
from quantum_tweezers.exceptions import ConfigError
from quantum_tweezers.levels import resonance_detunings
from quantum_tweezers.pulses import envelope_from_dict


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
        # pins the width convention: peak * exp(-((t - center) / width)^2)
        env = Gaussian(peak=2.5, center=0.3, width=0.7)
        got, _ = quad(env, 0.3 - 8 * 0.7, 0.3 + 8 * 0.7, epsabs=0.0,
                      epsrel=1e-10, limit=400)
        assert got == pytest.approx(2.5 * 0.7 * math.sqrt(math.pi), rel=1e-10)


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
        area, _ = quad(sched.rabi, sched.t_start, sched.t_end, epsabs=0.0,
                       epsrel=1e-10, limit=400)
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
        area, _ = quad(sched.rabi, sched.t_start, sched.t_end, epsabs=0.0,
                       epsrel=1e-10, limit=400)
        assert area * fig3a_model.rabi_units[1] == pytest.approx(math.pi, abs=1e-8)

    def test_rejects_bad_transition(self, fig3a_model):
        with pytest.raises(ValueError):
            build_pi_pulse(fig3a_model, (0, 2), 1e-3)

    @pytest.mark.parametrize("t_omega", [5e-324, 1e-310])
    def test_width_that_underflows_the_peak(self, fig3a_model, t_omega):
        # the width times the coupling underflows to 0 (a ZeroDivisionError
        # before), or leaves a peak that overflows
        with pytest.raises(InfeasibleScheduleError, match="underflows the drive peak"):
            build_pi_pulse(fig3a_model, (0, 1), t_omega)


class TestSerialization:
    def test_round_trip(self, fig3a_model):
        e1 = fig3a_model.derived.e1
        sched = build_scrap_schedule(1.5e4, 1e-3, 2e4, 2e-3, 1.25e-3, 0.0, e1)
        back = schedule_from_dict({
            "detuning": {"type": "offset_sum", "offset": sched.detuning.offset,
                         "inner": {"type": "gaussian", "peak": 2e4,
                                   "center": 1.25e-3, "width": 2e-3}},
            "rabi": {"type": "gaussian", "peak": 1.5e4, "center": 0.0, "width": 1e-3},
            "window": [sched.t_start, sched.t_end]})
        assert back == sched
        ts = np.linspace(sched.t_start, sched.t_end, 500)
        np.testing.assert_allclose(back.detuning(ts), sched.detuning(ts), rtol=0)
        np.testing.assert_allclose(back.rabi(ts), sched.rabi(ts), rtol=0)

    def test_schema_shape(self):
        back = schedule_from_dict({
            "detuning": {"type": "constant", "value": 1.0},
            "rabi": {"type": "gaussian", "peak": 2.0, "center": 0.0, "width": 1.0},
            "window": [-4.0, 4.0]})
        assert back == PulseSchedule(Constant(1.0), Gaussian(2.0, 0.0, 1.0), -4.0, 4.0)

    def test_json_compatible(self):
        import json
        text = """{"detuning": {"type": "offset_sum", "offset": 2.0,
                                "inner": {"type": "gaussian", "peak": 1.0,
                                          "center": 0.5, "width": 0.2}},
                   "rabi": {"type": "tanh_plateau", "peak": 1.0, "start_time": 0.0,
                            "plateau_width": 1.0, "ramp_time": 0.1},
                   "window": [-1.0, 2.0]}"""
        back = schedule_from_dict(json.loads(text))
        assert back == PulseSchedule(
            OffsetSum(2.0, Gaussian(1.0, 0.5, 0.2)),
            TanhPlateau(1.0, 0.0, 1.0, 0.1), -1.0, 2.0)

    # "12" and true were converted to 12.0 and 1.0; "abc" and [1] ended in a
    # bare ValueError and TypeError
    @pytest.mark.parametrize("raw", ["12", True, "abc", [1], None],
                             ids=["numeric_string", "true", "string", "list", "null"])
    @pytest.mark.parametrize("where, field", [("detuning", "'value'"),
                                              ("window", "'window'")])
    def test_a_value_that_is_not_a_number_names_its_field(self, raw, where, field):
        data = {"detuning": {"type": "constant", "value": 0.0},
                "rabi": {"type": "constant", "value": 1e3}, "window": [0.0, 1e-4]}
        if where == "window":
            data["window"] = [0.0, raw]
        else:
            data["detuning"]["value"] = raw
        with pytest.raises(ConfigError, match=f"{field} must be a finite number, not "):
            schedule_from_dict(data)

    @pytest.mark.parametrize("window", [[0.0], [0.0, 1e-4, 2e-4], 1e-4, "0, 1e-4"],
                             ids=["one", "three", "number", "string"])
    def test_a_window_that_is_not_two_values_is_named(self, window):
        with pytest.raises(ConfigError, match="'window' must be \\[start, end\\]"):
            schedule_from_dict({"detuning": {"type": "constant", "value": 0.0},
                                "rabi": {"type": "constant", "value": 1e3},
                                "window": window})

    # a schedule that is not an object said it lacked 'window', and an
    # envelope that is not one raised a bare AttributeError
    @pytest.mark.parametrize("data, message", [
        ([1, 2], "a schedule must be a JSON object, not [1, 2]"),
        ({"detuning": 5.0, "rabi": {"type": "constant", "value": 1e3},
          "window": [0.0, 1e-4]},
         "a schedule's 'detuning' must be a JSON object, not 5.0"),
        ({"detuning": {"type": "offset_sum", "offset": 0.0, "inner": [1.0]},
          "rabi": {"type": "constant", "value": 1e3}, "window": [0.0, 1e-4]},
         "a 'offset_sum' envelope's 'inner' must be a JSON object, not [1.0]"),
    ], ids=["schedule", "envelope", "inner_envelope"])
    def test_a_value_that_is_not_an_object_is_named(self, data, message):
        with pytest.raises(ConfigError) as info:
            schedule_from_dict(data)
        assert str(info.value) == message

    # 10**400 raised a bare OverflowError from math.isfinite
    @pytest.mark.parametrize("value", [10 ** 400, -10 ** 400, True],
                             ids=["huge_int", "huge_negative_int", "bool"])
    def test_a_field_that_is_not_a_finite_float_is_named(self, value):
        with pytest.raises(ConfigError) as info:
            envelope_from_dict({"type": "constant", "value": value})
        assert str(info.value) == (f"a 'constant' envelope's 'value' must be a "
                                   f"finite number, not {value!r}")

    def test_an_envelope_that_is_not_an_object_is_named(self):
        with pytest.raises(ConfigError, match="^an envelope must be a JSON object, "
                                              "not 'constant'$"):
            envelope_from_dict("constant")

    # each was ignored
    @pytest.mark.parametrize("data, message", [
        ({"detuning": {"type": "constant", "value": 0.0}, "t_start": 0.0,
          "rabi": {"type": "constant", "value": 1e3}, "window": [0.0, 1e-4]},
         "a schedule has unknown key(s) ['t_start']; it takes "
         "['detuning', 'rabi', 'window']"),
        ({"detuning": {"type": "linear_ramp", "start": 0.0, "rate": 1.0, "slope": 2.0},
          "rabi": {"type": "constant", "value": 1e3}, "window": [0.0, 1e-4]},
         "a 'linear_ramp' envelope has unknown key(s) ['slope']; it takes "
         "['type', 'start', 'rate', 't_ref']"),
    ], ids=["schedule", "envelope"])
    def test_a_key_no_class_reads_is_named(self, data, message):
        with pytest.raises(ConfigError) as info:
            schedule_from_dict(data)
        assert str(info.value) == message
