"""Dressed states, avoided-crossing formulas and validity bounds."""

import json
import math

import numpy as np
import pytest

from quantum_tweezers import (
    HBAR,
    InfeasibleScheduleError,
    ScrapPulseParams,
    dressed,
    lz_probability,
    min_transfer_time,
    ramp_rate_bound,
    scrap_adiabatic_condition,
    scrap_pump_width_bound,
    sequential_lz,
    validity_check,
)
from quantum_tweezers.analytics import adiabaticity_parameter
from quantum_tweezers.cli import main
from quantum_tweezers.levels import rabi_coupling

TWO_PI = 2.0 * math.pi


class TestDressed:
    def test_resonance_splitting_and_angle(self, fig3a_model, fig3a):
        d01 = fig3a_model.derived.e1 / HBAR
        pair = dressed(fig3a_model, d01, fig3a.omega_l)
        coupling = rabi_coupling(fig3a_model, 0, fig3a.omega_l)
        assert pair.delta == pytest.approx(HBAR * coupling, rel=1e-12, abs=0)
        assert pair.theta == pytest.approx(math.pi / 4, rel=1e-12)

    def test_uncoupled_limit(self, fig3a_model):
        d01 = fig3a_model.derived.e1 / HBAR
        delta1 = 5e3
        pair = dressed(fig3a_model, d01 + delta1, 0.0)
        assert pair.theta == 0.0
        assert pair.epsilon_plus == pytest.approx(HBAR * delta1, rel=1e-12, abs=0)
        assert pair.epsilon_minus == pytest.approx(0.0, abs=1e-45)

    def test_angle_branch_across_crossing(self, fig3a_model, fig3a):
        d01 = fig3a_model.derived.e1 / HBAR
        below = dressed(fig3a_model, d01 - 1e4, fig3a.omega_l)
        above = dressed(fig3a_model, d01 + 1e4, fig3a.omega_l)
        assert 0 <= above.theta < math.pi / 4 < below.theta <= math.pi / 2

    def test_matches_two_level_eigensolver(self, fig3a_model, fig3a):
        """Closed form against numpy's eigensolver on the reduced pair."""
        d01 = fig3a_model.derived.e1 / HBAR
        rng = np.random.default_rng(11)
        for _ in range(30):
            detuning = d01 + rng.uniform(-4e4, 4e4)
            omega_l = rng.uniform(0.0, 3e4)
            pair = dressed(fig3a_model, detuning, omega_l)
            delta1 = detuning - d01
            coupling = rabi_coupling(fig3a_model, 0, omega_l)
            h = HBAR * np.array([[0.0, coupling / 2],
                                 [coupling / 2, delta1]])
            lo, hi = np.linalg.eigvalsh(h)
            scale = max(abs(lo), abs(hi), 1e-40)
            assert abs(pair.epsilon_minus - lo) <= 1e-12 * scale
            assert abs(pair.epsilon_plus - hi) <= 1e-12 * scale

    def test_splitting_minimized_on_resonance(self, fig3a_model, fig3a):
        d01 = fig3a_model.derived.e1 / HBAR
        detunings = d01 + np.linspace(-2e4, 2e4, 4001)
        splittings = np.array([
            dressed(fig3a_model, d, fig3a.omega_l).delta for d in detunings])
        assert np.argmin(splittings) == 2000  # the on-resonance grid point


class TestLzProbability:
    def test_zero_splitting(self):
        assert lz_probability(0.0, 1e6) == 0.0

    def test_inverted_closed_form(self):
        # alpha = ln 100 gives exactly 99%
        rate = 1e6
        delta = HBAR * math.sqrt(2 * math.log(100.0) * rate / math.pi)
        assert lz_probability(delta, rate) == pytest.approx(0.99, rel=1e-12)

    def test_direct_arithmetic(self):
        # splitting/hbar = 1e4 rad/s at 1e7 rad/s^2: alpha = 5 pi
        delta = HBAR * 1e4
        assert adiabaticity_parameter(delta, 1e7) == pytest.approx(
            5 * math.pi, rel=1e-12)
        assert lz_probability(delta, 1e7) == pytest.approx(
            1.0 - math.exp(-5 * math.pi), rel=1e-12)

    def test_zero_rate_flagged_adiabatic_limit(self):
        with pytest.warns(UserWarning, match="adiabatic limit"):
            assert lz_probability(1e-30, 0.0) == 1.0

    def test_zero_rate_is_infinitely_adiabatic(self):
        assert adiabaticity_parameter(HBAR * 1e4, 0.0) == math.inf

    def test_monotonic_in_splitting(self):
        # range chosen below the float saturation of 1 - exp(-alpha)
        rate = 1e7
        values = [lz_probability(HBAR * om, rate)
                  for om in np.linspace(0.0, 8e3, 50)]
        assert np.all(np.diff(values) > 0)

    def test_monotonic_in_rate(self):
        delta = HBAR * 5e3
        values = [lz_probability(delta, rate)
                  for rate in np.geomspace(1e7, 1e10, 50)]
        assert np.all(np.diff(values) < 0)


class TestSequentialLz:
    def test_deeply_adiabatic_product(self, fig3a_model, fig3a):
        assert sequential_lz(fig3a_model, fig3a.omega_l, 1e4) == pytest.approx(
            1.0, abs=1e-12)

    def test_second_crossing_exponent_doubles(self, fig3a_model, fig3a):
        rate = 1e6
        d1 = HBAR * rabi_coupling(fig3a_model, 0, fig3a.omega_l)
        d2 = HBAR * rabi_coupling(fig3a_model, 1, fig3a.omega_l)
        assert d2 == pytest.approx(math.sqrt(2) * d1, rel=1e-12, abs=0)
        assert adiabaticity_parameter(d2, rate) == pytest.approx(
            2 * adiabaticity_parameter(d1, rate), rel=1e-12)

    def test_product_structure(self, fig3a_model, fig3a):
        rate = 2e6
        d1 = HBAR * rabi_coupling(fig3a_model, 0, fig3a.omega_l)
        d2 = HBAR * rabi_coupling(fig3a_model, 1, fig3a.omega_l)
        expected = lz_probability(d1, rate) * lz_probability(d2, rate)
        assert sequential_lz(fig3a_model, fig3a.omega_l, rate) == pytest.approx(
            expected, rel=1e-12)


class TestRampRateBound:
    def test_reference_value(self):
        got = ramp_rate_bound(HBAR * TWO_PI * 2e3, 0.99)
        assert got == pytest.approx(5.386e7, rel=1e-3)

    def test_vanishes_at_certainty(self):
        de2 = HBAR * TWO_PI * 2e3
        bounds = [ramp_rate_bound(de2, 1.0 - 10.0**-k) for k in range(2, 13)]
        assert np.all(np.diff(bounds) < 0)
        assert bounds[-1] < bounds[0] / 5

    def test_quadratic_scaling(self):
        one = ramp_rate_bound(HBAR * 1e4, 0.99)
        two = ramp_rate_bound(HBAR * 2e4, 0.99)
        assert two == pytest.approx(4 * one, rel=1e-12)

    def test_rejects_bad_threshold(self):
        for p0 in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                ramp_rate_bound(HBAR * 1e4, p0)


class TestMinTransferTime:
    def test_reference_value(self):
        # (2/pi) |ln 0.01| / (2pi x 2 kHz) = 0.2333 ms, quoted as ~0.2 ms
        got = min_transfer_time(HBAR * TWO_PI * 2e3, 0.99)
        assert got == pytest.approx(2.3330e-4, rel=1e-3)

    def test_log_term_unity(self):
        p0 = 1.0 - 1.0 / math.e
        got = min_transfer_time(HBAR * TWO_PI * 2e3, p0)
        assert got == pytest.approx((2 / math.pi) / (TWO_PI * 2e3), rel=1e-12, abs=0)

    def test_inverse_scaling(self):
        one = min_transfer_time(HBAR * 1e4, 0.99)
        two = min_transfer_time(HBAR * 2e4, 0.99)
        assert two == pytest.approx(one / 2, rel=1e-12, abs=0)

    def test_negative_anharmonicity_gives_the_same_positive_time(self):
        # the bound depends on |dE2|, as ramp_rate_bound does through its square
        for de2 in (HBAR * 1e4, HBAR * TWO_PI * 2e3):
            assert min_transfer_time(-de2, 0.99) == min_transfer_time(de2, 0.99) > 0

    def test_rejects_bad_threshold(self):
        for p0 in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="threshold probability"):
                min_transfer_time(HBAR * 1e4, p0)

    def test_identity_with_rate_bound(self):
        # tau_min * rate_max = dE2/hbar with the span normalization used here
        de2 = HBAR * TWO_PI * 2e3
        for p0 in (0.5, 0.9, 0.99, 0.999):
            product = min_transfer_time(de2, p0) * ramp_rate_bound(de2, p0)
            assert product == pytest.approx(de2 / HBAR, rel=1e-12)


class TestScrapAdiabaticCondition:
    def test_large_delay_limit(self):
        de2 = HBAR * TWO_PI * 2e3
        near = scrap_adiabatic_condition(2e4, 2e-3, 2e-3, de2)
        far = scrap_adiabatic_condition(2e4, 2e-3, 20e-3, de2)
        assert far > 1e10 * near

    def test_vanishing_pulse_limit(self):
        de2 = HBAR * TWO_PI * 2e3
        assert scrap_adiabatic_condition(0.0, 2e-3, 2e-3, de2) == math.inf

    @pytest.mark.parametrize("t_delta, tau", [(0.0, 2e-3), (2e-3, -1e-3), (math.nan, 2e-3)])
    def test_rejects_a_width_or_delay_that_is_not_positive(self, t_delta, tau):
        with pytest.raises(InfeasibleScheduleError,
                           match="^t_delta and tau must be strictly positive$"):
            scrap_adiabatic_condition(2e4, t_delta, tau, HBAR * TWO_PI * 2e3)

    def test_preset_point_satisfied(self, fig3a_model, fig3a):
        cfg = fig3a.scrap
        de2 = fig3a_model.derived.e2 - 2 * fig3a_model.derived.e1
        margin = scrap_adiabatic_condition(
            cfg.delta_hat, cfg.t_delta(cfg.t_omega), cfg.tau(cfg.t_omega), de2)
        assert margin > 10


class TestScrapPumpWidthBound:
    def test_vanishing_coupling(self):
        t_min, _ = scrap_pump_width_bound(0.0, 2e4, 2e-3, 2e-3)
        assert t_min == 0.0

    def test_monotone_beyond_turning_point(self):
        t_delta = 2e-3
        taus = np.linspace(t_delta / math.sqrt(2) * 1.01, 4 * t_delta, 40)
        bounds = [scrap_pump_width_bound(5e3, 2e4, t_delta, tau)[0]
                  for tau in taus]
        assert np.all(np.diff(bounds) > 0)

    def test_consistency_with_interaction_time(self, fig3a_model, fig3a):
        # the minimum usable pump width times dE2/hbar stays well above 1
        cfg = fig3a.scrap
        omega_eff = rabi_coupling(fig3a_model, 0, cfg.omega_hat)
        t_min, t_jump = scrap_pump_width_bound(
            omega_eff, cfg.delta_hat, cfg.t_delta(cfg.t_omega), cfg.tau(cfg.t_omega))
        de2 = fig3a_model.derived.e2 - 2 * fig3a_model.derived.e1
        assert t_min * de2 / HBAR > 1
        assert t_jump > 0

    @pytest.mark.parametrize("delta_hat, t_delta, tau", [
        (2e4, 0.0, 2e-3), (2e4, 2e-3, -1e-3), (0.0, 2e-3, 2e-3)])
    def test_rejects_a_degenerate_detuning_pulse(self, delta_hat, t_delta, tau):
        with pytest.raises(InfeasibleScheduleError,
                           match="^t_delta and tau must be positive, delta_hat non-zero$"):
            scrap_pump_width_bound(5e3, delta_hat, t_delta, tau)

    def test_jump_time_formula(self):
        omega_eff, delta_hat, t_delta, tau = 5e3, 2e4, 2e-3, 2e-3
        _, t_jump = scrap_pump_width_bound(omega_eff, delta_hat, t_delta, tau)
        slope = 2 * delta_hat * tau / t_delta**2 * math.exp(-(tau / t_delta)**2)
        assert t_jump == pytest.approx(2 * omega_eff / slope, rel=1e-12, abs=0)


class TestValidityCheck:
    def test_zero_drive_all_pass(self, fig3a_model):
        report = validity_check(fig3a_model, 0.0)
        assert report.two_level_margin == math.inf
        assert report.single_particle_margin == math.inf
        assert report.all_strong
        assert not report.any_fail

    def test_fig_system_two_level_margin(self, fig3a_model, fig3a):
        report = validity_check(fig3a_model, fig3a.omega_l)
        assert report.two_level_margin == pytest.approx(5.5, rel=0.1)
        assert report.flags["two_level"] == "weak"

    def test_single_particle_margin_larger(self, fig3a_model, fig3a):
        report = validity_check(fig3a_model, fig3a.omega_l)
        assert report.single_particle_margin > report.two_level_margin
        assert report.flags["single_particle"] == "strong"

    def test_huge_drive_fails(self, fig3a_model):
        report = validity_check(fig3a_model, 1e6)
        assert report.two_level_margin < 1
        assert report.flags["two_level"] == "fail"
        assert report.any_fail

    def test_scrap_flags_present_with_schedule(self, fig3a_model, fig3a):
        cfg = fig3a.scrap
        report = validity_check(
            fig3a_model, fig3a.omega_l,
            scrap=ScrapPulseParams(cfg.omega_hat, cfg.t_omega, cfg.delta_hat,
                                   cfg.t_delta(cfg.t_omega),
                                   cfg.tau(cfg.t_omega)))
        assert report.scrap_adiabatic_margin is not None
        assert report.scrap_diabatic_margin > 10
        assert report.alpha_ad > 1
        assert set(report.flags) == {
            "two_level", "single_particle", "scrap_adiabatic",
            "scrap_pump_width", "scrap_diabatic"}

    def test_report_json_stable_fields(self, tmp_path):
        # check.json is the report's serialization
        main(["check", "--preset", "fig3a", "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "check.json").read_text())
        expected = {
            "omega01_rad_s", "two_level_margin", "two_level_flag",
            "single_particle_margin", "single_particle_flag",
            "ramp_rate_limit_rad_s2", "tau_min_s", "threshold_probability",
            "alpha_ad", "scrap_adiabatic_margin", "scrap_adiabatic_flag",
            "scrap_pump_width_margin", "scrap_pump_width_flag",
            "scrap_diabatic_margin", "scrap_diabatic_flag", "t_jump_s",
            "flags", "all_strong", "any_fail"}
        assert set(payload) == expected

    def test_infinite_margins_serialize(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"omega_l": 0.0}))
        main(["check", "--config", str(config), "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "check.json").read_text())
        assert payload["two_level_margin"] == "inf"
