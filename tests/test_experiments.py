"""Sweeps, region extraction and the pulse-parameter optimizer."""

import dataclasses
import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from quantum_tweezers import (
    StepControl,
    build_level_model,
    delay_scan,
    derive_all,
    get_preset,
    optimize_pulse,
    pipulse_contour,
    ramp_rate_sweep,
    scrap_contour,
    sequential_pi,
)
from quantum_tweezers import propagator
from quantum_tweezers.config import parse_frequency, resolve_preset, validate_config
from quantum_tweezers.exceptions import ConfigError, InfeasibleScheduleError, _shown
from quantum_tweezers.experiments import (
    _SWEEP_STEP_CONTROL,
    PROTOCOLS,
    AxisSpec,
    SweepResult,
    SweepSpec,
    _nelder_mead,
    evaluate_point,
    contiguous_intervals,
    gated_ramp_schedule,
    preset_model,
    region_area_fraction,
    run_sweep,
    threshold_contours,
)
from quantum_tweezers.propagator import propagate
from quantum_tweezers.pulses import schedule_from_dict


@pytest.fixture(scope="module")
def small_ramp_result(fig3a):
    rates = np.geomspace(8e5, 8e6, 7)
    return ramp_rate_sweep(fig3a, rates)


class TestRampRateSweep:
    def test_simulation_tracks_lz(self, small_ramp_result):
        # the asymptotic formula holds in the adiabatic regime; below
        # alpha ~ 3 it only tracks the trend
        diff = np.abs(small_ramp_result.p - small_ramp_result.p_lz)
        adiabatic = small_ramp_result.extras["alpha_ad"] > 3.0
        assert np.max(diff[adiabatic]) < 0.02
        assert np.max(diff) < 0.08

    def test_sudden_limit(self, fig3a):
        result = ramp_rate_sweep(fig3a, np.geomspace(5e8, 1e9, 2))
        assert np.all(result.p < 0.05)

    def test_interval_extraction(self, fig3a):
        rates = np.geomspace(1.2e6, 1.2e7, 9)
        result = ramp_rate_sweep(fig3a, rates)
        intervals = result.metadata["intervals_p_gt_0.99"]
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo == pytest.approx(1.2e6, rel=1e-9)
        assert hi < 2e6

    def test_steeper_trap_allows_faster_rates(self, fig3a, fig3b):
        rate = np.array([6e6, 8e6])
        shallow = ramp_rate_sweep(fig3a, rate)
        steep = ramp_rate_sweep(fig3b, rate)
        assert np.all(steep.p > 0.99)
        assert np.all(shallow.p < 0.9)

    def test_grid_point_independence(self, fig3a, small_ramp_result):
        rates = small_ramp_result.axis_values[0]
        standalone = evaluate_point(fig3a, "ramp",
                                    {"ramp_rate_rad_s2": float(rates[3])}, 1)
        inside = small_ramp_result.p[3]
        assert abs(standalone["p"] - inside) <= 1e-12

    def test_csv_deterministic(self, fig3a):
        rates = np.geomspace(2e6, 8e6, 3)
        a = ramp_rate_sweep(fig3a, rates).to_csv_text()
        b = ramp_rate_sweep(fig3a, rates).to_csv_text()
        assert a == b

    def test_csv_layout(self, small_ramp_result):
        lines = small_ramp_result.to_csv_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "ramp_rate_rad_s2"
        assert header[1:3] == ["p_target", "p_lz"]
        assert "alpha_ad" in header
        assert len(lines) == 1 + small_ramp_result.p.size

    def test_two_atom_target(self, fig3a):
        rates = np.geomspace(1e6, 1.5e6, 2)
        result = ramp_rate_sweep(fig3a, rates, target=2)
        assert np.all(result.p > 0.98)
        assert np.max(np.abs(result.p - result.p_lz)) < 0.02


class TestScrapContour:
    def test_reference_point_efficient(self, fig3a):
        result = scrap_contour(fig3a, np.array([1.4e4, 1.5e4, 1.6e4]),
                               np.array([0.9e-3, 1.0e-3, 1.1e-3]))
        centre = result.p[1, 1]
        assert centre > 0.99

    def test_weak_pump_limit(self, fig3a):
        result = scrap_contour(fig3a, np.array([10.0, 20.0]),
                               np.array([0.9e-3, 1.0e-3]))
        assert np.all(result.p < 0.01)

    def test_two_atom_variant(self, fig3a):
        result = scrap_contour(fig3a, np.array([1.4e4, 1.5e4]),
                               np.array([1.4e-3, 1.5e-3]), target=2)
        assert result.spec.protocol == "scrap_2atom"
        assert np.nanmax(result.p) > 0.99

    def test_infeasible_points_marked_not_fatal(self, fig3a):
        broken = dataclasses.replace(
            fig3a, scrap2=dataclasses.replace(fig3a.scrap2, delta_hat=1e3))
        result = scrap_contour(broken, np.array([1.4e4, 1.5e4]),
                               np.array([1.0e-3, 1.2e-3]), target=2)
        assert len(result.failures) == 4
        assert np.all(np.isnan(result.p))
        text = result.to_csv_text()
        assert len(text.strip().split("\n")) == 5  # header + full grid

    def test_programming_error_stops_the_sweep(self, fig3a, monkeypatch):
        # only a TweezersError fails a point alone; this was a NaN point
        def broken(*args, **kwargs):
            raise ValueError("not a pulse failure")

        monkeypatch.setattr("quantum_tweezers.experiments.build_scrap_schedule", broken)
        with pytest.raises(ValueError, match="not a pulse failure"):
            scrap_contour(fig3a, np.array([1.4e4, 1.5e4]), np.array([1.0e-3, 1.2e-3]))

    def test_margins_reported(self, fig3a):
        result = scrap_contour(fig3a, np.array([1.4e4, 1.5e4]),
                               np.array([1.0e-3, 1.2e-3]))
        assert "scrap_adiabatic_margin" in result.extras
        assert np.all(np.isfinite(result.extras["scrap_adiabatic_margin"]))

    def test_efficient_points_satisfy_chirp_condition(self, fig3a):
        # wherever the simulation reaches P > 0.99, the analytic chirp
        # adiabaticity margin is on the right side of unity
        result = scrap_contour(fig3a, np.linspace(0.8e4, 2.4e4, 4),
                               np.linspace(0.8e-3, 1.6e-3, 3))
        efficient = result.p > 0.99
        assert np.any(efficient)
        assert np.all(result.extras["scrap_adiabatic_margin"][efficient] > 1)

    def test_worker_pool_matches_serial(self, fig3a):
        omega_hats = np.array([1.4e4, 1.5e4])
        t_omegas = np.array([0.9e-3, 1.0e-3])
        serial = scrap_contour(fig3a, omega_hats, t_omegas, threads=1)
        pooled = scrap_contour(fig3a, omega_hats, t_omegas, threads=2)
        assert serial.to_csv_text() == pooled.to_csv_text()


class TestSweepThreads:
    # 0 and -3 ran serially without a word, and 1.5 raised a TypeError from
    # concurrent.futures
    @pytest.mark.parametrize("threads", [0, -3, 1.5, True, "2", None])
    def test_threads_must_be_a_positive_integer(self, fig3a, threads):
        with pytest.raises(ConfigError, match="^threads must be an integer of at least 1, not "):
            ramp_rate_sweep(fig3a, [1e6, 2e6], threads=threads)

    # a pool forks all its workers at once: 8 for a 2-point sweep
    def test_pool_has_at_most_one_worker_per_point(self, fig3a, monkeypatch):
        import concurrent.futures

        sizes = []

        class Recorder:  # records the pool size and starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        serial = ramp_rate_sweep(fig3a, [1e6, 2e6])
        pooled = ramp_rate_sweep(fig3a, [1e6, 2e6], threads=8)
        assert sizes == [2]
        assert pooled.to_csv_text() == serial.to_csv_text()


class TestDelayScan:
    def test_plateau_and_secondary(self, fig3a):
        delays = np.linspace(-5e-3, 1e-3, 25)
        result = delay_scan(fig3a, delays)
        at_zero = result.p[np.argmin(np.abs(delays))]
        assert at_zero > 0.99
        # exchanged passage order: a secondary rise at negative delay,
        # not exceeding the primary plateau
        early = result.p[delays < -2e-3]
        assert np.max(early) > 0.5
        assert np.max(early) <= at_zero


class TestPipulseContour:
    def test_slice_oscillates_with_area(self, fig3a_model, fig3a):
        t_omega = 1.5e-3
        kappa = fig3a_model.rabi_units[0]
        unit = math.sqrt(math.pi) / (kappa * t_omega)  # drive peak per pi area
        omega_hats = unit * np.linspace(0.5, 3.5, 13)
        result = pipulse_contour(fig3a, omega_hats, np.array([t_omega, 2e-3]))
        slice_p = result.p[:, 0]
        areas = np.linspace(0.5, 3.5, 13)
        # maxima at odd multiples of the pi-area strength
        assert slice_p[areas == 1.0][0] > 0.99
        assert slice_p[areas == 3.0][0] > 0.99
        assert slice_p[areas == 2.0][0] < 0.01

    def test_pi_area_maximizes_slice(self, fig3a_model, fig3a):
        t_omega = 1.5e-3
        kappa = fig3a_model.rabi_units[0]
        unit = math.sqrt(math.pi) / (kappa * t_omega)
        omega_hats = unit * np.linspace(0.6, 1.4, 9)
        result = pipulse_contour(fig3a, omega_hats, np.array([t_omega, 2e-3]))
        assert np.argmax(result.p[:, 0]) == 4  # the exact-pi grid point

    def test_selectivity_fails_at_strong_drive(self, fig3a):
        result = pipulse_contour(fig3a, np.array([2.0e4, 2.6e4]),
                                 np.array([1.5e-3, 2e-3]))
        assert np.min(result.p) < 0.8


class TestSequentialPi:
    def test_transfer_of_two(self, fig3a):
        result = sequential_pi(fig3a, t_omegas=np.array([2e-3, 3e-3]))
        assert np.all(result.p > 0.99)

    def test_omitting_second_pulse(self, fig3a):
        result = sequential_pi(fig3a, t_omegas=np.array([2e-3, 3e-3]),
                               omit_second=True)
        assert np.all(result.p < 1e-6)
        assert np.all(result.extras["p1_after_first"] > 0.99)

    def test_spec_without_target_reports_level_2(self):
        # the API took level 1 and reported P1 = 5.3e-5 and 2.3e-5
        fig7 = get_preset("fig7")
        result = run_sweep(SweepSpec("sequential_pi",
                                     (AxisSpec("t_omega_s", 2e-3, 3e-3, 2),)), fig7)
        assert result.spec.target == 2
        np.testing.assert_allclose(result.p, [0.99911, 0.99960], atol=1e-5)
        assert evaluate_point(fig7, "sequential_pi", {"t_omega_s": 2e-3})["p"] == result.p[0]


class TestSpecValidation:
    def test_axis_requirements(self):
        with pytest.raises(ValueError):
            AxisSpec("x", 0.0, 1.0, points=1)
        with pytest.raises(ValueError):
            AxisSpec("x", 1.0, 0.5, points=5)
        with pytest.raises(ValueError):
            AxisSpec("x", 0.0, 1.0, points=5, scale="log")

    def test_axis_values(self):
        lin = AxisSpec("x", 0.0, 1.0, 5).values()
        np.testing.assert_allclose(lin, [0, 0.25, 0.5, 0.75, 1.0])
        log = AxisSpec("x", 1.0, 100.0, 3, scale="log").values()
        np.testing.assert_allclose(log, [1.0, 10.0, 100.0])

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            SweepSpec(protocol="bogus", axes=(AxisSpec("x", 0, 1, 2),))

    # both columns were written, but every point took the second axis's value
    def test_an_axis_given_twice_is_named(self):
        axes = (AxisSpec("t_omega_s", 1e-3, 2e-3, 2),
                AxisSpec("omega_hat_rad_s", 1e3, 2e3, 2),
                AxisSpec("t_omega_s", 3e-3, 4e-3, 2))
        with pytest.raises(ConfigError) as info:
            SweepSpec("pi_pulse", axes)
        assert str(info.value) == "sweep axis 't_omega_s' is given more than once"

    # evaluate_point and optimize_pulse raised a bare KeyError from _level
    # as SweepSpec does
    def test_an_unknown_protocol_is_named_from_the_api(self, fig3a):
        with pytest.raises(ConfigError, match="^unknown protocol 'bogus'$"):
            evaluate_point(fig3a, "bogus", {})
        with pytest.raises(ConfigError, match="^unknown protocol 'bogus'$"):
            optimize_pulse("bogus", {"x": (0.0, 1.0)}, 10, preset=fig3a)

    # an infinite maximum failed every point (or, on a log axis, ran with a
    # numpy warning); a NaN minimum and a reversed range said "maximum must
    # exceed minimum"
    @pytest.mark.parametrize("minimum, maximum, scale", [
        (1.0, math.inf, "linear"), (1.0, math.inf, "log"), (-math.inf, 1.0, "linear"),
        (math.nan, 1.0, "linear"), (2.0, 1.0, "linear"), (1.0, 10 ** 400, "linear"),
        ("1", 2.0, "linear"), (False, 1.0, "linear")],
        ids=["inf_max", "inf_max_log", "minus_inf_min", "nan_min", "reversed",
             "huge_int_max", "string_min", "bool_min"])
    def test_an_axis_range_that_is_not_finite_and_ordered_is_named(self, minimum,
                                                                   maximum, scale):
        with pytest.raises(ConfigError) as info:
            AxisSpec("x", minimum, maximum, 3, scale=scale)
        assert str(info.value) == ("axis 'x' needs a finite minimum below a finite "
                                   f"maximum, not {minimum!r} and {maximum!r}")

    # a huge int max, a float, a bool or a huge point count, and a number for
    # a name were taken, and values() or the sweep raised a bare numpy or
    # Python error
    @pytest.mark.parametrize("name, points, message", [
        ("x", 3.0, "axis 'x' needs an integer number of points, not 3.0"),
        ("x", True, "axis 'x' needs an integer number of points, not True"),
        (5, 3, "an axis name must be a string, not 5"),
        ("x", 10 ** 5000, "axis 'x' takes at most 10000 points, not a 5001-digit integer"),
    ], ids=["float_points", "bool_points", "number_name", "huge_points"])
    def test_axis_points_and_name_are_checked(self, name, points, message):
        with pytest.raises(ConfigError) as info:
            AxisSpec(name, 1.0, 2.0, points)
        assert str(info.value) == message

    def test_numpy_integer_points_are_taken(self):
        assert AxisSpec("x", 1.0, 2.0, np.int64(3)).values().tolist() == [1.0, 1.5, 2.0]

    # a string or a too-large int was read by float(), and a bound of three
    # numbers by its first two
    @pytest.mark.parametrize("bound", [("1e-3", 2e-3), (1e-3, 10 ** 400), (1e-3, 2e-3, 3e-3),
                                       1e-3, (2e-3, 1e-3), (True, 2e-3)],
                             ids=["string", "huge_int", "three", "number", "reversed",
                                  "bool"])
    def test_a_bound_that_is_not_a_finite_pair_is_named(self, fig3a, bound):
        with pytest.raises(ConfigError) as info:
            optimize_pulse("pi_pulse", {"t_omega_s": bound}, 10, preset=fig3a)
        assert str(info.value) == (f"bound 't_omega_s' must be [low, high], two finite "
                                   f"numbers with low < high, not {bound!r}")

    @pytest.mark.parametrize("protocol", ["ramp", "pi_pulse"])
    @pytest.mark.parametrize("target", [0, 3, 1.0, 2.0, True])
    def test_target_outside_the_ladder_rejected(self, protocol, target):
        # a ramp sweep stopped on a ValueError from its schedule builder,
        # and a pi pulse at target 0 reported P0; a float equal to a level,
        # or a bool, was taken for one (a ramp's 2.0 then raised IndexError)
        with pytest.raises(ConfigError, match=f"target must be 1 or 2, not {target}"):
            SweepSpec(protocol, (AxisSpec("t_omega_s", 1e-3, 2e-3, 2),), target=target)

    # a huge int was taken for a number: it ended in a bare OverflowError, as
    # a drive from math.isfinite and a width from its builder; an infinite
    # width or delay ran, and the point failed on its grid
    @pytest.mark.parametrize("protocol, point, name", [
        ("pi_pulse", {"t_omega_s": 1e-3, "omega_hat_rad_s": 10 ** 400}, "omega_hat_rad_s"),
        ("pi_pulse", {"t_omega_s": 10 ** 400}, "t_omega_s"),
        ("pi_pulse", {"t_omega_s": -math.inf}, "t_omega_s"),
        ("delay_scan", {"delta_tau_s": math.inf}, "delta_tau_s"),
    ], ids=["huge_int_drive", "huge_int_width", "infinite_width", "infinite_delay"])
    def test_a_parameter_that_is_not_a_finite_number_is_named(self, protocol, point, name):
        with pytest.raises(ConfigError) as info:
            evaluate_point(get_preset("fig4"), protocol, point)
        assert str(info.value) == f"parameter {name!r} cannot be {point[name]!r}"

    def test_a_finite_parameter_is_passed_on_as_given(self, fig3a):
        params = PROTOCOLS["pi_pulse"].params(fig3a, {"t_omega_s": 2, "omega_hat_rad_s": None})
        assert type(params["t_omega_s"]) is int and params["omega_hat_rad_s"] is None

    # each formatted the int with repr and ended in "ValueError: Exceeds the
    # limit (4300 digits) for integer string conversion"; a frequency, too
    # large for a float as well, ended in a bare OverflowError first
    @pytest.mark.parametrize("call, message", [
        (lambda preset: AxisSpec("x", 1.0, 10 ** 5000, 3),
         "axis 'x' needs a finite minimum below a finite maximum, not 1.0 and "
         "a 5001-digit integer"),
        (lambda preset: optimize_pulse("pi_pulse", {"t_omega_s": [1e-3, -10 ** 5000]}, 10,
                                       preset=preset),
         "bound 't_omega_s' must be [low, high], two finite numbers with low < high, "
         "not [0.001, a 5001-digit integer]"),
        (lambda preset: schedule_from_dict({
            "detuning": {"type": "constant", "value": 0.0},
            "rabi": {"type": "constant", "value": 10 ** 5000}, "window": [0.0, 1e-4]}),
         "a 'constant' envelope's 'value' must be a finite number, not a 5001-digit "
         "integer"),
        (lambda preset: evaluate_point(preset, "pi_pulse", {"t_omega_s": 10 ** 5000}),
         "parameter 't_omega_s' cannot be a 5001-digit integer"),
        (lambda preset: evaluate_point(preset, "pi_pulse", {}, target=10 ** 5000),
         "target must be 1 or 2, not a 5001-digit integer"),
        (lambda preset: parse_frequency(10 ** 5000),
         "frequency a 5001-digit integer is not finite"),
        (lambda preset: resolve_preset({"omega_l": -10 ** 5000}),
         "invalid config: omega_l: frequency a 5001-digit integer is not finite"),
        (lambda preset: validate_config({"output_dir": 10 ** 5000}),
         "invalid config: output_dir: a 5001-digit integer is not a string"),
        (lambda preset: validate_config({"output_dir": {"x": [10 ** 5000]}}),
         "invalid config: output_dir: {'x': [a 5001-digit integer]} is not a string"),
        (lambda preset: validate_config({"frequency_units": 10 ** 5000}),
         "invalid config: frequency_units: a 5001-digit integer is not one of "
         "['angular_khz', 'two_pi_khz']"),
        (lambda preset: validate_config({"seed": -10 ** 5000}),
         "invalid config: seed: a 5001-digit integer is less than the minimum of 0"),
    ], ids=["axis", "optimize_bound", "schedule", "protocol_point", "target", "frequency",
            "omega_l", "output_dir", "output_dir_object", "frequency_units", "seed"])
    def test_an_int_past_the_string_limit_is_shown_by_its_digits(self, fig3a, call,
                                                                 message):
        with pytest.raises(ConfigError) as info:
            call(fig3a)
        assert str(info.value) == message

    @pytest.mark.parametrize("digits", [4301, 5000, 12345])
    def test_the_digit_count_is_exact_at_a_power_of_ten(self, digits):
        assert _shown(10 ** digits - 1) == f"a {digits}-digit integer"
        assert _shown(-10 ** (digits - 1)) == f"a {digits}-digit integer"
        assert _shown(10 ** digits) == f"a {digits + 1}-digit integer"

    def test_a_sweep_needs_an_axis(self):
        with pytest.raises(ValueError, match="^a sweep needs at least one axis$"):
            SweepSpec("ramp", ())

    def test_an_axis_of_one_value_rejected(self, fig3a):
        with pytest.raises(ValueError, match="^a sweep axis needs at least 2 points$"):
            ramp_rate_sweep(fig3a, np.array([1e6]))

    def test_a_named_protocol_needs_a_preset(self):
        with pytest.raises(ValueError, match="^a preset is required for named protocols$"):
            optimize_pulse("pi_pulse", {"t_omega_s": (1e-3, 2e-3)}, 10)

    # True and 1.0 ran as target 1
    @pytest.mark.parametrize("n_max, target", [(2, 0), (2, 3), (2, True), (2, 1.0), (1, 2)])
    def test_ramp_target_outside_the_ladder_rejected(self, fig3a, n_max, target):
        model = build_level_model(derive_all(fig3a.system), n_max=n_max)
        with pytest.raises(ValueError, match=f"^unsupported ramp target {target}$"):
            gated_ramp_schedule(model, fig3a.omega_l, 3e5, target=target,
                                geometry=fig3a.ramp)

    def test_arbitrary_spacing_rejected(self, fig3a):
        with pytest.raises(ValueError, match="spaced"):
            ramp_rate_sweep(fig3a, np.array([1e6, 2e6, 7e6]))

    def test_parameter_types_follow_defaults(self, fig3a):
        # null where the default is null, a transition, a bool and numpy
        # numbers; a varied name is checked at an axis value, a float
        def params(protocol, varied, fixed):
            return PROTOCOLS[protocol].params(fig3a, {**fixed, **dict.fromkeys(varied, 0.0)})

        params("pi_pulse", ["t_omega_s"], {"omega_hat_rad_s": None, "transition": "1-2"})
        params("pi_pulse", [], {"omega_hat_rad_s": np.float64(2e3)})
        params("sequential_pi", [], {"omit_second": True, "t_omega_s": 2e-3})
        params("ramp", ["omega_l_rad_s"], {"ramp_rate_rad_s2": 1e6})
        for protocol, varied, fixed in [
                ("pi_pulse", [], {"transition": "0-2"}),
                ("pi_pulse", [], {"t_omega_s": None}),
                ("sequential_pi", [], {"omit_second": 1}),
                ("sequential_pi", ["omit_second"], {}),
                ("ramp", ["omega_l_rad_s"], {"ramp_rate_rad_s2": None})]:
            with pytest.raises(ConfigError):
                params(protocol, varied, fixed)


class TestRegionExtraction:
    def test_contours_need_a_2d_sweep(self, small_ramp_result):
        with pytest.raises(ValueError, match="^contour extraction needs a 2-D sweep$"):
            threshold_contours(small_ramp_result, 0.99)

    def test_contiguous_intervals(self):
        axis = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        p = np.array([0.1, 0.995, 0.999, 0.2, 0.995, 0.3])
        got = contiguous_intervals(axis, p, 0.99)
        assert got == [(2.0, 3.0), (5.0, 5.0)]

    def test_nan_breaks_interval(self):
        axis = np.array([1.0, 2.0, 3.0])
        p = np.array([0.999, math.nan, 0.999])
        assert len(contiguous_intervals(axis, p, 0.99)) == 2

    @pytest.mark.parametrize("p, expected", [
        ([1, 1, 0, 0, 1], [(1.0, 2.0), (5.0, 5.0)]),
        ([0, 1, 1, 1, 1], [(2.0, 5.0)]),
        ([1, 1, 1, 1, 1], [(1.0, 5.0)]),
        ([0, 0, 0, 0, 0], []),
        ([math.nan, 1, math.nan, 1, 1], [(2.0, 2.0), (4.0, 5.0)]),
        ([math.nan] * 5, []),
    ], ids=["touch_start", "touch_end", "all_true", "all_false", "nan",
            "all_nan"])
    def test_intervals_match_the_loop_reference(self, p, expected):
        axis = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        p = np.array(p, dtype=float)

        # the run scan contiguous_intervals replaced, kept as the reference
        def by_loop():
            intervals, start = [], None
            for i, hit in enumerate(p > 0.99):
                if hit and start is None:
                    start = i
                elif not hit and start is not None:
                    intervals.append((float(axis[start]), float(axis[i - 1])))
                    start = None
            if start is not None:
                intervals.append((float(axis[start]), float(axis[-1])))
            return intervals

        got = contiguous_intervals(axis, p, 0.99)
        assert got == by_loop() == expected
        assert all(type(v) is float for interval in got for v in interval)

    def test_area_fraction(self):
        p = np.array([[1.0, 0.0], [1.0, math.nan]])
        assert region_area_fraction(p, 0.5) == pytest.approx(0.5)

    def test_marching_squares_circle(self, fig3a):
        # synthetic radial field: the 0.5 contour is a circle of radius 0.5
        xs = np.linspace(-1, 1, 41)
        ys = np.linspace(-1, 1, 41)
        r = np.hypot(xs[:, None], ys[None, :])
        field = 1.0 - r
        spec = SweepSpec(protocol="ramp",
                         axes=(AxisSpec("x", -1, 1, 41), AxisSpec("y", -1, 1, 41)))
        from quantum_tweezers.experiments import SweepResult
        result = SweepResult(spec=spec, axis_values=(xs, ys), p=field,
                             p_lz=np.full_like(field, math.nan), extras={},
                             failures=())
        segments = threshold_contours(result, 0.5)
        assert len(segments) > 20
        for x1, y1, x2, y2 in segments:
            assert math.hypot(x1, y1) == pytest.approx(0.5, abs=0.05)
            assert math.hypot(x2, y2) == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("seed", range(4))
    def test_contours_match_the_four_edge_reference(self, seed):
        # the per-edge marching-squares loop threshold_contours replaced,
        # kept as the reference
        def by_edges(p, xs, ys, level):
            segments, saddles = [], 0

            def interp(va, vb, a, b):
                return a + (level - va) / (vb - va) * (b - a)

            for i in range(p.shape[0] - 1):
                for j in range(p.shape[1] - 1):
                    c = np.array([p[i, j], p[i + 1, j], p[i + 1, j + 1], p[i, j + 1]])
                    if np.any(np.isnan(c)):
                        continue
                    if sum(1 << k for k, v in enumerate(c) if v > level) in (0, 15):
                        continue
                    x0, x1, y0, y1 = xs[i], xs[i + 1], ys[j], ys[j + 1]
                    pts = {}
                    if (c[0] > level) != (c[1] > level):
                        pts["b"] = (interp(c[0], c[1], x0, x1), y0)
                    if (c[1] > level) != (c[2] > level):
                        pts["r"] = (x1, interp(c[1], c[2], y0, y1))
                    if (c[3] > level) != (c[2] > level):
                        pts["t"] = (interp(c[3], c[2], x0, x1), y1)
                    if (c[0] > level) != (c[3] > level):
                        pts["l"] = (x0, interp(c[0], c[3], y0, y1))
                    keys = sorted(pts)
                    if len(keys) == 2:
                        segments.append([float(v) for key in keys for v in pts[key]])
                    elif len(keys) == 4:
                        saddles += 1
                        segments.append([float(v) for key in "bl" for v in pts[key]])
                        segments.append([float(v) for key in "tr" for v in pts[key]])
            return segments, saddles

        rng = np.random.default_rng(seed)
        levels = (0.99, 0.8, 0.5)
        counts = {"segments": 0, "saddles": 0}
        for _ in range(150):
            shape = tuple(rng.integers(2, 8, size=2))
            # uniform values, some exactly at a level, one in ten NaN
            p = rng.random(shape)
            at_level = rng.random(shape) < 0.15
            p[at_level] = rng.choice(levels, size=int(at_level.sum()))
            p[rng.random(shape) < 0.1] = math.nan
            xs, ys = (np.cumsum(rng.random(n) + 0.1) - 1.0 for n in shape)
            result = SweepResult(
                spec=SweepSpec(protocol="ramp", axes=(AxisSpec("x", 0, 1, shape[0]),
                                                      AxisSpec("y", 0, 1, shape[1]))),
                axis_values=(xs, ys), p=p, p_lz=np.full(shape, math.nan),
                extras={}, failures=())
            for level in levels:
                expected, saddles = by_edges(p, xs, ys, level)
                got = threshold_contours(result, level)
                assert got == expected
                assert all(type(v) is float for segment in got for v in segment)
                counts["segments"] += len(got)
                counts["saddles"] += saddles
        assert counts["segments"] > 1000 and counts["saddles"] > 10


# every protocol, with the calibration's worst points of the fig4 chirp
# (its shortest pump) and of the pi pulse (its shortest width) among them
_SWEEP_POINTS = [
    ("fig4", "scrap_1atom", {"omega_hat_rad_s": 1.78e4, "t_omega_s": 2.5e-4}, 1),
    ("fig4", "scrap_1atom", {"omega_hat_rad_s": 1e3, "t_omega_s": 3.25e-3}, 1),
    ("fig4", "delay_scan", {"delta_tau_s": -1.8e-3}, 1),
    ("fig3a", "ramp", {"ramp_rate_rad_s2": 3e5}, 1),
    ("fig3a", "ramp", {"ramp_rate_rad_s2": 1e6}, 2),
    ("fig6", "scrap_2atom", {}, 2),
    ("fig7", "pi_pulse", {"t_omega_s": 5e-4}, 1),
    ("fig7", "pi_pulse", {"omega_hat_rad_s": 2e3, "t_omega_s": 2.3e-3}, 1),
    ("fig7", "sequential_pi", {"t_omega_s": 1e-3}, 2),
]


@pytest.mark.parametrize("name, protocol, point, target", _SWEEP_POINTS)
def test_sweep_point_matches_fourth_order_reference(name, protocol, point, target):
    # sweeps take the sixth order; the reference is the fourth order at a
    # quarter of the step its own rule picks, chained as the sweep chains
    preset = get_preset(name)
    p = evaluate_point(preset, protocol, point, target)["p"]
    entry = PROTOCOLS[protocol]
    model = preset_model(preset)
    schedules = entry.schedules(model=model, preset=preset,
                                params=entry.params(preset, point),
                                target=entry.target or target)
    state = None
    for schedule in schedules:
        step = propagate(model, schedule, step_control=StepControl(sample_cap=2)).step
        control = StepControl(sample_cap=2, h_override=step / 4)
        state = propagate(model, schedule, initial_state=state,
                          step_control=control).final_state
    assert abs(p - abs(state[entry.target or target]) ** 2) < 1e-11


# the accuracy audit's seeded draw over the paper's ranges (its RANGES)
_SPEC = importlib.util.spec_from_file_location(
    "audit", Path(__file__).parent / "accuracy" / "audit.py")
audit = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(audit)


@pytest.mark.parametrize("name, protocol, point, target", audit.published_sample(),
                         ids=lambda value: value if isinstance(value, str) else None)
def test_published_sample_meets_the_accuracy_bar(name, protocol, point, target):
    # a sweep point against the same sixth-order scheme, chained as the sweep
    # chains, at a sixteenth of the step each pulse's estimate accepts
    preset = get_preset(name)
    p = evaluate_point(preset, protocol, point, target)["p"]
    entry = PROTOCOLS[protocol]
    model = preset_model(preset)
    schedules = entry.schedules(model=model, preset=preset,
                                params=entry.params(preset, point), target=target)
    state = None
    for schedule in schedules:
        step = propagate(model, schedule, initial_state=state,
                         step_control=_SWEEP_STEP_CONTROL).step
        control = dataclasses.replace(_SWEEP_STEP_CONTROL, h_override=step / 16)
        state = propagate(model, schedule, initial_state=state,
                          step_control=control).final_state
    assert abs(p - abs(state[target]) ** 2) < 1e-10


def test_sweep_control_accepts_a_grid_of_at_least_512_steps_as_run_alone():
    # every audit point, chained as the sweep chains: the first call's finest
    # grid has 512 steps, and the accepted grid's final state has the bits
    # of that grid run alone
    for name, protocol, point, target in audit.audit_points(0):
        preset = get_preset(name)
        entry = PROTOCOLS[protocol]
        model = preset_model(preset)
        state = np.array([1.0, 0.0, 0.0], dtype=complex)
        for schedule in entry.schedules(model=model, preset=preset,
                                        params=entry.params(preset, point), target=target):
            run = propagate(model, schedule, initial_state=state,
                            step_control=_SWEEP_STEP_CONTROL)
            assert run.n_steps >= 512, (protocol, point)
            [(_, alone)] = propagator._grids(model, schedule, state,
                                             [(run.n_steps, run.n_steps)], 6)
            assert run.final_state.tobytes() == alone[-1].tobytes(), (protocol, point)
            state = run.final_state


@pytest.mark.parametrize("omega_hat, t_omega", [
    (2.9e4, 2e-4), (1.6e4, 2e-4), (2.9e4, 3e-4), (1e4, 4e-4)])
def test_two_atom_chirp_at_short_pump_widths(omega_hat, t_omega):
    # the fig6 two-atom chirp at pump widths of 0.2-0.5 ms and a strong
    # pump: the sweep point's error-estimated step count lands within 1e-11
    # of a fourth-order run at a sixteenth of its rule's step
    preset = get_preset("fig6")
    point = {"omega_hat_rad_s": omega_hat, "t_omega_s": t_omega}
    p = evaluate_point(preset, "scrap_2atom", point, 2)["p"]
    entry = PROTOCOLS["scrap_2atom"]
    model = preset_model(preset)
    (schedule,) = entry.schedules(model=model, preset=preset,
                                  params=entry.params(preset, point), target=2)
    step = propagate(model, schedule, step_control=StepControl(sample_cap=2)).step
    reference = propagate(model, schedule,
                          step_control=StepControl(sample_cap=2, h_override=step / 16))
    assert abs(p - reference.populations[-1, 2]) < 1e-11


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_drive_fails_its_points_alone(fig3a):
    # a pump peak of 1e300 rad/s overflows the sixth-order exponent: those
    # two points fail with the reason, silently, and the others stand
    result = pipulse_contour(fig3a, np.array([8e3, 1e300]), np.array([1e-3, 2e-3]))
    assert np.all(np.isfinite(result.p[0])) and np.all(np.isnan(result.p[1]))
    assert [index for index, _ in result.failures] == [2, 3]
    assert all("IntegrationError: propagation produced non-finite amplitudes" in reason
               for _, reason in result.failures)


class TestOptimizer:
    def test_stationary_interior_start(self):
        def objective(params):
            return 1.0 - (params["x"] - 0.3) ** 2 - (params["y"] + 0.2) ** 2

        result = optimize_pulse(objective, {"x": (-1, 1), "y": (-1, 1)},
                                budget=200, x0={"x": 0.3, "y": -0.2})
        assert result.params["x"] == pytest.approx(0.3, abs=1e-3)
        assert result.params["y"] == pytest.approx(-0.2, abs=1e-3)
        assert result.converged

    def test_recovers_pi_pulse_amplitude(self, fig3a, fig3a_model):
        t_omega = 1.5e-3
        expected = math.sqrt(math.pi) / (fig3a_model.rabi_units[0] * t_omega)
        result = optimize_pulse("pi_pulse", {"omega_hat_rad_s": (500.0, 5000.0)},
                                budget=60, preset=fig3a, target=1,
                                fixed={"t_omega_s": t_omega})
        assert result.params["omega_hat_rad_s"] == pytest.approx(expected, rel=0.02)
        assert result.probability > 0.99

    def test_scrap_search_reaches_high_efficiency(self, fig3a):
        result = optimize_pulse(
            "scrap_1atom",
            {"omega_hat_rad_s": (1.0e4, 2.2e4), "t_omega_s": (0.8e-3, 1.6e-3)},
            budget=25, preset=fig3a, target=1)
        assert result.probability > 0.99

    def test_sequential_pi_maximizes_its_own_level(self):
        # without a target the search maximized P1 and ended at 0.00021
        result = optimize_pulse("sequential_pi", {"t_omega_s": (1e-3, 3e-3)}, 10,
                                preset=get_preset("fig7"))
        assert result.probability >= 0.999

    def test_never_leaves_bounds(self):
        seen = []

        def objective(params):
            seen.append(params["x"])
            return -(params["x"] - 5.0) ** 2  # optimum far outside the box

        result = optimize_pulse(objective, {"x": (0.0, 1.0)}, budget=40)
        assert all(0.0 <= x <= 1.0 for x in seen)
        assert 0.0 <= result.params["x"] <= 1.0
        assert result.params["x"] == pytest.approx(1.0, abs=1e-2)

    def test_history_monotone(self, fig3a):
        result = optimize_pulse("pi_pulse", {"omega_hat_rad_s": (500.0, 5000.0)},
                                budget=30, preset=fig3a,
                                fixed={"t_omega_s": 1.5e-3})
        history = np.array(result.best_history)
        assert np.all(np.diff(history) >= 0)

    def test_reported_p_matches_fresh_propagation(self, fig3a):
        result = optimize_pulse("pi_pulse", {"omega_hat_rad_s": (500.0, 5000.0)},
                                budget=25, preset=fig3a,
                                fixed={"t_omega_s": 1.5e-3})
        point = {"t_omega_s": 1.5e-3}
        point.update(result.params)
        fresh = evaluate_point(fig3a, "pi_pulse", point, 1)
        assert abs(fresh["p"] - result.probability) <= 1e-10

    def test_budget_exhaustion_reported(self):
        rng_state = {"n": 0}

        def rugged(params):
            rng_state["n"] += 1
            return math.sin(50 * params["x"]) * math.cos(70 * params["y"])

        result = optimize_pulse(rugged, {"x": (0, 1), "y": (0, 1)}, budget=15)
        assert not result.converged
        assert result.n_evaluations <= 15 + 2

    def test_deterministic_given_seed(self):
        def objective(params):
            return -(params["x"] - 0.42) ** 2

        a = optimize_pulse(objective, {"x": (0, 1)}, budget=25, seed=3)
        b = optimize_pulse(objective, {"x": (0, 1)}, budget=25, seed=3)
        assert a.params == b.params
        assert a.best_history == b.best_history

    def test_a_search_whose_every_evaluation_fails_raises_the_first_error(self):
        # it returned probability 0.0, and the CLI wrote it and exited 0
        with pytest.raises(InfeasibleScheduleError,
                           match="t_omega must be strictly positive"):
            optimize_pulse("pi_pulse", {"omega_hat_rad_s": (500.0, 5000.0)}, 10,
                           preset=get_preset("fig7"), fixed={"t_omega_s": -1e-3})

    def test_a_failed_evaluation_scores_zero(self, fig3a):
        # the start, a width of -1 ms, fails alone; the search goes on
        result = optimize_pulse("pi_pulse", {"t_omega_s": (-1e-3, 7e-3)}, 10,
                                preset=fig3a, x0={"t_omega_s": -1e-3})
        assert result.best_history[0] == 0.0
        assert result.probability > 0.5 and result.params["t_omega_s"] > 0

    # a start missing a bounded name raised a bare KeyError, and a name that
    # is not bounded was ignored
    @pytest.mark.parametrize("x0", [{}, {"x": 0.5, "z": 0.5}, {"y": 0.5},
                                    {"x": 0.5, "y": 0.5, "z": 0.5}],
                             ids=["empty", "one_unknown", "one_missing", "extra"])
    def test_a_start_must_name_exactly_the_bounded_parameters(self, x0):
        with pytest.raises(ConfigError) as info:
            optimize_pulse(lambda p: 0.0, {"x": (0, 1), "y": (0, 1)}, 10, x0=x0)
        assert str(info.value) == ("x0 must map exactly the bounded names ['x', 'y'] "
                                   f"to finite numbers, not {x0!r}")

    @pytest.mark.parametrize("value", [math.nan, math.inf, "0.5", True, None])
    def test_a_start_that_is_not_a_finite_number_is_named(self, value):
        with pytest.raises(ConfigError) as info:
            optimize_pulse(lambda p: 0.0, {"x": (0, 1)}, 10, x0={"x": value})
        assert str(info.value) == ("x0 must map exactly the bounded names ['x'] to "
                                   f"finite numbers, not {{'x': {value!r}}}")

    def test_a_start_outside_the_box_is_clamped(self):
        seen = []
        optimize_pulse(lambda p: seen.append(p["x"]) or 0.0, {"x": (0, 1)}, 10,
                       x0={"x": 2.0})
        assert seen[0] == 1.0

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError):
            optimize_pulse(lambda p: 0.0, {"x": (0, 1)}, budget=5)

    @pytest.mark.parametrize("budget", [math.nan, 10.5, math.inf, 12.0, True, "12", None])
    def test_budget_must_be_an_integer(self, budget):
        # the budget < 10 check let NaN through (2 evaluations ran), 10.5
        # (11 ran) and inf (until the simplex collapsed)
        calls = []
        with pytest.raises(ConfigError, match="^optimization budget must be an integer, not "):
            optimize_pulse(lambda p: calls.append(p) or 0.0, {"x": (0, 1)}, budget=budget)
        assert not calls
        result = optimize_pulse(lambda p: -p["x"], {"x": (0, 1)}, budget=np.int64(12))
        assert result.n_evaluations <= 12

    # 1.5 and -1 raised numpy's TypeError and ValueError, and True ran as seed 1
    @pytest.mark.parametrize("seed", [1.5, -1, True, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        calls = []
        with pytest.raises(ConfigError, match="^seed must be a non-negative integer, not "):
            optimize_pulse(lambda p: calls.append(p) or 0.0, {"x": (0, 1)}, budget=10,
                           seed=seed)
        assert not calls
        result = optimize_pulse(lambda p: -p["x"], {"x": (0, 1)}, budget=10, seed=np.int64(3))
        assert result.n_evaluations <= 10

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_objective_without_a_number_raises(self, value):
        # with NaN at every point no best point was ever set, and building
        # the result raised a TypeError
        calls = []
        with pytest.raises(ValueError) as info:
            optimize_pulse(lambda p: calls.append(p) or value, {"x": (0, 1)}, budget=10)
        assert str(info.value) == (f"the objective returned NaN or -inf at all "
                                   f"{len(calls)} evaluations")
        assert 0 < len(calls) <= 10


def _replay_problem(seed):
    """A seeded Nelder-Mead problem on the unit box: (simplex, budget,
    xatol, fatol, objective), with 1-3 parameters, a start that may sit on
    the box's edges, vertices that may leave the box, and objectives with
    ties and flat regions."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    z0 = rng.random(n)
    z0[rng.random(n) < 0.3] = 0.0
    z0[rng.random(n) < 0.3] = 1.0
    if rng.random() < 0.5:  # optimize_pulse's: 0.25 along each axis, inwards at 1
        simplex = np.tile(z0, (n + 1, 1))
        for d in range(n):
            simplex[d + 1, d] += 0.25 if z0[d] + 0.25 <= 1.0 else -0.25
    else:
        simplex = np.vstack([z0, z0 + rng.uniform(-0.6, 0.6, (n, n))])
    centre = rng.uniform(-0.5, 1.5, n)

    def quadratic(z):
        return float(np.sum((z - centre) ** 2))

    objective = [
        quadratic,
        lambda z: round(quadratic(z), 1),             # ties and terraces
        lambda z: max(quadratic(z), 0.2),             # a flat floor
        lambda z: float(np.floor(4 * z).sum()),       # a staircase
        lambda z: 0.0,                                # every value tied
        lambda z: -float(np.prod(np.sin(7 * z))),     # several minima
    ][seed // 3 % 6]  # every objective at every n
    xatol, fatol = [(1e-4, 1e-10), (1e-2, 1e-3), (0.05, 0.1)][rng.integers(3)]
    return simplex, int(rng.integers(10, 121)), xatol, fatol, objective


def test_nelder_mead_replays_scipy():
    from scipy.optimize import minimize

    flags = []
    for seed in range(240):
        simplex, budget, xatol, fatol, objective = _replay_problem(seed)
        asked = {"scipy": [], "package": []}

        def recorded(side):
            def f(z):
                asked[side].append(z.tobytes())
                return objective(z)
            return f

        n = simplex.shape[1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a start outside the box
            search = minimize(recorded("scipy"), simplex[0], method="Nelder-Mead",
                              bounds=[(0.0, 1.0)] * n,
                              options={"maxfev": budget, "xatol": xatol,
                                       "fatol": fatol, "initial_simplex": simplex})
        converged = _nelder_mead(recorded("package"), simplex, budget, xatol, fatol)
        assert len(asked["package"]) == len(asked["scipy"]) == search.nfev, seed
        assert asked["package"] == asked["scipy"], seed
        assert converged == search.success, seed
        flags.append(converged)
    # both ends of the search are replayed
    assert 20 <= sum(flags) <= 220


def test_sweep_columns_one_per_result_key(fig3a):
    # pi_pulse gives p and two_level_margin: p_lz is a NaN column, and the
    # failed first point (t_omega = -1 ms) is NaN in every column
    spec = SweepSpec(protocol="pi_pulse",
                     axes=(AxisSpec("t_omega_s", -1e-3, 3e-3, 3),))
    result = run_sweep(spec, fig3a)
    assert [i for i, _ in result.failures] == [0]
    assert "t_omega must be strictly positive" in result.failures[0][1]
    assert np.all(np.isnan(result.p_lz))
    assert set(result.extras) == {"two_level_margin"}
    for column in (result.p, result.extras["two_level_margin"]):
        assert column.shape == (3,) and column.dtype == float
        assert np.isnan(column[0]) and np.all(np.isfinite(column[1:]))
