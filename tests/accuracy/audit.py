"""The accuracy of the sweep and propagate step controls, point by point.

    python tests/accuracy/audit.py [seed]

draws seeded points (seed 0 by default) over the paper's published ranges,
RANGES, the same table tests/test_experiments.py samples, and adds the fig4
delays of -0.2493, -0.4995 and -1.0 s and the four corners of the fig4
Stark-chirp contour.  Each pulse of a point is propagated in turn from |0>,
as a sweep chains them, under the sweeps' control (_SWEEP_STEP_CONTROL,
final state only) and under qtweezers propagate's (_PROPAGATE_STEP_CONTROL,
every accepted step stored).  Each run is compared with a sixth-order run
from the same start state at a sixteenth of its accepted step: the error is
the largest |P_n - P_n(reference)| over the levels at the end of the
window, and for propagate's samples over every stored sample too.

Per protocol it prints each point's accepted step counts (one per pulse)
and errors, the worst error of each kind, and every point past its target:
1e-11 for a final population, 1e-10 for a sample.  The package is imported
from the src/ of the checkout that holds this script, and the output holds
no timing, so two runs print the same bytes and two commits can be diffed.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from quantum_tweezers.experiments import (  # noqa: E402
    _PROPAGATE_STEP_CONTROL,
    _SWEEP_STEP_CONTROL,
    PROTOCOLS,
    preset_model,
)
from quantum_tweezers.presets import get_preset  # noqa: E402
from quantum_tweezers.propagator import propagate  # noqa: E402

FINAL_TARGET = 1e-11
SAMPLE_TARGET = 1e-10

# the paper's ranges: (preset, protocol, target, {name: (low, high) for a
# uniform draw, or (low, high, "log")}, points drawn).  The delays stay in
# criterion 7's -6 to 2 ms; the long ones are LONG_DELAYS
RANGES = [
    ("fig3a", "ramp", 1, {"ramp_rate_rad_s2": (3e5, 1.2e7, "log")}, 3),
    ("fig3a", "ramp", 2, {"ramp_rate_rad_s2": (1e6, 8e6, "log")}, 2),
    ("fig4", "scrap_1atom", 1, {"omega_hat_rad_s": (1e3, 2.9e4),
                                "t_omega_s": (2.5e-4, 3.25e-3)}, 4),
    ("fig4", "delay_scan", 1, {"delta_tau_s": (-6e-3, 2e-3)}, 4),
    ("fig6", "scrap_2atom", 2, {"omega_hat_rad_s": (1e4, 2e4),
                                "t_omega_s": (1e-3, 2e-3)}, 3),
    ("fig7", "pi_pulse", 1, {"omega_hat_rad_s": (5e2, 5e3),
                             "t_omega_s": (1e-3, 3e-3)}, 2),
    ("fig7", "sequential_pi", 2, {"t_omega_s": (1e-3, 4e-3)}, 2),
]
LONG_DELAYS = (-0.2493, -0.4995, -1.0)  # s


def published_sample(seed: int = 0) -> list[tuple[str, str, dict, int]]:
    """(preset, protocol, point, target) for each point drawn over RANGES."""
    rng = np.random.default_rng(seed)
    sample = []
    for preset, protocol, target, axes, count in RANGES:
        for _ in range(count):
            point = {}
            for name, (low, high, *log) in axes.items():
                u = float(rng.random())
                point[name] = low * (high / low) ** u if log else low + (high - low) * u
            sample.append((preset, protocol, point, target))
    return sample


def audit_points(seed: int = 0) -> list[tuple[str, str, dict, int]]:
    """The seeded sample, the long fig4 delays and the fig4 contour's corners."""
    (omega_low, omega_high), (t_low, t_high) = next(
        axes.values() for _, protocol, _, axes, _ in RANGES if protocol == "scrap_1atom")
    return (published_sample(seed)
            + [("fig4", "delay_scan", {"delta_tau_s": d}, 1) for d in LONG_DELAYS]
            + [("fig4", "scrap_1atom", {"omega_hat_rad_s": omega, "t_omega_s": t}, 1)
               for omega in (omega_low, omega_high) for t in (t_low, t_high)])


def chain_errors(model, schedules, control) -> tuple[list[int], float, float | None]:
    """Each schedule in turn from |0> under control, each against a reference
    from its start state at a sixteenth of its accepted step: the accepted
    step counts, the worst final error and the worst sample error (None
    where only the final state is kept)."""
    state, steps, final_error, sample_error = None, [], 0.0, None
    for schedule in schedules:
        run = propagate(model, schedule, initial_state=state, step_control=control)
        samples = 2 if control.sample_cap == 2 else len(run.times)
        reference = propagate(model, schedule, initial_state=state, step_control=replace(
            control, h_override=run.step / 16, sample_cap=samples))
        if reference.n_steps != 16 * run.n_steps or not np.allclose(
                reference.times, run.times, rtol=0.0, atol=1e-6 * run.step):
            raise RuntimeError(f"the reference grid does not refine {run.n_steps} steps")
        error = np.abs(run.populations - reference.populations)
        final_error = max(final_error, float(np.max(error[-1])))
        if samples > 2:
            sample_error = max(sample_error or 0.0, float(np.max(error)))
        steps.append(run.n_steps)
        state = run.final_state
    return steps, final_error, sample_error


def _label(point: dict) -> str:
    return " ".join(f"{name}={value:.6g}" for name, value in point.items())


def main(seed: int = 0) -> None:
    print(f"accuracy audit, seed {seed}: each run against order 6 at 1/16 of its "
          f"accepted step; targets {FINAL_TARGET:.0e} (final), {SAMPLE_TARGET:.0e} "
          f"(propagate samples)")
    by_protocol: dict[str, list] = {}
    for preset, protocol, point, target in audit_points(seed):
        by_protocol.setdefault(protocol, []).append((preset, point, target))
    for protocol, points in by_protocol.items():
        entry = PROTOCOLS[protocol]
        print(f"\n{protocol}: {len(points)} points")
        print(f"  {'preset':6} {'point':44} {'sweep steps':>12} {'error':>8} "
              f"{'propagate steps':>16} {'error':>8} {'samples':>8}")
        worst = [0.0, 0.0, 0.0]
        past = []
        for preset_name, point, target in points:
            preset = get_preset(preset_name)
            model = preset_model(preset)
            schedules = entry.schedules(model=model, preset=preset,
                                        params=entry.params(preset, point), target=target)
            sweep_steps, sweep_error, _ = chain_errors(model, schedules, _SWEEP_STEP_CONTROL)
            steps, final_error, sample_error = chain_errors(model, schedules,
                                                            _PROPAGATE_STEP_CONTROL)
            label = _label(point)
            print(f"  {preset_name:6} {label:44} {'/'.join(map(str, sweep_steps)):>12} "
                  f"{sweep_error:8.1e} {'/'.join(map(str, steps)):>16} "
                  f"{final_error:8.1e} {sample_error:8.1e}")
            for kind, error, bound in (("sweep final", sweep_error, FINAL_TARGET),
                                       ("propagate final", final_error, FINAL_TARGET),
                                       ("propagate samples", sample_error, SAMPLE_TARGET)):
                if error > bound:
                    past.append(f"  past {bound:.0e}: {preset_name} {label}: {kind} "
                                f"{error:.2e}")
            worst = [max(w, e) for w, e in zip(worst, (sweep_error, final_error,
                                                       sample_error))]
        print(f"  worst: sweep final {worst[0]:.2e}, propagate final {worst[1]:.2e}, "
              f"propagate samples {worst[2]:.2e}")
        print("\n".join(past) if past else "  no point past its target")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
