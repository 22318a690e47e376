"""Command-line front end.

Subcommands: params | propagate | sweep | check | optimize.  Every command
is a pure function of its resolved configuration: identical inputs produce
identical outputs and exit codes.  File outputs are written to a temporary
file and renamed, so an interrupted run never leaves a partial artifact.

Exit codes: 0 success, 1 validity warning, 2 configuration error or a
pulse that cannot be built, 3 numerical failure.  A Python warning, such
as a steep trap that does not dominate the reservoir, is printed to
standard error as one "warning: " line, without its source location.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__
from .analytics import THRESHOLD_PROBABILITY, validity_check
from .config import (
    _FREQUENCY_PARAMS,
    ConfigError,
    load_config,
    parse_frequency,
    resolve_preset,
    validate_config,
)
from .exceptions import InfeasibleScheduleError, IntegrationError
from .experiments import (
    _PROPAGATE_STEP_CONTROL,
    PROTOCOLS,
    AxisSpec,
    SweepSpec,
    evaluate_point,
    optimize_pulse,
    preset_model,
    region_area_fraction,
    run_sweep,
)
from .params import derive_all
from .presets import Preset
from .propagator import propagate, trajectory_to_csv, transfer_probability
from .pulses import schedule_from_dict

# The schedule builders and build_level_model are not called here; they stay
# bound because perfbench/tracer.py wraps them in this module's namespace.
from .experiments import gated_ramp_schedule, resonant_gaussian_schedule  # noqa: F401
from .levels import build_level_model  # noqa: F401
from .pulses import build_pi_pulse, build_scrap_schedule  # noqa: F401

EXIT_OK = 0
EXIT_VALIDITY = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(payload) -> str:
    def clean(obj):
        if isinstance(obj, float) and not math.isfinite(obj):
            return repr(obj)
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.integer):
            return int(obj)
        return obj

    return json.dumps(clean(payload), indent=2, sort_keys=True) + "\n"


def _protocol_point(config: dict) -> dict:
    """The config's protocol section as parameters of its PROTOCOLS entry."""
    convention = config.get("frequency_units", "angular_khz")
    return {_FREQUENCY_PARAMS.get(k, k):
            parse_frequency(v, convention) if k in _FREQUENCY_PARAMS else v
            for k, v in config["protocol"].items() if k not in ("type", "target")}


def cmd_params(config: dict, preset: Preset, out_dir: str) -> int:
    derived = derive_all(preset.system)
    payload = derived.as_dict()
    payload["preset"] = preset.name
    lines = [f"derived parameters for preset {preset.name}"]
    for key in sorted(k for k in payload if k != "preset"):
        lines.append(f"  {key} = {payload[key]!r}")
    print("\n".join(lines))
    _atomic_write(os.path.join(out_dir, "params.json"), _json_text(payload))
    return EXIT_OK


def _target(section: dict, protocol: str) -> int:
    """The section's target level, else the level the protocol reports, else 1.

    A target other than the one level a protocol reports raises ConfigError.
    """
    entry = PROTOCOLS[protocol]
    if "target" in section and entry.target not in (None, section["target"]):
        raise ConfigError(f"protocol {protocol!r} reports level {entry.target}; "
                          f"it cannot report target {section['target']}")
    return section.get("target", entry.target or entry.chain_level or 1)


def cmd_propagate(config: dict, preset: Preset, out_dir: str) -> int:
    protocol = config.get("protocol")
    if not protocol:
        raise ConfigError("propagate requires a 'protocol' section")
    kind = protocol["type"]
    model = preset_model(preset)
    if kind == "schedule":
        if "schedule" not in protocol:
            raise ConfigError("a 'schedule' protocol requires the key 'schedule'")
        schedule = schedule_from_dict(protocol["schedule"])
    else:
        entry = PROTOCOLS[kind]
        point = _protocol_point(config)
        target = _target(protocol, kind)
        if entry.chain_level is not None:
            out = evaluate_point(preset, kind, point, target)
            finals = {f"p{target}" if k == "p" else k: v for k, v in out.items()}
            _atomic_write(os.path.join(out_dir, "final.json"), _json_text(finals))
            print(f"{kind}: P_0->{target} = {out['p']:.6f}")
            return EXIT_OK
        (schedule,) = entry.schedules(model=model, preset=preset,
                                      params=entry.params(preset, point), target=target)
    trajectory = propagate(model, schedule, step_control=_PROPAGATE_STEP_CONTROL)
    csv_text = trajectory_to_csv(trajectory)
    _atomic_write(os.path.join(out_dir, "trajectory.csv"), csv_text)
    finals = {f"p{n}": transfer_probability(trajectory, n)
              for n in range(model.dim)}
    finals["n_steps"] = trajectory.n_steps
    finals["step_s"] = trajectory.step
    finals["norm_drift"] = trajectory.norm_drift
    _atomic_write(os.path.join(out_dir, "final.json"), _json_text(finals))
    print("final populations: "
          + ", ".join(f"p{n} = {finals[f'p{n}']:.6f}" for n in range(model.dim)))
    return EXIT_OK


def cmd_sweep(config: dict, preset: Preset, out_dir: str, threads: int) -> int:
    sweep_cfg = config.get("sweep")
    if not sweep_cfg:
        raise ConfigError("sweep requires a 'sweep' section")
    axes = tuple(
        AxisSpec(name=a["name"], minimum=a["min"], maximum=a["max"],
                 points=a["points"], scale=a.get("scale", "linear"))
        for a in sweep_cfg["axes"])
    spec = SweepSpec(protocol=sweep_cfg["protocol"], axes=axes,
                     target=_target(sweep_cfg, sweep_cfg["protocol"]),
                     fixed=sweep_cfg.get("fixed", {}),
                     preset_name=preset.name)
    started = time.perf_counter()
    result = run_sweep(spec, preset, threads=threads)
    wall_ms = 1e3 * (time.perf_counter() - started)
    _atomic_write(os.path.join(out_dir, "sweep.csv"), result.to_csv_text())
    meta = result.metadata_dict()
    meta["wall_ms"] = wall_ms
    meta["version"] = __version__
    _atomic_write(os.path.join(out_dir, "sweep_meta.json"), _json_text(meta))
    finite = result.p[np.isfinite(result.p)]
    if finite.size == 0:
        print("sweep failed at every grid point", file=sys.stderr)
        return EXIT_NUMERICAL
    max_p = float(np.max(finite))
    area = region_area_fraction(result.p, 0.99)
    print(f"sweep complete: max P = {max_p:.6f}, "
          f"P>0.99 region fraction = {area:.4f}, "
          f"{len(result.failures)} failed points")
    return EXIT_OK


# the check.json keys of the report fields that carry a unit
_CHECK_UNIT_KEYS = {"omega01": "omega01_rad_s",
                    "ramp_rate_limit": "ramp_rate_limit_rad_s2",
                    "tau_min": "tau_min_s", "t_jump": "t_jump_s"}


def cmd_check(config: dict, preset: Preset, out_dir: str) -> int:
    model = preset_model(preset)
    entry = PROTOCOLS.get(config.get("protocol", {}).get("type"))
    point = _protocol_point(config) if entry is not None else {}
    scrap = None
    # the chirp bounds are derived for the Gaussian pulse pair, so they are
    # attached only for the protocols that drive one
    if entry is not None and entry.chirp is not None:
        scrap = entry.chirp(preset, entry.params(preset, point))
    # a ramp drives at its omega_l_rad_s where the section gives one
    omega_l = point.get("omega_l_rad_s", preset.omega_l)
    report = validity_check(model, omega_l, scrap=scrap)
    flags = report.flags
    payload = {"threshold_probability": THRESHOLD_PROBABILITY, "flags": flags,
               "all_strong": report.all_strong, "any_fail": report.any_fail}
    for name, value in asdict(report).items():
        payload[_CHECK_UNIT_KEYS.get(name, name)] = value
        condition = name.removesuffix("_margin")
        if condition != name:
            payload[f"{condition}_flag"] = flags.get(condition)
    _atomic_write(os.path.join(out_dir, "check.json"), _json_text(payload))
    print(f"validity report for preset {preset.name} "
          f"(omega_l = {omega_l!r} rad/s)")
    for name, flag in sorted(flags.items()):
        print(f"  {name}: {flag}")
    print(f"  two_level_margin = {report.two_level_margin:.4g}")
    print(f"  single_particle_margin = {report.single_particle_margin:.4g}")
    print(f"  ramp_rate_limit = {report.ramp_rate_limit:.4g} rad/s^2")
    print(f"  tau_min = {report.tau_min:.4g} s")
    return EXIT_OK if report.all_strong else EXIT_VALIDITY


def cmd_optimize(config: dict, preset: Preset, out_dir: str, seed: int) -> int:
    opt_cfg = config.get("optimize")
    if not opt_cfg:
        raise ConfigError("optimize requires an 'optimize' section")
    bounds = {k: (v[0], v[1]) for k, v in opt_cfg["bounds"].items()}
    result = optimize_pulse(opt_cfg["protocol"], bounds, opt_cfg["budget"],
                            preset=preset,
                            target=_target(opt_cfg, opt_cfg["protocol"]),
                            seed=seed, fixed=opt_cfg.get("fixed"))
    payload = {
        "params": result.params,
        "probability": result.probability,
        "converged": result.converged,
        "n_evaluations": result.n_evaluations,
    }
    _atomic_write(os.path.join(out_dir, "optimize.json"), _json_text(payload))
    print(f"best P = {result.probability:.6f} at "
          + ", ".join(f"{k} = {v:.6g}" for k, v in sorted(result.params.items()))
          + f" (converged = {result.converged}, {result.n_evaluations} evals)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtweezers",
        description="Few-level pulse design and simulation for loading a "
                    "steep trap from an atom reservoir")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("params", "derive and report every model parameter"),
        ("propagate", "integrate one schedule and write the trajectory CSV"),
        ("sweep", "run a parameter sweep and write CSV + metadata"),
        ("check", "evaluate analytic validity margins and flags"),
        ("optimize", "maximize transfer probability over pulse parameters"),
    ]:
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", help="path to a JSON run configuration")
        cmd.add_argument("--preset", help="named preset (fig3a, fig3b, fig4, "
                                          "fig6, fig7)")
        cmd.add_argument("--out", help="output directory (default: output_dir, else .)")
        cmd.add_argument("--threads", type=int, default=None,
                         help="worker processes for sweeps (default 1)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="seed for the optimizer start point")
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """A warning as one stderr line, without the source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a warning (a steep trap that does not dominate) as one line
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            config = load_config(args.config) if args.config else validate_config({})
            preset = resolve_preset(config, args.preset)
            out_dir = args.out if args.out is not None else config.get("output_dir", ".")
            threads = args.threads if args.threads is not None \
                else config.get("threads", 1)
            seed = args.seed if args.seed is not None else config.get("seed", 0)
            # a process pool forks all its workers at once
            if threads > (os.cpu_count() or 1):
                raise ConfigError(f"threads = {threads} exceeds the "
                                  f"{os.cpu_count()} CPUs of this machine")
            if args.command == "params":
                return cmd_params(config, preset, out_dir)
            if args.command == "propagate":
                return cmd_propagate(config, preset, out_dir)
            if args.command == "sweep":
                return cmd_sweep(config, preset, out_dir, threads)
            if args.command == "check":
                return cmd_check(config, preset, out_dir)
            return cmd_optimize(config, preset, out_dir, seed)
        except (ConfigError, InfeasibleScheduleError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except IntegrationError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
