"""Command-line front end.

Subcommands: params | propagate | sweep | check | optimize, each declared
once in COMMANDS.  Every command takes --config, --preset and --out; only
sweep takes --threads and only optimize --seed.  Every command is a pure
function of its resolved configuration: identical inputs produce
identical outputs and exit codes.  File outputs are written to a temporary
file and renamed, so an interrupted run never leaves a partial artifact.

Exit codes: 0 success, 1 validity warning, 2 configuration error, a pulse
that cannot be built or an output that cannot be written, 3 numerical
failure.  A Python warning, such as a steep trap that does not dominate
the reservoir, is printed to standard error as one "warning: " line,
without its source location.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__
from .analytics import THRESHOLD_PROBABILITY, validity_check
from .config import (
    _FREQUENCY_PARAMS,
    ConfigError,
    _frequency,
    load_config,
    resolve_preset,
    validate_config,
)
from .exceptions import InfeasibleScheduleError, IntegrationError
from .experiments import (
    _PROPAGATE_STEP_CONTROL,
    PROTOCOLS,
    AxisSpec,
    SweepSpec,
    _drive,
    _level,
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
_WRITE_CHARS = 1 << 16  # characters of output text encoded and written at a time


def _atomic_write(path: str, text: str) -> None:
    """Write text to a temporary file beside path, then rename it over path.

    The temporary file is opened like a plain open(path, "w"), so the output
    keeps the umask's mode.  The text is written in slices of _WRITE_CHARS
    characters, so no encoded copy of the whole text is made.  A write that
    fails raises ConfigError and leaves no temporary file behind.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f"tmp{os.urandom(8).hex()}.tmp")
    try:
        try:
            with open(tmp, "x", encoding="utf-8") as handle:
                for start in range(0, len(text), _WRITE_CHARS):
                    handle.write(text[start:start + _WRITE_CHARS])
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _json_text(payload) -> str:
    def clean(obj):
        if isinstance(obj, float) and not math.isfinite(obj):
            return repr(obj)
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        return obj

    return json.dumps(clean(payload), indent=2, sort_keys=True) + "\n"


def _protocol_point(config: dict) -> dict:
    """The config's protocol section as parameters of its PROTOCOLS entry, a
    frequency string parsed to rad/s; Protocol.params checks the values."""
    convention = config.get("frequency_units", "angular_khz")
    return {_FREQUENCY_PARAMS.get(k, k):
            _frequency(v, convention, f"protocol.{k}")
            if k in _FREQUENCY_PARAMS and isinstance(v, str) else v
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


def cmd_propagate(config: dict, preset: Preset, out_dir: str) -> int:
    protocol = config["protocol"]
    kind = protocol["type"]
    model = preset_model(preset)
    if kind == "schedule":
        schedule = schedule_from_dict(protocol["schedule"])
    else:
        entry = PROTOCOLS[kind]
        point = _protocol_point(config)
        target = _level(kind, protocol.get("target"))
        if entry.chain_level is not None:
            out = evaluate_point(preset, kind, point, target)
            finals = {f"p{target}" if k == "p" else k: v for k, v in out.items()}
            _atomic_write(os.path.join(out_dir, "final.json"), _json_text(finals))
            print(f"{kind}: P_0->{target} = {out['p']:.6f}")
            return EXIT_OK
        (schedule,) = entry.schedules(model=model, preset=preset,
                                      params=entry.params(preset, point), target=target)
    trajectory = propagate(model, schedule, step_control=_PROPAGATE_STEP_CONTROL)
    _atomic_write(os.path.join(out_dir, "trajectory.csv"), trajectory_to_csv(trajectory))
    finals = {f"p{n}": transfer_probability(trajectory, n) for n in range(model.dim)}
    finals.update(n_steps=trajectory.n_steps, step_s=trajectory.step,
                  norm_drift=trajectory.norm_drift)
    _atomic_write(os.path.join(out_dir, "final.json"), _json_text(finals))
    print("final populations: "
          + ", ".join(f"p{n} = {finals[f'p{n}']:.6f}" for n in range(model.dim)))
    return EXIT_OK


def cmd_sweep(config: dict, preset: Preset, out_dir: str) -> int:
    sweep_cfg = config["sweep"]
    axes = tuple(AxisSpec(a["name"], a["min"], a["max"], a["points"],
                          a.get("scale", "linear")) for a in sweep_cfg["axes"])
    spec = SweepSpec(sweep_cfg["protocol"], axes, target=sweep_cfg.get("target"),
                     fixed=sweep_cfg.get("fixed", {}), preset_name=preset.name)
    started = time.perf_counter()
    result = run_sweep(spec, preset, threads=config.get("threads", 1))
    wall_ms = 1e3 * (time.perf_counter() - started)
    _atomic_write(os.path.join(out_dir, "sweep.csv"), result.to_csv_text())
    meta = {**result.metadata_dict(), "wall_ms": wall_ms, "version": __version__}
    _atomic_write(os.path.join(out_dir, "sweep_meta.json"), _json_text(meta))
    finite = result.p[np.isfinite(result.p)]
    if finite.size == 0:
        print("sweep failed at every grid point", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"sweep complete: max P = {np.max(finite):.6f}, P>0.99 region fraction = "
          f"{region_area_fraction(result.p, 0.99):.4f}, {len(result.failures)} failed points")
    return EXIT_OK


# the check.json keys of the report fields that carry a unit
_CHECK_UNIT_KEYS = {"omega01": "omega01_rad_s",
                    "ramp_rate_limit": "ramp_rate_limit_rad_s2",
                    "tau_min": "tau_min_s", "t_jump": "t_jump_s"}


def cmd_check(config: dict, preset: Preset, out_dir: str) -> int:
    model = preset_model(preset)
    protocol = config.get("protocol", {})
    entry = PROTOCOLS.get(protocol.get("type"))
    omega, schedules = preset.omega_l, ()
    if protocol.get("type") == "schedule":  # checked; the margins stay at omega_l
        schedule_from_dict(protocol["schedule"])
    if entry is not None:
        point = _protocol_point(config)
        target = _level(protocol["type"], protocol.get("target"))
        # a ramp without its rate has no pulse: params checks the rest of its
        # section, and the margins are those at its drive
        missing = dict.fromkeys(set(entry.required) - set(point), 0.0)
        params = entry.params(preset, {**point, **missing})
        omega = params.get("omega_l_rad_s", omega)
        if not missing:
            schedules = entry.schedules(model=model, preset=preset, params=params,
                                        target=target)
    if schedules:  # the sweep companions' report
        report = entry.validity(model, preset, params, schedules)
        omega = _drive(schedules)
    else:  # without a protocol or a pulse, the margins at omega_l
        report = validity_check(model, omega)
    drive = ("omega_l" if entry is None or "omega_l_rad_s" in entry.defaults
             else "omega_hat")
    flags = report.flags
    payload = {"threshold_probability": THRESHOLD_PROBABILITY, "flags": flags,
               "all_strong": report.all_strong, "any_fail": report.any_fail}
    for name, value in asdict(report).items():
        payload[_CHECK_UNIT_KEYS.get(name, name)] = value
        condition = name.removesuffix("_margin")
        if condition != name:
            payload[f"{condition}_flag"] = flags.get(condition)
    _atomic_write(os.path.join(out_dir, "check.json"), _json_text(payload))
    print(f"validity report for preset {preset.name} ({drive} = {omega!r} rad/s)")
    for name, flag in sorted(flags.items()):
        print(f"  {name}: {flag}")
    print(f"  two_level_margin = {report.two_level_margin:.4g}")
    print(f"  single_particle_margin = {report.single_particle_margin:.4g}")
    print(f"  ramp_rate_limit = {report.ramp_rate_limit:.4g} rad/s^2")
    print(f"  tau_min = {report.tau_min:.4g} s")
    return EXIT_OK if report.all_strong else EXIT_VALIDITY


def cmd_optimize(config: dict, preset: Preset, out_dir: str) -> int:
    opt_cfg = config["optimize"]
    result = optimize_pulse(opt_cfg["protocol"], opt_cfg["bounds"], opt_cfg["budget"],
                            preset=preset, target=opt_cfg.get("target"),
                            seed=config.get("seed", 0), fixed=opt_cfg.get("fixed"))
    payload = {key: getattr(result, key)
               for key in ("params", "probability", "converged", "n_evaluations")}
    _atomic_write(os.path.join(out_dir, "optimize.json"), _json_text(payload))
    print(f"best P = {result.probability:.6f} at "
          + ", ".join(f"{k} = {v:.6g}" for k, v in sorted(result.params.items()))
          + f" (converged = {result.converged}, {result.n_evaluations} evals)")
    return EXIT_OK


# each subcommand: its handler, its help, the config section it requires,
# and the config keys it takes as flags beside --config, --preset and --out,
# each with the flag's help
COMMANDS = {
    "params": (cmd_params, "derive and report every model parameter", None, {}),
    "propagate": (cmd_propagate, "integrate one schedule and write the trajectory CSV",
                  "protocol", {}),
    "sweep": (cmd_sweep, "run a parameter sweep and write CSV + metadata", "sweep",
              {"threads": "worker processes for sweeps (default 1)"}),
    "check": (cmd_check, "evaluate analytic validity margins and flags", None, {}),
    "optimize": (cmd_optimize, "maximize transfer probability over pulse parameters",
                 "optimize", {"seed": "seed for the optimizer start point"}),
}


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtweezers",
        description="Few-level pulse design and simulation for loading a "
                    "steep trap from an atom reservoir")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, _, flags) in COMMANDS.items():
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", help="path to a JSON run configuration")
        cmd.add_argument("--preset", help="named preset (fig3a, fig3b, fig4, "
                                          "fig6, fig7)")
        cmd.add_argument("--out", help="output directory (default: output_dir, else .)")
        for key, flag_help in flags.items():
            cmd.add_argument(f"--{key}", type=int, help=flag_help)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """A warning as one stderr line, without the source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run, _, section, own_flags = COMMANDS[args.command]
    # a warning (a steep trap that does not dominate) as one line
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            config = load_config(args.config) if args.config else {}
            # a flag replaces its config key and is held to the key's bounds
            flags = {"preset": args.preset, "output_dir": args.out,
                     **{key: getattr(args, key) for key in own_flags}}
            config = validate_config(
                {**config, **{k: v for k, v in flags.items() if v is not None}})
            preset = resolve_preset(config)
            out_dir = config.get("output_dir", ".")
            # a process pool forks all its workers at once
            if (threads := config.get("threads", 1)) > (os.cpu_count() or 1):
                raise ConfigError(f"threads = {threads} exceeds the "
                                  f"{os.cpu_count()} CPUs of this machine")
            try:
                os.makedirs(out_dir or ".", exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot make the output directory "
                                  f"{out_dir}: {exc.strerror}") from exc
            if section and not config.get(section):
                article = "an" if section[0] in "aeiou" else "a"
                raise ConfigError(f"{args.command} requires {article} {section!r} section")
            return run(config, preset, out_dir)
        except (ConfigError, InfeasibleScheduleError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except IntegrationError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
