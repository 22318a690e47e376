"""JSON run-configuration: schema, validation, unit parsing, resolution.

Frequency fields accept plain numbers (always rad/s) or strings such as
"4 kHz", "30 Hz" or "2pi*30 kHz".  Under the default "angular_khz"
convention a bare "X kHz" means X * 1e3 rad/s of angular frequency; under
"two_pi_khz" it means 2 pi * X * 1e3 rad/s.  A "2pi*" prefix always
multiplies by 2 pi, whatever the convention, which is how trap
frequencies quoted as "2pi x 30 kHz" are written unambiguously.
"""

from __future__ import annotations

import json
import math
import re

import jsonschema

from .exceptions import ConfigError
from .experiments import PROTOCOLS
from .params import PhysicalSystem
from .presets import Preset, get_preset
from .pulses import _ENVELOPE_CLASSES

__all__ = [
    "ConfigError",
    "CONFIG_SCHEMA",
    "parse_frequency",
    "load_config",
    "validate_config",
    "resolve_preset",
]


_FREQ = {"type": ["number", "string"]}
_FREQ_OR_VEC = {
    "oneOf": [
        {"type": ["number", "string"]},
        {"type": "array", "items": {"type": ["number", "string"]},
         "minItems": 3, "maxItems": 3},
    ]
}

_AXIS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name", "min", "max", "points"],
    "properties": {
        "name": {"type": "string"},
        "min": {"type": "number"},
        "max": {"type": "number"},
        "points": {"type": "integer", "minimum": 2},
        "scale": {"enum": ["linear", "log"]},
    },
}

# a pulses envelope: its tag, then each field a number or a nested envelope
_ENVELOPE_SCHEMA = {
    "type": "object",
    "required": ["type"],
    "properties": {"type": {"enum": list(_ENVELOPE_CLASSES)}},
    "additionalProperties": {"oneOf": [{"type": "number"},
                                       {"$ref": "#/$defs/envelope"}]},
}

_SCHEDULE_SCHEMA = {
    "type": "object",
    "properties": {
        "detuning": {"$ref": "#/$defs/envelope"},
        "rabi": {"$ref": "#/$defs/envelope"},
        "window": {"type": "array", "items": {"type": "number"},
                   "minItems": 2, "maxItems": 2},
    },
}

CONFIG_SCHEMA = {
    "$defs": {"envelope": _ENVELOPE_SCHEMA},
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "preset": {"type": "string"},
        "frequency_units": {"enum": ["angular_khz", "two_pi_khz"]},
        "system": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "atom_mass_kg": {"type": "number", "exclusiveMinimum": 0},
                "nu_a": _FREQ_OR_VEC,
                "nu_b": _FREQ_OR_VEC,
                "atom_number": {"type": "integer", "exclusiveMinimum": 0},
                "peak_density_m3": {"type": "number", "exclusiveMinimum": 0},
                "a_aa_m": {"type": "number"},
                "a_bb_m": {"type": "number"},
                "a_ab_m": {"type": "number"},
                "mu_override_J": {"type": ["number", "null"]},
            },
        },
        "omega_l": _FREQ,
        "protocol": {
            "type": "object",
            "additionalProperties": False,
            "required": ["type"],
            "properties": {
                "type": {"enum": [*PROTOCOLS, "schedule"]},
                "ramp_rate_rad_s2": {"type": "number"},
                "target": {"type": "integer", "minimum": 1, "maximum": 2},
                "omega_hat": _FREQ,
                "t_omega_s": {"type": "number", "exclusiveMinimum": 0},
                "delta_hat": _FREQ,
                "delta_tau_s": {"type": "number"},
                "transition": {"enum": ["0-1", "1-2"]},
                "omit_second": {"type": "boolean"},
                "schedule": _SCHEDULE_SCHEMA,
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["protocol", "axes"],
            "properties": {
                "protocol": {"enum": list(PROTOCOLS)},
                "target": {"type": "integer", "minimum": 1, "maximum": 2},
                "axes": {"type": "array", "items": _AXIS_SCHEMA, "minItems": 1,
                         "maxItems": 2},
                "fixed": {"type": "object"},
            },
        },
        "optimize": {
            "type": "object",
            "additionalProperties": False,
            "required": ["protocol", "bounds", "budget"],
            "properties": {
                "protocol": {"enum": list(PROTOCOLS)},
                "target": {"type": "integer", "minimum": 1, "maximum": 2},
                "bounds": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "array", "items": {"type": "number"},
                        "minItems": 2, "maxItems": 2,
                    },
                },
                "budget": {"type": "integer", "minimum": 10},
                "fixed": {"type": "object"},
            },
        },
        "output_dir": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
        "threads": {"type": "integer", "minimum": 1},
    },
}

_FREQ_RE = re.compile(
    r"^\s*(?P<twopi>2\s*pi\s*\*)?\s*(?P<value>[-+0-9.eE]+)\s*(?P<unit>Hz|kHz|MHz|rad/s)?\s*$"
)
_UNIT_FACTORS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "rad/s": 1.0, None: 1.0}


def parse_frequency(value, convention: str = "angular_khz") -> float:
    """Convert a config frequency to angular rad/s.

    Numbers pass through unchanged (already rad/s).  Strings carry a unit:
    under "angular_khz" a bare "X kHz" is X*1e3 rad/s; under "two_pi_khz"
    it is 2*pi*X*1e3 rad/s.  A "2pi*" prefix always multiplies by 2*pi.
    """
    if isinstance(value, (int, float)):
        return float(value)
    match = _FREQ_RE.match(str(value))
    if not match:
        raise ConfigError(f"cannot parse frequency {value!r}")
    try:
        number = float(match.group("value"))
    except ValueError:
        raise ConfigError(f"cannot parse frequency {value!r}") from None
    unit = match.group("unit")
    result = number * _UNIT_FACTORS[unit]
    if match.group("twopi"):
        result *= 2.0 * math.pi
    elif unit in ("Hz", "kHz", "MHz") and convention == "two_pi_khz":
        result *= 2.0 * math.pi
    return result


def _parse_freq_or_vec(value, convention: str):
    if isinstance(value, (list, tuple)):
        return tuple(parse_frequency(v, convention) for v in value)
    return parse_frequency(value, convention)


def validate_config(config: dict) -> dict:
    """Schema-validate a raw config dict; unknown keys are rejected."""
    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"invalid config: {exc.message}") from exc
    return config


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return validate_config(config)


def resolve_preset(config: dict, preset_name: str | None = None) -> Preset:
    """Build the working Preset from a validated config and CLI override.

    Precedence: CLI --preset, then config "preset", then fig3a.  System
    fields and omega_l in the config override the preset values.
    """
    from dataclasses import replace

    name = preset_name or config.get("preset", "fig3a")
    try:
        preset = get_preset(name)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    convention = config.get("frequency_units", "angular_khz")
    system_cfg = config.get("system")
    if system_cfg:
        base = preset.system
        kwargs = {
            "atom_mass": system_cfg.get("atom_mass_kg", base.atom_mass),
            "nu_a": (_parse_freq_or_vec(system_cfg["nu_a"], convention)
                     if "nu_a" in system_cfg else base.nu_a),
            "nu_b": (_parse_freq_or_vec(system_cfg["nu_b"], convention)
                     if "nu_b" in system_cfg else base.nu_b),
            "atom_number": system_cfg.get("atom_number", base.atom_number),
            "peak_density": system_cfg.get("peak_density_m3", base.peak_density),
            "a_aa": system_cfg.get("a_aa_m", base.a_aa),
            "a_bb": system_cfg.get("a_bb_m", base.a_bb),
            "a_ab": system_cfg.get("a_ab_m", base.a_ab),
            "mu_override": system_cfg.get("mu_override_J", base.mu_override),
        }
        preset = replace(preset, system=PhysicalSystem(**kwargs))
    if "omega_l" in config:
        preset = replace(preset,
                         omega_l=parse_frequency(config["omega_l"], convention))
    return preset
