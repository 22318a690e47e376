"""JSON run-configuration: schema, validation, unit parsing, resolution.

Frequency fields accept plain numbers (always rad/s) or strings such as
"4 kHz", "30 Hz" or "2pi*30 kHz".  Under the default "angular_khz"
convention a bare "X kHz" means X * 1e3 rad/s of angular frequency; under
"two_pi_khz" it means 2 pi * X * 1e3 rad/s.  A "2pi*" prefix always
multiplies by 2 pi, whatever the convention, which is how trap
frequencies quoted as "2pi x 30 kHz" are written unambiguously.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import replace

from .exceptions import ConfigError
from .experiments import PROTOCOLS, TRANSITIONS
from .params import derive_all
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

# each "system" config key: the PhysicalSystem field it sets, and its schema
_SYSTEM_KEYS = {
    "atom_mass_kg": ("atom_mass", {"type": "number", "exclusiveMinimum": 0}),
    "nu_a": ("nu_a", _FREQ_OR_VEC),
    "nu_b": ("nu_b", _FREQ_OR_VEC),
    "atom_number": ("atom_number", {"type": "integer", "exclusiveMinimum": 0}),
    "peak_density_m3": ("peak_density", {"type": "number", "exclusiveMinimum": 0}),
    "a_aa_m": ("a_aa", {"type": "number"}),
    "a_bb_m": ("a_bb", {"type": "number"}),
    "a_ab_m": ("a_ab", {"type": "number"}),
    "mu_override_J": ("mu_override", {"type": ["number", "null"]}),
}

# the propagate and check sections name two frequency parameters without
# their unit, and take a number or a frequency string for each
_FREQUENCY_PARAMS = {"omega_hat": "omega_hat_rad_s", "delta_hat": "delta_hat_rad_s"}
_SECTION_KEYS = {name: key for key, name in _FREQUENCY_PARAMS.items()}


def _parameter_schema(name: str, default) -> dict:
    """A protocol parameter's schema: the type Protocol.check_run reads from its default."""
    if name in _SECTION_KEYS:
        return _FREQ
    if isinstance(default, bool):
        return {"type": "boolean"}
    if isinstance(default, str):
        return {"enum": list(TRANSITIONS)}
    if name == "t_omega_s":
        return {"type": "number", "exclusiveMinimum": 0}
    return {"type": "number"}


# every parameter of every protocol, under its propagate-section key
_PROTOCOL_PARAMS = {_SECTION_KEYS.get(name, name):
                    _parameter_schema(name, entry.defaults.get(name, 0.0))
                    for entry in PROTOCOLS.values()
                    for name in (*entry.required, *entry.defaults)}

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
            "properties": {key: schema for key, (_, schema) in _SYSTEM_KEYS.items()},
        },
        "omega_l": _FREQ,
        "protocol": {
            "type": "object",
            "additionalProperties": False,
            "required": ["type"],
            "properties": {
                "type": {"enum": [*PROTOCOLS, "schedule"]},
                "target": {"type": "integer", "minimum": 1, "maximum": 2},
                "schedule": _SCHEDULE_SCHEMA,
                **_PROTOCOL_PARAMS,
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
    A result that is not finite raises ConfigError.
    """
    if isinstance(value, (int, float)):
        result = float(value)
    else:
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
    if not math.isfinite(result):
        raise ConfigError(f"frequency {value!r} is not finite")
    return result


def _parse_freq_or_vec(value, convention: str):
    if isinstance(value, (list, tuple)):
        return tuple(parse_frequency(v, convention) for v in value)
    return parse_frequency(value, convention)


@functools.cache
def _validator():
    """The class jsonschema.validate picks, built once, on first use.

    The schema is a constant, so the metaschema check validate repeats per
    call is a test instead.  jsonschema is imported here, not at module
    level: it would be about a third of the CLI's import time.
    """
    from jsonschema.validators import validator_for

    return validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def validate_config(config: dict) -> dict:
    """Schema-validate a raw config dict; unknown keys are rejected."""
    from jsonschema.exceptions import best_match

    error = best_match(_validator().iter_errors(config))
    if error is not None:
        raise ConfigError(f"invalid config: {error.message}") from error
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
    fields and omega_l in the config override the preset values.  A system
    the model rejects, one whose derived parameters are not finite
    included, raises ConfigError.
    """
    name = preset_name or config.get("preset", "fig3a")
    try:
        preset = get_preset(name)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    convention = config.get("frequency_units", "angular_khz")
    system_cfg = config.get("system")
    if system_cfg:
        changes = {}
        for key, value in system_cfg.items():
            name, schema = _SYSTEM_KEYS[key]
            changes[name] = (_parse_freq_or_vec(value, convention)
                             if schema is _FREQ_OR_VEC else value)
        try:
            system = replace(preset.system, **changes)
            derive_all(system)
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"system: {exc}") from exc
        preset = replace(preset, system=system)
    if "omega_l" in config:
        preset = replace(preset,
                         omega_l=parse_frequency(config["omega_l"], convention))
    return preset
