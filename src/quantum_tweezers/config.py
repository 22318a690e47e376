"""JSON run-configuration: key and type checks, unit parsing, resolution.

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
from dataclasses import replace
from numbers import Real
from typing import NamedTuple

from .exceptions import ConfigError, _float, _shown
from .experiments import PROTOCOLS
from .params import derive_all
from .presets import Preset, get_preset

__all__ = [
    "ConfigError",
    "parse_frequency",
    "load_config",
    "validate_config",
    "resolve_preset",
]


class _Section(NamedTuple):
    """A JSON object: the keys it requires, and the rule of each key it takes
    (see _CONFIG).  With counts (least, most), an array of that many."""

    required: tuple
    keys: dict
    counts: tuple | None = None


# each JSON type a rule may give, as a message names it
_TYPE_NAMES = {int: "an integer", Real: "a number", str: "a string",
               dict: "an object", (Real, type(None)): "a number or null"}

# each "system" config key: the PhysicalSystem field it sets, and its rule
# (see _CONFIG); parse_frequency, then _as_vec3, checks a trap frequency
_SYSTEM_KEYS = {
    "atom_mass_kg": ("atom_mass", Real),
    "nu_a": ("nu_a", None),
    "nu_b": ("nu_b", None),
    "atom_number": ("atom_number", int),
    "peak_density_m3": ("peak_density", Real),
    "a_aa_m": ("a_aa", Real),
    "a_bb_m": ("a_bb", Real),
    "a_ab_m": ("a_ab", Real),
    "mu_override_J": ("mu_override", (Real, type(None))),
}

# the propagate and check sections name two frequency parameters without
# their unit, and take a number or a frequency string for each
_FREQUENCY_PARAMS = {"omega_hat": "omega_hat_rad_s", "delta_hat": "delta_hat_rad_s"}
_SECTION_KEYS = {name: key for key, name in _FREQUENCY_PARAMS.items()}

# the keys a sweep and an optimize section share
_RUN_KEYS = {"protocol": list(PROTOCOLS), "target": None, "fixed": dict}

# what validate_config checks of a config.  A key's rule is a JSON type (a
# key of _TYPE_NAMES), a list of the values it takes, a _Section, or None
# where the code that reads the value checks it: parse_frequency a
# frequency, Protocol.params a protocol parameter or a fixed value,
# schedule_from_dict a schedule, AxisSpec an axis, _level a target and
# optimize_pulse a bound
_CONFIG = _Section((), {
    "preset": str,
    "frequency_units": ["angular_khz", "two_pi_khz"],
    "system": _Section((), {key: rule for key, (_, rule) in _SYSTEM_KEYS.items()}),
    "omega_l": None,
    "protocol": _Section(("type",), {
        "type": [*PROTOCOLS, "schedule"], "target": None, "schedule": None,
        **{_SECTION_KEYS.get(name, name): None for entry in PROTOCOLS.values()
           for name in (*entry.required, *entry.defaults)}}),
    "sweep": _Section(("protocol", "axes"), {
        **_RUN_KEYS,
        "axes": _Section(("name", "min", "max", "points"),
                         dict.fromkeys(("name", "min", "max", "points", "scale")),
                         counts=(1, 2))}),
    "optimize": _Section(("protocol", "bounds", "budget"),
                         {**_RUN_KEYS, "bounds": dict, "budget": int}),
    "output_dir": str,
    "seed": int,
    "threads": int,
})
# a schedule section holds its schedule and nothing else
_SCHEDULE_SECTION = _Section(("type", "schedule"), {"type": None, "schedule": None})

_FREQ_RE = re.compile(
    r"^\s*(?P<twopi>2\s*pi\s*\*)?\s*(?P<value>[-+0-9.eE]+)\s*(?P<unit>Hz|kHz|MHz|rad/s)?\s*$"
)
_UNIT_FACTORS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "rad/s": 1.0, None: 1.0}


def parse_frequency(value, convention: str = "angular_khz") -> float:
    """Convert a config frequency to angular rad/s.

    Numbers pass through unchanged (already rad/s).  Strings carry a unit:
    under "angular_khz" a bare "X kHz" is X*1e3 rad/s; under "two_pi_khz"
    it is 2*pi*X*1e3 rad/s.  A "2pi*" prefix always multiplies by 2*pi.
    Any other value, or a result that is not finite, raises ConfigError.
    """
    if isinstance(value, Real) and not isinstance(value, bool):
        result = _float(value)  # an infinity for an int too large for a float
    elif not isinstance(value, str):
        raise ConfigError(f"frequency {_shown(value)} is not a number or a string")
    else:
        match = _FREQ_RE.match(value)
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
        raise ConfigError(f"frequency {_shown(value)} is not finite")
    return result


def _frequency(value, convention: str, path: str, vector: bool = False):
    """parse_frequency of a config key's value, with vector a list of them as
    a tuple; ConfigError puts the key path before the reason, as _walk does."""
    try:
        if vector and isinstance(value, (list, tuple)):
            return tuple(parse_frequency(v, convention) for v in value)
        return parse_frequency(value, convention)
    except ConfigError as exc:
        raise ConfigError(f"invalid config: {path}: {exc}") from None


def _walk(value, rule, path: str) -> None:
    """Raise ConfigError where value breaks rule (see _CONFIG); path is
    where value sits, its keys joined by dots."""
    if rule is None:
        return
    if isinstance(rule, list):
        if value not in rule:
            raise ConfigError(f"invalid config: {path}: {_shown(value)} is not one of {rule}")
        return
    if isinstance(rule, _Section) and rule.counts:
        least, most = rule.counts
        if not isinstance(value, list) or not least <= len(value) <= most:
            raise ConfigError(f"invalid config: {path}: {_shown(value)} is not an array "
                              f"of {least} to {most} objects")
        for index, item in enumerate(value):
            _walk(item, rule._replace(counts=None), f"{path}.{index}")
        return
    kind = dict if isinstance(rule, _Section) else rule
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"invalid config: {path}: {_shown(value)} is not "
                          f"{_TYPE_NAMES[kind]}")
    if isinstance(rule, _Section):
        owner = path or "the config"
        missing = [key for key in rule.required if key not in value]
        if missing:
            raise ConfigError(f"invalid config: {owner} requires the key {missing[0]!r}")
        unknown = [key for key in value if key not in rule.keys]
        if unknown:
            raise ConfigError(f"invalid config: {owner} has unknown key(s) "
                              f"{unknown}; it takes {list(rule.keys)}")
        for key, item in value.items():
            _walk(item, rule.keys[key], f"{path}.{key}" if path else key)


def validate_config(config: dict) -> dict:
    """Check a raw config dict's keys and JSON types against _CONFIG, and the
    least seed and thread count; ConfigError names the first key at fault."""
    _walk(config, _CONFIG, "")
    if config.get("protocol", {}).get("type") == "schedule":
        _walk(config["protocol"], _SCHEDULE_SECTION, "protocol")
    for key, least in (("seed", 0), ("threads", 1)):
        if config.get(key, least) < least:
            raise ConfigError(f"invalid config: {key}: {_shown(config[key])} is less than "
                              f"the minimum of {least}")
    return config


def _json_int(text: str) -> int:
    """A JSON integer, or ConfigError for one that int() or float() rejects."""
    try:
        float(value := int(text))
    except (ValueError, OverflowError):
        raise ConfigError(f"a {len(text.lstrip('-'))}-digit integer is too "
                          f"large for a float") from None
    return value


def load_config(path: str) -> dict:
    """A config file's JSON object, not yet checked by validate_config."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle, parse_int=_json_int)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} nests too deeply to parse") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def resolve_preset(config: dict) -> Preset:
    """Build the working Preset from a validated config.

    The preset is the config's "preset" (where the CLI writes --preset),
    else fig3a.  System fields and omega_l in the config override the
    preset values.  A system the model rejects, one whose derived
    parameters are not finite included, raises ConfigError.
    """
    name = config.get("preset", "fig3a")
    try:
        preset = get_preset(name)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from exc
    convention = config.get("frequency_units", "angular_khz")
    system_cfg = config.get("system")
    if system_cfg:
        changes = {}
        for key, value in system_cfg.items():
            name, rule = _SYSTEM_KEYS[key]
            changes[name] = (value if rule else
                             _frequency(value, convention, f"system.{key}", vector=True))
        try:
            system = replace(preset.system, **changes)
            derive_all(system)
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"system: {exc}") from exc
        preset = replace(preset, system=system)
    if "omega_l" in config:
        preset = replace(preset, omega_l=_frequency(config["omega_l"], convention, "omega_l"))
    return preset
