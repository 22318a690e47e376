"""Command-line interface: configs, outputs, exit codes, determinism."""

import argparse
import contextlib
import copy
import io
import json
import math
import os
import re
import stat
import time
import tracemalloc
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantum_tweezers import StepControl, get_preset, propagate, validity_check
from quantum_tweezers import cli
from quantum_tweezers.cli import COMMANDS, build_parser, main
from quantum_tweezers.config import (
    _SYSTEM_KEYS,
    ConfigError,
    parse_frequency,
    resolve_preset,
    validate_config,
)
from quantum_tweezers.experiments import (
    PROTOCOLS,
    AxisSpec,
    SweepSpec,
    evaluate_point,
    gated_ramp_schedule,
    optimize_pulse,
    preset_model,
    run_sweep,
)
from quantum_tweezers.params import PhysicalSystem


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestFrequencyParsing:
    def test_numbers_pass_through(self):
        assert parse_frequency(1234.5) == 1234.5

    def test_bare_khz_is_angular(self):
        assert parse_frequency("4 kHz") == pytest.approx(4e3)

    def test_two_pi_prefix(self):
        assert parse_frequency("2pi*30 kHz") == pytest.approx(2 * math.pi * 30e3)

    def test_two_pi_convention(self):
        assert parse_frequency("4 kHz", "two_pi_khz") == pytest.approx(
            2 * math.pi * 4e3)

    def test_hz_and_mhz(self):
        assert parse_frequency("100 Hz") == pytest.approx(100.0)
        assert parse_frequency("1.5 MHz") == pytest.approx(1.5e6)

    # true was taken for 1.0 rad/s
    @pytest.mark.parametrize("value", [True, False, None, [1.0]])
    def test_a_value_neither_number_nor_string_is_rejected(self, value):
        with pytest.raises(ConfigError, match="is not a number or a string"):
            parse_frequency(value)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_frequency("fast")


class TestConfigValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="invalid config"):
            validate_config({"sweeep": {}})

    def test_nested_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"system": {"density": 1e19}})

    def test_empty_config_ok(self):
        assert validate_config({}) == {}


class TestParamsCommand:
    def test_reports_reference_values(self, tmp_path, capsys):
        code = main(["params", "--preset", "fig3a", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "params.json").read_text())
        assert payload["osc_length_x_m"] == pytest.approx(62e-9, rel=0.05)
        assert payload["delta_e_coll_over_hbar_rad_s"] == pytest.approx(
            2 * math.pi * 2e3, rel=0.15)
        # text report carries the identical values
        out = capsys.readouterr().out
        assert repr(payload["osc_length_x_m"]) in out
        assert repr(payload["mu_J"]) in out

    def test_invalid_config_exits_2(self, tmp_path):
        path = write_config(tmp_path, {"bogus_key": 1})
        assert main(["params", "--config", path, "--out", str(tmp_path)]) == 2

    def test_unknown_preset_exits_2(self, tmp_path):
        assert main(["params", "--preset", "fig99", "--out", str(tmp_path)]) == 2


class TestPropagateCommand:
    def test_pi_pulse_inverts(self, tmp_path):
        path = write_config(tmp_path, {
            "preset": "fig3a",
            "protocol": {"type": "pi_pulse", "t_omega_s": 3e-3},
        })
        code = main(["propagate", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        finals = json.loads((tmp_path / "final.json").read_text())
        assert finals["p1"] > 0.999
        header = (tmp_path / "trajectory.csv").read_text().split("\n")[0]
        assert header.startswith("time_s,p0,p1,p2")

    def test_zero_coupling_stays_put(self, tmp_path):
        path = write_config(tmp_path, {
            "protocol": {"type": "schedule", "schedule": {
                "detuning": {"type": "constant", "value": 2.8e5},
                "rabi": {"type": "constant", "value": 0.0},
                "window": [0.0, 1e-3],
            }},
        })
        code = main(["propagate", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        finals = json.loads((tmp_path / "final.json").read_text())
        assert finals["p0"] == pytest.approx(1.0, abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, {
            "protocol": {"type": "pi_pulse", "t_omega_s": 2e-3},
        })
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["propagate", "--config", path, "--out", str(out_a)]) == 0
        assert main(["propagate", "--config", path, "--out", str(out_b)]) == 0
        assert (out_a / "trajectory.csv").read_bytes() == \
            (out_b / "trajectory.csv").read_bytes()
        assert (out_a / "final.json").read_bytes() == \
            (out_b / "final.json").read_bytes()

    def test_missing_protocol_exits_2(self, tmp_path):
        path = write_config(tmp_path, {"preset": "fig3a"})
        assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 2

    def test_ramp_protocol(self, tmp_path):
        path = write_config(tmp_path, {
            "preset": "fig3a",
            "protocol": {"type": "ramp", "ramp_rate_rad_s2": 1.5e6},
        })
        assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 0
        finals = json.loads((tmp_path / "final.json").read_text())
        assert finals["p1"] > 0.99

    def test_scrap_protocol(self, tmp_path):
        path = write_config(tmp_path, {
            "preset": "fig4",
            "protocol": {"type": "scrap_1atom", "omega_hat": "15 kHz",
                         "t_omega_s": 1e-3},
        })
        assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 0
        finals = json.loads((tmp_path / "final.json").read_text())
        assert finals["p1"] > 0.99

    def test_two_atom_scrap_protocol(self, tmp_path):
        path = write_config(tmp_path, {
            "preset": "fig6",
            "protocol": {"type": "scrap_2atom", "t_omega_s": 1.5e-3},
        })
        assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 0
        finals = json.loads((tmp_path / "final.json").read_text())
        assert finals["p2"] > 0.99

    def test_sequential_pi_protocol(self, tmp_path):
        path = write_config(tmp_path, {
            "preset": "fig7",
            "protocol": {"type": "sequential_pi", "t_omega_s": 3e-3},
        })
        assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 0
        finals = json.loads((tmp_path / "final.json").read_text())
        assert finals["p2"] > 0.99


class TestSweepCommand:
    def test_degenerate_two_point_sweep(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "preset": "fig3a",
            "sweep": {
                "protocol": "ramp",
                "axes": [{"name": "ramp_rate_rad_s2", "min": 1e6, "max": 2e6,
                          "points": 2, "scale": "log"}],
            },
        })
        code = main(["sweep", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 3
        meta = json.loads((tmp_path / "sweep_meta.json").read_text())
        assert meta["spec"]["protocol"] == "ramp"
        assert meta["spec"]["axes"][0]["points"] == 2
        assert meta["spec"]["preset"] == "fig3a"
        assert "wall_ms" in meta
        assert "max P" in capsys.readouterr().out

    def test_sweep_csv_excludes_timing(self, tmp_path):
        path = write_config(tmp_path, {
            "sweep": {
                "protocol": "ramp",
                "axes": [{"name": "ramp_rate_rad_s2", "min": 2e6, "max": 4e6,
                          "points": 2}],
            },
        })
        assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 0
        header = (tmp_path / "sweep.csv").read_text().split("\n")[0]
        assert "wall" not in header

    def test_missing_sweep_section_exits_2(self, tmp_path):
        path = write_config(tmp_path, {"preset": "fig3a"})
        assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 2


class TestCheckCommand:
    def test_marginal_preset_exits_1(self, tmp_path, capsys):
        # the fig3a drive sits a factor ~5.5 below the two-atom shift: a
        # weak pass, reported with exit code 1
        code = main(["check", "--preset", "fig3a", "--out", str(tmp_path)])
        assert code == 1
        payload = json.loads((tmp_path / "check.json").read_text())
        assert payload["two_level_margin"] == pytest.approx(5.5, rel=0.1)
        assert payload["two_level_flag"] == "weak"
        assert "two_level: weak" in capsys.readouterr().out

    def test_zero_drive_exits_0(self, tmp_path):
        path = write_config(tmp_path, {"omega_l": 0.0})
        assert main(["check", "--config", path, "--out", str(tmp_path)]) == 0

    def test_huge_drive_fails(self, tmp_path):
        path = write_config(tmp_path, {"omega_l": 1e6})
        code = main(["check", "--config", path, "--out", str(tmp_path)])
        assert code == 1
        payload = json.loads((tmp_path / "check.json").read_text())
        assert payload["two_level_flag"] == "fail"

    def test_scrap_flags_with_protocol(self, tmp_path):
        path = write_config(tmp_path, {
            "preset": "fig4",
            "protocol": {"type": "scrap_1atom"},
        })
        main(["check", "--config", path, "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "check.json").read_text())
        assert payload["scrap_adiabatic_flag"] is not None

    @pytest.mark.parametrize("protocol", ["scrap_1atom", "delay_scan"])
    def test_chirp_margins_at_the_pump_peak(self, tmp_path, capsys, protocol):
        # the margins are the sweep companions': at the default fig4 chirp's
        # pump peak, 1.5e4 rad/s, not at the config's omega_l of 4e3 (5.649)
        path = write_config(tmp_path, {"preset": "fig4", "protocol": {"type": protocol}})
        assert main(["check", "--config", path, "--out", str(tmp_path)]) == 1
        payload = json.loads((tmp_path / "check.json").read_text())
        preset = get_preset("fig4")
        point = evaluate_point(preset, protocol, {})
        assert payload["two_level_margin"] == point["two_level_margin"]
        assert payload["two_level_margin"] == pytest.approx(1.506, abs=5e-4)
        drive = validity_check(preset_model(preset), preset.scrap.omega_hat)
        assert payload["single_particle_margin"] == drive.single_particle_margin
        assert "(omega_hat = 15000.0 rad/s)" in capsys.readouterr().out


class TestOptimizeCommand:
    def test_pi_amplitude_search(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "preset": "fig3a",
            "optimize": {
                "protocol": "pi_pulse",
                "bounds": {"omega_hat_rad_s": [500.0, 5000.0]},
                "budget": 40,
                "fixed": {"t_omega_s": 1.5e-3},
            },
        })
        code = main(["optimize", "--config", path, "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "optimize.json").read_text())
        assert payload["probability"] > 0.99
        assert 500.0 <= payload["params"]["omega_hat_rad_s"] <= 5000.0

    def test_budget_below_minimum_exits_2(self, tmp_path):
        path = write_config(tmp_path, {
            "optimize": {
                "protocol": "pi_pulse",
                "bounds": {"omega_hat_rad_s": [500.0, 5000.0]},
                "budget": 5,
            },
        })
        assert main(["optimize", "--config", path, "--out", str(tmp_path)]) == 2


class TestUnitConventionOverrides:
    def test_system_override_with_two_pi_strings(self, tmp_path):
        path = write_config(tmp_path, {
            "frequency_units": "angular_khz",
            "system": {"nu_a": "2pi*100 kHz"},
            "omega_l": "30 kHz",
        })
        assert main(["params", "--config", path, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "params.json").read_text())
        # matches the steeper-trap catalogue entry
        assert payload["osc_length_x_m"] == pytest.approx(3.41e-8, rel=1e-3)


def _axis(name, lo, hi):
    return {"name": name, "min": lo, "max": hi, "points": 2}


# a 2-point axis per protocol, over its required parameter where it has one
PROTOCOL_AXES = {
    "ramp": _axis("ramp_rate_rad_s2", 1e6, 2e6),
    "scrap_1atom": _axis("t_omega_s", 0.9e-3, 1e-3),
    "scrap_2atom": _axis("t_omega_s", 1.4e-3, 1.5e-3),
    "pi_pulse": _axis("t_omega_s", 1.5e-3, 2e-3),
    "delay_scan": _axis("delta_tau_s", -1e-4, 0.0),
    "sequential_pi": _axis("t_omega_s", 2e-3, 3e-3),
}


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_every_protocol_sweeps_and_propagates(tmp_path, name):
    entry = PROTOCOLS[name]
    axis = PROTOCOL_AXES[name]
    assert set(entry.required) <= {axis["name"]}
    path = write_config(tmp_path, {"sweep": {"protocol": name, "axes": [axis]}})
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 2
    assert all(math.isfinite(float(row.split(",")[1])) for row in rows)
    if entry.chain_level is None:
        path = write_config(tmp_path, {
            "protocol": {"type": name, axis["name"]: axis["min"]}})
        assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 0


def _axis_spec(axis):
    return AxisSpec(axis["name"], axis["min"], axis["max"], axis["points"])


# sequential_pi's companions report no margin
@pytest.mark.parametrize("name", sorted(set(PROTOCOLS) - {"sequential_pi"}))
def test_check_margins_are_the_sweep_companions(tmp_path, name):
    # check took scrap_2atom's and pi_pulse's margins at the config's omega_l
    # (5.649 at fig6), where the companions take the pulse's own peak
    axis = PROTOCOL_AXES[name]
    point = {axis["name"]: axis["min"]}
    want = evaluate_point(get_preset("fig6"), name, point)
    path = write_config(tmp_path, {"preset": "fig6", "protocol": {"type": name, **point}})
    main(["check", "--config", path, "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "check.json").read_text())
    assert payload["two_level_margin"] == want["two_level_margin"]


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_api_without_target_reports_the_cli_level(tmp_path, name):
    # the API defaulted to level 1: sequential_pi reported P1 where the CLI
    # reports P2, and scrap_2atom recorded target 1 beside its P2 column
    axis = PROTOCOL_AXES[name]
    path = write_config(tmp_path, {"sweep": {"protocol": name, "axes": [axis]}})
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    column = rows[0].split(",").index("p_target")
    cli_p = [float(row.split(",")[column]) for row in rows[1:]]
    meta = json.loads((tmp_path / "sweep_meta.json").read_text())

    preset = resolve_preset(validate_config({}))
    result = run_sweep(SweepSpec(name, (_axis_spec(axis),)), preset)
    assert result.p.tolist() == cli_p
    assert result.spec.target == meta["spec"]["target"]


def test_api_rejects_a_fixed_level_target_as_the_cli_does(tmp_path, capsys):
    # SweepSpec("scrap_1atom", ..., target=2) was accepted and reported P1
    axis = PROTOCOL_AXES["scrap_1atom"]
    path = write_config(tmp_path, {"sweep": {
        "protocol": "scrap_1atom", "axes": [axis], "target": 2}})
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 2
    with pytest.raises(ConfigError) as info:
        SweepSpec("scrap_1atom", (_axis_spec(axis),), target=2)
    assert str(info.value) == ("protocol 'scrap_1atom' reports level 1; "
                               "it cannot report target 2")
    assert capsys.readouterr().err == f"config error: {info.value}\n"


# a sweep over the same name twice exited 0: its CSV showed both columns, but
# every point took the second axis's value
def test_an_axis_given_twice_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"preset": "fig3a", "sweep": {
        "protocol": "pi_pulse", "axes": [
            {"name": "t_omega_s", "min": 1e-3, "max": 2e-3, "points": 2},
            {"name": "t_omega_s", "min": 3e-3, "max": 4e-3, "points": 2}]}})
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("config error: sweep axis 't_omega_s' is "
                                       "given more than once\n")
    assert not (tmp_path / "sweep.csv").exists()


# check ignored a chirp's target and exited 1 with its margins
@pytest.mark.parametrize("command", ["propagate", "check"])
def test_a_target_the_protocol_cannot_report_exits_2(tmp_path, capsys, command):
    path = write_config(tmp_path, {"preset": "fig4", "protocol": {
        "type": "scrap_1atom", "target": 2}})
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("config error: protocol 'scrap_1atom' reports "
                                       "level 1; it cannot report target 2\n")


@pytest.mark.parametrize("command, section", [
    ("sweep", {"sweep": {"protocol": "ramp",
                         "axes": [_axis("ramp_rate_rad_s2", 2e6, 1e6)]}}),
    ("sweep", {"sweep": {"protocol": "ramp", "axes": [_axis("ramp_rate", 1e6, 2e6)]}}),
    ("sweep", {"sweep": {"protocol": "ramp", "axes": [_axis("omega_l_rad_s", 3e3, 4e3)]}}),
    ("sweep", {"sweep": {"protocol": "scrap_1atom", "fixed": {"omega_hat": 1.5e4},
                         "axes": [_axis("t_omega_s", 0.9e-3, 1e-3)]}}),
    ("optimize", {"optimize": {"protocol": "pi_pulse", "budget": 10,
                               "bounds": {"omega_hat": [500.0, 5000.0]}}}),
    ("optimize", {"optimize": {"protocol": "scrap_1atom", "budget": 10,
                               "bounds": {"omega_hat": [1e4, 2e4]}}}),
], ids=["min_above_max", "unknown_axis", "missing_rate", "unknown_fixed",
        "unknown_pi_bound", "unknown_scrap_bound"])
def test_malformed_parameters_exit_2(tmp_path, command, section):
    path = write_config(tmp_path, {"preset": "fig4", **section})
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("config, flags", [({"threads": 2}, []),
                                           ({}, ["--threads", "2"])],
                         ids=["config", "flag"])
def test_threads_above_cpu_count_exit_2(tmp_path, monkeypatch, capsys, config, flags):
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    path = write_config(tmp_path, {**config, "sweep": {
        "protocol": "ramp", "axes": [PROTOCOL_AXES["ramp"]]}})
    assert main(["sweep", "--config", path, "--out", str(tmp_path), *flags]) == 2
    assert capsys.readouterr().err == ("config error: threads = 2 exceeds the 1 CPUs "
                                       "of this machine\n")


def test_parser_is_built_once_per_process():
    # main built it on every call, about 1.2 ms each
    assert build_parser() is build_parser()


def test_each_subcommand_offers_the_flags_its_table_entry_names():
    # beside --config, --preset and --out, only the config keys a command
    # reads: --threads on sweep and --seed on optimize, 17 flags in all
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsers = sub.choices
    assert list(parsers) == list(COMMANDS)
    for name, (_, _, _, flags) in COMMANDS.items():
        offered = {option for action in parsers[name]._actions
                   for option in action.option_strings} - {"-h", "--help"}
        assert offered == {"--config", "--preset", "--out", *(f"--{k}" for k in flags)}
    assert sum(3 + len(flags) for _, _, _, flags in COMMANDS.values()) == 17


# both flags were taken by every command and read by one; params --threads 99
# exited 2 for the CPU count
@pytest.mark.parametrize("argv", [["params", "--threads", "2"], ["sweep", "--seed", "1"],
                                  ["check", "--seed", "1"]],
                         ids=["params_threads", "sweep_seed", "check_seed"])
def test_a_flag_its_command_does_not_read_is_refused(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: unrecognized arguments: {' '.join(argv[1:])}\n")


# the section check runs once, in main, after the CPU count and the output
# directory: a config that breaks both reports the CPU count
@pytest.mark.parametrize("command, message", [
    ("propagate", "propagate requires a 'protocol' section"),
    ("sweep", "sweep requires a 'sweep' section"),
    ("optimize", "optimize requires an 'optimize' section"),
])
def test_a_command_without_its_section_names_it(tmp_path, monkeypatch, capsys, command,
                                                message):
    path = write_config(tmp_path, {"preset": "fig3a"})
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert COMMANDS[command][2] in message
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    path = write_config(tmp_path, {"preset": "fig3a", "threads": 2})
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    assert "exceeds the 1 CPUs" in capsys.readouterr().err


# "--seed -1" ended in numpy's ValueError traceback, and "--threads 0" or
# "--threads -3" ran the sweep in one process; as config keys they exit 2
@pytest.mark.parametrize("command, flags", [
    ("optimize", ["--seed", "-1"]),
    ("sweep", ["--threads", "0"]),
    ("sweep", ["--threads", "-3"]),
], ids=["seed_negative", "threads_zero", "threads_negative"])
def test_flags_are_held_to_the_config_bounds(tmp_path, capsys, command, flags):
    path = write_config(tmp_path, {"preset": "fig7", **{
        "optimize": {"optimize": {"protocol": "pi_pulse", "budget": 10,
                                  "bounds": {"t_omega_s": [1e-3, 2e-3]}}},
        "sweep": {"sweep": {"protocol": "pi_pulse",
                            "axes": [PROTOCOL_AXES["pi_pulse"]]}},
    }[command]})
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid config: ") and err.count("\n") == 1
    # the key is named: "invalid config: -1 is less than the minimum of 0" was not
    assert err.startswith(f"config error: invalid config: {flags[0][2:]}: ")
    assert not out.exists()


# the quotes of a KeyError's repr were printed around the message
def test_an_unknown_preset_is_named_without_quotes(tmp_path, capsys):
    assert main(["check", "--preset", "fig9", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("config error: unknown preset 'fig9'; "
                                       "available: fig3a, fig3b, fig4, fig6, fig7\n")


# each of these ranges was held by the schema as well as by the code that
# reads the value; the schema's copy is gone, and the message names the field.
# The last, an infinite axis end, was held by neither: every point failed
@pytest.mark.parametrize("command, config, message", [
    ("propagate", {"protocol": {"type": "pi_pulse", "t_omega_s": 0.0}},
     "t_omega must be strictly positive"),
    ("propagate", {"protocol": {"type": "pi_pulse", "target": 3}},
     "target must be 1 or 2, not 3"),
    ("sweep", {"sweep": {"protocol": "pi_pulse", "target": 0,
                         "axes": [PROTOCOL_AXES["pi_pulse"]]}},
     "target must be 1 or 2, not 0"),
    ("optimize", {"optimize": {"protocol": "pi_pulse", "budget": 9,
                               "bounds": {"t_omega_s": [1e-3, 2e-3]}}},
     "optimization budget must be at least 10 evaluations"),
    ("sweep", {"sweep": {"protocol": "pi_pulse",
                         "axes": [{**PROTOCOL_AXES["pi_pulse"], "points": 1}]}},
     "axis 't_omega_s' needs at least 2 points"),
    ("params", {"system": {"atom_mass_kg": 0.0}},
     "system: atom_mass must be strictly positive, got 0.0"),
    ("params", {"system": {"atom_number": 0}},
     "system: atom_number must be strictly positive, got 0"),
    ("params", {"system": {"peak_density_m3": -1.0}},
     "system: peak_density must be strictly positive, got -1.0"),
    ("sweep", {"sweep": {"protocol": "pi_pulse",
                         "axes": [{**PROTOCOL_AXES["pi_pulse"], "scale": "cubic"}]}},
     "unknown axis scale 'cubic'"),
    ("sweep", {"sweep": {"protocol": "pi_pulse",
                         "axes": [{**PROTOCOL_AXES["pi_pulse"], "max": math.inf}]}},
     "axis 't_omega_s' needs a finite minimum below a finite maximum, "
     "not 0.0015 and inf"),
], ids=["t_omega", "propagate_target", "sweep_target", "budget", "points",
        "atom_mass", "atom_number", "peak_density", "axis_scale", "axis_max"])
def test_a_range_is_checked_where_the_value_is_read(tmp_path, capsys, command,
                                                    config, message):
    path = write_config(tmp_path, {"preset": "fig7", **config})
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


_SCHEDULE = {"detuning": {"type": "constant", "value": 0.0},
             "rabi": {"type": "constant", "value": 1e3}, "window": [0.0, 1e-4]}


# these ran to exit 0: a fixed value an axis or a bound replaces was never
# read, nor is any key of a schedule section but its schedule, nor a key of
# a schedule or an envelope that no envelope class reads
@pytest.mark.parametrize("command, config, message", [
    ("sweep", {"sweep": {"protocol": "pi_pulse", "fixed": {"t_omega_s": 1e-3},
                         "axes": [PROTOCOL_AXES["pi_pulse"]]}},
     "parameter(s) ['t_omega_s'] both fixed and varied"),
    ("optimize", {"optimize": {"protocol": "pi_pulse", "budget": 10,
                               "fixed": {"t_omega_s": 1e-3},
                               "bounds": {"t_omega_s": [1e-3, 2e-3]}}},
     "parameter(s) ['t_omega_s'] both fixed and varied"),
    ("propagate", {"protocol": {"type": "schedule", "t_omega_s": 1e-3,
                                "schedule": _SCHEDULE}},
     "invalid config: protocol has unknown key(s) ['t_omega_s']; it takes "
     "['type', 'schedule']"),
    ("check", {"protocol": {"type": "schedule", "target": 2, "schedule": _SCHEDULE}},
     "invalid config: protocol has unknown key(s) ['target']; it takes "
     "['type', 'schedule']"),
    ("propagate", {"protocol": {"type": "schedule",
                                "schedule": {**_SCHEDULE, "bogus": [1, "x"]}}},
     "a schedule has unknown key(s) ['bogus']; it takes ['detuning', 'rabi', 'window']"),
    ("propagate", {"protocol": {"type": "schedule", "schedule": {
        **_SCHEDULE, "rabi": {"type": "constant", "value": 1e3, "foo": 2}}}},
     "a 'constant' envelope has unknown key(s) ['foo']; it takes ['type', 'value']"),
], ids=["sweep_fixed_axis", "optimize_fixed_bound", "schedule_parameter",
        "schedule_target", "schedule_key", "envelope_field"])
def test_a_value_no_run_reads_exits_2(tmp_path, capsys, command, config, message):
    path = write_config(tmp_path, {"preset": "fig7", **config})
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


_SWEEP = {"protocol": "pi_pulse", "axes": [PROTOCOL_AXES["pi_pulse"]]}
_OPTIMIZE = {"protocol": "pi_pulse", "budget": 10, "bounds": {"t_omega_s": [1e-3, 2e-3]}}


# the schema's "integer" took a whole-number float: the first four of these
# ended in a traceback and the next three ran to exit 0 (the schema rejected
# the two bools, with another message)
@pytest.mark.parametrize("command, config, message", [
    ("sweep", {"sweep": {**_SWEEP, "axes": [{**PROTOCOL_AXES["pi_pulse"], "points": 3.0}]}},
     "axis 't_omega_s' needs an integer number of points, not 3.0"),
    ("optimize", {"seed": 1.0, "optimize": _OPTIMIZE},
     "invalid config: seed: 1.0 is not an integer"),
    ("sweep", {"threads": 2.0, "sweep": _SWEEP},
     "invalid config: threads: 2.0 is not an integer"),
    ("sweep", {"sweep": {"protocol": "ramp", "target": 2.0,
                         "axes": [PROTOCOL_AXES["ramp"]]}},
     "target must be 1 or 2, not 2.0"),
    ("optimize", {"optimize": {**_OPTIMIZE, "budget": 10.0}},
     "invalid config: optimize.budget: 10.0 is not an integer"),
    ("params", {"system": {"atom_number": 1000.0}},
     "invalid config: system.atom_number: 1000.0 is not an integer"),
    ("propagate", {"protocol": {"type": "pi_pulse", "target": 1.0}},
     "target must be 1 or 2, not 1.0"),
    ("sweep", {"sweep": {**_SWEEP, "axes": [{**PROTOCOL_AXES["pi_pulse"], "points": True}]}},
     "axis 't_omega_s' needs an integer number of points, not True"),
    ("propagate", {"protocol": {"type": "pi_pulse", "target": True}},
     "target must be 1 or 2, not True"),
], ids=["points", "seed", "threads", "sweep_target", "budget", "atom_number",
        "propagate_target", "points_bool", "target_bool"])
def test_an_integer_key_takes_no_float_or_bool(tmp_path, capsys, command, config,
                                                message):
    path = write_config(tmp_path, {"preset": "fig7", **config})
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


# a value of another JSON type for each key that config._CONFIG types (a
# JSON type or a list of values), a valid section around it
_WRONG_JSON_TYPES = {
    "preset": 1, "frequency_units": 1, "system": [], "protocol": [], "sweep": [],
    "optimize": [], "output_dir": 1, "seed": "1", "threads": "1",
    "system.atom_mass_kg": "1", "system.atom_number": "1",
    "system.peak_density_m3": "1", "system.a_aa_m": "1", "system.a_bb_m": "1",
    "system.a_ab_m": "1", "system.mu_override_J": "1", "protocol.type": 1,
    "sweep.protocol": 1, "sweep.axes": {}, "sweep.axes.0": 1, "sweep.fixed": [],
    "optimize.protocol": 1, "optimize.bounds": [], "optimize.budget": "1",
    "optimize.fixed": [],
}
_VALID_SECTIONS = {"system": {}, "protocol": {"type": "pi_pulse"}, "sweep": _SWEEP,
                   "optimize": _OPTIMIZE}


@pytest.mark.parametrize("key_path", sorted(_WRONG_JSON_TYPES))
def test_a_value_of_the_wrong_json_type_names_its_key(tmp_path, capsys, key_path):
    keys = key_path.split(".")
    config = {"preset": "fig7", "output_dir": str(tmp_path / "out"),
              keys[0]: copy.deepcopy(_VALID_SECTIONS.get(keys[0]))}
    node = config
    for key in keys[:-1]:
        node = node[int(key) if isinstance(node, list) else key]
    node[int(keys[-1]) if isinstance(node, list) else keys[-1]] = _WRONG_JSON_TYPES[key_path]
    path = write_config(tmp_path, config)
    assert main(["params", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: invalid config: {key_path}: "), err
    assert err.count("\n") == 1 and not (tmp_path / "out").exists()


def test_the_wrong_type_cases_cover_every_typed_key():
    from quantum_tweezers.config import _CONFIG, _Section

    def typed(section, path):
        for key, rule in section.keys.items():
            where = f"{path}{key}"
            if rule is not None:
                yield where
            if isinstance(rule, _Section) and rule.counts:
                yield f"{where}.0"
                yield from typed(rule, f"{where}.0.")
            elif isinstance(rule, _Section):
                yield from typed(rule, f"{where}.")

    assert sorted(typed(_CONFIG, "")) == sorted(_WRONG_JSON_TYPES)


# parse_frequency's reason came without its key, so a config with several
# frequencies did not say which one was at fault
@pytest.mark.parametrize("command, config, message", [
    ("params", {"omega_l": [1]}, "omega_l: frequency [1] is not a number or a string"),
    ("params", {"system": {"nu_a": {}}},
     "system.nu_a: frequency {} is not a number or a string"),
    ("params", {"system": {"nu_b": "fast"}}, "system.nu_b: cannot parse frequency 'fast'"),
    ("params", {"system": {"nu_a": ["1 kHz", "fast", 1e3]}},
     "system.nu_a: cannot parse frequency 'fast'"),
    ("propagate", {"protocol": {"type": "pi_pulse", "omega_hat": "fast"}},
     "protocol.omega_hat: cannot parse frequency 'fast'"),
    ("check", {"protocol": {"type": "scrap_1atom", "delta_hat": "1e999 kHz"}},
     "protocol.delta_hat: frequency '1e999 kHz' is not finite"),
], ids=["omega_l", "nu_a", "nu_b", "nu_a_vector", "omega_hat", "delta_hat"])
def test_a_frequency_error_names_its_key(tmp_path, capsys, command, config, message):
    path = write_config(tmp_path, {"preset": "fig4", **config})
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: invalid config: {message}\n"
    assert [f.name for f in tmp_path.iterdir()] == ["config.json"]


# an output directory under a file raised NotADirectoryError after the sweep
def test_an_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "x"
    path = write_config(tmp_path, {"preset": "fig7", "sweep": {
        "protocol": "pi_pulse", "axes": [PROTOCOL_AXES["pi_pulse"]]}})
    assert main(["sweep", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(out) in err
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "file"]


# an output path that is a directory ended in an IsADirectoryError
# traceback from the rename, exit 1
def test_an_output_file_that_cannot_be_written_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "params.json").mkdir(parents=True)
    assert main(["params", "--preset", "fig4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {out / 'params.json'}: Is a directory\n"
    assert [p.name for p in out.iterdir()] == ["params.json"]


# every output was written -rw------- through mkstemp, whatever the umask
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask_022", "umask_077"])
def test_outputs_keep_the_umask_mode(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        assert main(["params", "--preset", "fig4", "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "params.json").stat().st_mode) == mode


# the whole text was encoded at once: a copy of up to three bytes per
# character beside the text
def test_atomic_write_encodes_a_slice_at_a_time(tmp_path):
    chars = cli._WRITE_CHARS
    # each multibyte character straddles a slice boundary's byte offset
    text = ("x" * (chars - 1) + "\u03a9\u00e9\u20ac") * 8 + "\n"
    path = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        cli._atomic_write(str(path), text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == text.encode("utf-8")
    assert peak < 6 * chars  # a slice, 2 bytes a character here, and its encoding
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


# a section without a type was taken for a schedule section: "protocol:
# 'schedule' is a required property"
@pytest.mark.parametrize("protocol, message", [
    ({"type": "schedule"}, "invalid config: protocol requires the key 'schedule'"),
    ({"type": "schedule", "schedule": {
        "detuning": {"type": "constant"}, "rabi": {"type": "constant", "value": 1e3},
        "window": [0.0, 1e-4]}},
     "a 'constant' envelope requires the key 'value'"),
    ({"type": "schedule", "schedule": {
        "detuning": {"type": "constant", "value": 0.0},
        "rabi": {"type": "constant", "value": 1e3}}},
     "a schedule requires the key 'window'"),
    ({"type": "schedule", "schedule": {
        "detuning": {"type": "chirp"}, "rabi": {"type": "constant", "value": 1e3},
        "window": [0.0, 1e-4]}},
     "unknown envelope type 'chirp'"),
    ({}, "invalid config: protocol requires the key 'type'"),
], ids=["no_schedule", "envelope_field", "no_window", "unknown_envelope", "no_type"])
def test_malformed_schedule_exit_2(tmp_path, capsys, protocol, message):
    path = write_config(tmp_path, {"preset": "fig3a", "protocol": protocol})
    assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


_RABI = {"type": "constant", "value": 1e3}


_CONSTANT = {"type": "constant", "value": 0.0}


@pytest.mark.parametrize("schedule, message", [
    ({"detuning": _CONSTANT, "rabi": _RABI, "window": [0.0]},
     "a schedule's 'window' must be [start, end], not [0.0]"),
    ({"detuning": _CONSTANT, "rabi": _RABI, "window": [0.0, "1e-4"]},
     "a schedule's 'window' must be a finite number, not '1e-4'"),
    ({"detuning": 5.0, "rabi": _RABI, "window": [0.0, 1e-4]},
     "a schedule's 'detuning' must be a JSON object, not 5.0"),
    ({"detuning": {"value": 0.0}, "rabi": _RABI, "window": [0.0, 1e-4]},
     "a schedule's 'detuning' requires the key 'type'"),
    ({"detuning": {"type": "constant", "value": "abc"}, "rabi": _RABI,
      "window": [0.0, 1e-4]},
     "a 'constant' envelope's 'value' must be a finite number, not 'abc'"),
    ({"detuning": {"type": "offset_sum", "offset": 0.0, "inner": {"type": "chirp"}},
      "rabi": _RABI, "window": [0.0, 1e-4]},
     "unknown envelope type 'chirp'"),
    ({"detuning": {"type": "offset_sum", "offset": 0.0, "inner": 3.0},
      "rabi": _RABI, "window": [0.0, 1e-4]},
     "a 'offset_sum' envelope's 'inner' must be a JSON object, not 3.0"),
    ({"detuning": {"type": "constant", "value": _CONSTANT},
      "rabi": _RABI, "window": [0.0, 1e-4]},
     "a 'constant' envelope's 'value' must be a finite number, not "
     "{'type': 'constant', 'value': 0.0}"),
    ({"detuning": _CONSTANT, "window": [0.0, 1e-4],
      "rabi": {"type": "gaussian", "peak": _RABI, "center": 0.0, "width": 1e-5}},
     "a 'gaussian' envelope's 'peak' must be a finite number, not "
     "{'type': 'constant', 'value': 1000.0}"),
], ids=["short_window", "string_window", "number_envelope", "untyped_envelope",
        "string_field", "unknown_inner_envelope", "number_inner",
        "envelope_value", "envelope_peak"])
def test_schedule_shape_exit_2(tmp_path, capsys, schedule, message):
    # schedule_from_dict, the one check, names each field: the schema's copy
    # of the format caught the first six (once IndexError, AttributeError or
    # ValueError tracebacks) and passed the last three to a TypeError
    path = write_config(tmp_path, {"preset": "fig3a", "protocol": {
        "type": "schedule", "schedule": schedule}})
    assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


# check read no schedule: it took the margins at omega_l (exit 1 at fig3a),
# where propagate raised a TypeError (the first three) or ran (the last two)
@pytest.mark.parametrize("schedule", [
    {"detuning": {"type": "offset_sum", "offset": 0.0, "inner": 3.0},
     "rabi": _RABI, "window": [0.0, 1e-4]},
    {"detuning": {"type": "constant", "value": _CONSTANT}, "rabi": _RABI,
     "window": [0.0, 1e-4]},
    {"detuning": _CONSTANT, "window": [0.0, 1e-4],
     "rabi": {"type": "gaussian", "peak": _RABI, "center": 0.0, "width": 1e-5}},
    {"detuning": {**_CONSTANT, "foo": 2}, "rabi": _RABI, "window": [0.0, 1e-4]},
    {"detuning": _CONSTANT, "rabi": _RABI, "window": [0.0, 1e-4], "bogus": [1, "x"]},
], ids=["number_inner", "envelope_value", "envelope_peak", "envelope_field",
        "schedule_key"])
def test_check_rejects_a_schedule_as_propagate_does(tmp_path, capsys, schedule):
    path = write_config(tmp_path, {"preset": "fig3a", "protocol": {
        "type": "schedule", "schedule": schedule}})
    assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


_HUGE = "1" + "0" * 400  # 10**400: int() reads it, float() cannot


# each ended in an OverflowError traceback but the axis (a numpy casting
# error), the 5000-digit seed (int()'s ValueError) and the system key, whose
# message was "system: int too large to convert to float"
@pytest.mark.parametrize("command, config, digits", [
    ("propagate", {"omega_l": _HUGE, "protocol": {"type": "pi_pulse"}}, 401),
    ("propagate", {"protocol": {"type": "pi_pulse", "omega_hat": _HUGE}}, 401),
    ("propagate", {"protocol": {"type": "pi_pulse", "t_omega_s": _HUGE}}, 401),
    ("sweep", {"sweep": {"protocol": "pi_pulse", "fixed": {"omega_hat_rad_s": _HUGE},
                         "axes": [PROTOCOL_AXES["pi_pulse"]]}}, 401),
    ("sweep", {"sweep": {"protocol": "pi_pulse",
                         "axes": [{**PROTOCOL_AXES["pi_pulse"], "max": _HUGE}]}}, 401),
    ("propagate", {"protocol": {"type": "schedule", "schedule": {
        **_SCHEDULE, "rabi": {"type": "constant", "value": _HUGE}}}}, 401),
    ("optimize", {"optimize": {"protocol": "pi_pulse", "budget": 10,
                               "bounds": {"t_omega_s": [1e-3, _HUGE]}}}, 401),
    ("optimize", {"seed": "1" + "0" * 4999, "optimize": {
        "protocol": "pi_pulse", "budget": 10, "bounds": {"t_omega_s": [1e-3, 2e-3]}}},
     5000),
    ("params", {"system": {"atom_mass_kg": _HUGE}}, 401),
], ids=["omega_l", "omega_hat", "t_omega", "sweep_fixed", "axis_max", "schedule",
        "optimize_bound", "seed", "system"])
def test_an_integer_too_large_for_a_float_exits_2(tmp_path, capsys, command, config,
                                                  digits):
    # each string of digits is written unquoted, as a JSON integer
    path = tmp_path / "config.json"
    text = json.dumps({"preset": "fig7", **config})
    path.write_text(re.sub(r'"(10{400,})"', r"\1", text))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: a {digits}-digit integer is too large for a float\n")


@pytest.mark.parametrize("schedule, field", [
    ({"detuning": {"type": "constant", "value": 0.0}, "rabi": _RABI,
      "window": [1e-4, 0.0]}, "'window'"),
    ({"detuning": {"type": "constant", "value": 0.0}, "rabi": _RABI,
      "window": [1e-4, 1e-4]}, "'window'"),
    ({"detuning": {"type": "gaussian", "peak": 1e3, "center": 5e-5, "width": 0.0},
      "rabi": _RABI, "window": [0.0, 1e-4]}, "width"),
    ({"detuning": {"type": "constant", "value": 0.0},
      "rabi": {"type": "offset_sum", "offset": 0.0, "inner": {
          "type": "gaussian", "peak": 1e3, "center": 5e-5, "width": -2e-5}},
      "window": [0.0, 1e-4]}, "width"),
    ({"detuning": {"type": "tanh_plateau", "peak": 1e3, "start_time": 0.0,
                   "plateau_width": 5e-5, "ramp_time": 0.0},
      "rabi": _RABI, "window": [0.0, 1e-4]}, "ramp_time"),
    ({"detuning": {"type": "constant", "value": math.nan}, "rabi": _RABI,
      "window": [0.0, 1e-4]}, "'value'"),
    ({"detuning": {"type": "linear_ramp", "start": 0.0, "rate": 1e6,
                   "t_ref": math.nan}, "rabi": _RABI, "window": [0.0, 1e-4]},
     "'t_ref'"),
    ({"detuning": {"type": "constant", "value": 0.0}, "rabi": _RABI,
      "window": [0.0, math.inf]}, "'window'"),
], ids=["reversed_window", "empty_window", "zero_width", "negative_inner_width",
        "zero_ramp_time", "nan_value", "nan_t_ref", "infinite_window"])
def test_schedule_values_exit_2(tmp_path, capsys, schedule, field):
    # these passed the schema and used to end in ValueError or OverflowError
    # tracebacks (exit 1, which is check's validity warning)
    path = write_config(tmp_path, {"preset": "fig3a", "protocol": {
        "type": "schedule", "schedule": schedule}})
    assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err


_TIME = 2e-4  # s: the window and every time field stay within this of zero
_AMPLITUDE = 1e5  # rad/s: each envelope stays within a few of this


def _number(lo, hi):
    """Mostly a float in [lo, hi]; one draw in twenty NaN or infinite."""
    return st.integers(0, 19).flatmap(
        lambda k: st.sampled_from([math.nan, math.inf]) if k == 0
        else st.floats(lo, hi))


def _random_envelope(depth=0):
    time = _number(-_TIME, _TIME)
    positive = _number(-_TIME / 10, _TIME)  # a width: 0 and negatives are errors
    amplitude = _number(-_AMPLITUDE, _AMPLITUDE)
    fields = {
        "constant": {"value": amplitude},
        "linear_ramp": {"start": amplitude, "t_ref": time,
                        "rate": _number(-_AMPLITUDE / _TIME, _AMPLITUDE / _TIME)},
        "gaussian": {"peak": amplitude, "center": time, "width": positive},
        "tanh_plateau": {"peak": amplitude, "start_time": time,
                         "plateau_width": positive, "ramp_time": positive},
    }
    if depth < 2:
        fields["offset_sum"] = {"offset": amplitude,
                                "inner": _random_envelope(depth + 1)}
    return st.one_of(*(st.fixed_dictionaries({"type": st.just(tag), **spec})
                       for tag, spec in fields.items()))


# one window in four reversed (or empty)
_WINDOW = st.tuples(_number(0.0, _TIME), _number(0.0, _TIME), st.integers(0, 3)).map(
    lambda w: sorted(w[:2], reverse=w[2] == 0))


def _invalid(value) -> bool:
    """Whether a config value holds a number that is not finite or out of range."""
    if isinstance(value, dict):
        positive = {"width", "plateau_width", "ramp_time"} & set(value)
        return (any(_invalid(v) for v in value.values())
                or any(not value[k] > 0 for k in positive))
    if isinstance(value, list):
        return any(_invalid(v) for v in value) or not value[1] > value[0]
    return isinstance(value, float) and not math.isfinite(value)


@pytest.fixture(scope="module")
def random_schedule_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("random_schedule")


@settings(derandomize=True, max_examples=40, deadline=None)
@given(detuning=_random_envelope(), rabi=_random_envelope(), window=_WINDOW)
def test_random_schedule_exit_codes(random_schedule_dir, detuning, rabi, window):
    # either window order, every envelope type, 0, negative and non-finite
    # fields: a documented exit code, never a traceback, and exit 2 exactly
    # when a field is not finite or out of range
    schedule = {"detuning": detuning, "rabi": rabi, "window": window}
    path = write_config(random_schedule_dir, {"preset": "fig3a", "protocol": {
        "type": "schedule", "schedule": schedule}})
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["propagate", "--config", path, "--out", str(random_schedule_dir)])
    assert code == 2 if _invalid(schedule) else code in (0, 3)


def test_two_axis_ramp_sweep_has_contours_not_intervals(tmp_path):
    # the P > 0.99 intervals belong to a 1-D sweep; on a 2-D grid they used
    # to index the first axis with the flattened grid (an IndexError)
    path = write_config(tmp_path, {"preset": "fig3a", "sweep": {
        "protocol": "ramp", "axes": [
            {"name": "ramp_rate_rad_s2", "min": 1e6, "max": 4e6, "points": 4},
            {"name": "omega_l_rad_s", "min": 3e3, "max": 5e3, "points": 3}]}})
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "sweep_meta.json").read_text())
    assert "intervals_p_gt_0.99" not in meta
    assert meta["contours"]["0.99"] and "area_fraction_p_gt_0.99" in meta


def test_nested_schedule_propagates(tmp_path):
    path = write_config(tmp_path, {"preset": "fig3a", "protocol": {
        "type": "schedule", "schedule": {
            "detuning": {"type": "constant", "value": 0.0},
            "rabi": {"type": "offset_sum", "offset": 1e3, "inner": {
                "type": "gaussian", "peak": 1e3, "center": 5e-5, "width": 2e-5}},
            "window": [0.0, 1e-4]}}})
    assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 0


def test_sequential_pi_sweep_defaults_to_level_2(tmp_path):
    def p_target(**target):
        path = write_config(tmp_path, {"preset": "fig3a", "sweep": {
            "protocol": "sequential_pi", "axes": [PROTOCOL_AXES["sequential_pi"]],
            **target}})
        assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        column = rows[0].split(",").index("p_target")
        return [float(row.split(",")[column]) for row in rows[1:]]

    default = p_target()
    meta = json.loads((tmp_path / "sweep_meta.json").read_text())
    assert meta["spec"]["target"] == 2
    assert default == p_target(target=2)
    assert min(default) > 0.99
    assert max(p_target(target=1)) < 1e-3  # an explicit target still wins


def test_propagate_reports_norm_drift(tmp_path):
    path = write_config(tmp_path, {"preset": "fig3a",
                                   "protocol": {"type": "pi_pulse"}})
    assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 0
    finals = json.loads((tmp_path / "final.json").read_text())
    assert 0.0 <= finals["norm_drift"] < 1e-12
    assert {"n_steps", "step_s"} <= set(finals)


# every field is finite and in range, but the ramp overflows on the window;
# the error names that, and numpy's overflow warning does not reach stderr
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_schedule_exits_3(tmp_path, capsys):
    path = write_config(tmp_path, {"preset": "fig3a", "protocol": {
        "type": "schedule", "schedule": {
            "detuning": {"type": "linear_ramp", "start": 0.0, "rate": 1e300,
                         "t_ref": -1e10},
            "rabi": _RABI, "window": [0.0, 1e-4]}}})
    assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: schedule is not finite on its window\n")


# a pulse width of 1e-300 s drives at about 1e300 rad/s, where the fourth
# order's h^2 [H2, H1] / hbar^2 overflowed (exit 3); the sixth order scales H
# by h / hbar first.  The anharmonicity is negligible beside such a drive, so
# the pi pulse of the 0-1 coupling g, with 1-2 coupling sqrt(2) g, leaves
# c0 = (2 + cos(pi sqrt(3) / 2)) / 3 in |0>
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_drive_that_overflowed_the_fourth_order_propagates(tmp_path):
    path = write_config(tmp_path, {"preset": "fig3a", "protocol": {
        "type": "pi_pulse", "t_omega_s": 1e-300}})
    assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 0
    finals = json.loads((tmp_path / "final.json").read_text())
    closed_form = ((2.0 + math.cos(math.pi * math.sqrt(3.0) / 2.0)) / 3.0) ** 2
    assert abs(finals["p0"] - closed_form) < 1e-10


@pytest.mark.parametrize("command, section, name", [
    ("sweep", {"sweep": {"protocol": "pi_pulse",
                         "axes": [_axis("transition", 0.0, 1.0)]}}, "transition"),
    ("sweep", {"sweep": {"protocol": "pi_pulse",
                         "fixed": {"omega_hat_rad_s": "abc"},
                         "axes": [_axis("t_omega_s", 1.5e-3, 2e-3)]}},
     "omega_hat_rad_s"),
    ("optimize", {"optimize": {"protocol": "pi_pulse", "budget": 10,
                               "bounds": {"transition": [0.0, 1.0]}}}, "transition"),
    ("optimize", {"optimize": {"protocol": "pi_pulse", "budget": 10,
                               "bounds": {"t_omega_s": [1e-3, 2e-3]},
                               "fixed": {"omega_hat_rad_s": [1, 2]}}},
     "omega_hat_rad_s"),
    ("sweep", {"sweep": {"protocol": "sequential_pi",
                         "fixed": {"omit_second": "yes"},
                         "axes": [_axis("t_omega_s", 2e-3, 3e-3)]}}, "omit_second"),
    ("sweep", {"sweep": {"protocol": "pi_pulse",
                         "fixed": {"omega_hat_rad_s": True},
                         "axes": [_axis("t_omega_s", 1.5e-3, 2e-3)]}},
     "omega_hat_rad_s"),
], ids=["transition_axis", "string_fixed", "transition_bound", "list_fixed",
        "string_for_bool", "bool_for_number"])
def test_typed_parameters_exit_2(tmp_path, capsys, command, section, name):
    # the first three ended in a TypeError traceback, the last three ran to
    # exit 0 on values the protocol does not take
    path = write_config(tmp_path, {"preset": "fig3a", **section})
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(name) in err


@pytest.mark.parametrize("command, config", [
    ("params", {"system": {"nu_a": "0 kHz"}}),
    ("params", {"system": {"atom_mass_kg": math.nan}}),
    ("params", {"system": {"nu_a": "1e400 kHz"}}),
    ("params", {"system": {"nu_a": 1e300}}),
    ("check", {"omega_l": math.nan}),
    ("check", {"omega_l": math.inf}),
    ("optimize", {"optimize": {"protocol": "pi_pulse", "budget": 10,
                               "bounds": {"t_omega_s": [2e-3, 1e-3]}}}),
    ("optimize", {"optimize": {"protocol": "pi_pulse", "budget": 10,
                               "bounds": {"t_omega_s": [math.nan, 1e-3]}}}),
    ("optimize", {"optimize": {"protocol": "pi_pulse", "budget": 10,
                               "bounds": {}}}),
    ("params", b"\xff\xfe"),
    ("params", b'{"preset": ' + b"[" * 100_000),
], ids=["zero_trap", "nan_mass", "infinite_trap", "trap_overflows_model",
        "nan_drive", "infinite_drive", "reversed_bound", "nan_bound", "no_bounds",
        "not_utf8", "nested_too_deep"])
def test_malformed_values_exit_2(tmp_path, capsys, command, config):
    # the system and bounds cases ended in a ValueError traceback; the drives
    # exited 1 and wrote check.json, with a bare NaN (not JSON) for NaN; the
    # two files json cannot read ended in a UnicodeDecodeError and a
    # RecursionError traceback
    if isinstance(config, bytes):
        path = tmp_path / "config.json"
        path.write_bytes(config)
        path = str(path)
    else:
        path = write_config(tmp_path, {"preset": "fig3a", **config})
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert isinstance(config, dict) or f"config {path} " in err
    assert [f.name for f in tmp_path.iterdir()] == ["config.json"]


# a_aa_m = 1e-300 makes E2 - 2 E1 exactly 0: no crossing selects an atom number
_NO_ANHARMONICITY = {"system": {"a_aa_m": 1e-300}}


@pytest.mark.parametrize("command, section", [
    ("check", {}),
    ("sweep", {"sweep": {"protocol": "pi_pulse",
                         "axes": [_axis("t_omega_s", 1.5e-3, 2e-3)]}}),
    ("optimize", {"optimize": {"protocol": "pi_pulse", "budget": 10,
                               "bounds": {"omega_hat_rad_s": [500.0, 5000.0]}}}),
], ids=["check", "sweep", "optimize"])
def test_zero_anharmonicity_exits_2(tmp_path, capsys, command, section):
    # one config error, no traceback and no output file
    path = write_config(tmp_path, {**_NO_ANHARMONICITY, **section})
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "anharmonicity" in err
    assert [f.name for f in tmp_path.iterdir()] == ["config.json"]
    # the derived parameters stay reportable
    assert main(["params", "--config", path, "--out", str(tmp_path)]) == 0


def _no_anharmonicity_runs():
    runs = [(f"sweep-{name}", "sweep", {"sweep": {"protocol": name, "axes": [axis]}})
            for name, axis in sorted(PROTOCOL_AXES.items())]
    runs += [(f"propagate-{name}", "propagate",
              {"protocol": {"type": name, axis["name"]: axis["min"]}})
             for name, axis in sorted(PROTOCOL_AXES.items())]
    runs.append(("propagate-schedule", "propagate", {"protocol": {
        "type": "schedule", "schedule": {"detuning": {"type": "constant", "value": 0.0},
                                         "rabi": {"type": "constant", "value": 1e3},
                                         "window": [0.0, 1e-4]}}}))
    runs.append(("optimize-ramp", "optimize", {"optimize": {
        "protocol": "ramp", "budget": 10,
        "bounds": {"ramp_rate_rad_s2": [1e6, 2e6]}}}))
    return [pytest.param(command, section, id=name) for name, command, section in runs]


@pytest.mark.parametrize("command, section", _no_anharmonicity_runs())
def test_zero_anharmonicity_exits_2_from_every_command(tmp_path, capsys, command,
                                                       section):
    # a ramp or scrap_2atom sweep exited 3, a ramp optimize exited 0 with
    # P = 0, and propagates exited 3 or 0
    path = write_config(tmp_path, {**_NO_ANHARMONICITY, **section})
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: the anharmonicity E2 - 2 E1 is zero: "
                   "no crossing selects an atom number\n")
    assert [f.name for f in tmp_path.iterdir()] == ["config.json"]


def test_negative_infinite_margin_serializes(tmp_path):
    # a negative anharmonicity over a subnormal coupling overflows the
    # margin to -inf, which must keep its sign
    path = write_config(tmp_path, {"system": {"a_aa_m": -1e-9}, "omega_l": 1e-320})
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 1
    payload = json.loads((tmp_path / "check.json").read_text())
    assert payload["two_level_margin"] == "-inf"
    assert payload["two_level_flag"] == "fail"


# a typical value of each number parameter; random runs scale it by 0,
# negative and positive factors
_TYPICAL = {"ramp_rate_rad_s2": 2e6, "omega_l_rad_s": 4e3, "omega_hat_rad_s": 1.5e4,
            "t_omega_s": 1.5e-3, "delta_tau_s": 1e-4, "delta_hat_rad_s": 2e4}
_SCALES = [1.0, 2.0, 0.5, 0.0, -1.0]
_WRONG_TYPES = ["abc", "0-1", True, None, [1.0, 2.0]]


@st.composite
def _random_run(draw):
    protocol = draw(st.sampled_from(sorted(PROTOCOLS)))
    entry = PROTOCOLS[protocol]
    # mostly the protocol's own names, else an unknown or a non-number one
    own = [*entry.required, *entry.defaults]
    names = st.sampled_from([*own * 3, "ramp_rate", "transition", "omit_second"])
    one_in_four = st.integers(0, 3).map(lambda k: k == 3)

    def pair(name):  # increasing, one in four reversed
        scales = draw(st.lists(st.sampled_from(_SCALES), min_size=2, max_size=2,
                               unique=True))
        return sorted((k * _TYPICAL.get(name, 1.0) for k in scales),
                      reverse=draw(one_in_four))

    varied = {name: pair(name)
              for name in draw(st.lists(names, min_size=1, max_size=2))}
    fixed = {name: (draw(st.sampled_from(_WRONG_TYPES)) if draw(one_in_four)
                    else draw(st.sampled_from(_SCALES)) * _TYPICAL.get(name, 1.0))
             for name in draw(st.lists(names, max_size=1))}
    section = {"protocol": protocol, "fixed": fixed,
               **draw(st.sampled_from([{}, {"target": 1}, {"target": 2}]))}
    if draw(st.booleans()):
        return "optimize", {**section, "bounds": varied, "budget": 10}
    axes = [{"name": name, "min": lo, "max": hi, "points": 2,
             "scale": draw(st.sampled_from(["linear", "log"]))}
            for name, (lo, hi) in varied.items()]
    return "sweep", {**section, "axes": axes}


@pytest.fixture(scope="module")
def random_run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("random_run")


@settings(derandomize=True, max_examples=40, deadline=None)
@given(run=_random_run())
def test_random_sweep_and_optimize_exit_codes(random_run_dir, run):
    # every protocol; unknown, non-number, reversed, zero and negative axes
    # and bounds; fixed values of the wrong type: a documented exit code,
    # never a traceback
    command, section = run
    path = write_config(random_run_dir, {"preset": "fig3a", command: section})
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--config", path, "--out", str(random_run_dir)])
    assert code in (0, 1, 2, 3)


@pytest.mark.parametrize("command, protocol", [
    ("propagate", {"type": "scrap_1atom", "delta_hat": 0}),
    ("check", {"type": "scrap_1atom", "delta_hat": 0}),
    ("propagate", {"type": "ramp", "ramp_rate_rad_s2": 0}),
], ids=["propagate_zero_chirp", "check_zero_chirp", "propagate_zero_rate"])
def test_out_of_range_protocol_values_exit_2(tmp_path, capsys, command, protocol):
    # each ended in a ValueError traceback, exit 1
    path = write_config(tmp_path, {"protocol": protocol})
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert ("delta_hat" if "delta_hat" in protocol else "ramp rate") in err
    assert [f.name for f in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("command, section, level", [
    ("sweep", {"sweep": {"protocol": "scrap_1atom", "target": 2,
                         "axes": [_axis("t_omega_s", 0.9e-3, 1e-3)]}}, 1),
    ("optimize", {"optimize": {"protocol": "delay_scan", "target": 2, "budget": 10,
                               "bounds": {"delta_tau_s": [-1e-4, 0.0]}}}, 1),
    ("propagate", {"protocol": {"type": "scrap_2atom", "target": 1}}, 2),
], ids=["sweep", "optimize", "propagate"])
def test_target_a_fixed_level_protocol_cannot_report_exits_2(tmp_path, capsys,
                                                              command, section, level):
    # these ran to exit 0 and reported the protocol's own level as the target
    path = write_config(tmp_path, {"preset": "fig4", **section})
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"level {level}" in err
    assert [f.name for f in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("config, reason", [
    ({"preset": "fig3b", "protocol": {"type": "scrap_2atom"}},
     "never reaches the 1->2 resonance"),
    ({"system": {"a_aa_m": -5e-9}, "protocol": {"type": "ramp",
                                                "ramp_rate_rad_s2": 2e6}},
     "no level anharmonicity"),
    ({"system": {"a_aa_m": -5e-9}, "protocol": {"type": "scrap_2atom"}},
     "not anharmonic"),
    ({"protocol": {"type": "ramp", "ramp_rate_rad_s2": math.nan}},
     "parameter 'ramp_rate_rad_s2' cannot be nan"),
], ids=["fig3b_two_atom_chirp", "negative_anharmonicity_ramp",
        "negative_anharmonicity_two_atom_chirp", "nan_ramp_rate"])
def test_pulse_that_cannot_be_built_exits_2(tmp_path, capsys, config, reason):
    # the first three exited 3 with an "error:" line; a NaN rate, which its
    # gate envelope's check caught, is refused as a point by Protocol.params
    path = write_config(tmp_path, config)
    assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert reason in err
    assert [f.name for f in tmp_path.iterdir()] == ["config.json"]


_RAMP = {"type": "ramp", "ramp_rate_rad_s2": 3e5}


@pytest.mark.parametrize("command, config, name, value", [
    ("check", {"preset": "fig4", "protocol": {**_RAMP, "omega_l_rad_s": math.nan}},
     "omega_l_rad_s", "nan"),
    ("check", {"protocol": {**_RAMP, "omega_l_rad_s": math.inf}}, "omega_l_rad_s", "inf"),
    ("propagate", {"protocol": {**_RAMP, "omega_l_rad_s": math.nan}}, "omega_l_rad_s",
     "nan"),
    ("propagate", {"protocol": {**_RAMP, "omega_l_rad_s": math.inf}}, "omega_l_rad_s",
     "inf"),
    ("sweep", {"sweep": {"protocol": "ramp", "axes": [_axis("ramp_rate_rad_s2", 3e5, 6e5)],
                         "fixed": {"omega_l_rad_s": math.nan}}}, "omega_l_rad_s", "nan"),
    ("sweep", {"preset": "fig4", "sweep": {
        "protocol": "scrap_1atom", "axes": [_axis("t_omega_s", 1e-3, 2e-3)],
        "fixed": {"omega_hat_rad_s": math.nan}}}, "omega_hat_rad_s", "nan"),
    ("optimize", {"optimize": {"protocol": "ramp", "budget": 10,
                               "bounds": {"ramp_rate_rad_s2": [3e5, 6e5]},
                               "fixed": {"omega_l_rad_s": math.nan}}}, "omega_l_rad_s",
     "nan"),
], ids=["check_nan", "check_inf", "propagate_nan", "propagate_inf", "ramp_sweep_nan",
        "chirp_sweep_nan", "optimize_nan"])
def test_drive_frequency_not_finite_exits_2(tmp_path, capsys, command, config, name,
                                            value):
    # a ramp's omega_l_rad_s and a fixed omega_hat_rad_s are refused as every
    # real parameter that is not finite is; they exited 0, 1 or 3, or 2
    # without naming the drive
    path = write_config(tmp_path, config)
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: parameter {name!r} cannot be {value}\n"
    assert [f.name for f in tmp_path.iterdir()] == ["config.json"]


def test_fixed_level_sweep_records_its_level(tmp_path):
    # sweep_meta.json recorded target 1 while p_target held P2
    path = write_config(tmp_path, {"preset": "fig6", "sweep": {
        "protocol": "scrap_2atom", "axes": [_axis("t_omega_s", 1e-3, 2e-3)]}})
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "sweep_meta.json").read_text())
    assert meta["spec"]["target"] == 2


def test_explicit_out_dot_overrides_output_dir(tmp_path, monkeypatch):
    # an explicit "--out ." was taken for the default and lost to output_dir
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, {"output_dir": "elsewhere"})
    assert main(["params", "--config", path, "--out", "."]) == 0
    assert (tmp_path / "params.json").exists()
    assert not (tmp_path / "elsewhere").exists()
    assert main(["params", "--config", path]) == 0
    assert (tmp_path / "elsewhere" / "params.json").exists()


# the propagate and check sections name two frequencies without the unit
_SECTION_NAMES = {"omega_hat_rad_s": "omega_hat", "delta_hat_rad_s": "delta_hat"}


@st.composite
def _random_protocol_section(draw):
    protocol = draw(st.sampled_from(sorted(PROTOCOLS)))
    entry = PROTOCOLS[protocol]
    one_in_four = st.integers(0, 3).map(lambda k: k == 3)

    def value(name):
        default = entry.defaults.get(name, 0.0)
        if draw(one_in_four):
            return draw(st.sampled_from(_WRONG_TYPES))
        if isinstance(default, bool):
            return draw(st.booleans())
        if isinstance(default, str):
            return draw(st.sampled_from(["0-1", "1-2"]))
        return draw(st.sampled_from(_SCALES)) * _TYPICAL[name]

    names = draw(st.lists(st.sampled_from([*entry.required, *entry.defaults]),
                          unique=True, max_size=2))
    section = {"type": protocol, **{_SECTION_NAMES.get(n, n): value(n) for n in names},
               **draw(st.sampled_from([{}, {"target": 1}, {"target": 2}]))}
    return draw(st.sampled_from(["propagate", "check"])), section


@pytest.fixture(scope="module")
def random_section_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("random_section")


@settings(derandomize=True, max_examples=30, deadline=None)
@given(run=_random_protocol_section())
def test_random_propagate_and_check_exit_codes(random_section_dir, run):
    # every protocol; zero, negative and wrong-typed values and every target:
    # a documented exit code, never a traceback
    command, section = run
    path = write_config(random_section_dir, {"preset": "fig4", "protocol": section})
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--config", path, "--out", str(random_section_dir)])
    assert code in (0, 1, 2, 3)


# the fourth order's spectral rule asked for 1.2e299 and 1.2e11 steps (a
# ValueError traceback from np.arange, and a run killed for its memory); the
# sixth-order estimate stops at its first grids, whose amplitudes are not
# finite.  On a 4e-323 s window a step is 0 (a ZeroDivisionError traceback).
# Each stops with one line and no numpy warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("config, reason", [
    ({"preset": "fig3a", "protocol": {"type": "pi_pulse", "omega_hat": 1e300}},
     "propagation produced non-finite amplitudes (steps=128,"),
    ({"preset": "fig3a", "protocol": {"type": "pi_pulse", "omega_hat": 1e12}},
     "propagation produced non-finite amplitudes (steps=128,"),
    ({"preset": "fig4", "protocol": {"type": "scrap_1atom", "t_omega_s": 5e-324}},
     "at the 0.000e+00 s step"),
], ids=["omega_hat_1e300", "omega_hat_1e12", "t_omega_5e-324"])
def test_step_count_out_of_range_exits_3(tmp_path, capsys, config, reason):
    path = write_config(tmp_path, config)
    started = time.perf_counter()
    assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 3
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert reason in err


# 2 hbar^2 |rate| and t_delta^2 underflowed to 0 in a quotient: a
# ZeroDivisionError traceback from check, and out of a sweep
# (propagate key, sweep name, a value that does not underflow, the reason)
_UNDERFLOWS = [
    ("delta_hat", "delta_hat_rad_s", 2e4, "underflows the adiabaticity parameter"),
    ("t_omega_s", "t_omega_s", 1e-3, "underflows the crossing slope")]


@pytest.mark.parametrize("key, name, high, reason", _UNDERFLOWS, ids=["delta_hat", "t_omega"])
def test_underflowing_chirp_check_exits_2(tmp_path, capsys, key, name, high, reason):
    path = write_config(tmp_path, {"preset": "fig4", "protocol": {
        "type": "scrap_1atom", key: 1e-300}})
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert reason in err


@pytest.mark.parametrize("key, name, high, reason", _UNDERFLOWS, ids=["delta_hat", "t_omega"])
def test_underflowing_chirp_sweep_point_fails_alone(tmp_path, key, name, high, reason):
    path = write_config(tmp_path, {"preset": "fig4", "sweep": {
        "protocol": "scrap_1atom",
        "axes": [{"name": name, "min": 1e-300, "max": high, "points": 2, "scale": "log"}]}})
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "sweep_meta.json").read_text())
    [failure] = meta["failures"]
    assert failure["index"] == 0 and reason in failure["message"]
    rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]
    assert rows[0].split(",")[1] == "" and float(rows[1].split(",")[1]) > 0.99


def test_each_system_key_sets_a_physical_system_field():
    assert ({name for name, _ in _SYSTEM_KEYS.values()}
            <= {f.name for f in fields(PhysicalSystem)})


def test_steep_trap_warning_is_one_line(tmp_path, capsys):
    # the warning named the dataclass's generated __init__ ("<string>:12")
    path = write_config(tmp_path, {"system": {"nu_b": "2pi*25 kHz"}})
    assert main(["params", "--config", path, "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: steep-trap frequencies do not dominate")
    assert err.count("\n") == 1


# check of a 1e300 rad/s pump squared its splitting, and of a 1e300 s pump
# its detuning-pulse width, past the largest float (an OverflowError
# traceback); a 5e-324 rad/s detuning amplitude underflowed a divisor (a
# ZeroDivisionError traceback, which also stopped a sweep)
@pytest.mark.parametrize("key, value, reason", [
    ("omega_hat", 1e300, "overflows the adiabaticity parameter"),
    ("t_omega_s", 1e300, "overflows the crossing slope"),
    ("delta_hat", 5e-324, "underflows the pump-width bound")],
    ids=["omega_hat", "t_omega", "delta_hat"])
def test_overflowing_chirp_check_exits_2(tmp_path, capsys, key, value, reason):
    path = write_config(tmp_path, {"preset": "fig4", "protocol": {
        "type": "scrap_1atom", key: value}})
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert reason in err


def test_underflowing_detuning_amplitude_sweep_point_fails_alone(tmp_path):
    path = write_config(tmp_path, {"preset": "fig4", "sweep": {
        "protocol": "scrap_1atom", "axes": [{"name": "delta_hat_rad_s", "min": 5e-324,
                                             "max": 2e4, "points": 2, "scale": "log"}]}})
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "sweep_meta.json").read_text())
    [failure] = meta["failures"]
    assert failure["index"] == 0 and "underflows the pump-width bound" in failure["message"]


# every number a protocol takes, at each edge of the float range, in a
# propagate and a check section and fixed in a two-point sweep over another
# of its numbers: each ends in an exit code, with at most one stderr line,
# never in an uncaught exception or a numpy warning
_EDGE_VALUES = [0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, 1e300]
_EXITS = {"propagate": {0, 2, 3}, "check": {0, 1, 2}, "sweep": {0, 2, 3}}


def _numbers(entry):
    return [name for name in (*entry.required, *entry.defaults)
            if not isinstance(entry.defaults.get(name, 0.0), (bool, str))]


# delay_scan is scrap_1atom under another name
_EDGE_RUNS = [(command, protocol, name)
              for protocol in sorted(set(PROTOCOLS) - {"delay_scan"})
              for name in _numbers(PROTOCOLS[protocol])
              for command in ("propagate", "check", "sweep")
              if command != "sweep" or len(_numbers(PROTOCOLS[protocol])) > 1]


def _edge_config(command, protocol, name, value):
    if command != "sweep":
        return {"protocol": {"type": protocol, _SECTION_NAMES.get(name, name): value}}
    other = next(n for n in _numbers(PROTOCOLS[protocol]) if n != name)
    axis = _axis(other, _TYPICAL[other], 1.25 * _TYPICAL[other])
    return {"sweep": {"protocol": protocol, "fixed": {name: value}, "axes": [axis]}}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, protocol, name", _EDGE_RUNS)
def test_edge_values_end_in_an_exit_code(tmp_path, command, protocol, name):
    path = tmp_path / "config.json"
    for value in _EDGE_VALUES:
        config = {"preset": "fig4", **_edge_config(command, protocol, name, value)}
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(tmp_path)])
        assert code in _EXITS[command], (config, code, err.getvalue())
        assert err.getvalue().count("\n") <= 1, (config, err.getvalue())


# ramp's omega_l_rad_s was accepted in a sweep's fixed parameters but not in
# a propagate section ("Additional properties are not allowed")
def test_propagate_takes_every_protocol_parameter(tmp_path):
    point = {"ramp_rate_rad_s2": 2e6, "omega_l_rad_s": 5e3}
    path = write_config(tmp_path, {"preset": "fig3a",
                                   "protocol": {"type": "ramp", **point}})
    assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 0
    p1 = json.loads((tmp_path / "final.json").read_text())["p1"]
    path = write_config(tmp_path, {"preset": "fig3a", "sweep": {
        "protocol": "ramp", "fixed": {"omega_l_rad_s": 5e3},
        "axes": [_axis("ramp_rate_rad_s2", 2e6, 4e6)]}})
    assert main(["sweep", "--config", path, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    column = rows[0].split(",").index("p_target")
    assert abs(float(rows[1].split(",")[column]) - p1) < 1e-12
    assert abs(p1 - json.loads(_run_propagate(tmp_path, 2e6))["p1"]) > 1e-6


def test_check_takes_the_ramp_drive(tmp_path):
    # a check section now takes a ramp's omega_l_rad_s, and reports the
    # margins of that drive, as the config's omega_l gives them
    checks = []
    for config in ({}, {"omega_l": 5e3, "protocol": {"type": "ramp"}},
                   {"protocol": {"type": "ramp", "omega_l_rad_s": 5e3}}):
        path = write_config(tmp_path, {"preset": "fig3a", **config})
        assert main(["check", "--config", path, "--out", str(tmp_path)]) in (0, 1)
        checks.append((tmp_path / "check.json").read_text())
    assert checks[1] == checks[2] != checks[0]


def _run_propagate(tmp_path, rate):
    path = write_config(tmp_path, {"preset": "fig3a", "protocol": {
        "type": "ramp", "ramp_rate_rad_s2": rate}})
    assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 0
    return (tmp_path / "final.json").read_text()


# propagate takes its step count from the sweeps' sixth-order estimate and
# stores every accepted step: trajectory.csv has that count plus one rows
def test_propagate_takes_the_sweep_step_count(tmp_path):
    finals = json.loads(_run_propagate(tmp_path, 3e5))
    preset = resolve_preset({"preset": "fig3a"})
    model = preset_model(preset)
    schedule = gated_ramp_schedule(model, preset.omega_l, 3e5, geometry=preset.ramp)
    point = propagate(model, schedule, step_control=StepControl(sample_cap=2, order=6))
    assert finals["n_steps"] == point.n_steps == 2048
    assert finals["step_s"] == point.step
    rows = (tmp_path / "trajectory.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == point.n_steps + 1
    assert abs(finals["p1"] - point.populations[-1, 1]) < 1e-13


# Protocol.params is the one check of a protocol point.  For every protocol:
# a boolean, a string, a NaN or an infinity where a number goes (an infinite
# width or delay ran to exit 3), a number or "0-2" where a bool or a
# transition goes, and a name the protocol does not take.  evaluate_point, run_sweep and optimize_pulse (the value fixed,
# another number varied) raise the same ConfigError, and propagate and check
# (a ramp with and without its rate) exit 2 with its message
def _bad_points():
    cases = []
    for protocol in sorted(set(PROTOCOLS) - {"delay_scan"}):
        entry = PROTOCOLS[protocol]
        own = [*entry.required, *entry.defaults]
        for name in own:
            if name not in _numbers(entry):
                values = [1.0, "0-2"]
            else:
                values = [True, "0-2", math.nan, math.inf]
            cases += [(protocol, name, value) for value in values]
        other = next(n for n in ("delta_tau_s", "omit_second", "ramp_rate_rad_s2")
                     if n not in own)
        cases.append((protocol, other, 0.0))
    return cases


def _config_error(call):
    with pytest.raises(ConfigError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("protocol, name, value", _bad_points(),
                         ids=lambda v: repr(v) if not isinstance(v, str) else v)
def test_every_entry_point_rejects_a_bad_point_alike(tmp_path, capsys, protocol,
                                                     name, value):
    fig4 = get_preset("fig4")
    rate = {"ramp_rate_rad_s2": 2e6} if protocol == "ramp" else {}
    point = {**rate, name: value}
    message = _config_error(lambda: evaluate_point(fig4, protocol, point))
    # the run varies another number; sequential_pi has none beside its width
    other = next((n for n in _numbers(PROTOCOLS[protocol]) if n != name), None)
    if other is not None:
        spec = SweepSpec(protocol, (AxisSpec(other, 1.0, 2.0, 2),), fixed={name: value})
        assert _config_error(lambda: run_sweep(spec, fig4)) == message
        assert _config_error(lambda: optimize_pulse(
            protocol, {other: (1.0, 2.0)}, 10, preset=fig4,
            fixed={name: value})) == message
    # a section writes omega_hat and delta_hat as frequencies: a string there
    # is parsed as one
    if _SECTION_NAMES.get(name) and isinstance(value, str):
        return
    runs = [("propagate", point), ("check", point)]
    if rate and name not in rate:
        runs.append(("check", {name: value}))
    for command, given in runs:
        section = {"type": protocol, **{_SECTION_NAMES.get(k, k): v for k, v in given.items()}}
        path = write_config(tmp_path, {"preset": "fig4", "protocol": section})
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n", (command, given)
    assert [f.name for f in tmp_path.iterdir()] == ["config.json"]
