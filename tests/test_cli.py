"""Command-line interface: configs, outputs, exit codes, determinism."""

import json
import math

import pytest

from quantum_tweezers.cli import main
from quantum_tweezers.config import ConfigError, parse_frequency, validate_config
from quantum_tweezers.experiments import PROTOCOLS


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
def test_threads_above_cpu_count_exit_2(tmp_path, monkeypatch, config, flags):
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    path = write_config(tmp_path, config)
    assert main(["params", "--config", path, "--out", str(tmp_path), *flags]) == 2


@pytest.mark.parametrize("protocol", [
    {"type": "schedule"},
    {"type": "schedule", "schedule": {
        "detuning": {"type": "constant"}, "rabi": {"type": "constant", "value": 1e3},
        "window": [0.0, 1e-4]}},
    {"type": "schedule", "schedule": {
        "detuning": {"type": "constant", "value": 0.0},
        "rabi": {"type": "constant", "value": 1e3}}},
    {"type": "schedule", "schedule": {
        "detuning": {"type": "chirp"}, "rabi": {"type": "constant", "value": 1e3},
        "window": [0.0, 1e-4]}},
], ids=["no_schedule", "envelope_field", "no_window", "unknown_envelope"])
def test_malformed_schedule_exit_2(tmp_path, capsys, protocol):
    path = write_config(tmp_path, {"preset": "fig3a", "protocol": protocol})
    assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


_RABI = {"type": "constant", "value": 1e3}


@pytest.mark.parametrize("schedule", [
    {"detuning": {"type": "constant", "value": 0.0}, "rabi": _RABI, "window": [0.0]},
    {"detuning": {"type": "constant", "value": 0.0}, "rabi": _RABI,
     "window": [0.0, "1e-4"]},
    {"detuning": 5.0, "rabi": _RABI, "window": [0.0, 1e-4]},
    {"detuning": {"value": 0.0}, "rabi": _RABI, "window": [0.0, 1e-4]},
    {"detuning": {"type": "constant", "value": "abc"}, "rabi": _RABI,
     "window": [0.0, 1e-4]},
    {"detuning": {"type": "offset_sum", "offset": 0.0, "inner": {"type": "chirp"}},
     "rabi": _RABI, "window": [0.0, 1e-4]},
], ids=["short_window", "string_window", "number_envelope", "untyped_envelope",
        "string_field", "unknown_inner_envelope"])
def test_schedule_shape_exit_2(tmp_path, capsys, schedule):
    # the schema, not the schedule parser, rejects these: they used to end in
    # IndexError, AttributeError or ValueError tracebacks
    path = write_config(tmp_path, {"preset": "fig3a", "protocol": {
        "type": "schedule", "schedule": schedule}})
    assert main(["propagate", "--config", path, "--out", str(tmp_path)]) == 2
    assert "invalid config" in capsys.readouterr().err


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
