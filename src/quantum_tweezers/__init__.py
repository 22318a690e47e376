"""Few-level simulation and pulse design for deterministic atom extraction
from a reservoir condensate into a steep tweezer-style trap.

The package models the transfer of one or two atoms as a truncated ladder
of collective states coupled by a radiation drive, propagates the
time-dependent Schroedinger equation for arbitrary pulse schedules, and
evaluates the analytic dressed-state and avoided-crossing formulas that
bound when each transfer protocol works.

Each export is loaded on first use (PEP 562): ``import quantum_tweezers``
imports no submodule, and ``quantum_tweezers.propagate`` imports only
``propagator`` and the modules it needs.  A submodule is an attribute too:
``quantum_tweezers.experiments`` imports it.
"""

import importlib

__version__ = "0.1.0"

# each export and the module it lives in
_EXPORTS = {
    **dict.fromkeys([
        "AdiabaticityReport", "DressedPair", "ScrapPulseParams", "dressed",
        "lz_probability", "min_transfer_time", "ramp_rate_bound",
        "scrap_adiabatic_condition", "scrap_pump_width_bound", "sequential_lz",
        "validity_check",
    ], "analytics"),
    **dict.fromkeys(["BOHR_RADIUS", "HBAR", "RB87_MASS"], "constants"),
    **dict.fromkeys(["InfeasibleScheduleError", "IntegrationError", "TweezersError"],
                    "exceptions"),
    **dict.fromkeys([
        "AxisSpec", "OptimizeResult", "SweepResult", "SweepSpec", "delay_scan",
        "optimize_pulse", "pipulse_contour", "ramp_rate_sweep", "scrap_contour",
        "sequential_pi",
    ], "experiments"),
    **dict.fromkeys([
        "LevelModel", "build_level_model", "hamiltonian_matrix", "rabi_coupling",
        "resonance_detunings",
    ], "levels"),
    **dict.fromkeys([
        "DerivedParams", "PhysicalSystem", "chemical_potential", "collision_shift",
        "coupling_constant", "derive_all", "oscillator_length", "overlap_factor",
        "scattering_shift",
    ], "params"),
    **dict.fromkeys(["Preset", "get_preset"], "presets"),
    **dict.fromkeys([
        "StepControl", "Trajectory", "propagate", "trajectory_to_csv",
        "transfer_probability",
    ], "propagator"),
    **dict.fromkeys([
        "Constant", "Envelope", "Gaussian", "LinearRamp", "OffsetSum", "PulseSchedule",
        "TanhPlateau", "build_pi_pulse", "build_scrap_schedule",
        "build_two_atom_scrap_schedule", "schedule_from_dict",
    ], "pulses"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """An export, imported from its module and bound here; else a submodule."""
    home = _EXPORTS.get(name)
    if home is None:
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
