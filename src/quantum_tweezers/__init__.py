"""Few-level simulation and pulse design for deterministic atom extraction
from a reservoir condensate into a steep tweezer-style trap.

The package models the transfer of one or two atoms as a truncated ladder
of collective states coupled by a radiation drive, propagates the
time-dependent Schroedinger equation for arbitrary pulse schedules, and
evaluates the analytic dressed-state and avoided-crossing formulas that
bound when each transfer protocol works.
"""

__version__ = "0.1.0"

from .analytics import (
    AdiabaticityReport,
    DressedPair,
    ScrapPulseParams,
    dressed,
    lz_probability,
    min_transfer_time,
    ramp_rate_bound,
    scrap_adiabatic_condition,
    scrap_pump_width_bound,
    sequential_lz,
    validity_check,
)
from .constants import BOHR_RADIUS, HBAR, RB87_MASS
from .exceptions import InfeasibleScheduleError, IntegrationError, TweezersError
from .experiments import (
    AxisSpec,
    OptimizeResult,
    SweepResult,
    SweepSpec,
    delay_scan,
    optimize_pulse,
    pipulse_contour,
    ramp_rate_sweep,
    scrap_contour,
    sequential_pi,
)
from .levels import (
    LevelModel,
    build_level_model,
    hamiltonian_matrix,
    rabi_coupling,
    resonance_detunings,
)
from .params import (
    DerivedParams,
    PhysicalSystem,
    chemical_potential,
    collision_shift,
    coupling_constant,
    derive_all,
    oscillator_length,
    overlap_factor,
    scattering_shift,
)
from .presets import Preset, get_preset
from .propagator import (
    StepControl,
    Trajectory,
    propagate,
    trajectory_to_csv,
    transfer_probability,
)
from .pulses import (
    Constant,
    Envelope,
    Gaussian,
    LinearRamp,
    OffsetSum,
    PulseSchedule,
    TanhPlateau,
    build_pi_pulse,
    build_scrap_schedule,
    build_two_atom_scrap_schedule,
    schedule_from_dict,
)
