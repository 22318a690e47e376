"""Figure-style parameter sweeps and derivative-free pulse optimization.

Every sweep point is an independent pure computation: a schedule is built
from the preset plus the point's axis values, propagated, and reduced to a
transfer probability with analytic diagnostics.  Points may be evaluated
in a process pool; results are always assembled in deterministic grid
order (C order over the axes), and CSV output is byte-identical across
runs of the same sweep.  Wall-clock timings live in the JSON metadata,
never in the CSV.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from .analytics import (
    AdiabaticityReport,
    ScrapPulseParams,
    _anharmonicity,
    adiabaticity_parameter,
    lz_probability,
    scrap_crossing_slope,
    sequential_lz,
    validity_check,
)
from .constants import HBAR
from .exceptions import (ConfigError, InfeasibleScheduleError, TweezersError, _float,
                         _integer, _shown)
from .levels import LevelModel, build_level_model, rabi_coupling, resonance_detunings
from .params import derive_all
from .presets import Preset, RampGeometry
from .propagator import StepControl, _csv_text, propagate, transfer_probability
from .pulses import (
    LinearRamp,
    PulseSchedule,
    TanhPlateau,
    build_pi_pulse,
    build_scrap_schedule,
    build_two_atom_scrap_schedule,
)

__all__ = [
    "AxisSpec",
    "SweepSpec",
    "SweepResult",
    "OptimizeResult",
    "PROTOCOLS",
    "TRANSITIONS",
    "preset_model",
    "evaluate_point",
    "gated_ramp_schedule",
    "resonant_gaussian_schedule",
    "ramp_rate_sweep",
    "scrap_contour",
    "delay_scan",
    "pipulse_contour",
    "sequential_pi",
    "run_sweep",
    "optimize_pulse",
    "contiguous_intervals",
    "region_area_fraction",
    "threshold_contours",
]

# the pi_pulse transitions a sweep or optimize config may name
TRANSITIONS = ("0-1", "1-2")

# a sweep point reads only final states: two samples, the two ends, and the
# sixth order with its step count from the error estimate (see propagator)
_SWEEP_STEP_CONTROL = StepControl(sample_cap=2, order=6)
# qtweezers propagate takes the same rule, and stores every accepted step up
# to the default sample cap
_PROPAGATE_STEP_CONTROL = replace(_SWEEP_STEP_CONTROL, sample_cap=StepControl.sample_cap)
# an optimizer evaluation reads its final state the same way, but keeps the
# sixth order's spectral step rule: with the estimate's faster evaluations,
# perfbench's chirp_optimize workload exits in its speed probe (ROADMAP.md,
# item 1); once that is mended, spectral=True goes and the two are one
_OPTIMIZER_STEP_CONTROL = replace(_SWEEP_STEP_CONTROL, spectral=True)
_MAX_AXIS_POINTS = 10_000


@dataclass(frozen=True)
class AxisSpec:
    """One sweep axis, and the one check of it: a string name, finite real
    ends (minimum below maximum), an integer of 2 to _MAX_AXIS_POINTS points
    and a linear or log scale."""

    name: str
    minimum: float
    maximum: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"an axis name must be a string, not {self.name!r}")
        if not _integer(self.points):
            raise ConfigError(f"axis {self.name!r} needs an integer number of "
                              f"points, not {self.points!r}")
        if self.points < 2:
            raise ConfigError(f"axis {self.name!r} needs at least 2 points")
        if self.points > _MAX_AXIS_POINTS:
            raise ConfigError(f"axis {self.name!r} takes at most {_MAX_AXIS_POINTS} "
                              f"points, not {_shown(self.points)}")
        if not -math.inf < _float(self.minimum) < _float(self.maximum) < math.inf:
            raise ConfigError(f"axis {self.name!r} needs a finite minimum below a "
                              f"finite maximum, not {_shown(self.minimum)} and "
                              f"{_shown(self.maximum)}")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"unknown axis scale {self.scale!r}")
        if self.scale == "log" and self.minimum <= 0:
            raise ConfigError("log axes need a positive minimum")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.minimum, self.maximum, self.points)
        return np.linspace(self.minimum, self.maximum, self.points)


@dataclass(frozen=True)
class SweepSpec:
    """A protocol, its axes and fixed parameters, and the level it reports:
    target=None takes the protocol's level, as _level resolves it."""

    protocol: str
    axes: tuple[AxisSpec, ...]
    target: int | None = None
    fixed: dict = field(default_factory=dict)
    preset_name: str = "custom"

    def __post_init__(self):
        if not self.axes:
            raise ValueError("a sweep needs at least one axis")
        names = [axis.name for axis in self.axes]
        repeated = next((name for name in names if names.count(name) > 1), None)
        if repeated is not None:
            raise ConfigError(f"sweep axis {repeated!r} is given more than once")
        object.__setattr__(self, "target", _level(self.protocol, self.target))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(axis.points for axis in self.axes)

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "target": self.target,
            "fixed": dict(self.fixed),
            "preset": self.preset_name,
            "axes": [
                {"name": a.name, "min": a.minimum, "max": a.maximum,
                 "points": a.points, "scale": a.scale}
                for a in self.axes
            ],
        }


@dataclass(frozen=True)
class SweepResult:
    """Gridded transfer probabilities plus analytic companions.

    p has the axes' shape; p_lz is NaN where no sweep-formula prediction
    applies.  extras holds per-point diagnostic columns (margins, alpha).
    failures lists (flat_index, message) for points whose schedule or
    propagation failed; their p is NaN but the grid stays complete.
    """

    spec: SweepSpec
    axis_values: tuple[np.ndarray, ...]
    p: np.ndarray
    p_lz: np.ndarray
    extras: dict[str, np.ndarray]
    failures: tuple[tuple[int, str], ...]
    metadata: dict = field(default_factory=dict)

    def to_csv_text(self) -> str:
        """One row per grid point in C order: axis values, p, p_lz, extras."""
        extra_names = sorted(self.extras)
        header = [axis.name for axis in self.spec.axes] + ["p_target", "p_lz"]
        grids = np.meshgrid(*self.axis_values, indexing="ij")
        columns = [*grids, self.p, self.p_lz, *(self.extras[k] for k in extra_names)]
        return _csv_text(header + extra_names,
                         [np.reshape(column, -1) for column in columns])

    def metadata_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "failures": [{"index": i, "message": m} for i, m in self.failures],
            **self.metadata,
        }


# --- protocol schedule assembly ---------------------------------------------

def gated_ramp_schedule(model: LevelModel, omega_l: float, rate: float,
                        target: int = 1, *,
                        geometry: RampGeometry) -> PulseSchedule:
    """Linear detuning sweep with a flat-top drive gate.

    The detuning sweeps up through the 0->1 crossing (and for target 2 the
    1->2 crossing as well) at |rate|; the drive switches on before the
    first crossing and off after the last one, so the final populations are
    measured in the bare basis with the drive dark.  geometry, a preset's
    ramp, sets where the sweep starts and ends and how the gate is shaped.
    """
    if rate == 0:
        raise InfeasibleScheduleError("ramp rate must be non-zero")
    rate = abs(rate)
    if not _integer(target) or target not in (1, 2) or target > model.n_max:
        raise ValueError(f"unsupported ramp target {target}")
    res = resonance_detunings(model)
    q = (model.derived.e2 - 2.0 * model.derived.e1) / HBAR
    if q <= 0:
        raise InfeasibleScheduleError(
            "no level anharmonicity: crossings are degenerate, the sweep "
            "cannot select an atom number")
    delta_i = res.d01 - geometry.start_depth_frac * q
    if target == 1:
        delta_f = res.d01 + geometry.end_above_frac_1 * q
        last_crossing = res.d01
        coupling = abs(rabi_coupling(model, 0, omega_l))
    else:
        delta_f = res.d12 + geometry.end_above_frac_2 * q
        last_crossing = res.d12
        coupling = abs(rabi_coupling(model, 1, omega_l))
    duration = (delta_f - delta_i) / rate
    t_first = (res.d01 - delta_i) / rate
    t_last = (last_crossing - delta_i) / rate
    tail = duration - t_last
    # hold the plateau through the crossing's jump region, then switch off
    # over a tanh edge slow compared to the dressed gap opened by the sweep
    span_after = delta_f - last_crossing
    off_frac = geometry.jump_coeff * coupling / span_after if span_after > 0 else 1.0
    off_frac = min(max(off_frac, geometry.min_off_frac), geometry.max_off_frac)
    gate_start = geometry.gate_start_frac * t_first
    gate_end = t_last + off_frac * tail
    ramp_time = (1.0 - off_frac) * tail / geometry.edge_divisor
    rabi = TanhPlateau(peak=omega_l, start_time=gate_start,
                       plateau_width=gate_end - gate_start,
                       ramp_time=ramp_time)
    return PulseSchedule(
        detuning=LinearRamp(start=delta_i, rate=rate),
        rabi=rabi,
        t_start=0.0,
        t_end=duration,
    )


def resonant_gaussian_schedule(model: LevelModel, omega_hat: float,
                               t_omega: float,
                               transition: tuple[int, int] | str = (0, 1)
                               ) -> PulseSchedule:
    """Gaussian drive of given peak at a transition's resonant detuning:
    the pi pulse of the same width and transition with its peak replaced."""
    pi = build_pi_pulse(model, transition, t_omega)
    return replace(pi, rabi=replace(pi.rabi, peak=omega_hat))


# --- the protocol table ----------------------------------------------------------
# Builders and companions take keyword arguments and look up what they call
# at call time.  A companion's validity.omega01 is |Omega01|: every formula
# it feeds squares the splitting, so the sign of the drive does not matter.

def _ramp_schedules(model, preset, params, target):
    return (gated_ramp_schedule(model, params["omega_l_rad_s"],
                                params["ramp_rate_rad_s2"], target=target,
                                geometry=preset.ramp),)


def _ramp_companions(model, params, target, validity, **_):
    rate = params["ramp_rate_rad_s2"]
    splitting = HBAR * validity.omega01
    return {
        "alpha_ad": adiabaticity_parameter(splitting, rate),
        "p_lz": (lz_probability(splitting, rate) if target == 1
                 else sequential_lz(model, params["omega_l_rad_s"], rate)),
        "two_level_margin": validity.two_level_margin,
    }


def _chirp(preset: Preset, params: dict) -> ScrapPulseParams:
    """The single-atom Stark-chirp pulse pair of a parameter set."""
    t_omega = params["t_omega_s"]
    return ScrapPulseParams(params["omega_hat_rad_s"], t_omega,
                            params["delta_hat_rad_s"],
                            preset.scrap.t_delta(t_omega), preset.scrap.tau(t_omega))


def _scrap_1atom_schedules(model, preset, params, **_):
    chirp = _chirp(preset, params)
    return (build_scrap_schedule(chirp.omega_hat, chirp.t_omega, chirp.delta_hat,
                                 chirp.t_delta, chirp.tau, params["delta_tau_s"],
                                 model.derived.e1),)


def _scrap_1atom_companions(model, preset, params, validity, **_):
    chirp = _chirp(preset, params)
    slope = scrap_crossing_slope(chirp.delta_hat, chirp.t_delta, chirp.tau)
    return {
        "alpha_ad": validity.alpha_ad,
        "p_lz": lz_probability(HBAR * validity.omega01, slope),
        "two_level_margin": validity.two_level_margin,
        "scrap_adiabatic_margin": validity.scrap_adiabatic_margin,
        "scrap_pump_width_margin": validity.scrap_pump_width_margin,
        "scrap_diabatic_margin": validity.scrap_diabatic_margin,
    }


def _scrap_2atom_schedules(model, preset, params, **_):
    cfg = preset.scrap2
    t_omega = params["t_omega_s"]
    return (build_two_atom_scrap_schedule(
        params["omega_hat_rad_s"], t_omega, cfg.delta_hat, cfg.t_delta(t_omega),
        cfg.baseline_depth, model.derived.e1,
        model.derived.e2 - model.derived.e1,
        ramp_time=cfg.ramp_time_factor * t_omega),)


def _scrap_2atom_companions(model, preset, params, validity, **_):
    cfg = preset.scrap2
    omega_hat = params["omega_hat_rad_s"]
    t_delta = cfg.t_delta(params["t_omega_s"])
    # crossing-by-crossing sweep prediction from the pulse's local slopes
    q_gap = (model.derived.e2 - 2.0 * model.derived.e1) / HBAR
    tau01 = t_delta * math.sqrt(math.log(cfg.delta_hat / cfg.baseline_depth))
    tau12 = t_delta * math.sqrt(
        math.log(cfg.delta_hat / (cfg.baseline_depth + q_gap)))
    slope01 = scrap_crossing_slope(cfg.delta_hat, t_delta, tau01)
    slope12 = scrap_crossing_slope(cfg.delta_hat, t_delta, tau12)
    om01 = validity.omega01
    om12 = rabi_coupling(model, 1, omega_hat)
    return {
        "p_lz": (lz_probability(HBAR * om01, slope01)
                 * lz_probability(HBAR * om12, slope12)),
        "alpha_ad": adiabaticity_parameter(HBAR * om01, slope01),
        "two_level_margin": validity.two_level_margin,
    }


def _pi_pulse_schedules(model, params, **_):
    if params["omega_hat_rad_s"] is None:
        return (build_pi_pulse(model, params["transition"], params["t_omega_s"]),)
    return (resonant_gaussian_schedule(model, params["omega_hat_rad_s"],
                                       params["t_omega_s"], params["transition"]),)


def _pi_pulse_companions(validity, **_):
    return {"two_level_margin": validity.two_level_margin}


def _sequential_pi_schedules(model, params, **_):
    transitions = [(0, 1)] if params["omit_second"] else [(0, 1), (1, 2)]
    return tuple(build_pi_pulse(model, t, params["t_omega_s"]) for t in transitions)


def _sequential_pi_companions(trajectories, **_):
    return {"p1_after_first": transfer_probability(trajectories[0], 1)}


def _drive(schedules: tuple[PulseSchedule, ...]) -> float:
    """The drive a protocol's validity is judged at: its first pulse's peak."""
    return schedules[0].rabi.peak


@dataclass(frozen=True)
class Protocol:
    """One extraction protocol, as sweeps, the optimizer and the CLI run it.

    target       the level every run reports; None takes the caller's target
    required     the parameter names a point must give
    defaults     each optional name's default: a value, or a function of
                 the preset (a number); its type is what the name takes
    schedules    (model, preset, params, target) -> pulses run in turn from |0>
    companions   (model, preset, params, target, schedules, trajectories,
                 validity) -> the analytic predictions and margins beside p
    chirp        the Stark-chirp pulse pair whose bounds validity adds, if any
    chain_level  for chained pulses, the level reported without a target;
                 `propagate` reports it in place of a trajectory
    """

    target: int | None
    required: tuple[str, ...]
    defaults: dict
    schedules: Callable[..., tuple[PulseSchedule, ...]]
    companions: Callable[..., dict]
    chirp: Callable[[Preset, dict], ScrapPulseParams] | None = None
    chain_level: int | None = None

    def validity(self, model: LevelModel, preset: Preset, params: dict,
                 schedules: tuple[PulseSchedule, ...]) -> AdiabaticityReport:
        """The analytic validity report at the protocol's drive (see _drive),
        with the Stark-chirp bounds where the protocol drives a chirp."""
        scrap = self.chirp(preset, params) if self.chirp is not None else None
        return validity_check(model, _drive(schedules), scrap=scrap)

    def params(self, preset: Preset, point: dict) -> dict:
        """The point's parameters with every omitted one at its default.

        ConfigError for an unknown name, a missing required one, or a value
        of another type than its default's: one of TRANSITIONS for a string,
        a bool, else a finite real number (or null, where the default is
        null).  The values are returned as given."""
        accepted = [*self.required, *self.defaults]
        unknown = sorted(set(point) - set(accepted))
        if unknown:
            raise ConfigError(f"unknown parameter(s) {unknown}; this protocol "
                              f"accepts {accepted}")
        missing = [name for name in self.required if name not in point]
        if missing:
            raise ConfigError(f"missing required parameter(s) {missing}")
        for name, value in point.items():
            default = self.defaults.get(name, 0.0)  # a required name takes a number
            if isinstance(default, bool):
                accepts = isinstance(value, bool)
            elif isinstance(default, str):
                accepts = isinstance(value, str) and value in TRANSITIONS
            else:  # _float is NaN for a bool or a value that is not a real number
                accepts = ((default is None and value is None)
                           or math.isfinite(_float(value)))
            if not accepts:
                raise ConfigError(f"parameter {name!r} cannot be {_shown(value)}")
        params = {name: default(preset) if callable(default) else default
                  for name, default in self.defaults.items()}
        params.update(point)
        return params


PROTOCOLS: dict[str, Protocol] = {
    "ramp": Protocol(
        target=None, required=("ramp_rate_rad_s2",),
        defaults={"omega_l_rad_s": attrgetter("omega_l")},
        schedules=_ramp_schedules, companions=_ramp_companions),
    "scrap_1atom": Protocol(
        target=1, required=(),
        defaults={"omega_hat_rad_s": attrgetter("scrap.omega_hat"),
                  "t_omega_s": attrgetter("scrap.t_omega"), "delta_tau_s": 0.0,
                  "delta_hat_rad_s": attrgetter("scrap.delta_hat")},
        schedules=_scrap_1atom_schedules, companions=_scrap_1atom_companions,
        chirp=_chirp),
    "scrap_2atom": Protocol(
        target=2, required=(),
        defaults={"omega_hat_rad_s": attrgetter("scrap2.omega_hat"),
                  "t_omega_s": attrgetter("scrap2.t_omega")},
        schedules=_scrap_2atom_schedules, companions=_scrap_2atom_companions),
    # without omega_hat_rad_s the pulse is the pi-area pulse of its width
    "pi_pulse": Protocol(
        target=None, required=(),
        defaults={"omega_hat_rad_s": None, "t_omega_s": attrgetter("pi.t_omega"),
                  "transition": "0-1"},
        schedules=_pi_pulse_schedules, companions=_pi_pulse_companions),
    "sequential_pi": Protocol(
        target=None, required=(),
        defaults={"t_omega_s": attrgetter("pi.t_omega"), "omit_second": False},
        schedules=_sequential_pi_schedules,
        companions=_sequential_pi_companions, chain_level=2),
}
PROTOCOLS["delay_scan"] = PROTOCOLS["scrap_1atom"]


def _level(protocol: str, target: int | None) -> int:
    """The level a run reports: the protocol's own, else target, else its
    chain_level, else 1.  A target outside 1..2, or one a fixed-level
    protocol cannot report, or an unknown protocol, raises ConfigError."""
    entry = PROTOCOLS.get(protocol)
    if entry is None:
        raise ConfigError(f"unknown protocol {protocol!r}")
    if target is not None and (not _integer(target) or target not in (1, 2)):
        raise ConfigError(f"target must be 1 or 2, not {_shown(target)}")
    if target is not None and entry.target not in (None, target):
        raise ConfigError(f"protocol {protocol!r} reports level {entry.target}; "
                          f"it cannot report target {target}")
    return entry.target or target or entry.chain_level or 1


# --- per-point evaluation ----------------------------------------------------

def preset_model(preset: Preset) -> LevelModel:
    """The |0>, |1>, |2> ladder every protocol runs on, from a preset's system.

    A system with no anharmonicity (E2 = 2 E1) raises ConfigError: no
    crossing or resonance of it selects an atom number.
    """
    model = build_level_model(derive_all(preset.system), n_max=2)
    _anharmonicity(model)
    return model


def evaluate_point(preset: Preset, protocol: str, point: dict,
                   target: int | None = None) -> dict:
    """Propagate one parameter point as a sweep does: p plus its analytic companions."""
    return _evaluate(preset, protocol, point, _level(protocol, target),
                     _SWEEP_STEP_CONTROL)


def _evaluate(preset: Preset, protocol: str, point: dict, target: int,
              control: StepControl) -> dict:
    entry = PROTOCOLS[protocol]
    params = entry.params(preset, point)
    model = preset_model(preset)
    schedules = entry.schedules(model=model, preset=preset, params=params,
                                target=target)
    trajectories = []
    for schedule in schedules:
        state = trajectories[-1].final_state if trajectories else None
        trajectories.append(propagate(model, schedule, initial_state=state,
                                      step_control=control))
    out = {"p": transfer_probability(trajectories[-1], target)}
    validity = entry.validity(model, preset, params, schedules)
    out.update(entry.companions(model=model, preset=preset, params=params,
                                target=target, schedules=schedules,
                                trajectories=trajectories, validity=validity))
    return out


def _evaluate_task(task: tuple) -> dict:
    try:
        return _evaluate(*task)
    except TweezersError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


# --- public sweep operations --------------------------------------------------

def _axis_from_values(name: str, values: np.ndarray) -> AxisSpec:
    """Describe a value array as an AxisSpec; it must be lin- or log-spaced."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("a sweep axis needs at least 2 points")
    ratios = np.diff(np.log(values)) if np.all(values > 0) else None
    if ratios is not None and ratios.size and np.allclose(ratios, ratios[0],
                                                          rtol=1e-10, atol=0):
        scale = "log"
    else:
        scale = "linear"
    axis = AxisSpec(name=name, minimum=float(values[0]), maximum=float(values[-1]),
                    points=int(values.size), scale=scale)
    if not np.allclose(axis.values(), values, rtol=1e-12, atol=0):
        raise ValueError(
            f"axis {name!r} values must be linearly or geometrically spaced")
    return axis


def _sweep(preset: Preset, protocol: str, axes: dict, target: int | None = None,
           threads: int = 1, fixed: dict | None = None) -> SweepResult:
    spec = SweepSpec(protocol=protocol,
                     axes=tuple(_axis_from_values(k, v) for k, v in axes.items()),
                     target=target, fixed=fixed or {}, preset_name=preset.name)
    return run_sweep(spec, preset, threads=threads)


def ramp_rate_sweep(preset: Preset, rates, target: int = 1,
                    threads: int = 1) -> SweepResult:
    """Transfer probability vs detuning sweep rate, with the LZ companion.

    The metadata records the contiguous rate intervals whose simulated
    probability exceeds 0.99.
    """
    return _sweep(preset, "ramp", {"ramp_rate_rad_s2": rates}, target, threads)


def scrap_contour(preset: Preset, omega_hats, t_omegas, target: int = 1,
                  threads: int = 1) -> SweepResult:
    """Stark-chirp efficiency over the (pump peak, pump width) plane.

    The detuning-pulse width stays locked to twice the pump width.  For
    target 2 the pump is the flat-top two-crossing variant.
    """
    protocol = "scrap_1atom" if target == 1 else "scrap_2atom"
    return _sweep(preset, protocol,
                  {"omega_hat_rad_s": omega_hats, "t_omega_s": t_omegas},
                  target, threads)


def delay_scan(preset: Preset, delays, threads: int = 1) -> SweepResult:
    """Efficiency vs pump-to-crossing delay for the single-atom Stark chirp.

    delta_tau = 0 centres the pump on the first resonance crossing;
    negative values move it towards (and past) the second crossing, where
    the adiabatic/diabatic passage order is exchanged.
    """
    return _sweep(preset, "delay_scan", {"delta_tau_s": delays}, threads=threads)


def pipulse_contour(preset: Preset, omega_hats, t_omegas, target: int = 1,
                    threads: int = 1) -> SweepResult:
    """Resonant-pulse efficiency over the (peak, width) plane."""
    return _sweep(preset, "pi_pulse",
                  {"omega_hat_rad_s": omega_hats, "t_omega_s": t_omegas},
                  target, threads)


def sequential_pi(preset: Preset, t_omegas, omit_second: bool = False,
                  threads: int = 1) -> SweepResult:
    """Two chained resonant pi pulses (0->1 then 1->2), reporting P_{0->2}.

    Each pulse's peak is solved for effective area pi at its own
    transition; the second pulse starts from the state the first one left.
    """
    return _sweep(preset, "sequential_pi", {"t_omega_s": t_omegas}, threads=threads,
                  fixed={"omit_second": omit_second})


def _check_first_point(protocol: str, preset: Preset, fixed: dict, varied: dict) -> None:
    """Protocol.params on a run's first point, each varied name at its first
    value; a name both fixed and varied raises ConfigError."""
    both = sorted(set(fixed) & set(varied))
    if both:
        raise ConfigError(f"parameter(s) {both} both fixed and varied")
    PROTOCOLS[protocol].params(preset, {**fixed, **varied})


def run_sweep(spec: SweepSpec, preset: Preset, threads: int = 1) -> SweepResult:
    """Evaluate a SweepSpec over its grid and add the region metadata.

    A 1-D ramp sweep records the intervals of its axis with P > 0.99;
    a 2-D sweep records the 0.99 and 0.80 contours and the P > 0.99 area.
    A point that raises a TweezersError fails alone; any other error
    leaves the sweep; the first point is checked before any runs.  threads
    processes, at most one per point, evaluate the points; a threads that
    is not an integer (a bool is not) or is under 1 raises ConfigError.
    """
    if not _integer(threads) or threads < 1:
        raise ConfigError(f"threads must be an integer of at least 1, not {_shown(threads)}")
    _check_first_point(spec.protocol, preset, spec.fixed,
                       {axis.name: axis.minimum for axis in spec.axes})
    axis_values = tuple(axis.values() for axis in spec.axes)
    tasks = []
    for idx in np.ndindex(spec.shape):
        point = dict(spec.fixed)
        for d, axis in enumerate(spec.axes):
            point[axis.name] = float(axis_values[d][idx[d]])
        tasks.append((preset, spec.protocol, point, spec.target, _SWEEP_STEP_CONTROL))
    workers = min(threads, len(tasks))  # a process pool forks all its workers at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_evaluate_task, tasks,
                                    chunksize=max(1, len(tasks) // (workers * 8))))
    else:
        results = [_evaluate_task(task) for task in tasks]

    # one column per result key, NaN where a point lacks it
    names = sorted({"p", "p_lz"}.union(*results) - {"error"})
    columns = {k: np.array([r.get(k, math.nan) for r in results],
                           dtype=float).reshape(spec.shape) for k in names}
    result = SweepResult(
        spec=spec,
        axis_values=axis_values,
        p=columns.pop("p"),
        p_lz=columns.pop("p_lz"),
        extras=columns,
        failures=tuple((i, r["error"]) for i, r in enumerate(results) if "error" in r),
    )
    if spec.protocol == "ramp" and result.p.ndim == 1:
        result.metadata["intervals_p_gt_0.99"] = contiguous_intervals(
            result.axis_values[0], result.p, 0.99)
    if result.p.ndim == 2:
        result.metadata["contours"] = {
            "0.99": threshold_contours(result, 0.99),
            "0.80": threshold_contours(result, 0.80),
        }
        result.metadata["area_fraction_p_gt_0.99"] = region_area_fraction(
            result.p, 0.99)
    return result


# --- region extraction ---------------------------------------------------------

def contiguous_intervals(axis: np.ndarray, p: np.ndarray,
                         threshold: float) -> list[tuple[float, float]]:
    """Grid runs of axis values over which p exceeds the threshold (NaN does not)."""
    mask = np.asarray(p).reshape(-1) > threshold
    # +1 where a run starts, -1 one past where it ends
    edges = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
    values = np.asarray(axis, dtype=float)
    return [(float(values[start]), float(values[end - 1]))
            for start, end in zip(np.flatnonzero(edges == 1),
                                  np.flatnonzero(edges == -1))]


def region_area_fraction(p: np.ndarray, threshold: float) -> float:
    """Fraction of grid points with p above the threshold (NaN counts as below)."""
    p = np.asarray(p)
    return float(np.mean(np.nan_to_num(p, nan=-1.0) > threshold))


# a cell's edges in the order bottom, left, right, top, each as the (i, j)
# offsets of its two corners, the lower one first
_CELL_EDGES = (((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 1)))


def threshold_contours(result: SweepResult, level: float) -> list[list[float]]:
    """Marching-squares contour segments [x1, y1, x2, y2] at one level.

    x runs along the first axis, y along the second.  NaN cells are skipped.
    A cell's level crossings are taken along its edges in _CELL_EDGES order
    and joined in pairs; a saddle cell's four are joined 0-1 and 3-2.
    """
    p = result.p
    if p.ndim != 2:
        raise ValueError("contour extraction needs a 2-D sweep")
    axes = [np.asarray(values, dtype=float).tolist() for values in result.axis_values]
    values = p.tolist()
    nan = np.isnan(p)
    cells = ~(nan[:-1, :-1] | nan[1:, :-1] | nan[:-1, 1:] | nan[1:, 1:])
    segments: list[list[float]] = []
    for i, j in np.argwhere(cells).tolist():
        crossings = []
        for (ai, aj), (bi, bj) in _CELL_EDGES:
            va, vb = values[i + ai][j + aj], values[i + bi][j + bj]
            if (va > level) != (vb > level):
                a = [axes[0][i + ai], axes[1][j + aj]]
                b = [axes[0][i + bi], axes[1][j + bj]]
                k = 0 if ai != bi else 1  # the coordinate that varies
                # linear interpolation of the level crossing along the edge
                a[k] += (level - va) / (vb - va) * (b[k] - a[k])
                crossings.append(a)
        segments += [crossings[m] + crossings[n]
                     for m, n in ((0, 1), (3, 2))[:len(crossings) // 2]]
    return segments


# --- derivative-free pulse-parameter optimization ------------------------------

@dataclass(frozen=True)
class OptimizeResult:
    """Best parameters found, their probability, and the search history."""

    params: dict
    probability: float
    converged: bool
    n_evaluations: int
    best_history: tuple[float, ...]


class _BudgetSpent(Exception):
    """The objective was asked for a point past the evaluation budget."""


def _nelder_mead(objective, simplex: np.ndarray, budget: int, xatol: float,
                 fatol: float) -> bool:
    """Minimize objective over the unit box from an (n + 1, n) simplex.

    Nelder and Mead's method (Comput. J. 7, 308 (1965)) with reflection 1,
    expansion 2, contraction 0.5 and shrink 0.5, every trial point clipped
    to the box.  It replays scipy.optimize.minimize(method="Nelder-Mead",
    bounds=[(0, 1)] * n, options={"maxfev": budget, "xatol": xatol,
    "fatol": fatol, "initial_simplex": simplex}) step for step, so it asks
    for the same points in the same order: a vertex past 1 is reflected
    into the box, vertices are ordered by np.argsort, and the search stops
    once every vertex is within xatol and every value within fatol of the
    best, or when the budget is spent.  Returns True in the first case.
    """
    n = simplex.shape[1]
    sim = np.clip(np.where(simplex > 1.0, 2.0 - simplex, simplex), 0.0, 1.0)
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def f(z: np.ndarray) -> float:
        nonlocal calls
        if calls >= budget:
            raise _BudgetSpent
        calls += 1
        return objective(z)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    # sorted twice, as SciPy does: np.argsort need not keep ties in place
    for _ in range(2):
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    while calls < budget:
        try:
            if (np.abs(sim[1:] - sim[0]).max() <= xatol
                    and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
                break
            xbar = sim[:-1].sum(axis=0) / n
            xr = np.clip(2 * xbar - sim[-1], 0.0, 1.0)
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = np.clip(3 * xbar - 2 * sim[-1], 0.0, 1.0)
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # contract outside
                    xc = np.clip(1.5 * xbar - 0.5 * sim[-1], 0.0, 1.0)
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # contract inside
                    xc = np.clip(0.5 * xbar + 0.5 * sim[-1], 0.0, 1.0)
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), 0.0, 1.0)
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return calls < budget


def optimize_pulse(protocol, bounds: dict[str, tuple[float, float]],
                   budget: int, preset: Preset | None = None, target: int | None = None,
                   seed: int = 0, fixed: dict | None = None,
                   x0: dict | None = None) -> OptimizeResult:
    """Maximize a transfer probability over pulse parameters (Nelder-Mead).

    The search is the package's own Nelder-Mead loop, _nelder_mead, on the
    bounds scaled to the unit box.  It must ask for the same points, in the
    same order, as scipy.optimize.minimize(method="Nelder-Mead") given the
    same box, budget, tolerances and initial simplex; a test checks that.

    protocol is one of the sweep protocol names (a schedule is built per
    evaluation from the preset plus the candidate parameters, and target
    resolves as SweepSpec's) or a callable mapping a parameter dict to the
    objective.  bounds maps parameter names to (low, high); candidates are
    clamped to the box, so the result never leaves it.  x0, if given, maps
    each bounded name (and no other) to a finite start, clamped to the box
    too; else seed draws the start.  The search is deterministic for fixed
    inputs and seed, and the best-so-far history is monotone
    non-decreasing.  If the budget runs out before the simplex collapses,
    the best point found so far is returned with converged=False.  A budget
    that is not an integer (a bool is not) or is under 10, a seed that is
    not an integer or is negative, no bounds, a bound that is not [low,
    high] of finite numbers with low < high, any other x0, or a first point
    (each bounded name at its low bound) that Protocol.params rejects raises
    ConfigError.  If no evaluation of a named protocol succeeds, the first
    one's error is raised; a callable objective that returns NaN or -inf at
    every point raises ValueError.
    """
    target = target if callable(protocol) else _level(protocol, target)
    if not _integer(budget):
        raise ConfigError(f"optimization budget must be an integer, not {_shown(budget)}")
    if budget < 10:
        raise ConfigError("optimization budget must be at least 10 evaluations")
    if not _integer(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, not {_shown(seed)}")
    names = sorted(bounds)
    if not names:
        raise ConfigError("no parameters to optimize")
    box = [list(map(_float, bound)) if isinstance(bound, (list, tuple, np.ndarray))
           else [] for bound in map(bounds.get, names)]
    for name, pair in zip(names, box):
        if len(pair) != 2 or not -math.inf < pair[0] < pair[1] < math.inf:
            raise ConfigError(f"bound {name!r} must be [low, high], two finite "
                              f"numbers with low < high, not {_shown(bounds[name])}")
    lows, highs = np.array(box).T
    if x0 is not None:
        start = [_float(x0.get(name)) for name in names]
        if set(x0) != set(names) or not all(map(math.isfinite, start)):
            raise ConfigError(f"x0 must map exactly the bounded names {names} to "
                              f"finite numbers, not {_shown(x0)}")

    failures = 0
    first_error = None
    if callable(protocol):
        evaluate_params = protocol
    else:
        if preset is None:
            raise ValueError("a preset is required for named protocols")
        base = dict(fixed or {})
        _check_first_point(protocol, preset, base, dict(zip(names, lows.tolist())))

        def evaluate_params(params: dict) -> float:
            nonlocal failures, first_error
            point = dict(base)
            point.update(params)
            try:
                p = _evaluate(preset, protocol, point, target,
                              _OPTIMIZER_STEP_CONTROL)["p"]
            except TweezersError as exc:
                failures += 1
                first_error = first_error or exc
                return 0.0
            return 0.0 if math.isnan(p) else p

    evaluations = 0
    best_value = -math.inf
    best_x = None
    history: list[float] = []

    def objective(z: np.ndarray) -> float:
        nonlocal evaluations, best_value, best_x
        x = lows + z * (highs - lows)
        params = {k: float(x[d]) for d, k in enumerate(names)}
        value = float(evaluate_params(params))
        evaluations += 1
        if value > best_value:
            best_value = value
            best_x = x.copy()
        history.append(best_value)
        return -value  # minimize

    dim = len(names)
    rng = np.random.default_rng(seed)
    if x0 is not None:
        z0 = (np.array(start) - lows) / (highs - lows)
        z0 = np.clip(z0, 0.0, 1.0)
    else:
        z0 = 0.5 + 0.2 * (rng.random(dim) - 0.5)

    # the initial simplex steps 0.25 along each axis, inwards at the far edge
    simplex = np.tile(z0, (dim + 1, 1))
    for d in range(dim):
        simplex[d + 1, d] += 0.25 if z0[d] + 0.25 <= 1.0 else -0.25
    converged = _nelder_mead(objective, simplex, budget, xatol=1e-4, fatol=1e-10)
    if failures == evaluations:
        raise first_error
    if best_x is None:
        raise ValueError(f"the objective returned NaN or -inf at all {evaluations} evaluations")
    params = {k: float(best_x[d]) for d, k in enumerate(names)}
    return OptimizeResult(
        params=params,
        probability=best_value,
        converged=converged,
        n_evaluations=evaluations,
        best_history=tuple(history),
    )

