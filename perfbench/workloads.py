"""The benchmark's workloads: seeded inputs, one timed pass, and the oracle.

Every workload drives the package only through its public API or its CLI,
in one process with BLAS threads at 1.  A pass returns the wall time of the
workload's main call, the time to its answer and the outputs a user would
read; the outputs of all passes of one run must be identical.

Accuracy oracle: each transfer probability is compared with a reference
propagation of the same schedule at a quarter of the step that the package's
step rule chose when this benchmark was defined (50 points per period of the
largest eigenfrequency, at least 1000 steps; ``reference_step``).  The rule
is fixed here so that later step-selection changes are judged against the
same reference.  An operation fails if its probability is NaN, differs from
the reference by more than ``TOLERANCE``, its CLI command exits non-zero, or
(optimizer) it does not reach ``TARGET_P`` within the budget.

Each workload names in ``LAYERS`` the spans (see tracer.py) that a traced
pass must contain, besides one ``propagator.propagate`` per probability it
produced; a traced run that misses one is not correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import quantum_tweezers.cli as cli
import quantum_tweezers.experiments as experiments
from quantum_tweezers import (
    StepControl,
    build_level_model,
    build_scrap_schedule,
    derive_all,
    get_preset,
    propagate,
)
from quantum_tweezers.levels import hamiltonian_stack

TOLERANCE = 1e-10   # ROADMAP accuracy bar for final populations
TARGET_P = 0.99999  # optimizer target: time to a solution of this accuracy

# criterion-6 plane of the fig4 single-atom chirp, at 13 x 13
CONTOUR_OMEGA = (1e3, 2.9e4, 13)
CONTOUR_T = (2.5e-4, 3.25e-3, 13)
# criterion-3 ramp rates (rad/s^2), log spaced
RAMP_RATES = (3e5, 2.69e6, 30)
OPT_BOUNDS = {"omega_hat_rad_s": (1e3, 2.9e4), "t_omega_s": (2.5e-4, 3.25e-3)}
OPT_BUDGET = 80
# starts: the corners of the poor corner (omega_hat 2e3-6e3 rad/s, t_omega
# 0.25-0.6 ms) and the midpoint of its low-omega edge.  Some interior starts,
# such as (4e3, 4.25e-4), converge to a local optimum at P = 0.99994 instead.
OPT_PANEL = ((2e3, 2.5e-4), (2e3, 4.25e-4), (2e3, 6e-4), (6e3, 2.5e-4), (6e3, 6e-4))


# --- seeded inputs -------------------------------------------------------------

def contour_axes(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seed 0 is the exact plane; other seeds shift each axis by up to 1/8 cell."""
    shift = np.zeros(2)
    if seed:
        shift = np.random.default_rng(seed).uniform(-0.125, 0.125, 2)
    axes = []
    for (lo, hi, n), u in zip((CONTOUR_OMEGA, CONTOUR_T), shift):
        offset = u * (hi - lo) / (n - 1)
        axes.append(np.linspace(lo + offset, hi + offset, n))
    return axes[0], axes[1]


def ramp_range(seed: int) -> tuple[float, float]:
    """Seed 0 is the exact rate range; other seeds scale each end by 0.98-1.02."""
    lo, hi, _ = RAMP_RATES
    if not seed:
        return lo, hi
    f_lo, f_hi = np.random.default_rng(seed).uniform(0.98, 1.02, 2)
    return float(lo * f_lo), float(hi * f_hi)


def optimizer_starts(seed: int) -> list[dict]:
    """The start panel; other seeds than 0 move each coordinate by up to 0.1%.

    Nelder-Mead's path, and so the evaluations it needs, changes with its
    start: at 1% some starts already need 10-30% more evaluations.  The panel
    stays put so that the spread between seeds measures the program, not how
    hard a random draw of starts happens to be.
    """
    jitter = np.zeros((len(OPT_PANEL), 2))
    if seed:
        jitter = np.random.default_rng(seed).uniform(-1e-3, 1e-3, jitter.shape)
    return [{"omega_hat_rad_s": float(o * (1 + a)), "t_omega_s": float(t * (1 + b))}
            for (o, t), (a, b) in zip(OPT_PANEL, jitter)]


# --- reference -------------------------------------------------------------------

def reference_step(model, schedule) -> float:
    """Step of the package's original rule: 50 points per period, >= 1000 steps."""
    window = schedule.duration
    ts = np.linspace(schedule.t_start, schedule.t_end, 257)
    omegas = np.asarray(schedule.rabi(ts), dtype=float)
    stack = hamiltonian_stack(model, np.asarray(schedule.detuning(ts), dtype=float), omegas)
    omega_max = max(float(np.max(np.abs(np.linalg.eigvalsh(stack)))) / model.hbar,
                    float(np.max(np.abs(omegas))))
    h = window / 1000
    if omega_max > 0:
        h = min(h, 2.0 * math.pi / (50 * omega_max))
    return window / max(1000, math.ceil(window / h))


def reference_populations(model, schedules: list, cache_dir: Path) -> np.ndarray:
    """Final populations at a quarter of the reference step, cached on disk."""
    key = hashlib.sha256(repr((model, schedules)).encode()).hexdigest()[:32]
    path = cache_dir / f"ref-{key}.json"
    if path.exists():
        return np.array(json.loads(path.read_text()))
    finals = []
    for schedule in schedules:
        control = StepControl(h_override=reference_step(model, schedule) / 4, sample_cap=2)
        finals.append(propagate(model, schedule, step_control=control).populations[-1])
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(np.asarray(finals).tolist()))
    os.replace(tmp, path)
    return np.asarray(finals)


def model_for(preset):
    return build_level_model(derive_all(preset.system), n_max=2)


def scrap_schedule(preset, model, omega_hat: float, t_omega: float):
    cfg = preset.scrap
    return build_scrap_schedule(omega_hat, t_omega, cfg.delta_hat, cfg.t_delta(t_omega),
                                cfg.tau(t_omega), 0.0, model.derived.e1, hbar=model.hbar)


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


@dataclass
class Pass:
    """One pass, as lists over its independently timed units (optimizer starts).

    A unit is (start, end of the main call, answer ready) in perf_counter
    seconds: the main call is the sweep or one optimizer start, and the
    answer is the workload's result as a user reads it.
    """

    units: list[tuple[float, float, float]]
    points: list[int]       # transfer probabilities each main call produced
    outputs: dict           # what a user reads; identical across passes of a run


@dataclass
class Check:
    attempted: int
    failed: int
    max_dp: float           # largest |P - P_ref| over the checked probabilities
    over_tol: int           # probabilities further than TOLERANCE from the reference


def compare(program: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Per-operation failure mask (NaN or off the reference) and its summary."""
    program = np.asarray(program, dtype=float)
    dp = np.abs(program - reference)
    off = dp > TOLERANCE
    bad = np.isnan(program) | off
    if bad.ndim > 1:
        bad = bad.any(axis=1)
        off = off.any(axis=1)
    finite = dp[np.isfinite(dp)]
    return bad, float(finite.max()) if finite.size else math.nan, int(np.sum(off))


# --- workloads -------------------------------------------------------------------

class ChirpContour:
    """scrap_contour on the fig4 single-atom chirp, 13 x 13 over the plane."""

    PRESET = "fig4"
    ALIASES: dict = {}
    LAYERS = ("experiments.scrap_contour", "experiments.to_csv_text")

    def __init__(self, seed: int, workdir: Path):
        self.preset = get_preset(self.PRESET)
        self.omega_hats, self.t_omegas = contour_axes(seed)

    def prepare(self) -> None:
        """Nothing to do: the median over passes discounts a cold first pass."""

    def run_pass(self) -> Pass:
        started = time.perf_counter()
        result = experiments.scrap_contour(self.preset, self.omega_hats, self.t_omegas)
        swept = time.perf_counter()
        csv_text = result.to_csv_text()
        done = time.perf_counter()
        return Pass(units=[(started, swept, done)], points=[int(result.p.size)],
                    outputs={"p": result.p.reshape(-1).tolist(),
                             "csv_sha256": {"sweep.csv": sha256(csv_text)}})

    def check(self, outputs: dict, cache_dir: Path) -> Check:
        model = model_for(self.preset)
        schedules = [scrap_schedule(self.preset, model, o, t)
                     for o in self.omega_hats for t in self.t_omegas]
        ref = reference_populations(model, schedules, cache_dir)[:, 1]
        bad, max_dp, over = compare(outputs["p"], ref)
        return Check(len(schedules), int(bad.sum()), max_dp, over)


class RampCli:
    """qtweezers sweep over 30 ramp rates, then a dense propagate at the slowest."""

    PRESET = "fig3a"
    ALIASES = {"cli_wall_s": "time_to_target_s"}
    LAYERS = ("cli.main", "config.load_config", "experiments.run_sweep",
              "experiments.to_csv_text", "propagator.trajectory_to_csv")

    def __init__(self, seed: int, workdir: Path):
        self.preset = get_preset(self.PRESET)
        self.lo, self.hi = ramp_range(seed)
        self.out = workdir / "out"
        self.sweep_cfg = workdir / "sweep.json"
        self.propagate_cfg = workdir / "propagate.json"
        axis = {"name": "ramp_rate_rad_s2", "min": self.lo, "max": self.hi,
                "points": RAMP_RATES[2], "scale": "log"}
        self.sweep_cfg.write_text(json.dumps(
            {"preset": self.PRESET, "sweep": {"protocol": "ramp", "axes": [axis]}}))
        self.propagate_cfg.write_text(json.dumps(
            {"preset": self.PRESET, "protocol": {"type": "ramp", "ramp_rate_rad_s2": self.lo}}))

    def prepare(self) -> None:
        """Nothing to do: the median over passes discounts a cold first pass."""

    def run_pass(self) -> Pass:
        out = str(self.out)
        with contextlib.redirect_stdout(io.StringIO()):
            started = time.perf_counter()
            sweep_code = cli.main(["sweep", "--config", str(self.sweep_cfg), "--out", out])
            swept = time.perf_counter()
            propagate_code = cli.main(["propagate", "--config", str(self.propagate_cfg),
                                       "--out", out])
            done = time.perf_counter()
        outputs = {"exit_codes": [sweep_code, propagate_code], "csv_sha256": {}}
        if sweep_code == 0:
            sweep_csv = (self.out / "sweep.csv").read_bytes()
            outputs["csv_sha256"]["sweep.csv"] = sha256(sweep_csv)
            rows = sweep_csv.decode().splitlines()
            column = rows[0].split(",").index("p_target")
            outputs["p"] = [float(r.split(",")[column] or "nan") for r in rows[1:]]
        if propagate_code == 0:
            outputs["csv_sha256"]["trajectory.csv"] = sha256(
                (self.out / "trajectory.csv").read_bytes())
            finals = json.loads((self.out / "final.json").read_text())
            outputs["finals"] = [finals[f"p{n}"] for n in range(3)]
        return Pass(units=[(started, swept, done)], points=[RAMP_RATES[2]],
                    outputs=outputs)

    def check(self, outputs: dict, cache_dir: Path) -> Check:
        model = model_for(self.preset)
        rates = np.geomspace(self.lo, self.hi, RAMP_RATES[2])
        schedules = [experiments.gated_ramp_schedule(model, self.preset.omega_l, float(r),
                                                     target=1, geometry=self.preset.ramp)
                     for r in rates]
        ref = reference_populations(model, schedules, cache_dir)
        attempted = len(schedules) + 1
        failed, max_dp, over = 0, math.nan, 0
        dps = []
        if "p" in outputs:
            bad, dp, n = compare(outputs["p"], ref[:, 1])
            failed += int(bad.sum())
            over += n
            dps.append(dp)
        else:
            failed += len(schedules)
        if "finals" in outputs:
            bad, dp, n = compare([outputs["finals"]], ref[:1])
            failed += int(bad.sum())
            over += n
            dps.append(dp)
        else:
            failed += 1
        if dps:
            max_dp = max(dps)
        return Check(attempted, failed, max_dp, over)


class ChirpOptimize:
    """optimize_pulse("scrap_1atom") over the plane, budget 80, from poor starts.

    ``prepare`` finds, for each start, the evaluation at which the best-so-far
    P first reaches TARGET_P within the budget.  A timed pass runs each start
    with that many evaluations as its budget.  The search replays the same
    evaluations whatever the budget, so it stops at the target and its wall
    is the time to the target.
    """

    PRESET = "fig4"
    ALIASES = {"evals_per_s": "points_per_s"}
    LAYERS = ("experiments.optimize_pulse",)

    def __init__(self, seed: int, workdir: Path):
        self.preset = get_preset(self.PRESET)
        self.starts = optimizer_starts(seed)
        self.budgets: list[int] = []

    def _optimize(self, x0: dict, budget: int):
        return experiments.optimize_pulse("scrap_1atom", OPT_BOUNDS, budget,
                                          preset=self.preset, x0=x0)

    def prepare(self) -> None:
        self.budgets = []
        for x0 in self.starts:
            history = self._optimize(x0, OPT_BUDGET).best_history
            reached = [i for i, p in enumerate(history) if p >= TARGET_P]
            self.budgets.append(max(10, reached[0] + 1) if reached else OPT_BUDGET)

    def evals_to_target(self) -> int:
        return int(sum(self.budgets))

    def run_pass(self) -> Pass:
        units, answers, evaluations = [], [], []
        for x0, budget in zip(self.starts, self.budgets):
            started = time.perf_counter()
            result = self._optimize(x0, budget)
            done = time.perf_counter()
            units.append((started, done, done))
            answers.append({"p": result.probability, "params": result.params,
                            "history": list(result.best_history)})
            evaluations.append(result.n_evaluations)
        return Pass(units=units, points=evaluations, outputs={"answers": answers})

    def check(self, outputs: dict, cache_dir: Path) -> Check:
        answers = outputs["answers"]
        model = model_for(self.preset)
        schedules = [scrap_schedule(self.preset, model, a["params"]["omega_hat_rad_s"],
                                    a["params"]["t_omega_s"]) for a in answers]
        ref = reference_populations(model, schedules, cache_dir)[:, 1]
        bad, max_dp, over = compare([a["p"] for a in answers], ref)
        missed = np.array([a["p"] < TARGET_P for a in answers])
        return Check(len(answers), int(np.sum(bad | missed)), max_dp, over)


WORKLOADS = {"chirp_contour": ChirpContour, "ramp_cli": RampCli,
             "chirp_optimize": ChirpOptimize}
