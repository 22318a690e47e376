"""Time-dependent Schroedinger propagation of the truncated level system.

The integrator is a fixed-step fourth-order Magnus scheme (two-point
Gauss-Legendre quadrature with its commutator correction; Blanes, Casas,
Oteo & Ros, Phys. Rep. 470, 151 (2009)).  Each step is the exponential of
an anti-Hermitian generator, computed for a block of steps at once by
scaling and squaring a degree-12 Taylor polynomial, exact to double
precision, so the evolution is unitary to rounding regardless of step size
and a constant Hamiltonian is propagated exactly.  Matrices are held
component-major, (dim, dim, N), and multiplied by accumulating the rows of
the inner index, one array operation per term.  The steps between two
stored samples are multiplied into one matrix per sample (a pairwise
reduction).  These are scanned in groups of a fixed length: each group is
reduced to one matrix, which carries the state from group to group, and
the samples inside all groups are then reached at once, so no Python loop
runs once per step or once per stored sample.  Step size follows

    h = min(window / 1000,  2 pi / (50 * omega_max))

with omega_max the largest instantaneous spectral scale of H/hbar sampled
over the window (plus the drive strength), so fast detuning excursions are
resolved with ~50 steps per oscillation period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import IntegrationError
from .levels import LevelModel, hamiltonian_stack
from .pulses import PulseSchedule

__all__ = [
    "StepControl",
    "Trajectory",
    "propagate",
    "transfer_probability",
    "phase_convention",
    "trajectory_to_csv",
]

NORM_TOLERANCE = 1e-9
_GL_NODE_1 = 0.5 - math.sqrt(3.0) / 6.0
_GL_NODE_2 = 0.5 + math.sqrt(3.0) / 6.0
_BLOCK = 2048  # steps per vectorized block (bounds memory); a multiple of the group
_GROUP = 32  # steps per group of the sample scan, rounded down to whole strides
_THETA = 0.25  # 1-norm below which the Taylor polynomial is used unscaled
_CSV_ROWS = 1024  # trajectory rows formatted at a time
_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(13))


@dataclass(frozen=True)
class StepControl:
    """Step-selection and output-decimation knobs.

    points_per_period : steps per 2pi/omega_max oscillation (default 50)
    min_steps         : lower bound on step count (window/1000 rule)
    sample_cap        : maximum number of stored trajectory samples
    h_override        : fixed step size in seconds, bypassing the rule
    """

    points_per_period: int = 50
    min_steps: int = 1000
    sample_cap: int = 10_000
    h_override: float | None = None


@dataclass(frozen=True)
class Trajectory:
    """Propagated amplitudes on a decimated time grid.

    times has shape (S,), states (S, dim) complex, populations (S, dim).
    The last sample always coincides with the end of the window.  norm_drift
    is the largest |<psi|psi> - 1| over the stored samples.
    """

    times: np.ndarray
    states: np.ndarray
    populations: np.ndarray
    n_steps: int
    step: float
    norm_drift: float = 0.0

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _spectral_scale(model: LevelModel, schedule: PulseSchedule,
                    n_probe: int = 257) -> float:
    """Largest instantaneous eigenfrequency scale of H/hbar over the window."""
    ts = np.linspace(schedule.t_start, schedule.t_end, n_probe)
    deltas = np.asarray(schedule.detuning(ts), dtype=float)
    omegas = np.asarray(schedule.rabi(ts), dtype=float)
    if not (np.all(np.isfinite(deltas)) and np.all(np.isfinite(omegas))):
        raise ValueError("schedule is not finite on its window")
    h_stack = hamiltonian_stack(model, deltas, omegas)
    eigs = np.linalg.eigvalsh(h_stack)
    scale = float(np.max(np.abs(eigs))) / model.hbar
    return max(scale, float(np.max(np.abs(omegas))))


def _choose_step(model: LevelModel, schedule: PulseSchedule,
                 control: StepControl) -> tuple[float, int]:
    window = schedule.duration
    if control.h_override is not None:
        if not control.h_override > 0:
            raise ValueError("h_override must be positive")
        n = max(1, math.ceil(window / control.h_override))
        return window / n, n
    omega_max = _spectral_scale(model, schedule)
    h = window / control.min_steps
    if omega_max > 0:
        h = min(h, 2.0 * math.pi / (control.points_per_period * omega_max))
    n = max(control.min_steps, math.ceil(window / h))
    return window / n, n


def _component_major(stack: np.ndarray) -> np.ndarray:
    """(N, dim, dim) matrices as a contiguous (dim, dim, N) array."""
    return np.ascontiguousarray(stack.transpose(1, 2, 0))


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix products of component-major stacks, (dim, dim, ...) each.

    The sum over the inner index runs in a fixed order for every matrix, so
    a product does not depend on its neighbours in the stack.
    """
    out = a[:, 0, None] * b[None, 0]
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[None, k]
    return out


def _expm(x: np.ndarray) -> np.ndarray:
    """exp(x) for each matrix of a component-major (dim, dim, N) stack.

    Scaling and squaring of a degree-12 Taylor polynomial (Moler & Van Loan,
    SIAM Rev. 45, 3 (2003)).  Each matrix is scaled by its own power of two
    so that its 1-norm is at most 0.25, where the truncation error is about
    3e-18, so a matrix's result does not depend on the others in the stack.
    The polynomial is evaluated in Paterson-Stockmeyer form, in five products:
    exp(x) ~ B0 + x^4 (B1 + x^4 (B2 + x^4 / 12!)), B_j = sum_k<4 x^k / (4j+k)!.
    """
    norm = np.abs(x).sum(axis=0).max(axis=0)
    squarings = np.maximum(0, np.frexp(norm / _THETA)[1])
    if squarings.any():
        x = x * np.ldexp(1.0, -squarings)
    x2 = _mul(x, x)
    x3 = _mul(x2, x)
    x4 = _mul(x2, x2)
    diagonal = np.arange(x.shape[0])

    def add_block(j: int, u: np.ndarray) -> np.ndarray:
        c = _TAYLOR[4 * j:4 * j + 4]
        u += c[1] * x
        u += c[2] * x2
        u += c[3] * x3
        u[diagonal, diagonal] += c[0]
        return u

    u = add_block(2, _TAYLOR[12] * x4)
    u = add_block(1, _mul(x4, u))
    u = add_block(0, _mul(x4, u))
    for level in range(int(squarings.max())):
        pick = squarings > level
        u[..., pick] = _mul(u[..., pick], u[..., pick])
    return u


def _pad(stack: np.ndarray, width: int) -> np.ndarray:
    """A (dim, dim, ..., n) stack with exact identities appended up to n = width."""
    missing = width - stack.shape[-1]
    if not missing:
        return stack
    dim = stack.shape[0]
    eye = np.eye(dim).reshape((dim, dim) + (1,) * (stack.ndim - 2))
    return np.concatenate(
        [stack, np.broadcast_to(eye, stack.shape[:-1] + (missing,))], axis=-1)


def _split(stack: np.ndarray, length: int) -> np.ndarray:
    """(dim, dim, N) matrices as (dim, dim, ceil(N / length), length) runs."""
    dim, _, count = stack.shape
    runs = -(-count // length)
    return _pad(stack, runs * length).reshape(dim, dim, runs, length)


def _reduce(runs: np.ndarray) -> np.ndarray:
    """Product of each run of a (dim, dim, n, length) stack, later factors left.

    A pairwise reduction, with identities padding odd levels, so a run is
    multiplied the same way wherever it sits; the result is (dim, dim, n).
    """
    while runs.shape[-1] > 1:
        runs = _pad(runs, runs.shape[-1] + runs.shape[-1] % 2)
        runs = _mul(runs[..., 1::2], runs[..., 0::2])
    return runs[..., 0]


def _scan(runs: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """States after each run of a (dim, dim, groups, length) stack, from psi.

    Each group is reduced to one matrix, which carries psi from the start of
    its group to the next; then the runs inside all groups are applied at
    once, one position in the group at a time (Blelloch, CMU-CS-90-190).  A
    group's last state is the carried one.  Returns (groups * length, dim).
    """
    dim, _, groups, length = runs.shape
    ends = np.ascontiguousarray(_reduce(runs).transpose(2, 0, 1))
    states = np.empty((groups, length, dim), dtype=complex)
    carried = psi
    for g, end in enumerate(ends):
        carried = states[g, -1] = end @ carried
    # each group's start, (dim, groups), advanced through the group's runs
    psi = np.concatenate([psi[:, None], states[:-1, -1].T], axis=1)
    inside = np.ascontiguousarray(runs[..., :-1].transpose(3, 0, 1, 2))
    for j, run in enumerate(inside):
        psi = (run * psi).sum(axis=1)
        states[:, j] = psi.T
    return states.reshape(groups * length, dim)


def _generator(model: LevelModel, schedule: PulseSchedule, times: np.ndarray,
               h: float) -> np.ndarray:
    """-i Omega for the steps starting at `times`, component-major.

    Omega = h (H1 + H2) / 2 hbar - i sqrt(3) h^2 [H2, H1] / 12 hbar^2, with H1
    and H2 at the two Gauss-Legendre nodes of each step.  H2 H1 is the
    transpose of H1 H2, as both are real symmetric.
    """
    hbar = model.hbar
    t1 = times + _GL_NODE_1 * h
    t2 = times + _GL_NODE_2 * h
    h1 = _component_major(hamiltonian_stack(model, schedule.detuning(t1),
                                            schedule.rabi(t1)))
    h2 = _component_major(hamiltonian_stack(model, schedule.detuning(t2),
                                            schedule.rabi(t2)))
    product = _mul(h1, h2)
    generator = np.empty(h1.shape, dtype=complex)
    generator.real = (math.sqrt(3.0) * h * h / (12.0 * hbar * hbar)) * (
        product - product.transpose(1, 0, 2))
    generator.imag = -(h / (2.0 * hbar)) * (h1 + h2)
    return generator


def propagate(model: LevelModel, schedule: PulseSchedule,
              initial_state: np.ndarray | None = None,
              step_control: StepControl | None = None) -> Trajectory:
    """Solve i hbar dpsi/dt = H(t) psi over the schedule window.

    The initial state defaults to |0> (everything in the reservoir) and
    must be normalized.  Raises IntegrationError if the state leaves the
    unit sphere by more than 1e-9 or becomes non-finite.
    """
    control = step_control or StepControl()
    dim = model.dim
    if initial_state is None:
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
    else:
        psi = np.asarray(initial_state, dtype=complex).copy()
        if psi.shape != (dim,):
            raise ValueError(f"initial state must have shape ({dim},)")
        norm = float(np.linalg.norm(psi))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"initial state norm {norm} is not 1")

    h, n_steps = _choose_step(model, schedule, control)
    stride = max(1, math.ceil((n_steps + 1) / control.sample_cap))
    runs_per_group = max(1, _GROUP // stride)
    group = runs_per_group * stride
    block = max(group, _BLOCK // group * group)
    sample_steps = np.append(np.arange(0, n_steps, stride), n_steps)
    states = np.empty((sample_steps.size, dim), dtype=complex)
    states[0] = psi

    t0 = schedule.t_start
    sample = 1
    for start in range(0, n_steps, block):
        times = t0 + (start + np.arange(min(block, n_steps - start))) * h
        # the block's Hamiltonians are freed before the exponential runs
        runs = _reduce(_split(_expm(_generator(model, schedule, times, h)), stride))
        count = runs.shape[-1]
        states[sample:sample + count] = _scan(_split(runs, runs_per_group),
                                              psi)[:count]
        sample += count
        psi = states[sample - 1]

    if not np.all(np.isfinite(states)):
        raise IntegrationError(
            f"propagation produced non-finite amplitudes (steps={n_steps}, h={h:.3e})")
    norms = np.linalg.norm(states, axis=1)
    drift = float(np.max(np.abs(norms**2 - 1.0)))
    if drift > NORM_TOLERANCE:
        raise IntegrationError(
            f"norm drift {drift:.3e} exceeds {NORM_TOLERANCE:.0e} "
            f"(steps={n_steps}, h={h:.3e})")
    return Trajectory(
        times=t0 + sample_steps * h,
        states=states,
        populations=np.abs(states) ** 2,
        n_steps=n_steps,
        step=h,
        norm_drift=drift,
    )


def transfer_probability(trajectory: Trajectory, n: int) -> float:
    """Population of level |n> at the end of the window, in [0, 1]."""
    if not 0 <= n < trajectory.dim:
        raise ValueError(f"level index {n} outside 0..{trajectory.dim - 1}")
    return float(trajectory.populations[-1, n])


def phase_convention(trajectory: Trajectory) -> Trajectory:
    """Fix the global phase so Re(c_0) >= 0 and Im(c_0) = 0 at every sample.

    Populations are unchanged; samples with c_0 = 0 are left as they are.
    Idempotent.
    """
    states = trajectory.states.copy()
    c0 = states[:, 0]
    mag = np.abs(c0)
    # samples already in the convention are left untouched, which makes the
    # operation exactly idempotent despite last-ulp rounding in abs/divide
    rotate = (mag > 0.0) & ((c0.imag != 0.0) | (c0.real < 0.0))
    phase = np.ones_like(c0)
    phase[rotate] = np.conj(c0[rotate]) / mag[rotate]
    states = states * phase[:, None]
    states[rotate, 0] = mag[rotate]
    return Trajectory(
        times=trajectory.times,
        states=states,
        populations=trajectory.populations.copy(),
        n_steps=trajectory.n_steps,
        step=trajectory.step,
        norm_drift=trajectory.norm_drift,
    )


def trajectory_to_csv(trajectory: Trajectory) -> str:
    """Render the trajectory as CSV text with a mandatory header.

    Columns: time_s, p0..p{d-1}, then re_c{n}, im_c{n} for each level.
    Floats are written with shortest round-trip formatting, so identical
    trajectories serialize to identical bytes.  Rows are formatted a column
    at a time, in chunks of _CSV_ROWS rows.
    """
    dim = trajectory.dim
    header = (["time_s"] + [f"p{n}" for n in range(dim)]
              + [item for n in range(dim) for item in (f"re_c{n}", f"im_c{n}")])
    parts = [",".join(header)]
    for start in range(0, trajectory.times.size, _CSV_ROWS):
        rows = slice(start, start + _CSV_ROWS)
        states = np.ascontiguousarray(trajectory.states[rows], dtype=complex)
        columns = [np.asarray(trajectory.times[rows], dtype=float),
                   *np.asarray(trajectory.populations[rows], dtype=float).T,
                   *states.view(float).T]  # re_c0, im_c0, re_c1, ...
        text = zip(*(map(repr, column.tolist()) for column in columns))
        parts.append("\n".join(map(",".join, text)))
    return "\n".join(parts) + "\n"
