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
runs once per step or once per stored sample.  Every block-sized array of
the kernel is a view of a per-thread workspace (seven flat arrays, about
2.2 MB for three levels), lent and given back stage by stage and kept
between calls, so a warm propagation allocates no block-sized memory and
takes no page faults for it.  The arithmetic is the same whichever memory
holds it, so the results do not depend on the workspace or the block size.
Step size follows

    h = min(window / _MIN_STEPS,  2 pi / (_POINTS_PER_PERIOD * omega_max))

with _MIN_STEPS = 1000, _POINTS_PER_PERIOD = 50 and omega_max the largest
instantaneous spectral scale of H/hbar at _N_PROBE = 257 times across the
window (plus the drive strength), so fast detuning excursions are resolved
with ~50 steps per oscillation period.  A schedule that is not finite at
those times raises IntegrationError.
"""

from __future__ import annotations

import math
import threading
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
_POINTS_PER_PERIOD = 50  # steps per 2 pi / omega_max oscillation
_MIN_STEPS = 1000  # lower bound on the step count
_N_PROBE = 257  # window samples that estimate omega_max


@dataclass(frozen=True)
class StepControl:
    """Output decimation and an optional fixed step.

    sample_cap : maximum number of stored trajectory samples
    h_override : fixed step size in seconds, bypassing the step rule
    """

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


def _spectral_scale(model: LevelModel, schedule: PulseSchedule) -> float:
    """Largest instantaneous eigenfrequency scale of H/hbar over the window."""
    ts = np.linspace(schedule.t_start, schedule.t_end, _N_PROBE)
    # the check below reports an envelope that overflows on the window, so
    # numpy's warning is silenced, here once per propagation: an errstate on
    # every envelope call made envelope evaluation about 40% slower
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = np.asarray(schedule.detuning(ts), dtype=float)
        omegas = np.asarray(schedule.rabi(ts), dtype=float)
    if not (np.all(np.isfinite(deltas)) and np.all(np.isfinite(omegas))):
        raise IntegrationError("schedule is not finite on its window")
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
    h = window / _MIN_STEPS
    if omega_max > 0:
        h = min(h, 2.0 * math.pi / (_POINTS_PER_PERIOD * omega_max))
    n = max(_MIN_STEPS, math.ceil(window / h))
    return window / n, n


class _Workspace(threading.local):
    """Scratch arrays of the block kernel, one set per thread, kept for reuse.

    take() lends a contiguous view at the start of a free flat array (the
    one given back last, so the one most likely still in cache) and replaces
    that array if it is too small; give() takes views back.  Only views that
    take() lent are given back, each once.  An array lost to an exception is
    freed with its views.  Nothing propagate returns is a view of these
    arrays.
    """

    def __init__(self):
        self.free: list[np.ndarray] = []  # flat complex arrays

    def take(self, shape: tuple, dtype=complex) -> np.ndarray:
        free = self.free
        flat = free.pop() if free else _NO_MEMORY
        try:
            return np.ndarray(shape, dtype, flat)
        except TypeError:  # the flat array is too small
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            return np.ndarray(shape, dtype, np.empty(-(-nbytes // 16), dtype=complex))

    def give(self, *views: np.ndarray) -> None:
        free = self.free
        for view in views:
            free.append(view.base)


_NO_MEMORY = np.empty(0, dtype=complex)
_WORK = _Workspace()


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix products of component-major stacks, (dim, dim, ...) each.

    The sum over the inner index runs in a fixed order for every matrix, so
    a product does not depend on its neighbours in the stack.  The result is
    a workspace array.
    """
    out = _WORK.take(a.shape[:1] + b.shape[1:], np.result_type(a, b))
    term = _WORK.take(out.shape, out.dtype)
    np.multiply(a[:, 0, None], b[None, 0], out=out)
    for k in range(1, a.shape[1]):
        out += np.multiply(a[:, k, None], b[None, k], out=term)
    _WORK.give(term)
    return out


def _expm(x: np.ndarray) -> np.ndarray:
    """exp(x) for each matrix of a component-major (dim, dim, N) stack.

    Scaling and squaring of a degree-12 Taylor polynomial (Moler & Van Loan,
    SIAM Rev. 45, 3 (2003)).  Each matrix is scaled by its own power of two
    so that its 1-norm is at most 0.25, where the truncation error is about
    3e-18, so a matrix's result does not depend on the others in the stack.
    The polynomial is evaluated in Paterson-Stockmeyer form, in five products:
    exp(x) ~ B0 + x^4 (B1 + x^4 (B2 + x^4 / 12!)), B_j = sum_k<4 x^k / (4j+k)!.
    x is scaled in place; the result is a workspace array.
    """
    magnitude = np.abs(x, out=_WORK.take(x.shape, float))
    norm = magnitude.sum(axis=0).max(axis=0)
    _WORK.give(magnitude)
    squarings = np.maximum(0, np.frexp(norm / _THETA)[1])
    if squarings.any():
        np.multiply(x, np.ldexp(1.0, -squarings), out=x)
    x2 = _mul(x, x)
    x3 = _mul(x2, x)
    x4 = _mul(x2, x2)

    def add_block(j: int, u: np.ndarray) -> np.ndarray:
        c = _TAYLOR[4 * j:4 * j + 4]
        term = _WORK.take(u.shape)
        u += np.multiply(c[1], x, out=term)
        u += np.multiply(c[2], x2, out=term)
        u += np.multiply(c[3], x3, out=term)
        _WORK.give(term)
        for k in range(u.shape[0]):
            u[k, k] += c[0]
        return u

    u = add_block(2, np.multiply(_TAYLOR[12], x4, out=_WORK.take(x.shape)))
    for j in (1, 0):
        product = _mul(x4, u)
        _WORK.give(u)
        u = add_block(j, product)
    _WORK.give(x2, x3, x4)
    for level in range(int(squarings.max())):
        pick = squarings > level
        part = np.compress(pick, u, axis=2,
                           out=_WORK.take(u.shape[:2] + (int(pick.sum()),)))
        square = _mul(part, part)
        u[..., pick] = square
        _WORK.give(part, square)
    return u


def _pad(stack: np.ndarray, width: int) -> np.ndarray:
    """A (dim, dim, ..., n) workspace stack with identities appended up to n = width.

    Returns stack itself if it is wide enough; otherwise a padded copy, and
    stack is given back.
    """
    count = stack.shape[-1]
    if count == width:
        return stack
    padded = _WORK.take(stack.shape[:-1] + (width,))
    padded[..., :count] = stack
    dim = stack.shape[0]
    padded[..., count:] = np.eye(dim).reshape((dim, dim) + (1,) * (stack.ndim - 2))
    _WORK.give(stack)
    return padded


def _split(stack: np.ndarray, length: int) -> np.ndarray:
    """(dim, dim, N) matrices as (dim, dim, ceil(N / length), length) runs."""
    dim, _, count = stack.shape
    runs = -(-count // length)
    return _pad(stack, runs * length).reshape(dim, dim, runs, length)


def _reduce(runs: np.ndarray) -> np.ndarray:
    """Product of each run of a (dim, dim, n, length) stack, later factors left.

    A pairwise reduction, with identities padding odd levels, so a run is
    multiplied the same way wherever it sits; the result is (dim, dim, n).
    Each level is a new workspace array, and the one before it is given back.
    """
    while runs.shape[-1] > 1:
        runs = _pad(runs, runs.shape[-1] + runs.shape[-1] % 2)
        pairs = _mul(runs[..., 1::2], runs[..., 0::2])
        _WORK.give(runs)
        runs = pairs
    return runs[..., 0]


def _scan(runs: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """States after each run of a (dim, dim, groups, length) stack, from psi.

    Each group is reduced to one matrix, which carries psi from the start of
    its group to the next; then the runs inside all groups are applied at
    once, one position in the group at a time (Blelloch, CMU-CS-90-190).  A
    group's last state is the carried one.  Returns (groups * length, dim), a
    workspace array; runs is given back.
    """
    dim, _, groups, length = runs.shape
    # copied before _reduce, which gives runs back
    inside = _WORK.take((length - 1, dim, dim, groups))
    np.copyto(inside, runs[..., :-1].transpose(3, 0, 1, 2))
    reduced = _reduce(runs)
    ends = np.ascontiguousarray(reduced.transpose(2, 0, 1))
    _WORK.give(reduced)
    states = _WORK.take((groups, length, dim))
    carried = psi
    for g, end in enumerate(ends):
        carried = states[g, -1] = end @ carried
    # each group's start, (dim, groups), advanced through the group's runs
    psi = np.concatenate([psi[:, None], states[:-1, -1].T], axis=1)
    for j, run in enumerate(inside):
        psi = (run * psi).sum(axis=1)
        states[:, j] = psi.T
    _WORK.give(inside)
    return states.reshape(groups * length, dim)


def _hamiltonians(model: LevelModel, schedule: PulseSchedule,
                  times: np.ndarray) -> np.ndarray:
    """H at `times` as a component-major (dim, dim, N) workspace array."""
    stack = hamiltonian_stack(model, schedule.detuning(times), schedule.rabi(times))
    out = _WORK.take(stack.shape[1:] + stack.shape[:1], float)
    np.copyto(out, stack.transpose(1, 2, 0))
    return out


def _generator(model: LevelModel, schedule: PulseSchedule, times: np.ndarray,
               h: float) -> np.ndarray:
    """-i Omega for the steps starting at `times`, a component-major workspace array.

    Omega = h (H1 + H2) / 2 hbar - i sqrt(3) h^2 [H2, H1] / 12 hbar^2, with H1
    and H2 at the two Gauss-Legendre nodes of each step.  H2 H1 is the
    transpose of H1 H2, as both are real symmetric.
    """
    hbar = model.hbar
    h1 = _hamiltonians(model, schedule, times + _GL_NODE_1 * h)
    h2 = _hamiltonians(model, schedule, times + _GL_NODE_2 * h)
    product = _mul(h1, h2)
    generator = _WORK.take(h1.shape)
    np.multiply(-(h / (2.0 * hbar)), np.add(h1, h2, out=h1), out=generator.imag)
    np.multiply(math.sqrt(3.0) * h * h / (12.0 * hbar * hbar),
                np.subtract(product, product.transpose(1, 0, 2), out=h2),
                out=generator.real)
    _WORK.give(h1, h2, product)
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
        generator = _generator(model, schedule, times, h)
        steps = _expm(generator)
        _WORK.give(generator)
        runs = _reduce(_split(steps, stride))
        count = runs.shape[-1]
        scanned = _scan(_split(runs, runs_per_group), psi)
        states[sample:sample + count] = scanned[:count]
        _WORK.give(scanned)
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
