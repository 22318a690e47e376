"""Time-dependent Schroedinger propagation of the truncated level system.

The integrator is a fixed-step Magnus scheme of order 4 or 6, chosen by
StepControl.order (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).
The fourth order, the default, samples H at two Gauss-Legendre nodes per
step and adds one commutator; the sixth samples three nodes and nests its
commutators, in three real and one complex 3x3 product per step.  Sweeps,
the optimizer and the CLI's propagate use the sixth order; the default
StepControl() the fourth.

Each step is the exponential of an anti-Hermitian generator, computed for a
block of steps at once by scaling and squaring a degree-12 Taylor
polynomial, exact to double precision, so the evolution is unitary to
rounding regardless of step size and a constant Hamiltonian is propagated
exactly.  Matrices are held component-major, (dim, dim, N), and multiplied
by accumulating the rows of the inner index, one array operation per term.
The steps between two stored samples are multiplied into one matrix per
sample (a pairwise reduction).  These are scanned in groups of a fixed
length: each group is reduced to one matrix, which carries the state from
group to group, and the samples inside all groups are then reached at once,
so no Python loop runs once per step or once per stored sample.  Every
block-sized array of the kernel is a view of a per-thread workspace (seven
flat arrays, about 2.2 MB for three levels at the fourth order), lent and
given back stage by stage and kept between calls, so a warm propagation
allocates no block-sized memory and takes no page faults for it.  The
arithmetic is the same whichever memory holds it, so the results do not
depend on the workspace or the block size.

A final state alone (sample_cap = 2) is computed without the scan: the steps
of one or several uniform grids over the window share each block, every
grid's steps are multiplied into one matrix by the same pairwise tree
whatever the block size or the other grids (_finals), and that matrix is
applied to the start state.

The fourth order takes its step from the spectral rule

    h = min(window / min_steps,  2 pi / (points_per_period * omega_max))

with omega_max the largest instantaneous spectral scale of H/hbar at
_N_PROBE = 257 times across the window (plus the drive strength), 50
points per period and at least 1000 steps; a schedule that is not finite
at the probe times raises IntegrationError, and so does a step, of the rule,
of h_override or of a grid of the estimate below, that rounds to 0 or needs
more than 2^24 steps (_MAX_STEPS).  The sixth order takes its step
count from an error estimate: grids of 64, 128, 256 and 512 steps run in
one _finals call, and 256 is accepted when its final populations differ
from the 128-step grid's by at most 63 x 1e-11, which bounds its own error
by about 1e-11 (step doubling: at the sixth order, halving the step divides
the error by 64; Hairer, Norsett & Wanner, Solving ODEs I, II.4).  The
64-step grid checks that fall: where the changes fall by less than 64, the
divisor is the ratio seen, less one.  Otherwise 512 is tested the same way,
from the same call, and past it each grid of twice the steps runs in a call
of its own; past 2^24 steps the run raises IntegrationError.  A sampled
sixth-order trajectory re-runs the accepted count, and the grid of half
of it, at the same sample times: where the populations inside the window
are not within about 1e-10 by the same step-doubling estimate, the grid and
the stride between samples double until they are (_dense).  The final
states of a call are checked at once for non-finite amplitudes, and the
finest grid's for norm drift too (a coarser pilot grid may leave the unit
sphere where the finest does not); only when one fails are they checked
grid by grid, to name the first that fails.  When a call of the estimate
fails, the schedule is probed as the spectral rule probes it, so a
schedule that is not finite on its window is named first, as it is there.
StepControl.spectral keeps the sixth order on the spectral rule instead,
at 20 points per period and no floor; the optimizer runs that way (see
experiments).

The CSV writer of trajectories, _csv_text, also writes the sweep CSVs of
experiments.SweepResult.
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
_GL2_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_GL3_NODES = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
_BLOCK = 2048  # steps per vectorized block (bounds memory); a multiple of the group
_GROUP = 32  # steps per group of the sample scan, rounded down to whole strides
_THETA = 0.25  # 1-norm below which the Taylor polynomial is used unscaled
_CSV_ROWS = 1024  # CSV rows formatted at a time
_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(13))
# order -> (steps per 2 pi / omega_max oscillation, least count) of the spectral rule
_STEP_RULE = {4: (50, 1000), 6: (20, 1)}
_N_PROBE = 257  # window samples that estimate omega_max
# the sixth-order estimate: the coarsest pilot grid, the error targets of the
# final populations and of the populations sampled inside the window, and
# the most steps a grid may take
_START = 64
_TOLERANCE = 1e-11
_SAMPLE_TOLERANCE = 1e-10
_MAX_STEPS = 1 << 24


@dataclass(frozen=True)
class StepControl:
    """Output decimation, an optional fixed step and the order of the scheme.

    sample_cap : maximum number of stored trajectory samples, at least 2
                 (the two ends of the window)
    h_override : fixed step size in seconds, bypassing the step rule
    order      : 4 or 6, the order of the Magnus scheme and of its step rule
    spectral   : at order 6, take the step from the spectral rule (20 points
                 per period) instead of the error estimate
    """

    sample_cap: int = 10_000
    h_override: float | None = None
    order: int = 4
    spectral: bool = False

    def __post_init__(self):
        if self.order not in _GENERATORS:
            raise ValueError(f"order must be 4 or 6, not {self.order!r}")
        if not self.sample_cap >= 2:
            raise ValueError(f"sample_cap must be at least 2, not {self.sample_cap!r}")
        if self.h_override is not None and not self.h_override > 0:
            raise ValueError(f"h_override must be positive, not {self.h_override!r}")


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


def _probe(schedule: PulseSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Detuning and drive at _N_PROBE times across the window.

    A value that is not finite raises IntegrationError.
    """
    ts = np.linspace(schedule.t_start, schedule.t_end, _N_PROBE)
    deltas = np.asarray(schedule.detuning(ts), dtype=float)
    omegas = np.asarray(schedule.rabi(ts), dtype=float)
    if not (np.all(np.isfinite(deltas)) and np.all(np.isfinite(omegas))):
        raise IntegrationError("schedule is not finite on its window")
    return deltas, omegas


def _spectral_scale(model: LevelModel, schedule: PulseSchedule) -> float:
    """Largest instantaneous eigenfrequency scale of H/hbar over the window."""
    deltas, omegas = _probe(schedule)
    h_stack = hamiltonian_stack(model, deltas, omegas)
    eigs = np.linalg.eigvalsh(h_stack)
    scale = float(np.max(np.abs(eigs))) / model.hbar
    return max(scale, float(np.max(np.abs(omegas))))


def _check_step(window: float, h: float) -> None:
    """IntegrationError for a step that rounds to 0 or needs over _MAX_STEPS steps."""
    if not (h > 0 and window / h <= _MAX_STEPS):
        raise IntegrationError(f"no grid of up to {_MAX_STEPS} steps spans the "
                               f"{window:.3e} s window at the {h:.3e} s step")


def _choose_step(model: LevelModel, schedule: PulseSchedule,
                 control: StepControl) -> int:
    """The step count of h_override, or of the order's spectral rule (_check_step)."""
    window = schedule.duration
    if control.h_override is not None:
        h, min_steps = control.h_override, 1
    else:
        omega_max = _spectral_scale(model, schedule)
        points_per_period, min_steps = _STEP_RULE[control.order]
        h = window / min_steps
        if omega_max > 0:
            h = min(h, 2.0 * math.pi / (points_per_period * omega_max))
    _check_step(window, h)
    return max(min_steps, math.ceil(window / h))


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
    """H at `times`, (..., N), as a component-major (..., dim, dim, N) workspace."""
    flat = times.reshape(-1)
    stack = hamiltonian_stack(model, schedule.detuning(flat), schedule.rabi(flat))
    dim = stack.shape[-1]
    out = _WORK.take(times.shape[:-1] + (dim, dim, times.shape[-1]), float)
    np.copyto(out, np.moveaxis(stack.reshape(times.shape + (dim, dim)), -3, -1))
    return out


def _generator(model: LevelModel, schedule: PulseSchedule, times: np.ndarray,
               h: float | np.ndarray) -> np.ndarray:
    """-i Omega for the steps starting at `times`, a component-major workspace array.

    Omega = h (H1 + H2) / 2 hbar - i sqrt(3) h^2 [H2, H1] / 12 hbar^2, with H1
    and H2 at the two Gauss-Legendre nodes of each step, sampled in one
    call.  H2 H1 is the transpose of H1 H2, as both are real symmetric.
    h is one step for all, or one per step.
    """
    hbar = model.hbar
    stack = _hamiltonians(model, schedule, _GL2_NODES[:, None] * h + times)
    h1, h2 = stack
    product = _mul(h1, h2)
    generator = _WORK.take(h1.shape)
    np.multiply(-(h / (2.0 * hbar)), np.add(h1, h2, out=h1), out=generator.imag)
    np.multiply(math.sqrt(3.0) * h * h / (12.0 * hbar * hbar),
                np.subtract(product, product.transpose(1, 0, 2), out=h2),
                out=generator.real)
    _WORK.give(stack, product)
    return generator


def _generator6(model: LevelModel, schedule: PulseSchedule, times: np.ndarray,
                h: float | np.ndarray) -> np.ndarray:
    """The sixth-order Magnus exponent of the steps starting at `times`.

    With H1, H2, H3 at the three Gauss-Legendre nodes of a step and
    alpha_j = -i a_j, the real symmetric a_j are a1 = h H2 / hbar,
    a2 = sqrt(15) h (H3 - H1) / 3 hbar and a3 = 10 h (H3 - 2 H2 + H1) / 3 hbar.
    Then C1 = [alpha1, alpha2], C2 = -[alpha1, 2 alpha3 + C1] / 60 and
    Omega = alpha1 + alpha3 / 12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240
    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).  In real
    arithmetic, with P = a1 a2, Q = a1 a3 and R = a1 C1: C1 = P^T - P, and
    F = alpha2 + C2 = (Q - Q^T) / 30 + i ((R + R^T) / 60 - a2).  E =
    -20 alpha1 - alpha3 + C1 = C1 + i (20 a1 + a3) and F are anti-Hermitian,
    so [E, F] = EF - (EF)^H, and Omega comes from the one complex product EF:
    Re Omega = (X - X^T) / 240 with X = Re EF, and Im Omega = -a1 - a3 / 12
    + (Y + Y^T) / 240 with Y = Im EF.  Omega is anti-Hermitian to the bit.
    h is one step for all, or one per step.
    """
    scale = h / model.hbar
    stack = _hamiltonians(model, schedule, _GL3_NODES[:, None] * h + times)
    h1, h2, h3 = stack
    a3 = np.add(h1, h3, out=_WORK.take(h1.shape, float))
    a3 -= h2
    a3 -= h2
    a3 *= 10.0 * scale / 3.0
    a2 = np.subtract(h3, h1, out=h3)
    a2 *= math.sqrt(15.0) * scale / 3.0
    a1 = np.multiply(h2, scale, out=h2)
    product = _mul(a1, a2)
    c1 = np.subtract(product.transpose(1, 0, 2), product, out=h1)
    _WORK.give(product)
    e = _WORK.take(h1.shape)
    f = _WORK.take(h1.shape)
    product = _mul(a1, a3)
    np.subtract(product, product.transpose(1, 0, 2), out=f.real)
    f.real /= 30.0
    _WORK.give(product)
    product = _mul(a1, c1)
    np.add(product, product.transpose(1, 0, 2), out=f.imag)
    f.imag /= 60.0
    f.imag -= a2
    _WORK.give(product)
    e.real = c1
    np.multiply(a1, 20.0, out=e.imag)
    e.imag += a3
    product = _mul(e, f)
    _WORK.give(e, f)
    generator = _WORK.take(h1.shape)
    np.subtract(product.real, product.real.transpose(1, 0, 2), out=generator.real)
    generator.real /= 240.0
    np.add(product.imag, product.imag.transpose(1, 0, 2), out=generator.imag)
    generator.imag /= 240.0
    generator.imag -= a1
    a3 /= 12.0
    generator.imag -= a3
    _WORK.give(stack, a3, product)
    return generator


_GENERATORS = {4: _generator, 6: _generator6}


def _reduce_runs(stack: np.ndarray, lengths: list[int]) -> np.ndarray:
    """Product of each run of a (dim, dim, N) workspace stack, later factors left.

    The runs lie one after another, longest first.  Each is padded with
    identities to a power of two; then each level multiplies the
    neighbouring pairs of every run at once, and a run that is down to one
    matrix sits at the end and leaves.  So every run is reduced by its own
    pairwise tree.  Returns (dim, dim, runs), a new array; stack is given back.
    """
    widths = [1 << (length - 1).bit_length() for length in lengths]
    dim = stack.shape[0]
    if sum(widths) > stack.shape[-1]:
        padded = _WORK.take((dim, dim, sum(widths)))
        padded[...] = np.eye(dim)[..., None]
        source = target = 0
        for length, width in zip(lengths, widths):
            padded[..., target:target + length] = stack[..., source:source + length]
            source += length
            target += width
        _WORK.give(stack)
        stack = padded
    out = np.empty((dim, dim, len(widths)), dtype=complex)
    live, level = len(widths), 0
    while live:
        done = live
        while done and widths[done - 1] >> level == 1:
            done -= 1
        width = stack.shape[-1] - (live - done)
        out[..., done:live] = stack[..., width:]
        live = done
        if live:
            pairs = _mul(stack[..., 1:width:2], stack[..., 0:width:2])
            _WORK.give(stack)
            stack, level = pairs, level + 1
    _WORK.give(stack)
    return out


def _finals(model: LevelModel, schedule: PulseSchedule, psi: np.ndarray,
            counts: list[int], order: int) -> np.ndarray:
    """The states, (len(counts), dim), at the end of uniform grids of counts[k] steps.

    A grid is cut into aligned pieces of the largest power of two of steps
    not above _BLOCK.  The pieces of all grids, longest first, fill blocks of
    at most _BLOCK steps, each one generator and one exponential stack; each
    piece is reduced by its own pairwise tree (padded with identities to a
    power of two), and so are a grid's piece products.  Together this is the
    pairwise tree of the whole grid, so a grid's state does not depend on
    _BLOCK or on the grids it shares blocks with.  No state inside the window
    is formed.  A step that rounds to 0 raises IntegrationError (_check_step),
    and so does a final state that is not finite, or, of the finest grid, one
    that drifts from the unit sphere as propagate checks its samples.  A
    coarser grid, a pilot of the finest, may drift where that one does not.
    """
    dim = model.dim
    t0, window = schedule.t_start, schedule.duration
    _check_step(window, window / max(counts))
    size = 1 << (_BLOCK.bit_length() - 1)
    # (grid, first step, steps); the sort is stable and only a grid's last
    # piece is shorter, so each grid's pieces stay in step order
    pieces = sorted(((k, first, min(size, n - first))
                     for k, n in enumerate(counts) for first in range(0, n, size)),
                    key=lambda piece: -piece[2])
    blocks, filled = [[]], 0
    for piece in pieces:
        if filled + piece[2] > _BLOCK:
            blocks.append([])
            filled = 0
        blocks[-1].append(piece)
        filled += piece[2]
    products: list[list] = [[] for _ in counts]
    for block in blocks:
        steps = np.concatenate([first + np.arange(length) for _, first, length in block])
        h = np.concatenate([np.full(length, window / counts[k]) for k, _, length in block])
        generator = _GENERATORS[order](model, schedule, t0 + steps * h, h)
        exponentials = _expm(generator)
        _WORK.give(generator)
        reduced = _reduce_runs(exponentials, [length for *_, length in block])
        for j, (k, _, _) in enumerate(block):
            products[k].append(reduced[..., j])
    # each grid's piece products, reduced the same way
    grids = sorted(range(len(counts)), key=lambda k: -len(products[k]))
    lengths = [len(products[k]) for k in grids]
    stack = _WORK.take((dim, dim, sum(lengths)))
    np.stack([product for k in grids for product in products[k]], axis=-1, out=stack)
    reduced = _reduce_runs(stack, lengths)
    ends = np.ascontiguousarray(reduced.transpose(2, 0, 1))
    finals = np.empty((len(counts), dim), dtype=complex)
    for k, end in zip(grids, ends):
        finals[k] = end @ psi
    limits = np.where(np.array(counts) == max(counts), NORM_TOLERANCE, np.inf)
    if not np.all(_drifts(finals) <= limits):  # a non-finite amplitude fails too
        for k in grids:  # name the first grid that fails
            _norm_drift(finals[k:k + 1], counts[k], window / counts[k], limits[k])
    return finals


def _controlled(model: LevelModel, schedule: PulseSchedule,
                psi: np.ndarray) -> tuple[int, np.ndarray]:
    """The sixth-order step count that meets _TOLERANCE, and its final state.

    Grids of _START, 2 _START, 4 _START and 8 _START steps (the last only if
    at most _MAX_STEPS) run in one _finals call; each has the state it would
    have alone.  The first three are tested first.  The error of the finest,
    n steps, is estimated from the largest changes of the final populations,
    d from n / 2 to n steps and d' from n / 4 to n / 2: at the sixth order
    d' / d is about 64 and the error about d / 63.
    Below that ratio the grids are not yet in the sixth-order regime, and
    the divisor is d' / d - 1, at least 1.  Above it (the n / 4 grid does not
    yet resolve the drive, and the error collapses once a grid does) the
    divisor stays 63.  The grid is accepted when the estimate is at most
    _TOLERANCE; otherwise the grid of 2 n steps is tested in turn, run in a
    call of its own past 8 _START, up to _MAX_STEPS.  A call that fails
    probes the schedule first (_probe).
    """
    def run(grids: list[int]) -> np.ndarray:
        try:
            return _finals(model, schedule, psi, grids, 6)
        except IntegrationError:
            _probe(schedule)
            raise

    counts = [_START, 2 * _START, 4 * _START]
    if 8 * _START <= _MAX_STEPS:
        counts.append(8 * _START)
    finals = list(run(counts))
    k = 2  # the finest grid of the three tested
    while True:
        coarse_gap, gap = np.max(np.abs(np.diff(np.abs(finals[k - 2:k + 1]) ** 2, axis=0)),
                                 axis=1)
        estimate = gap / (min(64.0, max(2.0, coarse_gap / gap)) - 1.0) if gap else 0.0
        if estimate <= _TOLERANCE:
            return counts[k], finals[k]
        if 2 * counts[k] > _MAX_STEPS:
            raise IntegrationError(
                f"no sixth-order grid of up to {_MAX_STEPS} steps meets the "
                f"{_TOLERANCE:.0e} target: error estimate {estimate:.3e} "
                f"at {counts[k]} steps")
        k += 1
        if k == len(counts):
            counts.append(2 * counts[-1])
            finals.append(run(counts[-1:])[0])


def _sampled(model: LevelModel, schedule: PulseSchedule, psi: np.ndarray,
             n_steps: int, stride: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Step indices and states of an n_steps grid, every stride steps and at its end."""
    dim = model.dim
    h = schedule.duration / n_steps
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
        generator = _GENERATORS[order](model, schedule, times, h)
        steps = _expm(generator)
        _WORK.give(generator)
        runs = _reduce(_split(steps, stride))
        count = runs.shape[-1]
        scanned = _scan(_split(runs, runs_per_group), psi)
        states[sample:sample + count] = scanned[:count]
        _WORK.give(scanned)
        sample += count
        psi = states[sample - 1]
    return sample_steps, states


def _dense(model: LevelModel, schedule: PulseSchedule, psi: np.ndarray,
           n_steps: int, stride: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The step count, sample steps and states of samples that meet _SAMPLE_TOLERANCE.

    n_steps is the count _controlled accepted for the final populations.
    Inside the window the populations can be much less accurate (a pi
    pulse's end population is stationary in its area, its middle is not),
    so the grid of n_steps is sampled every stride steps, and so is the grid
    of n_steps / 2; at the sixth order the error of the finer samples is
    about the largest change of their populations at the shared times over
    63.  While that is above _SAMPLE_TOLERANCE the grid and its stride are
    doubled, so the samples keep their times, up to _MAX_STEPS steps.
    """
    coarse_steps, coarse = _sampled(model, schedule, psi, n_steps // 2, stride, 6)
    while True:
        steps, states = _sampled(model, schedule, psi, n_steps, stride, 6)
        shared = np.isin(steps, 2 * coarse_steps)
        estimate = np.max(np.abs(np.abs(states[shared]) ** 2 - np.abs(coarse) ** 2)) / 63.0
        if not estimate > _SAMPLE_TOLERANCE:  # a non-finite state fails later
            return n_steps, steps, states
        if 2 * n_steps > _MAX_STEPS:
            raise IntegrationError(
                f"no sixth-order grid of up to {_MAX_STEPS} steps meets the "
                f"{_SAMPLE_TOLERANCE:.0e} target inside the window: error estimate "
                f"{estimate:.3e} at {n_steps} steps")
        coarse_steps, coarse = steps, states
        n_steps, stride = 2 * n_steps, 2 * stride


def _drifts(states: np.ndarray) -> np.ndarray:
    """|<psi|psi> - 1| of each state of a (S, dim) stack."""
    return np.abs(np.linalg.norm(states, axis=1) ** 2 - 1.0)


def _drift(states: np.ndarray) -> float:
    """The largest |<psi|psi> - 1| of a (S, dim) stack of states."""
    return float(np.max(_drifts(states)))


def _norm_drift(states: np.ndarray, n_steps: int, h: float,
                tolerance: float = NORM_TOLERANCE) -> float:
    """The largest |<psi|psi> - 1| of states; IntegrationError past the tolerance."""
    if not np.all(np.isfinite(states)):
        raise IntegrationError(
            f"propagation produced non-finite amplitudes (steps={n_steps}, h={h:.3e})")
    drift = _drift(states)
    if drift > tolerance:
        raise IntegrationError(
            f"norm drift {drift:.3e} exceeds {NORM_TOLERANCE:.0e} "
            f"(steps={n_steps}, h={h:.3e})")
    return drift


def propagate(model: LevelModel, schedule: PulseSchedule,
              initial_state: np.ndarray | None = None,
              step_control: StepControl | None = None) -> Trajectory:
    """Solve i hbar dpsi/dt = H(t) psi over the schedule window.

    The initial state defaults to |0> (everything in the reservoir); one
    given must have |<psi|psi> - 1| at most NORM_TOLERANCE (1e-9), else
    ValueError.  Raises IntegrationError if the state leaves the unit
    sphere by more than that or becomes non-finite.
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
        drift = _drift(psi[None])
        if not drift <= NORM_TOLERANCE:  # NaN fails too
            raise ValueError(f"initial state: |<psi|psi> - 1| = {drift:.3e} "
                             f"exceeds {NORM_TOLERANCE:.0e}")

    # non-finite amplitudes and envelopes are reported below and by _probe,
    # so numpy's warnings are silenced, once per propagation:
    # an errstate on every envelope call made envelope evaluation about 40% slower
    with np.errstate(over="ignore", invalid="ignore"):
        final = None
        if control.order == 6 and control.h_override is None and not control.spectral:
            n_steps, final = _controlled(model, schedule, psi)
        else:
            n_steps = _choose_step(model, schedule, control)
        if control.sample_cap == 2:
            if final is None:
                (final,) = _finals(model, schedule, psi, [n_steps], control.order)
            sample_steps, states = np.array([0, n_steps]), np.stack([psi, final])
        else:
            stride = math.ceil(n_steps / (control.sample_cap - 1))
            if final is None:
                sample_steps, states = _sampled(model, schedule, psi, n_steps, stride,
                                                control.order)
            else:
                n_steps, sample_steps, states = _dense(model, schedule, psi, n_steps, stride)
    h = schedule.duration / n_steps
    drift = _norm_drift(states, n_steps, h)
    return Trajectory(
        times=schedule.t_start + sample_steps * h,
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
    Identical trajectories serialize to identical bytes.
    """
    dim = trajectory.dim
    header = (["time_s"] + [f"p{n}" for n in range(dim)]
              + [item for n in range(dim) for item in (f"re_c{n}", f"im_c{n}")])
    states = np.ascontiguousarray(trajectory.states, dtype=complex)
    return _csv_text(header, [trajectory.times, *trajectory.populations.T,
                              *states.view(float).T])  # re_c0, im_c0, re_c1, ...


def _csv_text(header: list[str], columns: list[np.ndarray]) -> str:
    """CSV text of equal-length float columns under a header line.

    Floats are written with shortest round-trip formatting and NaN as an
    empty field.  Rows are formatted a column at a time, in chunks of
    _CSV_ROWS rows.
    """
    parts = [",".join(header)]
    for start in range(0, len(columns[0]), _CSV_ROWS):
        chunks = [np.asarray(column[start:start + _CSV_ROWS], dtype=float)
                  for column in columns]
        text = zip(*(["" if math.isnan(v) else repr(v) for v in chunk.tolist()]
                     if np.isnan(chunk).any() else map(repr, chunk.tolist())
                     for chunk in chunks))
        parts.append("\n".join(map(",".join, text)))
    return "\n".join(parts) + "\n"
