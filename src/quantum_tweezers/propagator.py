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
exactly.  Each matrix is squared back as often as it was halved; sorted by
that count, the matrices of each squaring level are a prefix of the stack,
squared without a per-level gather or scatter (_expm).  Matrices are held
component-major, (dim, dim, N), and multiplied by accumulating the rows of
the inner index, one array operation per term.
Every product of consecutive matrices is taken by one pairwise reduction
(_reduce_runs), so a run's product does not depend on the runs beside it or
on the block size.  One runner, _grids, propagates one or several uniform
grids over the window, each sampled at its own stride: the steps between
two samples of a grid form a run, and the runs of all the grids, cut into
aligned pieces where longer than a block, share the blocks (_products).  A
grid sampled only at its ends (sample_cap = 2) applies its one product to
the start state.  The runs of any other grid are scanned in groups of a
fixed length: each group is reduced to one matrix, which carries the state
from group to group, and the samples inside all groups are then reached at
once, so no Python loop runs once per step or once per stored sample.
Every block-sized array of the kernel, H at each Gauss-Legendre node too
(filled in place by hamiltonian_stack), is a view of a per-thread workspace,
lent, given back at its last use and kept between calls.  For final states
of up to _BLOCK^2 steps it holds at most seven arrays of at most one complex
block each (dim^2 _BLOCK 16 bytes: 2.06 MB in all for three levels); a
sampled grid may need larger ones.  Once it has settled, a propagation takes
no new workspace memory.  The arithmetic is the same whichever memory holds
it, so no result depends on the workspace or _BLOCK.

The fourth order takes its step from the spectral rule

    h = min(window / min_steps,  2 pi / (points_per_period * omega_max))

with omega_max the largest instantaneous spectral scale of H/hbar at
_N_PROBE = 257 times across the window (plus the drive strength), 50
points per period and at least 1000 steps; a schedule that is not finite
at the probe times raises IntegrationError, and so does a step, of the rule,
of h_override or of a grid of the estimate below, that rounds to 0 or needs
more than 2^24 steps (_MAX_STEPS).  The sixth order takes its step
count from an error estimate: grids of 128, 256 and 512 steps run in one
_grids call, and 512 is accepted when its final populations differ from
the 256-step grid's by at most 63 x 1e-11, which bounds its own error by
about 1e-11 (step doubling: at the sixth order, halving the step divides
the error by 64; Hairer, Norsett & Wanner, Solving ODEs I, II.4).  The
128-step grid checks that fall: where the changes fall by less than 64, the
divisor is the ratio seen, less one.  Otherwise each grid of twice the
steps runs in a call of its own and is tested the same way; past 2^24
steps the run raises IntegrationError.  A sampled sixth-order trajectory
runs each later grid once, sampled, its last sample its final state; where
the accepted grid's populations inside the window are not within about
1e-10 by the same estimate from half its steps at the same times, the grid
and the stride between samples double until they are.  The final
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
from itertools import accumulate

import numpy as np

from .exceptions import IntegrationError, _integer
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
_BLOCK = 2048  # steps per vectorized block (bounds memory)
_GROUP = 32  # steps per group of the sample scan, rounded down to whole strides
_THETA = 0.25  # 1-norm below which the Taylor polynomial is used unscaled
_CSV_ROWS = 256  # CSV rows formatted at a time
_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(13))
# order -> (steps per 2 pi / omega_max oscillation, least count) of the spectral rule
_STEP_RULE = {4: (50, 1000), 6: (20, 1)}
_N_PROBE = 257  # window samples that estimate omega_max
# the sixth-order estimate: the coarsest pilot grid, the error targets of the
# final populations and of the populations sampled inside the window, and
# the most steps a grid may take
_START = 128
_TOLERANCE = 1e-11
_SAMPLE_TOLERANCE = 1e-10
_MAX_STEPS = 1 << 24


@dataclass(frozen=True)
class StepControl:
    """Output decimation, an optional fixed step and the order of the scheme.

    sample_cap : maximum number of stored trajectory samples, at least 2
                 (the two ends of the window)
    h_override : fixed finite step size in seconds, bypassing the step rule
    order      : 4 or 6, the order of the Magnus scheme and of its step rule
    spectral   : at order 6, take the step from the spectral rule (20 points
                 per period) instead of the error estimate
    """

    sample_cap: int = 10_000
    h_override: float | None = None
    order: int = 4
    spectral: bool = False

    def __post_init__(self):
        if not _integer(self.order) or self.order not in _GENERATORS:
            raise ValueError(f"order must be the integer 4 or 6, not {self.order!r}")
        cap = self.sample_cap
        if not _integer(cap) or cap.__index__() < 2:
            raise ValueError(f"sample_cap must be an integer of at least 2, not {cap!r}")
        step = self.h_override  # a number, not a bool
        if step is not None and (isinstance(step, bool) or not 0 < step < math.inf):
            raise ValueError(f"h_override must be positive and finite, not {step!r}")
        if not isinstance(self.spectral, bool):
            raise ValueError(f"spectral must be a bool, not {self.spectral!r}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Propagated amplitudes on a decimated time grid.

    times has shape (S,), states (S, dim) complex, populations (S, dim).
    The last sample always coincides with the end of the window.  norm_drift
    is the largest |<psi|psi> - 1| over the stored samples.  Two trajectories
    are equal, and hash, by identity.
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
    For the squaring, the results are gathered once into a workspace stack
    sorted by squaring count, most first, so that level k squares the
    contiguous prefix of the matrices with more than k squarings; one
    inverse gather then restores the stack's order.  x is scaled in place;
    the result is a workspace array.
    """
    magnitude = np.abs(x, out=_WORK.take(x.shape, float))
    norm = magnitude.sum(axis=0).max(axis=0)
    _WORK.give(magnitude)
    squarings = np.maximum(0, np.frexp(norm / _THETA)[1])
    scaled = squarings.any()
    if scaled:
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
    if not scaled:
        return u
    # most squarings first: level k squares the prefix of more than k; the
    # indices are in range, and take's default mode would buffer its output
    order = np.argsort(-squarings, kind="stable")
    work = np.take(u, order, axis=2, out=_WORK.take(u.shape), mode="clip")
    for n in np.bincount(squarings)[:0:-1].cumsum()[::-1]:
        part = work[..., :n]
        square = _mul(part, part)
        np.copyto(part, square)
        _WORK.give(square)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    np.take(work, inverse, axis=2, out=u, mode="clip")
    _WORK.give(work)
    return u


def _scan(runs: np.ndarray, length: int, psi: np.ndarray) -> np.ndarray:
    """States after each matrix of a (dim, dim, N) workspace stack, from psi.

    The matrices are taken in groups of `length`; N is a whole number of
    groups (the caller pads the last with identities).  Each group is
    reduced to one matrix, which carries psi from the start of its group to
    the next; then the matrices inside all groups are applied at once, one
    position in the group at a time (Blelloch, CMU-CS-90-190).  A group's
    last state is the carried one.  Returns (N, dim), a workspace array;
    runs is given back.
    """
    dim, _, count = runs.shape
    groups = count // length
    # copied before _reduce_runs, which gives runs back
    inside = _WORK.take((length - 1, dim, dim, groups))
    np.copyto(inside, runs.reshape(dim, dim, groups, length)[..., :-1].transpose(3, 0, 1, 2))
    reduced = _reduce_runs(runs, [(groups, length)])
    ends = np.ascontiguousarray(reduced.transpose(2, 0, 1))
    _WORK.give(reduced)
    states = _WORK.take((groups, length, dim))
    carried = psi
    for g, end in enumerate(ends):
        carried = states[g, -1] = end @ carried
    # each group's start, (dim, groups), advanced through the group's matrices
    psi = np.concatenate([psi[:, None], states[:-1, -1].T], axis=1)
    for j, run in enumerate(inside):
        psi = (run * psi).sum(axis=1)
        states[:, j] = psi.T
    _WORK.give(inside)
    return states.reshape(groups * length, dim)


def _hamiltonians(model: LevelModel, schedule: PulseSchedule,
                  times: np.ndarray) -> list[np.ndarray]:
    """H at the (nodes, N) `times`, one component-major (dim, dim, N) workspace
    array per node, filled in place; the envelopes are evaluated once for all nodes."""
    flat, dim = times.reshape(-1), model.dim
    stacks = [_WORK.take((dim, dim, times.shape[1]), float) for _ in times]
    for stack, delta, rabi in zip(stacks, np.reshape(schedule.detuning(flat), times.shape),
                                  np.reshape(schedule.rabi(flat), times.shape)):
        hamiltonian_stack(model, delta, rabi, out=stack.transpose(2, 0, 1))
    return stacks


def _generator(model: LevelModel, schedule: PulseSchedule, times: np.ndarray,
               h: float | np.ndarray) -> np.ndarray:
    """-i Omega for the steps starting at `times`, a component-major workspace array.

    Omega = h (H1 + H2) / 2 hbar - i sqrt(3) h^2 [H2, H1] / 12 hbar^2, with H1
    and H2 at the two Gauss-Legendre nodes of each step, sampled in one
    call.  H2 H1 is the transpose of H1 H2, as both are real symmetric.
    h is one step for all, or one per step.
    """
    hbar = model.hbar
    h1, h2 = _hamiltonians(model, schedule, _GL2_NODES[:, None] * h + times)
    product = _mul(h1, h2)
    generator = _WORK.take(h1.shape)
    np.multiply(-(h / (2.0 * hbar)), np.add(h1, h2, out=h1), out=generator.imag)
    np.multiply(math.sqrt(3.0) * h * h / (12.0 * hbar * hbar),
                np.subtract(product, product.transpose(1, 0, 2), out=h2),
                out=generator.real)
    _WORK.give(h1, h2, product)
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
    h1, h2, h3 = _hamiltonians(model, schedule, _GL3_NODES[:, None] * h + times)
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
    f = _WORK.take(a3.shape)
    product = _mul(a1, a3)
    np.subtract(product, product.transpose(1, 0, 2), out=f.real)
    f.real /= 30.0
    _WORK.give(product)
    product = _mul(a1, c1)
    np.add(product, product.transpose(1, 0, 2), out=f.imag)
    f.imag /= 60.0
    f.imag -= a2
    _WORK.give(product, a2)  # at its last read, so at most seven arrays are out at once
    e = _WORK.take(a3.shape)
    e.real = c1
    _WORK.give(c1)
    np.multiply(a1, 20.0, out=e.imag)
    e.imag += a3
    product = _mul(e, f)
    _WORK.give(e, f)
    generator = _WORK.take(a3.shape)
    np.subtract(product.real, product.real.transpose(1, 0, 2), out=generator.real)
    generator.real /= 240.0
    np.add(product.imag, product.imag.transpose(1, 0, 2), out=generator.imag)
    generator.imag /= 240.0
    generator.imag -= a1
    a3 /= 12.0
    generator.imag -= a3
    _WORK.give(a1, a3, product)
    return generator


_GENERATORS = {4: _generator, 6: _generator6}


def _reduce_runs(stack: np.ndarray, runs: list[tuple[int, int]]) -> np.ndarray:
    """Product of each run of a (dim, dim, N) workspace stack, later factors left.

    runs lists (count, length) pairs, longest first: count runs of length
    matrices each, one after another; a pair with no matrices is skipped.
    Each level multiplies the neighbouring pairs of every run at once, after
    one identity pads each run of odd length (a reshaped copy per pair), and
    the runs down to one matrix, at the end, leave.  Returns (dim, dim, runs),
    a workspace array: stack itself when every run is one matrix, else a new
    one, and stack is given back.
    """
    runs = [(count, length) for count, length in runs if count and length]
    if all(length == 1 for _, length in runs):  # nothing to multiply
        return stack
    dim = stack.shape[0]
    out = _WORK.take((dim, dim, sum(count for count, _ in runs)))
    while runs:
        width = sum(count * length for count, length in runs)
        if runs[-1][1] == 1:
            count = runs.pop()[0]
            end = sum(n for n, _ in runs)  # the runs before these
            out[..., end:end + count] = stack[..., width - count:width]
            continue
        if any(length % 2 for _, length in runs):
            padded = _WORK.take((dim, dim, width + sum(n for n, length in runs if length % 2)))
            source = target = 0
            for count, length in runs:
                even = length + length % 2
                part = padded[..., target:target + count * even].reshape(dim, dim, count, even)
                part[..., :length] = stack[..., source:source + count * length].reshape(
                    dim, dim, count, length)
                part[..., length:] = np.eye(dim)[..., None, None]
                source += count * length
                target += count * even
            _WORK.give(stack)
            stack, width = padded, target
        pairs = _mul(stack[..., 1:width:2], stack[..., 0:width:2])
        _WORK.give(stack)
        stack = pairs
        runs = [(count, (length + 1) // 2) for count, length in runs]
    _WORK.give(stack)
    return out


def _products(model: LevelModel, schedule: PulseSchedule,
              runs: list[tuple[int, int, int, float]], order: int) -> np.ndarray:
    """Product of the steps of each run, (dim, dim, runs), a workspace array.

    runs lists (first, count, length, h) groups, most pieces per run first:
    count runs of length steps each, one after another from step first, of
    a uniform grid of step h.  Each run is cut into aligned pieces of the
    largest power of two of steps not above _BLOCK.  The pieces, longest
    first, fill blocks of at most _BLOCK steps, each one generator and one
    exponential stack.  A run's pieces, then their products, are reduced in
    turn: together the pairwise tree of the whole run, whatever _BLOCK or
    the other runs.
    """
    size = 1 << (_BLOCK.bit_length() - 1)
    pieces = []  # (first, count, length, h): count pieces of length steps, one after another
    for first, count, length, h in runs:
        if length <= size:
            pieces.append((first, count, length, h))
            continue
        for start in range(first, first + count * length, length):  # whole pieces, then the rest
            pieces += [(start, length // size, size, h),
                       (start + length - length % size, 1, length % size, h)]
    pieces = [piece for piece in pieces if piece[1] and piece[2]]
    columns = list(accumulate([count for _, count, _, _ in pieces], initial=0))
    blocks, filled = [[]], 0
    for j in sorted(range(len(pieces)), key=lambda j: -pieces[j][2]):
        (first, count, length, h), column = pieces[j], columns[j]
        while count:
            fit = min(count, (_BLOCK - filled) // length)
            if not fit:
                blocks.append([])
                filled = 0
                continue
            blocks[-1].append((first, fit, length, h, column))
            first, count, column = first + fit * length, count - fit, column + fit
            filled += fit * length
    products = np.empty((model.dim, model.dim, columns[-1]), dtype=complex)
    for block in blocks:
        h = np.concatenate([np.full(count * length, step) for _, count, length, step, _ in block])
        times = schedule.t_start + np.concatenate(
            [np.arange(first, first + count * length) for first, count, length, *_ in block]) * h
        generator = _GENERATORS[order](model, schedule, times, h)
        exponentials = _expm(generator)
        _WORK.give(generator)
        reduced = _reduce_runs(exponentials, [(count, length) for _, count, length, *_ in block])
        done = 0
        for _, count, _, _, column in block:
            products[..., column:column + count] = reduced[..., done:done + count]
            done += count
        _WORK.give(reduced)
    # taken once the blocks have given theirs back, so the workspace needs no more
    stack = _WORK.take(products.shape)
    stack[...] = products
    return _reduce_runs(stack, [(count, -(-length // size)) for _, count, length, _ in runs])


def _grids(model: LevelModel, schedule: PulseSchedule, psi: np.ndarray,
           grids: list[tuple[int, int]], order: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The sample steps and states of uniform grids over the window, from psi.

    grids lists (steps, stride) pairs; a grid is sampled at step 0 (psi),
    every stride steps and at its end.  Each grid is cut into runs of stride
    steps (the last may be shorter), and the runs of all grids share blocks
    (_products).  The one run of a grid whose stride is its step count is
    applied to psi; every other grid is scanned (_scan).  A step that rounds
    to 0 raises IntegrationError (_check_step), and so does a final state
    that is not finite, or, of the finest grid, one that drifts from the
    unit sphere as propagate checks its samples.  A coarser grid, a pilot of
    the finest, may drift where that one does not.
    """
    window = schedule.duration
    finest = max(steps for steps, _ in grids)
    _check_step(window, window / finest)
    size = 1 << (_BLOCK.bit_length() - 1)
    # each grid's whole runs, then its shorter last one, most pieces first as
    # _products takes them: -length // size is minus the piece count
    runs = sorted([(k, first, count, length, window / steps)
                   for k, (steps, stride) in enumerate(grids)
                   for first, count, length in ((0, steps // stride, stride),
                                                (steps - steps % stride, 1, steps % stride))
                   if count and length], key=lambda run: -run[3] // size)
    reduced = _products(model, schedule, [run[1:] for run in runs], order)
    spans = [[] for _ in grids]  # the columns of reduced that hold each grid's runs
    for (k, _, count, *_), end in zip(runs, accumulate(run[2] for run in runs)):
        spans[k].append(np.arange(end - count, end))
    samples = []
    for (steps, stride), span in zip(grids, spans):
        columns = np.concatenate(span) if len(span) > 1 else span[0]
        states = np.empty((columns.size + 1, model.dim), dtype=complex)
        states[0] = psi
        if stride == steps:  # a contiguous copy: a strided view's product may move a bit
            states[1] = np.ascontiguousarray(reduced[..., columns[0]]) @ psi
        else:  # scanned in groups of whole runs, the last padded with identities
            group = max(1, _GROUP // stride)
            stack = _WORK.take(reduced.shape[:2] + (-(-columns.size // group) * group,))
            stack[..., columns.size:] = np.eye(model.dim)[..., None]
            np.take(reduced, columns, axis=2, out=stack[..., :columns.size], mode="clip")
            scanned = _scan(stack, group, psi)
            states[1:] = scanned[:columns.size]
            _WORK.give(scanned)
        samples.append((np.minimum(np.arange(0, steps + stride, stride), steps), states))
    _WORK.give(reduced)
    limits = [NORM_TOLERANCE if steps == finest else math.inf for steps, _ in grids]
    if not np.all(_drifts(np.array([states[-1] for _, states in samples])) <= limits):
        for k in dict.fromkeys(k for k, *_ in runs):  # name the first grid that fails
            _norm_drift(samples[k][1][-1:], grids[k][0], window / grids[k][0], limits[k])
    return samples


def _controlled(model: LevelModel, schedule: PulseSchedule, psi: np.ndarray,
                sample_cap: int = 2) -> tuple[int, np.ndarray, np.ndarray]:
    """The sixth-order step count that meets the targets, its sample steps and states.

    Grids of _START, 2 _START and 4 _START steps run in one _grids call, as
    final states; each has the state it would have alone.  The error of the
    finest, n steps, is estimated from the largest changes of the final
    populations, d from n / 2 to n steps and d' from n / 4 to n / 2: at the
    sixth order d' / d is about 64 and the error about d / 63.
    Below that ratio the grids are not yet in the sixth-order regime, and
    the divisor is d' / d - 1, at least 1.  Above it (the n / 4 grid does not
    yet resolve the drive, and the error collapses once a grid does) the
    divisor stays 63.  The grid is accepted when the estimate is at most
    _TOLERANCE; otherwise the grid of 2 n steps runs in a call of its own,
    sampled every ceil(n / (sample_cap - 1)) steps, its last sample its
    final state, and is tested in turn, up to _MAX_STEPS.  A call that fails
    probes the schedule first (_probe).

    Above sample_cap = 2 the populations inside the window can be much less
    accurate (a pi pulse's end population is stationary in its area, its
    middle is not), so the grids of the accepted n and n / 2 steps, from the
    ladder where it holds them, are compared at n's stride: the finer
    samples' error is about the largest change of their populations at the
    shared times over 63.  While that is above _SAMPLE_TOLERANCE, grid and
    stride double (the samples keep their times), up to _MAX_STEPS steps.
    """
    def stride(n: int) -> int:
        return math.ceil(n / (sample_cap - 1))

    def run(*grids: tuple[int, int]) -> list[tuple[np.ndarray, np.ndarray]]:
        try:
            return _grids(model, schedule, psi, list(grids), 6)
        except IntegrationError:
            _probe(schedule)
            raise

    n = 4 * _START
    first = run(*((k, k) for k in (_START, 2 * _START, n)))
    finals = [states[-1] for _, states in first]
    rungs = {(n, n): first[-1]}  # (steps, stride) -> samples, of the last grids
    while True:
        coarse_gap, gap = np.max(np.abs(np.diff(np.abs(finals[-3:]) ** 2, axis=0)), axis=1)
        estimate = gap / (min(64.0, max(2.0, coarse_gap / gap)) - 1.0) if gap else 0.0
        if estimate <= _TOLERANCE:
            break
        if 2 * n > _MAX_STEPS:
            raise IntegrationError(
                f"no sixth-order grid of up to {_MAX_STEPS} steps meets the "
                f"{_TOLERANCE:.0e} target: error estimate {estimate:.3e} at {n} steps")
        n *= 2
        [rungs[n, stride(n)]] = run((n, stride(n)))
        rungs.pop((n // 4, stride(n // 4)), None)
        finals.append(rungs[n, stride(n)][1][-1])
    step = stride(n)
    if sample_cap == 2:
        return (n, *rungs[n, step])
    missing = [grid for grid in ((n // 2, step), (n, step)) if grid not in rungs]
    if missing:
        rungs.update(zip(missing, run(*missing)))
    (coarse_steps, coarse), (steps, states) = rungs[n // 2, step], rungs[n, step]
    while True:
        shared = np.isin(steps, 2 * coarse_steps)
        estimate = np.max(np.abs(np.abs(states[shared]) ** 2 - np.abs(coarse) ** 2)) / 63.0
        if not estimate > _SAMPLE_TOLERANCE:  # a non-finite state fails later
            return n, steps, states
        if 2 * n > _MAX_STEPS:
            raise IntegrationError(
                f"no sixth-order grid of up to {_MAX_STEPS} steps meets the "
                f"{_SAMPLE_TOLERANCE:.0e} target inside the window: error estimate "
                f"{estimate:.3e} at {n} steps")
        coarse_steps, coarse = steps, states
        n, step = 2 * n, 2 * step
        [(steps, states)] = run((n, step))


def _drifts(states: np.ndarray) -> np.ndarray:
    """|<psi|psi> - 1| of each state of a (S, dim) stack."""
    return np.abs(np.linalg.norm(states, axis=1) ** 2 - 1.0)


def _norm_drift(states: np.ndarray, n_steps: int, h: float,
                tolerance: float = NORM_TOLERANCE) -> float:
    """The largest |<psi|psi> - 1| of states; IntegrationError past the tolerance."""
    if not np.all(np.isfinite(states)):
        raise IntegrationError(
            f"propagation produced non-finite amplitudes (steps={n_steps}, h={h:.3e})")
    drift = float(np.max(_drifts(states)))
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
        drift = float(_drifts(psi[None])[0])
        if not drift <= NORM_TOLERANCE:  # NaN fails too
            raise ValueError(f"initial state: |<psi|psi> - 1| = {drift:.3e} "
                             f"exceeds {NORM_TOLERANCE:.0e}")

    # non-finite amplitudes and envelopes are reported below and by _probe,
    # so numpy's warnings are silenced, once per propagation:
    # an errstate on every envelope call made envelope evaluation about 40% slower
    with np.errstate(over="ignore", invalid="ignore"):
        if control.order == 6 and control.h_override is None and not control.spectral:
            n_steps, steps, states = _controlled(model, schedule, psi, control.sample_cap)
        else:
            n_steps = _choose_step(model, schedule, control)
            stride = math.ceil(n_steps / (control.sample_cap - 1))
            [(steps, states)] = _grids(model, schedule, psi, [(n_steps, stride)], control.order)
    h = schedule.duration / n_steps
    drift = _norm_drift(states, n_steps, h)
    return Trajectory(
        times=schedule.t_start + steps * h,
        states=states,
        populations=np.abs(states) ** 2,
        n_steps=n_steps,
        step=h,
        norm_drift=drift,
    )


def transfer_probability(trajectory: Trajectory, n: int) -> float:
    """Population of level |n> at the end of the window, in [0, 1]."""
    if not _integer(n) or not 0 <= n < trajectory.dim:
        raise ValueError(f"level index must be an integer in 0..{trajectory.dim - 1}, not {n!r}")
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
    parts = [",".join(header) + "\n"]
    for start in range(0, len(columns[0]), _CSV_ROWS):
        chunks = [np.asarray(column[start:start + _CSV_ROWS], dtype=float)
                  for column in columns]
        text = zip(*(["" if math.isnan(v) else repr(v) for v in chunk.tolist()]
                     if np.isnan(chunk).any() else map(repr, chunk.tolist())
                     for chunk in chunks))
        parts.append("\n".join(map(",".join, text)) + "\n")
    return "".join(parts)
