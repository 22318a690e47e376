"""Span tracing of the package's layers, installed from outside the package.

A traced pass replaces public functions in the namespace of the module that
calls them (``experiments.propagate``, ``propagator.hamiltonian_stack``,
``cli.load_config`` and so on), the ``__call__`` of every envelope class and
``SweepResult.to_csv_text``.  Each wrapper records a span (name, start, end,
parent, pass id) plus counts taken from its arguments or result.  Spans stay
in memory until the run ends; ``uninstall`` puts every original back.

Nothing here changes the package: a function that is renamed or moved is not
wrapped but listed in ``Tracer.missing``, and run.py then reports the run as
not correct, so that a layer cannot silently read 0.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from quantum_tweezers import cli, experiments, propagator, pulses

# functions wrapped in the namespace of the module that imports (calls) them
TARGETS = {
    experiments: (
        "scrap_contour", "run_sweep", "optimize_pulse", "propagate",
        "derive_all", "build_level_model", "build_scrap_schedule",
        "build_two_atom_scrap_schedule", "build_pi_pulse",
        "gated_ramp_schedule", "resonant_gaussian_schedule",
        "validity_check", "lz_probability", "adiabaticity_parameter",
        "sequential_lz", "threshold_contours", "region_area_fraction",
        "contiguous_intervals",
    ),
    propagator: ("hamiltonian_stack",),
    cli: (
        "main", "load_config", "resolve_preset", "run_sweep", "optimize_pulse",
        "propagate", "trajectory_to_csv", "derive_all", "build_level_model",
        "gated_ramp_schedule", "resonant_gaussian_schedule", "build_pi_pulse",
        "build_scrap_schedule", "schedule_from_dict", "validity_check",
    ),
}

ENVELOPE = "pulses.envelope"
PROPAGATE = "propagator.propagate"
SWEEPS = {"experiments.scrap_contour", "experiments.run_sweep"}
OPTIMIZER = "experiments.optimize_pulse"
BUILDS = {"pulses.build_scrap_schedule", "pulses.build_two_atom_scrap_schedule",
          "pulses.build_pi_pulse", "pulses.schedule_from_dict",
          "experiments.gated_ramp_schedule", "experiments.resonant_gaussian_schedule"}
CONTOURS = {"experiments.threshold_contours", "experiments.region_area_fraction",
            "experiments.contiguous_intervals"}
CONFIG = {"config.load_config", "config.resolve_preset"}


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    pass_id: int = 0
    counts: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "pass": self.pass_id, **self.counts}


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _count_propagate(args, kwargs, result) -> dict:
    return {"steps": int(result.n_steps), "dim": int(result.dim)}


def _count_stack(args, kwargs, result) -> dict:
    return {"matrices": int(result.shape[0])}


COUNTERS = {PROPAGATE: _count_propagate, "levels.hamiltonian_stack": _count_stack}


class Tracer:
    """Records spans from the wrappers it installs; one instance per traced pass."""

    def __init__(self, pass_id: int = 0):
        self.spans: list[Span] = []
        self.pass_id = pass_id
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name=name, start=0.0, parent=parent, pass_id=self.pass_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        return wrapper

    def _wrap_envelope(self, call):
        # OffsetSum calls its inner envelope: only the outermost call counts
        @functools.wraps(call)
        def wrapper(envelope, t):
            if self._stack and self.spans[self._stack[-1]].name == ENVELOPE:
                return call(envelope, t)
            span = self._open(ENVELOPE)
            try:
                return call(envelope, t)
            finally:
                self._close(span)
                span.counts["samples"] = int(np.size(t))

        return wrapper

    # --- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module, attrs in TARGETS.items():
            for attr in attrs:
                fn = module.__dict__.get(attr)
                if fn is None:
                    self.missing.append(f"{module.__name__}.{attr}")
                    continue
                self._patch(module, attr, self._wrap(fn, _span_name(fn)))
        for cls in vars(pulses).values():
            if (isinstance(cls, type) and issubclass(cls, pulses.Envelope)
                    and cls is not pulses.Envelope and "__call__" in cls.__dict__):
                self._patch(cls, "__call__", self._wrap_envelope(cls.__dict__["__call__"]))
        result_cls = experiments.SweepResult
        self._patch(result_cls, "to_csv_text",
                    self._wrap(result_cls.__dict__["to_csv_text"],
                               "experiments.to_csv_text"))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# --- analysis -------------------------------------------------------------------

def coverage_errors(trace: Tracer, layers, points: int) -> list[str]:
    """Why a traced pass does not see the layers its metrics come from: a
    function that was not found, a span in ``layers`` that never opened, or
    fewer propagate calls than the ``points`` probabilities the pass made
    (a propagation path that bypasses the wrapper)."""
    names = [span.name for span in trace.spans]
    errors = [f"not found, so not traced: {name}" for name in trace.missing]
    errors += [f"no span {name} in a traced pass" for name in layers if name not in names]
    calls = names.count(PROPAGATE)
    if calls < points:
        errors.append(f"{calls} traced {PROPAGATE} calls for {points} probabilities")
    return errors


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        intervals = sorted((max(spans[c].start, span.start), min(spans[c].end, span.end))
                           for c in children[index])
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def _batch_share(spans: list[Span], indices: list[int]) -> float:
    """Share of sweep or optimizer propagations whose step count another shares."""
    groups = defaultdict(list)
    for i in indices:
        parent = spans[i].parent
        if parent is not None and (spans[parent].name in SWEEPS
                                   or spans[parent].name == OPTIMIZER):
            groups[parent].append(spans[i].counts["steps"])
    total = sum(len(g) for g in groups.values())
    shared = sum(c for g in groups.values() for c in Counter(g).values() if c > 1)
    return shared / total if total else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times for one traced pass."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span.name].append(index)

    durations = [s.end - s.start for s in spans]

    def total(names, values=durations) -> float:
        names = {names} if isinstance(names, str) else names
        return float(sum(values[i] for n in names for i in by_name[n]))

    prop = by_name[PROPAGATE]
    steps = [spans[i].counts["steps"] for i in prop]
    dim = spans[prop[0]].counts["dim"] if prop else 0
    n_steps = int(sum(steps))
    prop_self = total(PROPAGATE, selfs)
    # arrays the fourth-order Magnus step materialises, from their shapes:
    # two real H (d x d), the complex generator, its eigenvectors and
    # eigenvalues, the step propagator, and the state read and written
    bytes_per_step = 2 * dim * dim * 8 + 3 * dim * dim * 16 + dim * 8 + 2 * dim * 16
    stack = by_name["levels.hamiltonian_stack"]
    envelopes = by_name[ENVELOPE]
    return {
        "propagator.steps": n_steps,
        "propagator.propagate.calls": len(prop),
        "propagator.steps_per_call.p50": float(np.percentile(steps, 50)) if steps else 0.0,
        "propagator.steps_per_call.p90": float(np.percentile(steps, 90)) if steps else 0.0,
        "propagator.propagate.s": total(PROPAGATE),
        "propagator.propagate.self_s": prop_self,
        "propagator.us_per_step": 1e6 * prop_self / n_steps if n_steps else 0.0,
        "propagator.exponentials": n_steps,
        "propagator.hamiltonians": 2 * n_steps,
        "propagator.bytes_per_step": bytes_per_step,
        "experiments.batch_share": _batch_share(spans, prop),
        "levels.hamiltonian_stack.calls": len(stack),
        "levels.hamiltonian_stack.matrices": int(sum(spans[i].counts["matrices"] for i in stack)),
        "levels.hamiltonian_stack.s": total("levels.hamiltonian_stack"),
        "pulses.envelope.calls": len(envelopes),
        "pulses.envelope.samples": int(sum(spans[i].counts["samples"] for i in envelopes)),
        "pulses.envelope.s": total(ENVELOPE),
        "params.derive_all.calls": len(by_name["params.derive_all"]),
        "params.derive_all.s": total("params.derive_all"),
        "levels.build_level_model.calls": len(by_name["levels.build_level_model"]),
        "levels.build_level_model.s": total("levels.build_level_model"),
        "pulses.build.s": total(BUILDS),
        "analytics.s": total({n for n in by_name if n.startswith("analytics.")}),
        "experiments.sweep.self_s": total(SWEEPS, selfs),
        "experiments.contours.s": total(CONTOURS),
        "experiments.optimizer.self_s": total(OPTIMIZER, selfs),
        "config.load.s": total(CONFIG),
        "experiments.to_csv_text.s": total("experiments.to_csv_text"),
        "propagator.trajectory_to_csv.s": total("propagator.trajectory_to_csv"),
        "cli.self_s": total("cli.main", selfs),
    }
