"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, seeding."""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from quantum_tweezers import experiments, get_preset, pulses  # noqa: E402


def span(name, start, end, parent=None, **counts):
    return tracer.Span(name=name, start=start, end=end, parent=parent, counts=counts)


def test_self_times_subtract_covered_child_intervals():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.child", 2.0, 3.0, parent=1),
        span("b", 5.0, 9.0, parent=0),
        span("b.late", 8.5, 9.5, parent=3),  # overhangs its parent: clipped
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.5, 1.0])


def test_layer_metrics_on_synthetic_tree():
    spans = [
        span("experiments.scrap_contour", 0.0, 10.0),
        span(tracer.PROPAGATE, 1.0, 3.0, parent=0, steps=100, dim=3),
        span("levels.hamiltonian_stack", 1.5, 2.0, parent=1, matrices=200),
        span(tracer.PROPAGATE, 4.0, 6.0, parent=0, steps=100, dim=3),
        span(tracer.PROPAGATE, 7.0, 8.0, parent=0, steps=50, dim=3),
    ]
    m = tracer.layer_metrics(spans)
    assert m["propagator.steps"] == 250
    assert m["propagator.propagate.calls"] == 3
    assert m["propagator.propagate.s"] == pytest.approx(5.0)
    assert m["propagator.propagate.self_s"] == pytest.approx(4.5)
    assert m["propagator.us_per_step"] == pytest.approx(1e6 * 4.5 / 250)
    assert m["experiments.sweep.self_s"] == pytest.approx(5.0)
    assert m["experiments.batch_share"] == pytest.approx(2 / 3)
    assert m["levels.hamiltonian_stack.matrices"] == 200


def _patch_points():
    points = [(module, attr) for module, attrs in tracer.TARGETS.items() for attr in attrs]
    points += [(cls, "__call__") for cls in vars(pulses).values()
               if isinstance(cls, type) and issubclass(cls, pulses.Envelope)
               and "__call__" in cls.__dict__]
    points.append((experiments.SweepResult, "to_csv_text"))
    return {(owner, attr): owner.__dict__[attr] for owner, attr in points}


def test_traced_pass_records_spans_and_restores_every_wrapper():
    before = _patch_points()
    trace = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with trace:
            assert experiments.propagate is not before[(experiments, "propagate")]
            result = experiments.scrap_contour(get_preset("fig4"), [1.5e4, 2.0e4],
                                               [2.5e-4, 3.0e-4])
            result.to_csv_text()
            raise RuntimeError("leave the traced block early")
    assert _patch_points() == before
    assert not trace.missing
    names = [s.name for s in trace.spans]
    assert names.count(tracer.PROPAGATE) == 4
    assert names.count("experiments.to_csv_text") == 1
    envelopes = [s for s in trace.spans if s.name == tracer.ENVELOPE]
    assert envelopes and all(trace.spans[s.parent].name != tracer.ENVELOPE
                             for s in envelopes)
    metrics = tracer.layer_metrics(trace.spans)
    assert metrics["experiments.batch_share"] == 1.0
    assert metrics["levels.hamiltonian_stack.matrices"] > 2 * metrics["propagator.steps"]


def test_coverage_errors_flag_layers_a_traced_pass_misses():
    trace = tracer.Tracer()
    trace.spans = [span("experiments.scrap_contour", 0.0, 3.0),
                   span(tracer.PROPAGATE, 1.0, 2.0, parent=0, steps=10, dim=3)]
    assert tracer.coverage_errors(trace, ["experiments.scrap_contour"], 1) == []
    trace.missing = ["quantum_tweezers.experiments.propagate"]
    errors = tracer.coverage_errors(trace, ["experiments.to_csv_text"], 2)
    assert len(errors) == 3


def test_seed_to_inputs_is_deterministic():
    for make in (workloads.contour_axes, workloads.ramp_range, workloads.optimizer_starts):
        assert repr(make(7)) == repr(make(7))
        assert repr(make(7)) != repr(make(8))
    omega, t = workloads.contour_axes(0)
    assert np.array_equal(omega, np.linspace(1e3, 2.9e4, 13))
    assert np.array_equal(t, np.linspace(2.5e-4, 3.25e-3, 13))
    assert workloads.ramp_range(0) == (3e5, 2.69e6)
