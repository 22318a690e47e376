"""Benchmark of the quantum_tweezers package: one seeded workload per call.

    python3 perfbench/run.py --workload chirp_contour --seed 0 --seconds 10 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
checkout that holds this file, never from an installed copy.

--trace 0 measures the end-to-end metrics with nothing wrapped.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
(see tracer.py).  Timings are scaled to the machine's idle speed (see
speed.py).  Either way the outputs are checked against the accuracy
oracle (see workloads.py), the run's environment and the sha256 of every CSV
it wrote are printed, and the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Scratch files live in
``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),  # the run itself is pinned to one CPU (speed.py)
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def measure_setup(preset: str, probe) -> list[float]:
    """Set-up seconds of fresh interpreters, each scaled like a timed unit."""
    script = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), preset]
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        done = subprocess.run(script, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            fail(f"set-up probe failed: {done.stderr.strip()}")
        seconds = float(done.stdout.strip().splitlines()[-1])
        times.append(seconds * probe.factor(started, time.perf_counter()))
    return times


def unit_times(passes: list, probe) -> tuple[list[list[float]], list[list[float]]]:
    """Main-call and answer seconds at reference speed, per unit, over passes."""
    mains, answers = [], []
    for samples in zip(*(p.units for p in passes)):
        scaled = [(main - start, answer - start, probe.factor(start, answer))
                  for start, main, answer in samples]
        mains.append([m * f for m, _, f in scaled])
        answers.append([a * f for _, a, f in scaled])
    return mains, answers


def summary(points: list[int], mains: list, answers: list) -> tuple[float, float]:
    """points_per_s and time_to_target_s from unit_times: each unit counts
    with its median over passes."""
    main_s = sum(statistics.median(m) for m in mains)
    return sum(points) / main_s, statistics.median(statistics.median(a) for a in answers)


def timed_passes(bench, seconds: float) -> list:
    """Run passes until `seconds` have elapsed, at least three."""
    passes = []
    started = time.perf_counter()
    while len(passes) < 3 or time.perf_counter() - started < seconds:
        passes.append(bench.run_pass())
    return passes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("chirp_contour", "ramp_cli", "chirp_optimize"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    src = ROOT / "src"
    if not (src / "quantum_tweezers" / "__init__.py").is_file():
        fail(f"no package source at {src}/quantum_tweezers; run from a repository checkout")
    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(src))

    import quantum_tweezers
    if Path(quantum_tweezers.__file__).resolve().parent != (src / "quantum_tweezers").resolve():
        fail(f"imported quantum_tweezers from {quantum_tweezers.__file__}, not {src}")
    import speed
    import tracer
    import workloads

    scratch = ROOT / ".perfbench"
    (scratch / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch / "work"))
    try:
        with speed.SpeedProbe() as probe:
            workload = workloads.WORKLOADS[args.workload]
            setup_times = measure_setup(workload.PRESET, probe) if args.trace == 0 else []
            bench = workload(args.seed, workdir)
            bench.prepare()
            traced, traces = [], []
            if args.trace == 0:
                passes = timed_passes(bench, args.seconds)
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            else:
                passes = []
                started = time.perf_counter()
                while not traced or time.perf_counter() - started < args.seconds:
                    passes.append(bench.run_pass())
                    traces.append(tracer.Tracer(pass_id=len(traces)))
                    with traces[-1]:
                        traced.append(bench.run_pass())
        outputs = passes[0].outputs
        reference = json.dumps(outputs, sort_keys=True)
        deterministic = all(json.dumps(p.outputs, sort_keys=True) == reference
                            for p in passes + traced)
        check = bench.check(outputs, scratch / "cache")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = deterministic
    if args.workload == "ramp_cli":
        correct = correct and outputs["exit_codes"] == [0, 0]
    probabilities = [p for key in ("p", "finals") for p in outputs.get(key, [])]
    probabilities += [a["p"] for a in outputs.get("answers", [])]
    correct = correct and all(0.0 <= p <= 1.0 + 1e-12 for p in probabilities)

    raw = [[round(main - start, 6) for start, main, _ in p.units] for p in passes]
    mains, answers = unit_times(passes, probe)
    points_per_s, time_to_target_s = summary(passes[0].points, mains, answers)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "csv_sha256": outputs.get("csv_sha256", {}),
        "passes": len(passes), "deterministic": deterministic,
        "main_s_unscaled": raw,
        "unit_s_quartiles": [{"main": quartiles(m), "answer": quartiles(a), "n": len(m)}
                             for m, a in zip(mains, answers)],
        "speed_factor_quartiles": quartiles([probe.factor(u[0], u[2])
                                             for p in passes for u in p.units]),
        "failed_frac": check.failed / check.attempted,
        "max_dp_vs_ref": check.max_dp, "points_over_tol": check.over_tol,
    }
    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "points_per_s": points_per_s,
            "time_to_target_s": time_to_target_s,
            "peak_rss_mb": peak_rss_mb,
        }
        record["setup_s_quartiles"] = quartiles(setup_times)
    else:
        errors = tracer.coverage_errors(traces[0], bench.LAYERS, sum(traced[0].points))
        for error in errors:
            print(f"perfbench: {error}", file=sys.stderr)
        correct = correct and not errors
        per_pass, factors = [], []
        for trace in traces:
            per_pass.append(tracer.layer_metrics(trace.spans))
            factors.append(probe.factor(trace.spans[0].start,
                                        max(span.end for span in trace.spans)))
        metrics = {}
        for name in per_pass[0]:
            values = [m[name] for m in per_pass]
            if name.endswith(("_s", ".s", "us_per_step")):
                metrics[name] = statistics.median(v * f for v, f in zip(values, factors))
            else:
                metrics[name] = values[0]
                if any(v != values[0] for v in values):
                    correct = False  # counts must repeat between identical passes
        evals = bench.evals_to_target() if hasattr(bench, "evals_to_target") else 0
        metrics["experiments.optimizer.evals_to_target"] = evals
        metrics["propagator.max_dp_vs_ref"] = check.max_dp if math.isfinite(check.max_dp) else 1.0
        metrics["propagator.points_over_tol"] = check.over_tol
        traced_s = summary(traced[0].points, *unit_times(traced, probe))[1]
        metrics["trace.overhead_s"] = traced_s - time_to_target_s
        out_dir = scratch / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps([s.as_dict() for t in traces for s in t.spans]))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["end_to_end" if args.trace == 0 else "per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    print(json.dumps(record, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{check.failed} of {check.attempted} operations failed")
    print(f"  failed_frac = {record['failed_frac']:.6g}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for index, unit in enumerate(record["unit_s_quartiles"]):
        print(f"  unit {index}: main q1/median/q3 = "
              f"{'/'.join(f'{v:.4g}' for v in unit['main'])} s, answer "
              f"{'/'.join(f'{v:.4g}' for v in unit['answer'])} s, n = {unit['n']}")
    if args.trace == 0:
        print(f"  setup_s q1/median/q3 = "
              f"{'/'.join(f'{v:.4g}' for v in record['setup_s_quartiles'])} s, "
              f"n = {len(setup_times)}")
        for alias, name in bench.ALIASES.items():
            print(f"  {alias} = {metrics[name]:.6g} {units[name]} (this workload's {name})")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
