"""One benchmark workload in a fresh process: python3 bench/workload.py ...

Runs the workload through esfem's public API, writes its results to
``--out``, and then writes a JSON report to ``--report``.  The report holds
system-wide monotonic times: when the imports finished, every
moving-surface step (one stamp per step through the ``run`` observer
hook), and when the results were written.  Without ``--trace`` it also
holds the speed factors of the calibration units timed after the imports,
after every step's stamp, and after the workload (bench/calibration.py).
It holds peak resident memory, the outputs the correctness gate compares,
and with ``--trace 1`` the per-layer table.  ``bench/run.py`` starts this script;
it exits non-zero on any library error.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import calibration
from esfem import analysis, experiments, problems, stepper
from tracer import Tracer, instrument, layer_metrics

T_IMPORTED = time.monotonic()

WORKLOADS = {
    "coupled_direct": ("coupled", stepper.DIRECT),
    "coupled_cg": ("coupled", stepper.CG),
    "tumor": ("tumor", stepper.DIRECT),
}

# Horizons and the tumor's pre-relaxation are shortened so that a dozen or
# more fresh processes fit in one benchmark run: the machine's speed drifts
# over seconds, and a run of many short processes is far more likely to
# hold an undisturbed one.  "smoke" is the reduced size the benchmark's
# tests use.
SIZES = {
    "full": {
        "coupled": {"level": 4, "t_end": 0.03},
        "tumor": {"level": 3, "t_end": 0.1, "pre_time": 1.0, "export_every": 10},
    },
    "smoke": {
        "coupled": {"level": 2, "t_end": 0.05},
        "tumor": {"level": 2, "t_end": 0.02, "pre_time": 0.05, "export_every": 5},
    },
}

# example1: alpha=1, beta=0, delta=0.4, logistic radius 1 -> 2 at rate 0.5.
EXAMPLE1 = {"alpha": 1.0, "beta": 0.0, "delta": 0.4, "r0": 1.0, "rK": 2.0, "k": 0.5}
# The tumor variant (alpha, beta) = (0, 0.01) whose envelope tests/data records.
TUMOR = {"alpha": 0.0, "beta": 0.01, "delta": 0.01, "tau": 1e-3}


def digest(values) -> dict:
    """Order-independent summary of a final field, compared by the gate."""
    values = np.asarray(values, dtype=float)
    return {"min": float(values.min()), "max": float(values.max()),
            "sum": float(values.sum()), "l2": float(np.linalg.norm(values))}


def all_finite(state) -> bool:
    arrays = [state.x, state.u, state.v] + ([state.w] if state.w is not None else [])
    return bool(all(np.all(np.isfinite(a)) for a in arrays))


def run_coupled(solver, level, t_end, seed, out):
    """example1 at one level with error accumulation; seed-independent."""
    spec = problems.example1_problem(**EXAMPLE1)
    result, final = experiments.run_level(spec, level, t_end, solver=solver)
    report = analysis.ErrorReport()
    report.add(result)
    analysis.emit_table(report, out / "example1.csv")
    norms = {name: float(getattr(result.norms, name)) for name in (
        "u_linf_l2", "u_l2_h1", "v_linf_l2", "v_linf_h1", "x_linf_h1")}
    return {"h_final": float(result.h_final), "norms": norms, "finite": all_finite(final)}


def run_tumor(solver, level, t_end, pre_time, export_every, seed, out):
    """Seeded two-species run: frozen-surface pre-relaxation, then the moving surface."""
    final, envelope, _ = experiments.tumor_experiment(
        TUMOR["alpha"], TUMOR["beta"], TUMOR["delta"], level=level, tau=TUMOR["tau"],
        t_end=t_end, seed=seed, pre_time=pre_time, solver=solver,
        out_dir=str(out), export_every=export_every)
    return {"envelope": {k: float(v) for k, v in envelope.items()},
            "u": digest(final.u), "w": digest(final.w), "x": digest(final.x),
            "finite": all_finite(final)}


def stamp_steps(stamps: list, speeds) -> None:
    """Append one observer to every ``stepper.run`` call.  It records the
    monotonic time after each step's other observers have run; with
    ``speeds`` a list, it then times one calibration unit, appends its speed
    factor there, and records the time the step loop resumes."""
    run = stepper.run

    def stamp(step_index, state):
        stamps.append([time.monotonic()])
        if speeds is not None:
            speeds.append(calibration.speed())
            stamps[-1].append(time.monotonic())

    def run_with_stamps(*args, observers=(), **kwargs):
        return run(*args, observers=(*observers, stamp), **kwargs)

    stepper.run = run_with_stamps


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--report", type=Path, required=True)
    args = p.parse_args(argv)

    # A traced process takes no calibration units: its layer times are
    # reported as measured, and the units would add to stepper.run's.
    calibrate = not args.trace
    stamps, speeds = [], ([] if calibrate else None)
    stamp_steps(stamps, speeds)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        instrument(tracer)

    if calibrate:
        calibration.warm_up()
        speeds_before = [calibration.speed() for _ in range(calibration.REPEATS)]
    kind, solver = WORKLOADS[args.workload]
    runner = run_coupled if kind == "coupled" else run_tumor
    t_start = time.monotonic()
    outputs = runner(solver, seed=args.seed, out=args.out, **SIZES[args.size][kind])
    t_done = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {"t_imported": T_IMPORTED, "t_start": t_start, "stamps": stamps,
              "t_done": t_done, "peak_rss_mb": peak_rss_mb, "outputs": outputs}
    if calibrate:
        report["speeds"] = [speeds_before, speeds,
                            [calibration.speed() for _ in range(calibration.REPEATS)]]
    if tracer is not None:
        report["layers"] = layer_metrics(tracer)
    args.report.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
