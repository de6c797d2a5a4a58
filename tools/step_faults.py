"""Print the median minor page faults and milliseconds per moving step,
the _pcg iterations per velocity column and per field solve, the
factorizations by class and their columns, and the tracemalloc peak of
each run.

    python3 tools/step_faults.py

Runs the benchmark's three sizes in this process, one after another:
example1 at level 4 to t = 0.03 with each velocity solver, and the seeded
level-3 tumor run (1,000 pre-relaxation and 100 moving steps, exporting
every 10).  Every ``stepper.run`` gets an observer that reads
``ru_minflt`` and the monotonic clock after each step, and keeps its
caller's ``stepper.RunRecord`` or gets a new one; the medians are over
the differences between consecutive steps, one per moving step, and
"steps" is the record's count of them (``steps``).  A step that
allocates fresh memory beyond what the allocator keeps takes minor
faults, so a nonzero median marks allocation churn that no timing shows
directly; a loaded machine adds faults of its own, so the 1, 5 and 15
minute load averages (``os.getloadavg``) are printed beside the median.
The same pass prints the record's calls of ``stepper._pcg`` and their
iterations, apart for the velocity columns and the field solves, its
factorizations by class (BandCholesky or SuperLU) and the columns that
their solves took (``factor_columns``), over the whole run; the tumor
run's record holds its pre-relaxation's two factors too.  All are exact
counts, so two commits that claim the same iterations print the same
numbers, and the same work prints the same columns however it is split
into calls.
A second pass runs the three again with ``tracemalloc`` on and prints each
run's peak of traced memory above what the process held at its start, to
0.01 MiB (traced_peak).  Cyclic garbage is collected before each start is
read, so an earlier run's garbage freed during a later one cannot lower
that peak, and the digit repeats from run to run; the timing pass stays
untraced.
The times are raw, not scaled by the machine's speed; BLAS and OpenMP
run on one thread, as in the benchmark.  It imports esfem
from the ``src/`` next to it and is not part of the test suite.
"""

import gc
import os
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from esfem import experiments, problems, stepper  # noqa: E402


def example1(solver):
    spec = problems.example1_problem(1.0, 0.0, 0.4, 1.0, 2.0, 0.5)
    experiments.run_level(spec, 4, 0.03, solver=solver)


def tumor():
    with tempfile.TemporaryDirectory() as out:
        experiments.tumor_experiment(0.0, 0.01, 0.01, level=3, tau=1e-3, t_end=0.1, seed=0,
                                     pre_time=1.0, out_dir=out, export_every=10)


def traced_peak(workload):
    """Bytes of traced memory that ``workload()`` peaks at above the
    traced memory held, free of cyclic garbage, at its start; tracemalloc
    must be tracing."""
    gc.collect()
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    workload()
    return tracemalloc.get_traced_memory()[1] - held


def main():
    stamps, run, records = [], stepper.run, []

    def stamp(step_index, state):
        stamps.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.monotonic()))

    def run_with_stamps(*args, observers=(), record=None, **kwargs):
        records.append(stepper.RunRecord() if record is None else record)
        return run(*args, observers=(*observers, stamp), record=records[-1], **kwargs)

    stepper.run = run_with_stamps
    workloads = {"coupled_direct": lambda: example1(stepper.DIRECT),
                 "coupled_cg": lambda: example1(stepper.CG), "tumor": tumor}
    for name, workload in workloads.items():
        stamps.clear()
        records.clear()
        workload()
        faults = [b[0] - a[0] for a, b in zip(stamps, stamps[1:])]
        ms = [1e3 * (b[1] - a[1]) for a, b in zip(stamps, stamps[1:])]
        (record,) = records  # one stepper.run per workload
        pcg_counts = ""
        for kind, calls in record.pcg_calls.items():
            its = record.pcg_iterations[kind]
            pcg_counts += f"  _pcg {kind} {calls}/{its} ({its / max(calls, 1):.1f})"
        load = " ".join(f"{x:.2f}" for x in os.getloadavg())
        kinds = " ".join(f"{kind} {n}" for kind, n in sorted(record.factorizations.items()))
        print(f"{name:<16}{record.steps:>5} steps  faults/step {statistics.median(faults):g}"
              f" (load {load})"
              f"  ms/step {statistics.median(ms):.3f}{pcg_counts}"
              f"  factorizations {kinds or 'none'}"
              f"  factor columns {record.factor_columns}", flush=True)
    stepper.run = run
    tracemalloc.start()
    for name, workload in workloads.items():
        peak = traced_peak(workload)
        print(f"{name:<16}tracemalloc peak {peak / 2**20:.2f} MiB", flush=True)
    tracemalloc.stop()


if __name__ == "__main__":
    main()
