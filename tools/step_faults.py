"""Print the median minor page faults and milliseconds per moving step,
the Jacobi-PCG iterations per velocity column and per field solve, the
factorizations by kind and their applications, and the tracemalloc peak
of each run.

    python3 tools/step_faults.py

Runs the benchmark's three sizes in this process, one after another:
example1 at level 4 to t = 0.03 with each velocity solver, and the seeded
level-3 tumor run (1,000 pre-relaxation and 100 moving steps, exporting
every 10).  An observer appended to every ``stepper.run`` reads
``ru_minflt`` and the monotonic clock after each step; the medians are
over the differences between consecutive steps.  A step that allocates
fresh memory beyond what the allocator keeps takes minor faults, so a
nonzero median marks allocation churn that no timing shows directly; a
loaded machine adds faults of its own, so the 1, 5 and 15 minute load
averages (``os.getloadavg``) are printed beside the median.
The same pass counts the calls of ``stepper._pcg`` and the iterations
they return, apart for the velocity columns (the solves that
``stepper.make_solver`` builds, the columns that a held factor
preconditions among them) and the field solves, the factorizations of
``assembly.factorize`` by kind (the band Cholesky or SuperLU) and the
applications of their ``solve``, as calls and as columns (``columns``),
over the whole run (pre-relaxation included): exact counts, so two
commits that claim the same iterations print the same numbers, and the
same work prints the same columns however it is split into calls.
A second pass runs the three again with ``tracemalloc`` on, resetting the
peak before each, and prints each run's peak of traced memory above what
the process held at its start, to 0.01 MiB, the digit that repeats
from run to run; the timing pass stays untraced.
The times are raw, not scaled by the machine's speed; BLAS and OpenMP
run on one thread, as in the benchmark.  It imports esfem
from the ``src/`` next to it and is not part of the test suite.
"""

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

from esfem import assembly, experiments, problems, stepper  # noqa: E402


class CountedFactor:
    """A factor whose ``solve`` calls are counted in ``applications``."""

    def __init__(self, factor, applications):
        self.factor, self.applications = factor, applications

    def solve(self, rhs):
        self.applications.append(rhs.shape)
        return self.factor.solve(rhs)


def columns(shapes):
    """The columns of the right-hand sides of the given shapes: 1 for an
    (N,) one, k for an (N, k) one."""
    return sum(1 if len(shape) == 1 else shape[1] for shape in shapes)


def example1(solver):
    spec = problems.example1_problem(1.0, 0.0, 0.4, 1.0, 2.0, 0.5)
    experiments.run_level(spec, 4, 0.03, solver=solver)


def tumor():
    with tempfile.TemporaryDirectory() as out:
        experiments.tumor_experiment(0.0, 0.01, 0.01, level=3, tau=1e-3, t_end=0.1, seed=0,
                                     pre_time=1.0, out_dir=out, export_every=10)


def main():
    stamps, run, pcg, make_solver = [], stepper.run, stepper._pcg, stepper.make_solver
    iterations = {"velocity": [], "field": []}
    solving = ["field"]  # which kind of solve the _pcg calls belong to
    factorize, kinds, applications = assembly.factorize, [], []

    def stamp(step_index, state):
        stamps.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.monotonic()))

    def run_with_stamps(*args, observers=(), **kwargs):
        return run(*args, observers=(*observers, stamp), **kwargs)

    def pcg_with_count(*args):
        x, n = pcg(*args)
        iterations[solving[0]].append(n)
        return x, n

    def make_velocity_solver(*args):
        solve = make_solver(*args)

        def velocity_solve(rhs):
            solving[0] = "velocity"
            try:
                return solve(rhs)
            finally:
                solving[0] = "field"

        return velocity_solve

    def factorize_with_count(matrix):
        factor = factorize(matrix)
        kinds.append("band" if isinstance(factor, assembly.BandCholesky) else "SuperLU")
        return CountedFactor(factor, applications)

    stepper.run, stepper._pcg = run_with_stamps, pcg_with_count
    stepper.make_solver, assembly.factorize = make_velocity_solver, factorize_with_count
    workloads = {"coupled_direct": lambda: example1(stepper.DIRECT),
                 "coupled_cg": lambda: example1(stepper.CG), "tumor": tumor}
    for name, workload in workloads.items():
        for counts in (stamps, *iterations.values(), kinds, applications):
            counts.clear()
        workload()
        faults = [b[0] - a[0] for a, b in zip(stamps, stamps[1:])]
        ms = [1e3 * (b[1] - a[1]) for a, b in zip(stamps, stamps[1:])]
        pcg_counts = "".join(f"  _pcg {kind} {len(n)}/{sum(n)} ({sum(n) / max(len(n), 1):.1f})"
                             for kind, n in iterations.items())
        load = " ".join(f"{x:.2f}" for x in os.getloadavg())
        print(f"{name:<16}{len(ms) + 1:>5} steps  faults/step {statistics.median(faults):g}"
              f" (load {load})"
              f"  ms/step {statistics.median(ms):.3f}{pcg_counts}"
              f"  factorizations band {kinds.count('band')}"
              f" SuperLU {kinds.count('SuperLU')}  applications {len(applications)}"
              f" ({columns(applications)} columns)", flush=True)
    stepper._pcg, stepper.make_solver, assembly.factorize = pcg, make_solver, factorize
    tracemalloc.start()
    for name, workload in workloads.items():
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        workload()
        peak = tracemalloc.get_traced_memory()[1] - held
        print(f"{name:<16}tracemalloc peak {peak / 2**20:.2f} MiB", flush=True)
    tracemalloc.stop()


if __name__ == "__main__":
    main()
