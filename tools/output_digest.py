"""Print a sha256 digest of the outputs of a fixed set of small runs.

Two checkouts compute the same results bitwise exactly when this script
prints the same text in each:

    python3 tools/output_digest.py > before.txt   # in one checkout
    python3 tools/output_digest.py > after.txt    # in the other
    diff before.txt after.txt

It imports esfem from the ``src/`` next to it, so it measures the checkout
it sits in.  One line per run, ``<label> <sha256>``:

- example1 at level 3 to t = 0.05 for every solver and normal coupling,
  at level 4 to t = 0.03 (the benchmark's coupled size) for every solver,
  and a level-2 run of the dynamic velocity law for every solver: final
  x, u, v, w, h_final and the five error norms
- seeded tumor runs at level 2, at level 3 (the benchmark's level,
  tau = 1e-3 and export every 10 steps, with pre_time 0.2 and t_end
  0.02), and at the benchmark's full tumor size (level 3, pre_time 1.0,
  t_end 0.1, seed 0): final x, u, v, w, the field envelope, the trace
  rows and every file it writes
- one line per file that the command line writes for small example1,
  example3, tumor and verify runs; the ``out=`` line of
  config_resolved.txt is left out, since it names the temporary directory.

It takes a few seconds and is not part of the test suite.
"""

import contextlib
import dataclasses
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from esfem import cli, experiments, problems, stepper  # noqa: E402

CLI_RUNS = {
    "example1": ["--levels", "1..2", "--t-end", "0.05"],
    "example3": ["--levels", "1..2", "--t-end", "0.05"],
    "tumor": ["--level", "1", "--t-end", "0.01", "--export-every", "5"],
    "verify": ["--level", "1"],
}


def digest(*parts):
    """sha256 over arrays (as float64 bytes), bytes and the repr of anything else."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part, dtype=np.float64).tobytes()
        elif not isinstance(part, bytes):
            part = repr(part).encode()
        h.update(part + b"\0")
    return h.hexdigest()


def state_parts(final):
    return final.x, final.u, final.v, final.w


def level_digest(spec, level, t_end, **solve):
    result, final = experiments.run_level(spec, level, t_end, **solve)
    norms = [float(value) for value in dataclasses.astuple(result.norms)]
    return digest(*state_parts(final), float(result.h_final), norms)


def file_parts(out):
    return [part for path in sorted(Path(out).iterdir())
            for part in (path.name, path.read_bytes())]


def tumor_digest(level, t_end, seed=3, pre_time=0.2):
    with tempfile.TemporaryDirectory() as out:
        final, envelope, trace = experiments.tumor_experiment(
            alpha=0.0, beta=0.01, delta=0.01, level=level, tau=1e-3, t_end=t_end, seed=seed,
            pre_time=pre_time, out_dir=out, export_every=10)
        return digest(*state_parts(final), sorted(envelope.items()), trace.rows,
                      *file_parts(out))


def cli_digests(experiment, argv):
    """(file name, digest) for every file one command-line run writes."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([experiment, *argv, "--out", out])
        lines = [("exit", digest(code))]
        for path in sorted(Path(out).iterdir()):
            data = path.read_bytes()
            if path.name == "config_resolved.txt":
                data = b"".join(line for line in data.splitlines(keepends=True)
                                if not line.startswith(b"out="))
            lines.append((path.name, digest(data)))
        return lines


def main():
    choices = stepper.StepperConfig.CHOICES
    example1 = problems.example1_problem()
    for solver in choices["solver"]:
        for coupling in choices["normal_coupling"]:
            print(f"example1/level3/{solver}/{coupling}",
                  level_digest(example1, 3, 0.05, solver=solver, normal_coupling=coupling),
                  flush=True)
    for solver in choices["solver"]:
        print(f"example1/level4/{solver}", level_digest(example1, 4, 0.03, solver=solver),
              flush=True)
    dynamic = dataclasses.replace(
        example1, law=problems.VelocityLaw(1.0, 0.0, 0.4, dynamic=True))
    for solver in choices["solver"]:
        print(f"dynamic/level2/{solver}", level_digest(dynamic, 2, 0.05, solver=solver),
              flush=True)
    print("tumor/level2/seed3", tumor_digest(2, 0.05), flush=True)
    print("tumor/level3/seed3", tumor_digest(3, 0.02), flush=True)
    print("tumor/level3/bench", tumor_digest(3, 0.1, seed=0, pre_time=1.0), flush=True)
    for experiment, argv in CLI_RUNS.items():
        for name, value in cli_digests(experiment, argv):
            print(f"cli/{experiment}/{name}", value, flush=True)


if __name__ == "__main__":
    main()
