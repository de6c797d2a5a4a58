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
- one line per file that the command line writes for small example1
  (with ``--dump-matrices``, so the matrix files too), example3, tumor
  and verify runs, and for ``verify --level 2 --seed 7``; the ``out=``
  line of config_resolved.txt is left out, since it names the temporary
  directory.

With ``--save PATH.npz`` it also saves the values behind each line, one
array per key ``<label>/<name>``: final x, u, v and w, ``h_final``, each
error norm, the tumor envelope and trace rows, and every written file as
its bytes.  ``tools/output_compare.py`` compares two such archives value
by value, which judges a change that moves the rounding:

    python3 tools/output_digest.py --save before.npz   # in one checkout
    python3 tools/output_digest.py --save after.npz    # in the other
    python3 tools/output_compare.py before.npz after.npz

It takes a few seconds and is not part of the test suite.
"""

import argparse
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

# label -> command line of one run
CLI_RUNS = {
    "example1": ["example1", "--levels", "1..2", "--t-end", "0.05", "--dump-matrices"],
    "example3": ["example3", "--levels", "1..2", "--t-end", "0.05"],
    "tumor": ["tumor", "--level", "1", "--t-end", "0.01", "--export-every", "5"],
    "verify": ["verify", "--level", "1"],
    "verify/level2/seed7": ["verify", "--level", "2", "--seed", "7"],
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


def state_arrays(final):
    """The final x, u, v and w that are set (a single-field run has no w)."""
    return {name: part for name, part in zip("xuvw", state_parts(final)) if part is not None}


def written_files(out):
    """Every file in ``out``, by name, as its bytes."""
    return {path.name: path.read_bytes() for path in sorted(Path(out).iterdir())}


def byte_array(data):
    return np.frombuffer(data, dtype=np.uint8)


def level_digest(spec, level, t_end, **solve):
    """(digest, arrays) of one example1 level."""
    result, final = experiments.run_level(spec, level, t_end, **solve)
    norms = dataclasses.asdict(result.norms)
    arrays = {**state_arrays(final), "h_final": np.float64(result.h_final),
              **{name: np.float64(value) for name, value in norms.items()}}
    return digest(*state_parts(final), float(result.h_final),
                  [float(value) for value in norms.values()]), arrays


def tumor_digest(level, t_end, seed=3, pre_time=0.2):
    """(digest, arrays) of one seeded tumor run and the files it writes."""
    with tempfile.TemporaryDirectory() as out:
        final, envelope, trace = experiments.tumor_experiment(
            alpha=0.0, beta=0.01, delta=0.01, level=level, tau=1e-3, t_end=t_end, seed=seed,
            pre_time=pre_time, out_dir=out, export_every=10)
        files = written_files(out)
    arrays = {**state_arrays(final),
              **{f"envelope/{name}": np.float64(value) for name, value in envelope.items()},
              "trace_rows": np.array(trace.rows, dtype=float),
              **{f"file/{name}": byte_array(data) for name, data in files.items()}}
    return digest(*state_parts(final), sorted(envelope.items()), trace.rows,
                  *[part for item in files.items() for part in item]), arrays


def cli_digests(argv):
    """(file name, digest, bytes) for every file one command-line run writes."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", out])
        lines = [("exit", digest(code), np.array(code))]
        for name, data in written_files(out).items():
            if name == "config_resolved.txt":
                data = b"".join(line for line in data.splitlines(keepends=True)
                                if not line.startswith(b"out="))
            lines.append((name, digest(data), byte_array(data)))
        return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="PATH.npz",
                        help="also save the values behind each line to this archive")
    args = parser.parse_args(argv)
    saved = {}

    def line(label, result):
        value, arrays = result
        print(label, value, flush=True)
        saved.update({f"{label}/{name}": array for name, array in arrays.items()})

    choices = stepper.StepperConfig.CHOICES
    example1 = problems.example1_problem()
    for solver in choices["solver"]:
        for coupling in choices["normal_coupling"]:
            line(f"example1/level3/{solver}/{coupling}",
                 level_digest(example1, 3, 0.05, solver=solver, normal_coupling=coupling))
    for solver in choices["solver"]:
        line(f"example1/level4/{solver}", level_digest(example1, 4, 0.03, solver=solver))
    dynamic = dataclasses.replace(
        example1, law=problems.VelocityLaw(1.0, 0.0, 0.4, dynamic=True))
    for solver in choices["solver"]:
        line(f"dynamic/level2/{solver}", level_digest(dynamic, 2, 0.05, solver=solver))
    line("tumor/level2/seed3", tumor_digest(2, 0.05))
    line("tumor/level3/seed3", tumor_digest(3, 0.02))
    line("tumor/level3/bench", tumor_digest(3, 0.1, seed=0, pre_time=1.0))
    for label, argv in CLI_RUNS.items():
        for name, value, data in cli_digests(argv):
            line(f"cli/{label}/{name}", (value, {"bytes": data}))
    if args.save:
        np.savez_compressed(args.save, **saved)


if __name__ == "__main__":
    main()
