"""Benchmark harness for esfem-evolve.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts a fixed number of fresh processes of ``bench/workload.py`` one after
another, about S seconds' worth on the reference machine (at least three),
gates each on the recorded reference outputs, and prints a table of the
metrics with their quartiles over the processes, the run environment, and
as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
every process runs untraced and the metrics are the end-to-end metrics of
BENCHMARK.json, with every time scaled by the machine speed the process
measured around it (bench/calibration.py); with ``--trace 1`` traced and
untraced processes alternate and the metrics are the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("coupled_direct", "coupled_cg", "tumor")
REQUIRED = [ROOT / "BENCHMARK.json", ROOT / "src" / "esfem" / "__init__.py",
            ROOT / "tests" / "data" / "tumor_envelope.json", BENCH / "reference.json"]

# BLAS/OpenMP threads of every workload process; nproc is 2 on the
# reference machine, and one thread keeps timings independent of neighbours.
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# Seconds one process of each workload takes, start-up included, on the
# reference machine at the baseline commit.  A run starts
# round(--seconds / PROCESS_S) processes, a count that does not depend on
# how fast the program under test is, so a parent and its change take their
# medians over the same number of processes and steps.
PROCESS_S = {"coupled_direct": 2.5, "coupled_cg": 1.75, "tumor": 3.0}
MIN_PROCESSES = 3
BUDGET_S = 160.0  # no new process starts after this; a run must end within 180 s
RTOL = 1e-8  # acceptance criterion 8's solver-independence bound
SMOOTH = 5  # per-step speed factors are medians over this many neighbours


@dataclass
class Child:
    """One workload process: its timings, outputs and gate verdict."""

    traced: bool
    t_spawn: float
    problems: list = field(default_factory=list)
    report: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.problems

    @property
    def startup_s(self):
        """Interpreter start and the imports of numpy, scipy and esfem."""
        return self.report["t_imported"] - self.t_spawn

    def stretches(self):
        """The process's wall time cut into stretches, each with the speed
        factor it ran at: set-up (start-up, then up to the first step's
        stamp), every moving-surface step, and the tail after the last step
        up to the results written.  The calibration units the process timed
        (bench/calibration.py) lie outside every stretch; a traced process
        timed none, and its factors are 1."""
        r = self.report
        stamps = r["stamps"]
        starts = [r["t_start"]] + [s[-1] for s in stamps]
        ends = [s[0] for s in stamps] + [r["t_done"]]
        raw = [end - start for start, end in zip(starts, ends)]
        raw[0] += self.startup_s
        if "speeds" not in r:
            return raw, [1.0] * len(raw)
        before, per_step, after = r["speeds"]
        # A single unit can be hit by an interrupt; the machine's state
        # lasts a second or more, so a median over SMOOTH neighbours holds it.
        half = SMOOTH // 2
        marks = [statistics.median(before)]
        marks += [statistics.median(per_step[max(0, i - half):i + half + 1])
                  for i in range(len(per_step))]
        marks.append(statistics.median(after))
        return raw, [(a + b) / 2 for a, b in zip(marks, marks[1:])]

    def scaled(self):
        """Stretch times divided by their speed factors."""
        raw, factors = self.stretches()
        return [t / f for t, f in zip(raw, factors)]

    @property
    def raw_wall_s(self):
        return sum(self.stretches()[0])

    @property
    def wall_s(self):
        return sum(self.scaled())

    @property
    def setup_s(self):
        return self.scaled()[0]

    @property
    def step_ms(self):
        return [1e3 * t for t in self.scaled()[1:-1]]


def child_env():
    env = dict(os.environ, **THREAD_CAPS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(workload, size, seed, traced, work, timeout):
    """Run one fresh workload process and read its report."""
    out = Path(tempfile.mkdtemp(dir=work))
    report = out / "report.json"
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--size", size, "--seed", str(seed), "--trace", str(int(traced)),
           "--out", str(out), "--report", str(report)]
    child = Child(traced=traced, t_spawn=time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            child.problems.append(f"exit code {proc.returncode}: {tail[0]}")
        else:
            child.report = json.loads(report.read_text())
    except subprocess.TimeoutExpired:
        child.problems.append(f"killed after {timeout:.0f} s")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return child


def _close(value, ref, scale):
    return abs(value - ref) <= RTOL * scale


def gate(workload, size, seed, outputs, reference, envelope_bounds):
    """Problems with one process's outputs; an empty list means it passed.

    Coupled workloads compare h_final and the five error norms to the
    reference (recorded with the direct solver, so CG is held to criterion
    8's bound).  tumor checks the u/w envelope against the bounds recorded
    for the tests and, for seeds with a reference, the envelope and the
    final u, w and x.
    """
    found = []
    if not outputs["finite"]:
        found.append("non-finite final state")
    ref = reference[size]
    if workload.startswith("coupled"):
        ref = ref["coupled"]
        pairs = [("h_final", outputs["h_final"], ref["h_final"])]
        pairs += [(k, outputs["norms"][k], v) for k, v in ref["norms"].items()]
        found += [f"{k} = {v!r}, reference {r!r}" for k, v, r in pairs
                  if not _close(v, r, abs(r))]
        return found
    env = outputs["envelope"]
    for species in ("u", "w"):
        lo, hi = envelope_bounds[f"{species}_min"], envelope_bounds[f"{species}_max"]
        if not lo <= env[f"{species}_min"] <= env[f"{species}_max"] <= hi:
            found.append(f"{species} envelope outside [{lo}, {hi}]")
    ref = ref["tumor"].get(str(seed))
    if ref is not None:
        found += [f"envelope {k} = {env[k]!r}, reference {r!r}"
                  for k, r in ref["envelope"].items() if not _close(env[k], r, abs(r))]
        for name in ("u", "w", "x"):
            scale = max(abs(ref[name]["min"]), abs(ref[name]["max"]))
            found += [f"final {name} {k} = {outputs[name][k]!r}, reference {r!r}"
                      for k, r in ref[name].items()
                      if not _close(outputs[name][k], r, scale)]
    return found


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def p95(samples):
    return statistics.quantiles(samples, n=20, method="inclusive")[18]


def per_process(c):
    """Every end-to-end metric of one process."""
    steps = c.step_ms
    return {"wall_s": c.wall_s, "setup_s": c.setup_s,
            "step_ms_p50": statistics.median(steps), "step_ms_p95": p95(steps),
            "peak_rss_mb": c.report["peak_rss_mb"]}


def end_to_end(children):
    """One run's end-to-end metrics, from speed-scaled times.

    ``wall_s``, ``setup_s`` and ``peak_rss_mb`` are medians over the
    processes; ``step_ms_p50`` and ``step_ms_p95`` pool every step of every
    process, so that 25 or more lie beyond the 95th percentile.
    """
    rows = [per_process(c) for c in children]
    values = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    steps = [ms for c in children for ms in c.step_ms]
    values["step_ms_p50"] = statistics.median(steps)
    values["step_ms_p95"] = p95(steps)
    return values, rows, len(steps)


def layers(c):
    """A traced process's layer table plus ``process.startup_s``: interpreter
    start and the imports of numpy, scipy and esfem, before any layer runs."""
    return dict(c.report["layers"], **{"process.startup_s": c.startup_s})


def layer_table(traced, plain):
    """Median per-layer values of the traced processes, plus the tracing
    overhead and the shares of the traced wall time the layer self times
    cover, with and without ``process.startup_s``."""
    tables = [layers(c) for c in traced]
    table = {k: statistics.median(t[k] for t in tables) if k.endswith("_s") else v
             for k, v in tables[0].items()}
    wall = statistics.median(c.raw_wall_s for c in traced)
    table["trace.overhead_frac"] = wall / statistics.median(c.raw_wall_s for c in plain) - 1.0
    # analysis.error_update_s is busy time; its self time is a row of its own.
    self_keys = [k for k in table if k.endswith("_s") and not k.startswith("trace.")
                 and k != "analysis.error_update_s"]
    covered = statistics.median(sum(t[k] for k in self_keys) / c.raw_wall_s
                                for t, c in zip(tables, traced))
    no_startup = statistics.median(
        sum(t[k] for k in self_keys if k != "process.startup_s") / c.raw_wall_s
        for t, c in zip(tables, traced))
    return table, covered, no_startup, wall


def count_mismatches(traced):
    """Counts must repeat exactly between traced processes."""
    counts = [{k: v for k, v in layers(c).items() if not k.endswith("_s")} for c in traced]
    return [f"{k} differs between traced runs: {[c[k] for c in counts]}"
            for k in counts[0] if len({c[k] for c in counts}) > 1]


def environment():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_caps": THREAD_CAPS,
        "loadavg_1min": os.getloadavg()[0],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="esfem-evolve benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: the reduced size the benchmark's tests use")
    args = p.parse_args(argv)

    missing = [str(path.relative_to(ROOT)) for path in REQUIRED if not path.is_file()]
    if missing:
        print(f"bench: cannot run, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    env = environment()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH / "reference.json").read_text())
    bounds = json.loads((ROOT / "tests/data/tumor_envelope.json").read_text())["variants"]["beta"]

    kinds = itertools.cycle([True, False]) if args.trace else itertools.repeat(False)
    children = []
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root)
    n_processes = max(MIN_PROCESSES, round(args.seconds / PROCESS_S[args.workload]))
    start = time.monotonic()
    try:
        for traced in itertools.islice(kinds, n_processes):
            elapsed = time.monotonic() - start
            if elapsed >= BUDGET_S:
                break
            child = run_child(args.workload, args.size, args.seed, traced, work,
                              timeout=BUDGET_S - elapsed)
            if child.ok:
                child.problems += gate(args.workload, args.size, args.seed,
                                       child.report["outputs"], reference, bounds)
            children.append(child)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    failed = [c for c in children if not c.ok]
    for c in failed:
        print(f"FAILED process ({'traced' if c.traced else 'untraced'}): {'; '.join(c.problems)}")
    plain = [c for c in children if c.ok and not c.traced]
    traced = [c for c in children if c.ok and c.traced]
    if not plain or (args.trace and not traced):
        print("bench: no process passed the correctness gate", file=sys.stderr)
        return 1
    correct = not failed
    print(f"{args.workload} ({args.size}, seed {args.seed}): {len(children)} of "
          f"{n_processes} processes, "
          f"{len(failed)} failed, failed_frac {len(failed) / len(children):.3f}")

    if args.trace:
        problems = count_mismatches(traced)
        for line in problems:
            print("FAILED steadiness:", line)
        correct = correct and not problems
        table, covered, no_startup, wall = layer_table(traced, plain)
        print(f"{'layer metric':34s} {'median':>14s}   ({len(traced)} traced processes)")
        for k, v in table.items():
            print(f"{k:34s} {v:14.6g}")
        print(f"coverage: layer self times are {covered:.1%} of the traced wall time "
              f"({wall:.3f} s), {no_startup:.1%} without process.startup_s")
        print("layers " + json.dumps(dict(table, **{
            "trace.coverage_frac": covered, "trace.coverage_no_startup_frac": no_startup,
            "trace.wall_s": wall})))
        metrics = {m["name"]: {"value": table[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values, rows, n_steps = end_to_end(plain)
        print(f"{'metric':14s} {'value':>12s} {'q1':>12s} {'q3':>12s}  "
              f"(quartiles over {len(rows)} processes; {n_steps} steps pooled)")
        for name, value in values.items():
            q1, _, q3 = quartiles([r[name] for r in rows])
            print(f"{name:14s} {value:12.6g} {q1:12.6g} {q3:12.6g}")
        q1, factor, q3 = quartiles([f for c in plain for f in c.stretches()[1]])
        print(f"speed factor   {factor:12.6g} {q1:12.6g} {q3:12.6g}  (over every stretch; "
              f"unscaled wall_s median {statistics.median(c.raw_wall_s for c in plain):.6g} s)")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print("env " + json.dumps(env))
    print(json.dumps({"correct": correct, "attempted": len(children),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
