"""Repeat the benchmark and summarize it: python3 bench/baseline.py --out FILE

Runs ``bench/run.py`` RUNS times on every workload untraced, each with
another seed, and ``--traced`` times traced, and writes one JSON file with
every run's metrics, each end-to-end metric's median and quartiles over
the runs with its spread (q3 - q1) / median, the traced layer tables, and
the run environment.  bench/baseline.json was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, ROOT, WORKLOADS

RUNS = 10


def invoke(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    tagged = {tag: json.loads(line[len(tag) + 1:]) for line in lines
              for tag in ("env", "layers") if line.startswith(tag + " ")}
    return json.loads(lines[-1]), tagged


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    p.add_argument("--traced", type=int, default=2)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    summary = {"run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs, traced, tables = [], [], []
        for i in range(RUNS):
            result, tagged = invoke(workload, args.first_seed + i, seconds, 0)
            runs.append(result)
            summary.setdefault("env", tagged["env"])
        for i in range(args.traced):
            result, tagged = invoke(workload, args.first_seed + i, seconds, 1)
            traced.append(result)
            tables.append(tagged["layers"])
        stats = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            stats[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                           "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                           "n": len(values), "values": values}
            print(f"{workload:15s} {name:12s} median {median:10.5g}  "
                  f"spread {stats[name]['spread']:6.2%}", flush=True)
        attempted = sum(r["attempted"] for r in runs + traced)
        failed = sum(r["failed"] for r in runs + traced)
        summary["workloads"][workload] = {
            "seeds": [args.first_seed + i for i in range(RUNS)],
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "all_correct": all(r["correct"] for r in runs + traced),
            "end_to_end": stats,
            "layers": tables,
        }
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
