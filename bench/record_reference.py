"""Record the outputs the correctness gate compares: python3 bench/record_reference.py

Runs each workload size once untraced with the direct solver and writes
bench/reference.json: h_final and the five error norms of the coupled
problem, and for tumor the u/w envelope and digests of the final u, w and
x for every seed in TUMOR_SEEDS.  Re-record only when a change is meant to
alter the numerical results.
"""

from __future__ import annotations

import json
import shutil
import tempfile

from run import BENCH, ROOT, run_child

TUMOR_SEEDS = range(32)


def outputs(workload, size, seed, work):
    child = run_child(workload, size, seed, traced=False, work=work, timeout=600)
    if not child.ok:
        raise SystemExit(f"{workload} {size} seed {seed}: {'; '.join(child.problems)}")
    return child.report["outputs"]


def main():
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=ROOT / ".bench_work")
    reference = {}
    try:
        for size in ("smoke", "full"):
            coupled = outputs("coupled_direct", size, 0, work)
            tumor = {}
            for seed in TUMOR_SEEDS:
                out = outputs("tumor", size, seed, work)
                tumor[str(seed)] = {k: out[k] for k in ("envelope", "u", "w", "x")}
            reference[size] = {
                "coupled": {"h_final": coupled["h_final"], "norms": coupled["norms"]},
                "tumor": tumor,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
