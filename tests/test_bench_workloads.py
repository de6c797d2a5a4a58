"""The benchmark's traced workloads run against the current package.

bench/tracer.py wraps esfem functions by name, so a rename in the package
breaks the benchmark; running each workload once at its smoke size makes
such a rename fail here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("coupled_direct", "coupled_cg", "tumor")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_reports_its_layers(workload, tmp_path):
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "workload.py"), "--workload", workload,
         "--size", "smoke", "--seed", "1", "--trace", "1", "--out", str(tmp_path),
         "--report", str(report)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    layers = json.loads(report.read_text())["layers"]
    assert layers["stepper.solve_calls"] > 0
    # the tracer counts CG iterations by wrapping spla.cg, which no esfem path
    # calls: every Jacobi-CG solve runs on stepper._pcg, whose iterations
    # tests/test_stepper.py counts
    assert layers["stepper.cg_iterations"] == 0
    assert layers["assembly.load_calls"] > 0
