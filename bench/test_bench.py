"""Tests of the benchmark itself, on the reduced "smoke" size.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

from run import BENCH, MIN_PROCESSES, ROOT, WORKLOADS, Child, gate

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())
BOUNDS = json.loads((ROOT / "tests/data/tumor_envelope.json").read_text())["variants"]["beta"]


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), next(json.loads(line[7:]) for line in lines
                                       if line.startswith("layers "))


@pytest.fixture(scope="module")
def traced_twice():
    return {w: [smoke(w, 1) for _ in range(2)] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", "0", "--size", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == MIN_PROCESSES
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_emit_every_layer_metric_and_repeat_counts(workload, traced_twice):
    (first, table_a), (second, table_b) = traced_twice[workload]
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [k for k in table_a if not k.endswith("_s") and not k.startswith("trace.")]
    assert counts
    assert {k: table_a[k] for k in counts} == {k: table_b[k] for k in counts}


def test_counts_follow_the_workload_structure(traced_twice):
    direct = traced_twice["coupled_direct"][0][1]
    cg = traced_twice["coupled_cg"][0][1]
    tumor = traced_twice["tumor"][0][1]
    assert direct["stepper.factor_per_step"] == 2.0 and direct["stepper.lu_nnz"] > 0
    assert cg["stepper.factor_calls"] == 0 and cg["stepper.cg_iterations"] > 0
    assert tumor["stepper.factor_per_step"] == 3.0
    # two factorizations in the frozen-surface pre-relaxation
    steps = tumor["stepper.solve_calls"] / 3
    assert tumor["stepper.factor_calls"] == 3 * steps + 2
    assert tumor["analysis.error_update_calls"] == 0 and tumor["mesh.export_bytes"] > 0
    assert direct["mesh.export_bytes"] == 0 and direct["analysis.error_update_calls"] > 0


def test_stretches_are_divided_by_the_speed_factors_around_them():
    # start-up 0.5 s, set-up 1 s, two steps of 0.2 s, tail 0.1 s; each stamp
    # is followed by 0.01 s of calibration, which no stretch includes
    report = {"t_imported": 0.5, "t_start": 0.6, "t_done": 2.32,
              "stamps": [[1.6, 1.61], [1.81, 1.82], [2.02, 2.22]],
              "speeds": [[1.0, 1.0, 3.0], [1.0, 1.0, 1.0], [2.0, 2.0]]}
    child = Child(traced=False, t_spawn=0.0, report=report)
    raw, factors = child.stretches()
    assert raw == pytest.approx([1.5, 0.2, 0.2, 0.1])
    assert factors == pytest.approx([1.0, 1.0, 1.0, 1.5])
    assert child.raw_wall_s == pytest.approx(2.0)
    assert child.wall_s == pytest.approx(1.9 + 0.1 / 1.5)
    assert child.setup_s == pytest.approx(1.5)
    assert child.step_ms == pytest.approx([200.0, 200.0])
    traced = Child(traced=True, t_spawn=0.0, report=dict(report, stamps=[[1.6], [1.8], [2.0]]))
    traced.report.pop("speeds")
    assert traced.stretches()[1] == [1.0] * 4


def coupled_outputs():
    ref = REFERENCE["smoke"]["coupled"]
    return {"h_final": ref["h_final"], "norms": dict(ref["norms"]), "finite": True}


def tumor_outputs(seed="7"):
    ref = REFERENCE["smoke"]["tumor"][seed]
    return dict(copy.deepcopy(ref), finite=True)


def test_gate_accepts_the_reference_and_rejects_a_wrong_answer():
    assert gate("coupled_cg", "smoke", 3, coupled_outputs(), REFERENCE, BOUNDS) == []
    assert gate("tumor", "smoke", 7, tumor_outputs(), REFERENCE, BOUNDS) == []

    within = coupled_outputs()
    within["norms"]["u_l2_h1"] *= 1 + 5e-9
    assert gate("coupled_direct", "smoke", 0, within, REFERENCE, BOUNDS) == []
    wrong = coupled_outputs()
    wrong["norms"]["u_l2_h1"] *= 1 + 5e-8
    assert gate("coupled_direct", "smoke", 0, wrong, REFERENCE, BOUNDS)

    wrong = tumor_outputs()
    wrong["x"]["l2"] *= 1 + 5e-8
    assert gate("tumor", "smoke", 7, wrong, REFERENCE, BOUNDS)
    nonfinite = dict(tumor_outputs(), finite=False)
    assert gate("tumor", "smoke", 7, nonfinite, REFERENCE, BOUNDS)


def test_gate_without_a_reference_checks_the_envelope_bounds():
    unrecorded = tumor_outputs()
    assert gate("tumor", "smoke", 10**6, unrecorded, REFERENCE, BOUNDS) == []
    unrecorded["envelope"]["u_max"] = BOUNDS["u_max"] * 1.01
    assert gate("tumor", "smoke", 10**6, unrecorded, REFERENCE, BOUNDS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "tumor", "--seed", "1", "--seconds", "10", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
