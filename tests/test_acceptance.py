"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints a single PASS/FAIL line; the lines are also written
to acceptance_report.txt in the working directory, without criterion 1's
runtime, so a rerun on an unchanged tree rewrites the report byte for
byte.  The expensive convergence, pattern-formation and temporal-order
runs are fixtures shared by the criteria that gate on them; every run the
selected criteria need is started at once, two worker processes at a
time, when the first of them begins.
"""

import concurrent.futures
import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from esfem import analysis, assembly, experiments, mesh, problems, stepper, verification

REPORT_LINES = []

# published reference magnitudes for the coupled benchmark (same-h regime);
# our mesh family is more uniform, so errors may only be smaller
_REFERENCE = analysis.load_reference_table("coupled_u")["err_u_LinfL2"][3]
REFERENCE_H = _REFERENCE[1]
REFERENCE_U_LINF_L2 = _REFERENCE[2]

pytestmark = pytest.mark.acceptance

ENVELOPE = json.loads((Path(__file__).parent / "data" / "tumor_envelope.json").read_text())


def criterion(number, name, ok, detail, printed=""):
    """Print the criterion's line and keep it for the report; ``printed``,
    a timing, ends the printed line only."""
    head = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    line = f"{head}  [{' '.join(filter(None, (detail, printed)))}]"
    print(line)
    REPORT_LINES.append(f"{head}  [{detail}]")
    assert ok, line


@pytest.fixture(scope="session", autouse=True)
def write_report():
    yield
    if REPORT_LINES:
        Path("acceptance_report.txt").write_text("\n".join(REPORT_LINES) + "\n")


def _example1_cholesky():
    start = time.perf_counter()
    report = experiments.example1_study(levels=(1, 2, 3, 4))
    return report, time.perf_counter() - start


def _example1_cg():
    return experiments.example1_study(levels=(1, 2, 3, 4), solver=stepper.CG)


def _example3_arm(alpha, beta):
    failures = []
    report = experiments.example1_study(
        levels=(1, 2, 3, 4), alpha=alpha, beta=beta, delta=0.0, t_end=2.0,
        on_failure=lambda level, err: failures.append(level))
    return report, failures


def _tumor_run(tag, out):
    variant = ENVELOPE["variants"]["beta" if tag.startswith("beta") else "alpha"]
    final, env, _ = experiments.tumor_experiment(
        alpha=variant["alpha"], beta=variant["beta"], delta=ENVELOPE["delta"],
        level=ENVELOPE["level"], tau=ENVELOPE["tau"], t_end=ENVELOPE["t_end"],
        seed=ENVELOPE["seed"], out_dir=str(out), export_every=2500)
    return {"final": final, "envelope": env, "out": out}


def _temporal_order():
    return experiments.temporal_order_study()


TUMOR_TAGS = ("beta", "alpha", "beta_repeat")

# the runs behind each shared fixture, longest first so that the two
# workers finish close together
FIXTURE_RUNS = {
    "example3_reports": ("example3_alpha", "example3_beta"),
    "temporal_order": ("temporal_order",),
    "tumor_runs": tuple(f"tumor_{tag}" for tag in TUMOR_TAGS),
    "example1_tables": ("example1_cholesky", "example1_cg"),
}


@pytest.fixture(scope="module", autouse=True)
def runs(request, tmp_path_factory):
    """Futures of every long run that the selected criteria use."""
    used = set()
    for item in request.session.items:
        if item.module is request.module:
            used.update(item.fixturenames)
    jobs = {
        "example3_alpha": (_example3_arm, 1.0, 0.0),
        "example3_beta": (_example3_arm, 0.0, 1.0),
        "temporal_order": (_temporal_order,),
        "example1_cholesky": (_example1_cholesky,),
        "example1_cg": (_example1_cg,),
    }
    if "tumor_runs" in used:
        for tag in TUMOR_TAGS:
            jobs[f"tumor_{tag}"] = (_tumor_run, tag, tmp_path_factory.mktemp(f"tumor_{tag}"))
    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=min(2, os.cpu_count() or 1),
        mp_context=multiprocessing.get_context("fork"))
    futures = {}
    for fixture, names in FIXTURE_RUNS.items():
        if fixture in used:
            for name in names:
                futures[name] = pool.submit(*jobs[name])
    yield futures
    pool.shutdown(cancel_futures=True)


@pytest.fixture(scope="module")
def example1_tables(runs):
    report, runtime = runs["example1_cholesky"].result()
    return {"cholesky": report, "runtime": runtime, "cg": runs["example1_cg"].result()}


@pytest.fixture(scope="module")
def example3_reports(runs):
    alpha, alpha_failed = runs["example3_alpha"].result()
    beta, beta_failed = runs["example3_beta"].result()
    return {"alpha": alpha, "beta": beta,
            "failures": {"alpha": alpha_failed, "beta": beta_failed}}


@pytest.fixture(scope="module")
def tumor_runs(runs):
    return {tag: runs[f"tumor_{tag}"].result() for tag in TUMOR_TAGS}


@pytest.fixture(scope="module")
def temporal_order(runs):
    return runs["temporal_order"].result()


class TestCriterion1:
    def test_example1_convergence(self, example1_tables):
        report = example1_tables["cholesky"]
        ok = len(report.levels) == 4
        eoc_l2 = report.eocs("u_linf_l2")[-1]
        eoc_h1 = report.eocs("u_l2_h1")[-1]
        ok &= eoc_l2 >= 1.8 and eoc_h1 >= 1.7
        # absolute error at the comparable-h level may not exceed twice the
        # published value (it is in fact far below it on this mesh family)
        err_l3 = report.levels[2].norms.u_linf_l2
        ok &= err_l3 <= 2.0 * REFERENCE_U_LINF_L2
        ok &= abs(report.levels[2].h_final - REFERENCE_H) <= 0.35 * REFERENCE_H
        runtime = example1_tables["runtime"]
        ok &= runtime <= 300.0
        criterion(
            1, "coupled convergence", ok,
            f"EOC_L2={eoc_l2:.2f} EOC_H1={eoc_h1:.2f} "
            f"err@h~{report.levels[2].h_final:.3f}={err_l3:.3e} "
            f"(reference {REFERENCE_U_LINF_L2})", printed=f"runtime={runtime:.0f}s")


class TestCriterion2:
    def test_surface_and_velocity_convergence(self, example3_reports):
        report = example3_reports["alpha"]
        ok = len(report.levels) == 4
        eoc_v = report.eocs("v_linf_l2")[-1]
        eoc_x = report.eocs("x_linf_h1")[-1]
        ok &= eoc_v >= 1.6 and eoc_x >= 1.0
        criterion(2, "surface/velocity convergence", ok,
                  f"EOC_v_L2={eoc_v:.2f} EOC_x_H1={eoc_x:.2f}")


class TestCriterion3:
    def test_regularization_comparison(self, example3_reports):
        alpha, beta = example3_reports["alpha"], example3_reports["beta"]
        alpha_by_level = {r.level: r for r in alpha.levels}
        beta_by_level = {r.level: r for r in beta.levels}
        common = sorted(set(alpha_by_level) & set(beta_by_level))
        ok = len(common) >= 3
        for level in common:
            ok &= (alpha_by_level[level].norms.v_linf_l2
                   < beta_by_level[level].norms.v_linf_l2)
        # the velocity H1 EOCs of the mean curvature arm stop improving at
        # the finest levels (the published trend shows them going negative)
        beta_eocs = [e for e in beta.eocs("v_linf_h1") if e is not None]
        ok &= len(beta_eocs) >= 2
        ok &= beta_eocs[-1] <= beta_eocs[-2]
        ok &= beta_eocs[-1] <= 0.5
        criterion(3, "regularization comparison", ok,
                  f"common levels {common}, final beta v_H1 EOCs "
                  + " ".join(f"{e:.2f}" for e in beta_eocs[-2:]))


class TestCriterion4:
    def test_verification_suite(self):
        results = {r.name: r for r in verification.verify_suite(level=2, seed=0)}
        ok = results["matrix_difference_mass"].residual <= 1e-8
        ok &= results["matrix_difference_stiffness"].residual <= 1e-8
        ok &= results["norm_equivalence_excess"].residual <= 1e-6
        ok &= results["transport_order"].residual >= 0.9
        ok &= results["closed_surface_normal_sum"].residual <= 1e-12
        ok &= results["stiffness_kernel"].residual <= 1e-12
        ok &= results["energy_norm_identity"].residual <= 1e-13
        ok &= all(r.passed for r in results.values())
        criterion(4, "verification suite", ok,
                  " ".join(f"{n}={r.residual:.2e}" for n, r in results.items()
                           if n.startswith(("matrix_difference", "closed", "stiffness_k"))))


class TestCriterion5:
    def test_conservation_and_stationarity(self):
        m0 = mesh.generate_icosphere(2, 1.0)
        spec = problems.ProblemSpec(law=problems.VelocityLaw(1.0, 0.0, 0.0))
        rng = np.random.Generator(np.random.Philox(5))
        u0 = rng.standard_normal(m0.num_nodes)
        mass = assembly.assemble_mass(m0)
        ones = np.ones(m0.num_nodes)
        total0 = float(ones @ (mass @ u0))
        config = stepper.StepperConfig(tau=1e-3, t_end=1.0)
        final = stepper.run(spec, m0, config, start=stepper.initial_state(spec, m0, u0=u0))
        node_drift = np.abs(final.x - m0.coords).max()
        mass_end = assembly.assemble_mass(final.mesh)
        drift = abs(float(ones @ (mass_end @ final.u)) - total0) / abs(total0)
        ok = node_drift <= 1e-12 and drift <= 1e-10
        criterion(5, "conservation and stationarity", ok,
                  f"node drift={node_drift:.2e} mass drift={drift:.2e} over 1000 steps")


class TestCriterion6:
    def test_temporal_order(self, temporal_order):
        study = temporal_order
        ok = all(order >= 0.9 for order in study["orders"])
        criterion(6, "temporal order", ok,
                  "orders " + " ".join(f"{o:.2f}" for o in study["orders"]))


class TestCriterion7:
    def test_tumor_run(self, tumor_runs):
        ok = True
        for tag in ("beta", "alpha"):
            bounds = ENVELOPE["variants"][tag]
            run = tumor_runs[tag]
            final = run["final"]
            env = run["envelope"]
            ok &= np.isfinite(final.u).all() and np.isfinite(final.w).all()
            ok &= bounds["u_min"] <= env["u_min"] and env["u_max"] <= bounds["u_max"]
            ok &= bounds["w_min"] <= env["w_min"] and env["w_max"] <= bounds["w_max"]
            radii = np.linalg.norm(final.x, axis=1)
            ok &= bounds["radius_min"] <= radii.min() and radii.max() <= bounds["radius_max"]
            out = run["out"]
            ok &= (out / "surface_002500.vtk").exists()
            ok &= (out / "surface_final.vtk").exists()
            ok &= (out / "tumor_summary.csv").exists()
        # identical seeds reproduce bitwise-identical outputs
        for name in ("tumor_summary.csv", "surface_002500.vtk", "surface_final.vtk"):
            a = (tumor_runs["beta"]["out"] / name).read_bytes()
            b = (tumor_runs["beta_repeat"]["out"] / name).read_bytes()
            ok &= a == b
        criterion(7, "tumor run", ok,
                  f"u envelope {tumor_runs['beta']['envelope']['u_min']:.3f}"
                  f"..{tumor_runs['beta']['envelope']['u_max']:.3f}")


class TestCriterion8:
    def test_solver_independence(self, example1_tables):
        direct = example1_tables["cholesky"]
        iterative = example1_tables["cg"]
        ok = len(direct.levels) == len(iterative.levels)
        worst = 0.0
        for a, b in zip(direct.levels, iterative.levels):
            entries_a = [a.h_final, a.norms.u_linf_l2, a.norms.u_l2_h1,
                         a.norms.v_linf_l2, a.norms.v_linf_h1, a.norms.x_linf_h1]
            entries_b = [b.h_final, b.norms.u_linf_l2, b.norms.u_l2_h1,
                         b.norms.v_linf_l2, b.norms.v_linf_h1, b.norms.x_linf_h1]
            for x, y in zip(entries_a, entries_b):
                rel = abs(x - y) / max(abs(x), 1e-300)
                worst = max(worst, rel)
        ok &= worst <= 1e-8
        criterion(8, "solver independence", ok, f"worst relative change {worst:.2e}")
