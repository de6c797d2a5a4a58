"""Experiment drivers shared by the command line and the acceptance suite.

The study and tumor drivers take StepperConfig's solve options (solver,
normal_coupling) as keyword arguments ``**solve`` and hand them to
StepperConfig unchanged, so an option left out takes its default there.
"""

from __future__ import annotations

import numpy as np

from . import analysis, assembly, mesh, problems, stepper
from .errors import MeshDegenerated, MissingExactSolution


def step_size_for(mesh0, t_end, tau=None, tau_c=0.1):
    """Uniform step size t_end/n with at most problems.MAX_STEPS steps
    (checked before any set-up runs).  A fixed tau must divide t_end to
    1e-9 (problems.step_count, ValueError otherwise); tau_c * h0^2 is
    lowered to the largest step that divides t_end."""
    target = tau if tau is not None else tau_c * mesh0.h_max**2
    if target <= 0.0:
        raise ValueError("tau and tau_c must be positive")
    if not t_end / target <= problems.MAX_STEPS:
        raise ValueError(f"t_end/tau = {t_end / target} exceeds {problems.MAX_STEPS} steps")
    if tau is not None:
        n = problems.step_count(t_end, tau, "t_end/tau")
    else:
        n = max(1, int(np.ceil(t_end / target)))
    return t_end / n


def finest_step_size(levels, r0, t_end, tau_c):
    """step_size_for on the icosphere of the finest of ``levels`` (radius
    r0), whose h is the smallest and whose step count the largest, after
    mesh.check_level on every level: a study calls it before any level
    runs."""
    for level in levels:
        mesh.check_level(level)
    return step_size_for(mesh.generate_icosphere(max(levels, default=0), r0), t_end,
                         tau_c=tau_c)


def run_level(spec, level, t_end, tau_c=0.1, **solve):
    """One refinement level: march from the icosphere of radius r0 to t_end
    and measure the errors.

    Returns (LevelResult, final_state).
    """
    if spec.exact is None:
        raise MissingExactSolution("problem has no manufactured solution")
    mesh0 = mesh.generate_icosphere(level, spec.exact.r0)
    config = stepper.StepperConfig(step_size_for(mesh0, t_end, tau_c=tau_c), t_end, **solve)
    acc = analysis.ErrorAccumulator(spec, mesh0)
    final = stepper.run(spec, mesh0, config, observers=[acc])
    result = analysis.LevelResult(
        level=level, dof=mesh0.num_nodes, h_final=final.mesh.h_max, norms=acc.result())
    return result, final


def example1_study(levels=(1, 2, 3, 4), alpha=1.0, beta=0.0, delta=0.4,
                   r0=1.0, rK=2.0, k=0.5, t_end=1.0, tau_c=0.1, on_failure=None,
                   **solve):
    """Error report over refinement levels for the coupled expanding-sphere
    benchmark; with delta = 0, one arm of the regularization comparison.

    Levels whose run degenerates are skipped (reported through
    ``on_failure(level, error)``); the returned report holds the completed
    levels only.
    """
    spec = problems.example1_problem(alpha, beta, delta, r0, rK, k)
    finest_step_size(levels, r0, t_end, tau_c)  # checks every level before any runs
    report = analysis.ErrorReport()
    for level in levels:
        try:
            result, _ = run_level(spec, level, t_end, tau_c, **solve)
        except MeshDegenerated as err:
            if on_failure is not None:
                on_failure(level, err)
            continue
        report.add(result)
    return report


class SurfaceExporter:
    """Writes surface_<step>.vtk (u, and w when present) and
    surface_<step>.obj snapshots every k > 0 steps."""

    def __init__(self, out_dir, every):
        self.out_dir = out_dir
        self.every = every

    def __call__(self, step_index, state):
        if step_index % self.every != 0:
            return
        data = {"u": state.u} if state.w is None else {"u": state.u, "w": state.w}
        base = f"{self.out_dir}/surface_{step_index:06d}"
        mesh.export_surface(state.mesh, data, base + ".vtk")
        mesh.export_obj(state.mesh, base + ".obj")


class TumorTrace:
    """Per-step field summary rows (step, t, u_min, u_max, w_min, w_max) of
    the tumor run: its CSV, and through envelope() the field range."""

    def __init__(self):
        self.rows = []

    def __call__(self, step_index, state):
        row = (step_index, state.t,
               float(state.u.min()), float(state.u.max()),
               float(state.w.min()), float(state.w.max()))
        self.rows.append(row)

    def envelope(self):
        """The min/max of u and w over every row, as u_min/u_max/w_min/w_max."""
        _, _, u_min, u_max, w_min, w_max = zip(*self.rows)
        return {"u_min": min(u_min), "u_max": max(u_max),
                "w_min": min(w_min), "w_max": max(w_max)}

    def write(self, path):
        with open(path, "w") as f:
            f.write("step,t,u_min,u_max,w_min,w_max\n")
            for row in self.rows:
                f.write("%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" % row)


# One observer for the tumor run; bench/tracer.py patches both names.
FieldEnvelopeObserver = TumorTrace


def check_export_every(export_every):
    """ValueError for a negative snapshot interval (0 exports none)."""
    if export_every < 0:
        raise ValueError(f"export_every must be non-negative, got {export_every}")


def tumor_experiment(alpha, beta, delta=0.01, level=3, tau=1e-3, t_end=5.0,
                     seed=0, kinetics=None, pre_time=5.0, out_dir=None, export_every=0,
                     **solve):
    """Pattern-forming run: seeded pre-relaxation, then the moving surface.

    Returns (final_state, envelope dict, trace), the envelope being
    trace.envelope(), the range of u and w over every state.  With
    ``out_dir`` set the trace CSV and surface snapshots are written there.
    """
    check_export_every(export_every)
    kin = kinetics if kinetics is not None else problems.TumorKinetics()
    spec = problems.tumor_problem(alpha, beta, delta, kin)
    mesh0 = mesh.generate_icosphere(level, 1.0)
    config = stepper.StepperConfig(step_size_for(mesh0, t_end, tau=tau), t_end, **solve)
    u0, w0 = problems.tumor_initial_data(mesh0, kin, seed, pre_time=pre_time)
    start = stepper.initial_state(spec, mesh0, u0=u0, w0=w0)
    trace = TumorTrace()
    observers = [trace]
    if out_dir is not None and export_every > 0:
        observers.append(SurfaceExporter(out_dir, export_every))
    final = stepper.run(spec, mesh0, config, observers=observers, start=start)
    if out_dir is not None:
        trace.write(f"{out_dir}/tumor_summary.csv")
        mesh.export_surface(final.mesh, {"u": final.u, "w": final.w},
                            f"{out_dir}/surface_final.vtk")
    return final, trace.envelope(), trace


def temporal_order_study():
    """Observed time-discretization order of example1 on the level-3 mesh.

    The spatial error floor is removed by comparing each run's state at t = 1
    against a reference run with tau = 1.25e-4 on the same mesh; the orders
    are log2 ratios of those differences as tau halves from 4e-3 to 1e-3.
    """
    spec = problems.example1_problem()
    mesh0 = mesh.generate_icosphere(3, 1.0)
    taus = (4e-3, 2e-3, 1e-3)

    def terminal(tau):
        return stepper.run(spec, mesh0, stepper.StepperConfig(tau, 1.0))

    ref = terminal(1.25e-4)
    # measure each run against the reference in the reference surface's norms
    m_ref, a_ref = assembly.surface_matrices(ref.mesh)
    errors = []
    for tau in taus:
        final = terminal(tau)
        eu = assembly.discrete_norms(m_ref, a_ref, final.u - ref.u)[0]
        ex = assembly.discrete_norms(m_ref, a_ref, final.x - ref.x)[0]
        errors.append(eu + ex)
    orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]
    return {"taus": list(taus), "errors": errors, "orders": orders}
