"""Experiment drivers shared by the command line and the acceptance suite."""

from __future__ import annotations

import numpy as np

from . import analysis, assembly, mesh, problems, stepper
from .errors import MeshDegenerated


def step_size_for(mesh0, t_end, tau=None, tau_c=0.1):
    """Uniform step size: fixed tau, or tau_c * h0^2, rounded so that
    t_end is an integer number of steps."""
    target = tau if tau is not None else tau_c * mesh0.h_max**2
    if target <= 0.0:
        raise ValueError("tau and tau_c must be positive")
    n = max(1, int(np.ceil(t_end / target)))
    return t_end / n


def run_level(spec, level, t_end, radius=1.0, tau=None, tau_c=0.1,
              solver=stepper.DIRECT, normal_coupling="nodal", loads_on="old",
              observers=(), collect_errors=True):
    """One refinement level: build the mesh, march to t_end, measure errors.

    Returns (LevelResult, final_state); the result's norms are None when
    ``collect_errors`` is off.
    """
    mesh0 = mesh.generate_icosphere(level, radius)
    config = stepper.StepperConfig(
        tau=step_size_for(mesh0, t_end, tau, tau_c), t_end=t_end,
        solver=solver, normal_coupling=normal_coupling, loads_on=loads_on,
        snapshot_every=0,
    )
    obs = list(observers)
    acc = None
    if collect_errors:
        acc = analysis.ErrorAccumulator(spec, mesh0)
        obs.append(acc)
    trajectory = stepper.run(spec, mesh0, config, observers=obs)
    final = trajectory[-1]
    norms = acc.result() if acc is not None else None
    result = analysis.LevelResult(
        level=level, dof=mesh0.num_nodes, h_final=final.mesh.h_max, norms=norms)
    return result, final


def convergence_study(spec_factory, levels, t_end, tau_c=0.1, solver=stepper.DIRECT,
                      normal_coupling="nodal", loads_on="old", on_failure=None):
    """Error report over refinement levels.

    ``spec_factory(level)`` builds the problem per level.  Levels whose run
    degenerates are skipped (reported through ``on_failure(level, error)``);
    the returned report holds the completed levels only.
    """
    report = analysis.ErrorReport()
    for level in levels:
        try:
            result, _ = run_level(
                spec_factory(level), level, t_end, tau_c=tau_c, solver=solver,
                normal_coupling=normal_coupling, loads_on=loads_on)
        except MeshDegenerated as err:
            if on_failure is not None:
                on_failure(level, err)
            continue
        report.add(result)
    return report


def example1_study(levels=(1, 2, 3, 4), alpha=1.0, beta=0.0, delta=0.4,
                   r0=1.0, rK=2.0, k=0.5, t_end=1.0, tau_c=0.1,
                   solver=stepper.DIRECT, normal_coupling="nodal",
                   loads_on="old", on_failure=None):
    """Convergence study for the coupled expanding-sphere benchmark."""
    return convergence_study(
        lambda _level: problems.example1_problem(alpha, beta, delta, r0, rK, k),
        levels, t_end, tau_c, solver, normal_coupling, loads_on, on_failure)


def example3_study(alpha, beta, levels=(1, 2, 3, 4), r0=1.0, rK=2.0, k=0.5,
                   t_end=2.0, tau_c=0.1, solver=stepper.DIRECT,
                   normal_coupling="nodal", loads_on="old", on_failure=None):
    """One arm (alpha- or beta-regularized) of the comparison experiment."""
    return convergence_study(
        lambda _level: problems.example3_problem(alpha, beta, r0, rK, k),
        levels, t_end, tau_c, solver, normal_coupling, loads_on, on_failure)


class FieldEnvelopeObserver:
    """Tracks the running min/max of both species over a trajectory."""

    def __init__(self):
        self.u_min = np.inf
        self.u_max = -np.inf
        self.w_min = np.inf
        self.w_max = -np.inf

    def __call__(self, step_index, state):
        self.u_min = min(self.u_min, float(state.u.min()))
        self.u_max = max(self.u_max, float(state.u.max()))
        if state.w is not None:
            self.w_min = min(self.w_min, float(state.w.min()))
            self.w_max = max(self.w_max, float(state.w.max()))

    def as_dict(self):
        return {"u_min": self.u_min, "u_max": self.u_max,
                "w_min": self.w_min, "w_max": self.w_max}


class SurfaceExporter:
    """Writes surface_<step>.vtk (and .obj) snapshots every k steps."""

    def __init__(self, out_dir, every, fields=("u", "w"), obj=False):
        self.out_dir = out_dir
        self.every = every
        self.fields = fields
        self.obj = obj

    def __call__(self, step_index, state):
        if self.every <= 0 or step_index % self.every != 0:
            return
        data = {}
        if "u" in self.fields:
            data["u"] = state.u
        if "w" in self.fields and state.w is not None:
            data["w"] = state.w
        if "v" in self.fields:
            data["v"] = state.v
        base = f"{self.out_dir}/surface_{step_index:06d}"
        mesh.export_surface(state.mesh, data, base + ".vtk")
        if self.obj:
            mesh.export_obj(state.mesh, base + ".obj")


class TumorTrace:
    """Per-step field summary rows for the tumor run's CSV."""

    def __init__(self):
        self.rows = []

    def __call__(self, step_index, state):
        row = (step_index, state.t,
               float(state.u.min()), float(state.u.max()),
               float(state.w.min()), float(state.w.max()))
        self.rows.append(row)

    def write(self, path):
        with open(path, "w") as f:
            f.write("step,t,u_min,u_max,w_min,w_max\n")
            for row in self.rows:
                f.write("%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" % row)


def tumor_experiment(alpha, beta, delta=0.01, level=3, tau=1e-3, t_end=5.0,
                     seed=0, kinetics=None, pre_time=5.0, tau_pre=1e-3,
                     perturbation_bound=0.01, solver=stepper.DIRECT,
                     normal_coupling="nodal", loads_on="old",
                     out_dir=None, export_every=0):
    """Pattern-forming run: seeded pre-relaxation, then the moving surface.

    Returns (final_state, envelope dict, trace).  With ``out_dir`` set the
    trace CSV and surface snapshots are written there.
    """
    if export_every < 0:
        raise ValueError(f"export_every must be non-negative, got {export_every}")
    kin = kinetics if kinetics is not None else problems.TumorKinetics()
    spec = problems.tumor_problem(alpha, beta, delta, kin)
    mesh0 = mesh.generate_icosphere(level, 1.0)
    config = stepper.StepperConfig(
        tau=step_size_for(mesh0, t_end, tau=tau), t_end=t_end, solver=solver,
        normal_coupling=normal_coupling, loads_on=loads_on, snapshot_every=0)
    u0, w0 = problems.tumor_initial_data(
        mesh0, kin, seed, perturbation_bound=perturbation_bound,
        pre_time=pre_time, tau_pre=tau_pre)
    start = stepper.initial_state(spec, mesh0, u0=u0, w0=w0)
    envelope = FieldEnvelopeObserver()
    trace = TumorTrace()
    observers = [envelope, trace]
    if out_dir is not None and export_every > 0:
        observers.append(SurfaceExporter(out_dir, export_every, obj=True))
    trajectory = stepper.run(spec, mesh0, config, observers=observers, start=start)
    final = trajectory[-1]
    if out_dir is not None:
        trace.write(f"{out_dir}/tumor_summary.csv")
        mesh.export_surface(final.mesh, {"u": final.u, "w": final.w},
                            f"{out_dir}/surface_final.vtk")
    return final, envelope.as_dict(), trace


def temporal_order_study(level=3, taus=(4e-3, 2e-3, 1e-3), tau_ref=1.25e-4,
                         t_end=1.0, solver=stepper.DIRECT):
    """Observed time-discretization order on a fixed mesh.

    The spatial error floor is removed by comparing each run's terminal
    state against a reference run with a much smaller step on the same
    mesh; the orders are log2 ratios of those differences under step
    halving.
    """
    spec = problems.example1_problem()
    mesh0 = mesh.generate_icosphere(level, 1.0)

    def terminal(tau):
        config = stepper.StepperConfig(tau=tau, t_end=t_end, solver=solver,
                                       snapshot_every=0)
        return stepper.run(spec, mesh0, config)[-1]

    ref = terminal(tau_ref)
    # measure each run against the reference in the reference surface's norms
    m_ref = assembly.assemble_mass(ref.mesh)
    a_ref = assembly.assemble_stiffness(ref.mesh)
    errors = []
    for tau in taus:
        final = terminal(tau)
        eu = assembly.discrete_norms(m_ref, a_ref, 1.0, final.u - ref.u)[0]
        ex = assembly.discrete_norms(m_ref, a_ref, 1.0, final.x - ref.x)[0]
        errors.append(eu + ex)
    orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]
    return {"taus": list(taus), "errors": errors, "orders": orders}
