import collections
import dataclasses
import functools
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from esfem import assembly, experiments, mesh, problems, stepper
from esfem.errors import LinearSolveFailure, MeshDegenerated, NonFiniteState


def quiescent_spec(alpha=1.0, beta=0.0):
    """No forcing, no field coupling: the surface must not move."""
    return problems.ProblemSpec(law=problems.VelocityLaw(alpha, beta))


class TestStepCoupled:
    def test_unforced_surface_is_frozen(self):
        m0 = mesh.generate_icosphere(1, 1.0)
        spec = quiescent_spec()
        cfg = stepper.StepperConfig(tau=0.01, t_end=0.01)
        state = stepper.initial_state(spec, m0, u0=np.zeros(m0.num_nodes))
        new = stepper.step_coupled(state, spec, cfg, stepper.RunRecord())
        assert np.abs(new.x - state.x).max() <= 1e-13
        assert np.abs(new.v).max() <= 1e-11

    def test_static_surface_conserves_mass(self):
        m0 = mesh.generate_icosphere(2, 1.0)
        spec = quiescent_spec()
        cfg = stepper.StepperConfig(tau=5e-3, t_end=1.0)
        rng = np.random.Generator(np.random.Philox(1))
        u0 = rng.standard_normal(m0.num_nodes)
        mass = assembly.assemble_mass(m0)
        total0 = float(np.ones_like(u0) @ (mass @ u0))
        state = stepper.initial_state(spec, m0, u0=u0)
        for _ in range(200):
            state = stepper.step_coupled(state, spec, cfg, stepper.RunRecord())
        mass_end = assembly.assemble_mass(state.mesh)
        total_end = float(np.ones_like(u0) @ (mass_end @ state.u))
        assert abs(total_end - total0) <= 1e-10 * abs(total0)

    def test_one_step_radius_accuracy(self):
        # first-run-recorded constant: max radius error over one step is
        # ~4.3e-5 * (tau^2 + h^2) at level 2; frozen with a 20x margin
        spec = problems.example1_problem()
        m0 = mesh.generate_icosphere(2, 1.0)
        tau = 1e-3
        cfg = stepper.StepperConfig(tau=tau, t_end=tau)
        state = stepper.initial_state(spec, m0)
        new = stepper.step_coupled(state, spec, cfg, stepper.RunRecord())
        radii = np.linalg.norm(new.x, axis=1)
        r_exact = float(spec.exact.radius(tau))
        assert radii.min() > 1.0  # moved outward
        assert np.abs(radii - r_exact).max() <= 1e-3 * (tau**2 + m0.h_max**2)

    def test_interpolated_coupling_mode_runs(self):
        spec = problems.example1_problem()
        m0 = mesh.generate_icosphere(1, 1.0)
        cfg = stepper.StepperConfig(tau=1e-3, t_end=1e-3, normal_coupling="interpolated")
        state = stepper.initial_state(spec, m0)
        new = stepper.step_coupled(state, spec, cfg, stepper.RunRecord())
        assert np.isfinite(new.x).all()


class TestStepDynamic:
    def test_zero_velocity_zero_forcing_freezes(self):
        m0 = mesh.generate_icosphere(1, 1.0)
        spec = problems.ProblemSpec(law=problems.VelocityLaw(1.0, dynamic=True))
        cfg = stepper.StepperConfig(tau=0.05, t_end=0.5)
        final = stepper.run(spec, m0, cfg)
        assert np.array_equal(final.x, m0.coords)
        assert np.all(final.v == 0.0)

    def test_velocity_norm_contracts_per_step(self):
        # backward Euler on the frozen-matrix system is dissipative in the
        # step's own mass norm
        m0 = mesh.generate_icosphere(1, 1.0)
        spec = problems.ProblemSpec(law=problems.VelocityLaw(1.0, dynamic=True))
        cfg = stepper.StepperConfig(tau=0.1, t_end=0.1)
        rng = np.random.Generator(np.random.Philox(2))
        state = dataclasses.replace(stepper.initial_state(spec, m0),
                                    v=rng.standard_normal((m0.num_nodes, 3)))
        stiff0 = assembly.assemble_stiffness(m0)
        for _ in range(25):
            mass_cur = assembly.assemble_mass(state.mesh)
            before = assembly.discrete_norms(mass_cur, stiff0, state.v)[0]
            new = stepper.step_dynamic(state, spec, cfg, stepper.RunRecord())
            after = assembly.discrete_norms(mass_cur, stiff0, new.v)[0]
            assert after <= before * (1 + 1e-12)
            state = new

    def test_pinned_surface_reaches_stationary_velocity(self):
        # with the surface pinned and constant forcing, the iteration's fixed
        # point satisfies alpha * A v = g-load (the stationary dynamic law);
        # measured residual after 400 steps is ~1e-15
        m0 = mesh.generate_icosphere(2, 1.0)
        alpha = 1.0
        spec = problems.ProblemSpec(
            law=problems.VelocityLaw(alpha, dynamic=True),
            velocity_forcing=lambda x, t: np.ones(len(x)),
        )
        cfg = stepper.StepperConfig(tau=0.1, t_end=0.1)
        state = stepper.initial_state(spec, m0)
        for _ in range(400):
            new = stepper.step_dynamic(state, spec, cfg, stepper.RunRecord())
            state = stepper.SystemState(t=new.t, u=new.u, v=new.v, mesh=state.mesh, w=new.w)
        stiff = assembly.assemble_stiffness(m0)
        gload = assembly.assemble_normal_load(m0, lambda x, t: np.ones(len(x)), 0.0)
        residual = alpha * np.asarray(stiff @ state.v) - gload
        assert np.abs(residual).max() <= 1e-9


class TestLawFromSpec:
    """The velocity law's branch comes from spec.law alone, whichever name
    the step is called by."""

    @pytest.mark.parametrize("spec", [
        problems.example1_problem(0.0, 1.0, 0.0),
        problems.ProblemSpec(law=problems.VelocityLaw(1.0, dynamic=True),
                             velocity_forcing=lambda x, t: np.ones(len(x)))],
        ids=["regularized_beta", "dynamic"])
    def test_step_names_take_the_same_step(self, spec):
        m0 = mesh.generate_icosphere(2, 1.0)
        rng = np.random.Generator(np.random.Philox(6))
        state = dataclasses.replace(stepper.initial_state(spec, m0),
                                    v=rng.standard_normal((m0.num_nodes, 3)))
        cfg = stepper.StepperConfig(tau=1e-3, t_end=1e-3)
        coupled = stepper.step_coupled(state, spec, cfg, stepper.RunRecord())
        dynamic = stepper.step_dynamic(state, spec, cfg, stepper.RunRecord())
        assert isinstance(coupled, stepper.SystemState) and coupled.t == dynamic.t
        for name in ("x", "u", "v"):
            assert np.array_equal(getattr(coupled, name), getattr(dynamic, name)), name


class TestTwoSpeciesStepping:
    def test_static_surface_conserves_both_totals(self):
        # with delta = 0 the surface stays put; gamma -> 0 kills the reaction
        # so both species' discrete totals are conserved
        m0 = mesh.generate_icosphere(1, 1.0)
        kin = problems.TumorKinetics(D_c=10.0, gamma=1e-30, a=0.1, b=0.9)
        spec = problems.ProblemSpec(law=problems.VelocityLaw(0.0, 0.01, 0.0),
                                    source=kin.source, diffusion=(1.0, kin.D_c))
        rng = np.random.Generator(np.random.Philox(3))
        u0 = 1.0 + 0.1 * rng.standard_normal(m0.num_nodes)
        w0 = 0.9 + 0.1 * rng.standard_normal(m0.num_nodes)
        state = stepper.initial_state(spec, m0, u0=u0, w0=w0)
        mass = assembly.assemble_mass(m0)
        ones = np.ones(m0.num_nodes)
        tot_u0 = float(ones @ (mass @ u0))
        tot_w0 = float(ones @ (mass @ w0))
        cfg = stepper.StepperConfig(tau=1e-3, t_end=0.05)
        final = stepper.run(spec, m0, cfg, start=state)
        mass_end = assembly.assemble_mass(final.mesh)
        # beta > 0 moves the surface; rescale is not exact, so compare only
        # when the surface barely moved over the short horizon
        assert np.abs(final.x - state.x).max() < 2e-3
        tot_u = float(ones @ (mass_end @ final.u))
        tot_w = float(ones @ (mass_end @ final.w))
        assert tot_u == pytest.approx(tot_u0, rel=2e-3)
        assert tot_w == pytest.approx(tot_w0, rel=2e-3)

    def test_steady_state_stays_with_frozen_law(self):
        m0 = mesh.generate_icosphere(1, 1.0)
        kin = problems.TumorKinetics()
        spec = problems.ProblemSpec(law=problems.VelocityLaw(0.01, 0.0, 0.0),
                                    source=kin.source, diffusion=(1.0, kin.D_c))
        us, ws = kin.steady_state()
        state = stepper.initial_state(spec, m0, u0=np.full(m0.num_nodes, us),
                                      w0=np.full(m0.num_nodes, ws))
        cfg = stepper.StepperConfig(tau=1e-3, t_end=0.02)
        final = stepper.run(spec, m0, cfg, start=state)
        assert np.abs(final.u - us).max() <= 1e-9
        assert np.abs(final.w - ws).max() <= 1e-9


class TestInitialState:
    def test_two_field_spec_without_w0_refused_before_any_step(self, monkeypatch):
        spec = problems.tumor_problem(0.0, 0.01, 0.01)
        monkeypatch.setattr(stepper, "step_coupled", None)  # no step may run
        with pytest.raises(ValueError, match="needs w0"):
            stepper.run(spec, mesh.generate_icosphere(1, 1.0), stepper.StepperConfig(1e-3, 2e-3))

    def test_one_field_spec_with_w0_refused(self):
        m0 = mesh.generate_icosphere(1, 1.0)
        with pytest.raises(ValueError, match="takes no w0"):
            stepper.initial_state(quiescent_spec(), m0, w0=np.zeros(m0.num_nodes))


class TestRun:
    def test_non_integer_step_count_rejected(self):
        m0 = mesh.generate_icosphere(0, 1.0)
        spec = quiescent_spec()
        cfg = stepper.StepperConfig(tau=0.3, t_end=1.0)
        with pytest.raises(ValueError, match="integer"):
            stepper.run(spec, m0, cfg)

    def test_observers_see_every_step(self):
        m0 = mesh.generate_icosphere(0, 1.0)
        spec = quiescent_spec()
        cfg = stepper.StepperConfig(tau=0.1, t_end=1.0)
        seen = []
        final = stepper.run(spec, m0, cfg, observers=(lambda i, s: seen.append((i, s)),))
        assert [i for i, _ in seen] == list(range(11))
        assert seen[-1][1].t == pytest.approx(1.0, abs=1e-12)
        assert final is seen[-1][1]

    def test_degeneration_time_follows_the_last_observed_step(self, monkeypatch):
        # squeeze the equator inward: anisotropic motion degrades the angles
        monkeypatch.setattr(stepper, "ABORT_MIN_ANGLE", 30.0)
        m0 = mesh.generate_icosphere(1, 1.0)
        spec = problems.ProblemSpec(
            law=problems.VelocityLaw(0.05),
            velocity_forcing=lambda x, t: -8.0 * (1.0 - (x[:, 2] / np.linalg.norm(x, axis=1)) ** 2),
        )
        cfg = stepper.StepperConfig(tau=0.02, t_end=2.0)
        seen = []
        with pytest.raises(MeshDegenerated) as info:
            stepper.run(spec, m0, cfg, observers=(lambda i, s: seen.append((i, s.t)),))
        assert 0.0 < info.value.time == seen[-1][1] + cfg.tau < 2.0

    def test_surface_shrunk_towards_a_point_degenerates(self):
        # every angle is fine, but areas of 1e-19 vanish beneath the
        # rounding of tau A, so the field systems are singular
        spec = quiescent_spec()
        cfg = stepper.StepperConfig(tau=1e-3, t_end=1e-3)
        state = stepper.initial_state(spec, mesh.generate_icosphere(1, 1e-9))
        with pytest.raises(MeshDegenerated) as info:
            stepper.step_coupled(state, spec, cfg, stepper.RunRecord())
        assert info.value.quality.min_angle_deg > 50.0
        assert info.value.quality.min_area < 1e-14 * cfg.tau

    def test_overflowing_geometry_degenerates(self):
        # finite nodes whose squared lengths overflow give NaN areas, which
        # every check refuses although each comparison with NaN is False
        m0 = mesh.generate_icosphere(1, 1.0)
        cfg = stepper.StepperConfig(tau=1e-3, t_end=1e-3)
        x = m0.coords * 1e160
        assert np.isfinite(x).all()
        with np.errstate(over="ignore", invalid="ignore"):
            assert m0.with_coords(x).degenerate
        # and the step refuses it without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(MeshDegenerated) as info:
                stepper._new_surface(m0, x, 0.5, cfg)
        assert info.value.time == 0.5 and np.isnan(info.value.quality.min_area)

    @pytest.mark.parametrize("shift, angle, refused", [(0.905, 4.0, True), (0.865, 6.0, False)])
    def test_abort_angle_is_five_degrees(self, shift, angle, refused):
        # node 0 moved most of the way to its neighbour 12 shortens their
        # shared edge, and narrows the angles opposite it
        m0 = mesh.generate_icosphere(1, 1.0)
        x = m0.coords.copy()
        x[0] += shift * (x[12] - x[0])
        assert mesh.mesh_quality(m0.with_coords(x)).min_angle_deg == pytest.approx(angle, abs=0.2)
        cfg = stepper.StepperConfig(tau=1e-3, t_end=1e-3)
        if refused:
            with pytest.raises(MeshDegenerated) as info:
                stepper._new_surface(m0, x, 0.5, cfg)
            assert info.value.quality.min_angle_deg < 5.0
        else:
            assert np.array_equal(stepper._new_surface(m0, x, 0.5, cfg).coords, x)

    def test_collapse_reports_the_collapsed_surface(self, monkeypatch):
        # the velocity solve moves a vertex of triangle 0 onto another
        real = stepper._velocity

        def collapsing(state, spec, config, record):
            x_new, v_new = real(state, spec, config, record)
            i, j, _ = state.mesh.triangles[0]
            x_new = x_new.copy()
            x_new[j] = x_new[i]
            return x_new, v_new

        monkeypatch.setattr(stepper, "_velocity", collapsing)
        tau = 1e-3
        cfg = stepper.StepperConfig(tau=tau, t_end=10 * tau)
        seen = []
        with pytest.raises(MeshDegenerated) as info:
            stepper.run(problems.example1_problem(), mesh.generate_icosphere(1, 1.0), cfg,
                        observers=(lambda i, s: seen.append(i),))
        err = info.value
        assert err.quality.min_area == 0.0
        assert err.time == tau
        assert seen == [0]

    def test_solver_choice_changes_nothing(self):
        spec = problems.example1_problem()
        m0 = mesh.generate_icosphere(2, 1.0)
        results = {}
        for solver in (stepper.DIRECT, stepper.CG):
            cfg = stepper.StepperConfig(tau=2e-3, t_end=0.05, solver=solver)
            results[solver] = stepper.run(spec, m0, cfg)
        a, b = results[stepper.DIRECT], results[stepper.CG]
        scale = np.abs(a.x).max()
        assert np.abs(a.x - b.x).max() <= 1e-8 * scale
        assert np.abs(a.u - b.u).max() <= 1e-8 * max(1.0, np.abs(a.u).max())

    def test_cg_failure_reports_residual(self, monkeypatch):
        spec = problems.example1_problem()
        m0 = mesh.generate_icosphere(2, 1.0)
        monkeypatch.setattr(stepper, "CG_MAX_ITER", 1)
        monkeypatch.setattr(stepper, "CG_TOL", 1e-15)
        cfg = stepper.StepperConfig(tau=1e-3, t_end=1e-3, solver=stepper.CG)
        with pytest.raises(LinearSolveFailure) as info:
            stepper.run(spec, m0, cfg)
        assert info.value.residual > 0.0

    @pytest.mark.parametrize("nan_rhs_ndim, field", [(1, "u"), (2, "x")])
    def test_non_finite_state_raised_at_its_step(self, monkeypatch, nan_rhs_ndim, field):
        # the velocity solve (make_solver) takes (N, 3) right-hand sides, the
        # field solve (_pcg_solver) (N,)
        def nan_solves(real):
            def solver(*args):
                solve = real(*args)
                return lambda rhs: rhs * np.nan if rhs.ndim == nan_rhs_ndim else solve(rhs)
            return solver

        for name in ("make_solver", "_pcg_solver"):
            monkeypatch.setattr(stepper, name, nan_solves(getattr(stepper, name)))
        tau = 1e-3
        cfg = stepper.StepperConfig(tau=tau, t_end=10 * tau)
        with pytest.raises(NonFiniteState) as info:
            stepper.run(problems.example1_problem(), mesh.generate_icosphere(1, 1.0), cfg)
        assert info.value.time == tau
        assert info.value.fields == (field,)

    @pytest.mark.parametrize("field, value", [
        ("tau", 0.0), ("tau", float("nan")), ("t_end", float("nan")),
        ("solver", "qr"), ("normal_coupling", "foo")])
    def test_config_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            stepper.StepperConfig(**{"tau": 0.1, "t_end": 1.0, field: value})


class TestStepSizeFor:
    m0 = mesh.generate_icosphere(1, 1.0)

    def test_fixed_tau_keeps_its_step_count(self):
        # 0.07 / 0.01 = 7.000000000000001 must not round up to 8 steps
        tau = experiments.step_size_for(self.m0, 0.07, tau=0.01)
        assert tau == 0.07 / 7
        assert problems.step_count(0.07, tau, "t_end/tau") == 7

    def test_fixed_tau_must_divide_t_end(self):
        with pytest.raises(ValueError, match="t_end/tau"):
            experiments.step_size_for(self.m0, 0.01, tau=0.003)

    def test_tau_c_rounds_down_to_a_divisor(self):
        target = 0.1 * self.m0.h_max ** 2
        tau = experiments.step_size_for(self.m0, 0.05)
        assert tau <= target and tau == 0.05 / np.ceil(0.05 / target)


class TestTumorTrace:
    def test_envelope_is_the_range_over_the_rows(self):
        trace = experiments.TumorTrace()
        trace.rows = [(0, 0.0, 1.0, 2.0, -1.0, 0.5),
                      (1, 0.1, 0.5, 3.0, 0.0, 0.25),
                      (2, 0.2, 0.75, 2.5, -2.0, 0.0)]
        assert trace.envelope() == {"u_min": 0.5, "u_max": 3.0, "w_min": -2.0, "w_max": 0.5}

    def test_tumor_run_envelope_comes_from_its_trace(self, monkeypatch):
        calls = []
        real = experiments.TumorTrace.__call__

        def counted(self, step_index, state):
            calls.append(step_index)
            return real(self, step_index, state)

        monkeypatch.setattr(experiments.TumorTrace, "__call__", counted)
        _, envelope, trace = experiments.tumor_experiment(
            0.0, 0.01, level=1, tau=1e-3, t_end=5e-3, pre_time=0.01)
        assert calls == list(range(5 + 1))
        _, _, u_min, u_max, w_min, w_max = (list(c) for c in zip(*trace.rows))
        assert envelope == {"u_min": min(u_min), "u_max": max(u_max),
                            "w_min": min(w_min), "w_max": max(w_max)}


def count_factorizations(monkeypatch):
    """Record the shape of every assembly.factorize call from now on."""
    calls = []
    real = assembly.factorize

    def factorize(matrix):
        calls.append(matrix.shape)
        return real(matrix)

    monkeypatch.setattr(assembly, "factorize", factorize)
    return calls


def factorizations(record):
    """The factorizations that ``record`` counted, of either kind."""
    return sum(record.factorizations.values())


# the cholesky solver's config, for stepper.make_solver on a bare matrix
CHOLESKY = stepper.StepperConfig(1e-3, 1e-3, stepper.DIRECT)


def fresh_solve(matrix, rhs):
    """The solve of a fresh factorization of ``matrix``."""
    return assembly.factorize(matrix).solve(rhs)


def record_runs(monkeypatch):
    """The RunRecord of every stepper.run call from now on, in order: the
    caller's, or a new one where it passes none."""
    records, real = [], stepper.run

    def run(*args, record=None, **kwargs):
        records.append(stepper.RunRecord() if record is None else record)
        return real(*args, record=records[-1], **kwargs)

    monkeypatch.setattr(stepper, "run", run)
    return records


def seeded_two_species_start(spec, m0, seed):
    """The steady state of the default kinetics, which ``spec`` (a
    tumor_problem) carries, plus seeded noise."""
    rng = np.random.Generator(np.random.Philox(seed))
    us, ws = problems.TumorKinetics().steady_state()
    return stepper.initial_state(spec, m0, u0=us + 0.01 * rng.standard_normal(m0.num_nodes),
                                 w0=ws + 0.01 * rng.standard_normal(m0.num_nodes))


class TestFactorReuse:
    def test_one_factorization_per_system_per_run(self, monkeypatch):
        calls = count_factorizations(monkeypatch)
        tau = 1e-3
        cfg = stepper.StepperConfig(tau=tau, t_end=8 * tau)
        stepper.run(problems.example1_problem(), mesh.generate_icosphere(2, 1.0), cfg)
        # the velocity system's, held for all 8 steps; the u system's
        # Jacobi-CG factors nothing
        assert len(calls) == 1

    @pytest.mark.parametrize("level", [2, 3])
    def test_reuse_matches_refactoring_every_step(self, monkeypatch, level):
        spec = problems.example1_problem()
        lagged, lagged_final = experiments.run_level(spec, level, 0.1)
        real = stepper.make_solver
        monkeypatch.setattr(stepper, "make_solver",
                            lambda matrix, config, record, guess, mass_only:
                            real(matrix, config, stepper.RunRecord(), guess, mass_only))
        fresh, fresh_final = experiments.run_level(spec, level, 0.1)
        for name in ("x", "u"):
            a, b = getattr(lagged_final, name), getattr(fresh_final, name)
            assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()
        for name, value in vars(fresh.norms).items():
            assert abs(getattr(lagged.norms, name) - value) <= 1e-10 * abs(value), name

    def test_still_surface_stays_still_with_lagged_solves(self):
        # criterion 5 at a third of its length: measured drift 3.8e-14 from
        # the extrapolated guess, 1.0e-14 from that guess corrected once by
        # the factor; CG started from zero drifts 3.3e-12
        m0 = mesh.generate_icosphere(2, 1.0)
        rng = np.random.Generator(np.random.Philox(5))
        spec = quiescent_spec()
        cfg = stepper.StepperConfig(tau=1e-3, t_end=0.3)
        start = stepper.initial_state(spec, m0, u0=rng.standard_normal(m0.num_nodes))
        final = stepper.run(spec, m0, cfg, start=start)
        assert np.abs(final.x - m0.coords).max() <= 5e-13

    def test_stale_factor_refactors_once(self):
        m0 = mesh.generate_icosphere(2, 1.0)
        mass, stiff = assembly.assemble_mass(m0), assembly.assemble_stiffness(m0)
        far = (mass + 10.0 * stiff).tocsr()
        rhs = np.random.Generator(np.random.Philox(4)).standard_normal((m0.num_nodes, 3))
        expected = fresh_solve(far, rhs)
        held = stepper.RunRecord()
        near = (mass + 1e-6 * stiff).tocsr()
        stepper.make_solver(near, CHOLESKY, held, np.zeros_like(rhs), False)
        solve = stepper.make_solver(far, CHOLESKY, held, np.zeros_like(rhs), False)
        assert factorizations(held) == 1
        assert np.array_equal(solve(rhs), expected)
        assert factorizations(held) == 2
        # the replacement is this matrix's own factor: later solves need
        # no further factorization
        scale = np.abs(expected).max()
        assert np.abs(solve(rhs) - expected).max() <= 1e-13 * scale
        column = stepper.make_solver(far, CHOLESKY, held, np.zeros_like(rhs[:, 0]),
                                     False)(rhs[:, 0])
        assert np.abs(column - expected[:, 0]).max() <= 1e-13 * scale
        assert factorizations(held) == 2

    def test_exactly_singular_system_is_a_solve_failure(self):
        singular = sp.diags([1.0, 0.0, 1.0]).tocsr()
        with pytest.raises(LinearSolveFailure, match="singular"):
            stepper.make_solver(singular, CHOLESKY, stepper.RunRecord(), np.zeros(3), False)

    def test_standalone_steps_on_two_meshes(self, monkeypatch):
        calls = count_factorizations(monkeypatch)
        coupled = problems.example1_problem()
        dynamic = problems.ProblemSpec(law=problems.VelocityLaw(1.0, dynamic=True),
                                       velocity_forcing=lambda x, t: np.ones(len(x)))
        cfg = stepper.StepperConfig(tau=1e-3, t_end=1e-3)
        results, factored = [], []
        for step, spec in [(stepper.step_coupled, coupled), (stepper.step_dynamic, dynamic)]:
            for level in (2, 1, 2):
                state = stepper.initial_state(spec, mesh.generate_icosphere(level, 1.0))
                results.append(step(state, spec, cfg, stepper.RunRecord()))
            factored.append(len(calls))
        # every standalone step of the regularized law (alpha = 1) factors its
        # velocity system; the dynamic law's, K = M, runs Jacobi-PCG
        assert factored == [3, 3]
        for first, again in [(results[0], results[2]), (results[3], results[5])]:
            assert np.array_equal(first.x, again.x) and np.array_equal(first.u, again.u)

    def test_held_factors_carry_across_standalone_steps(self, monkeypatch):
        spec = problems.example1_problem()
        m0 = mesh.generate_icosphere(2, 1.0)
        tau = 1e-3
        cfg = stepper.StepperConfig(tau=tau, t_end=4 * tau)
        expected = stepper.run(spec, m0, cfg)
        calls = count_factorizations(monkeypatch)
        state = stepper.initial_state(spec, m0)
        record = stepper.RunRecord()
        for _ in range(4):
            state = stepper.step_coupled(state, spec, cfg, record)
        assert len(calls) == 1
        assert np.array_equal(state.x, expected.x) and np.array_equal(state.u, expected.u)

    def test_runs_repeat_bitwise_after_a_run_at_another_level(self):
        # three warm-started CGs (the velocity, K = M, and the fields u, w),
        # each started from the last two steps; no start outlives its run
        spec = problems.tumor_problem(0.0, 0.01, 0.01)
        cfg = stepper.StepperConfig(tau=1e-3, t_end=1e-2)

        def final(level):
            m0 = mesh.generate_icosphere(level, 1.0)
            return stepper.run(spec, m0, cfg, start=seeded_two_species_start(spec, m0, 7))

        first = final(2)
        final(1)
        again = final(2)
        for name in ("x", "u", "v", "w"):
            assert np.array_equal(getattr(first, name), getattr(again, name)), name


class TestPerStepMatrices:
    """After the first step, which builds the topology's CSR template, no
    step constructs a CSR matrix: each one is a copy on the shared pattern."""

    @pytest.mark.parametrize("case", ["example1", "two_species"])
    def test_no_constructor_one_pattern_inputs_untouched(self, monkeypatch, case):
        m0 = mesh.generate_icosphere(2, 1.0)
        tau = 1e-3
        if case == "example1":
            spec = problems.example1_problem()
            start = stepper.initial_state(spec, m0)
        else:
            spec = problems.tumor_problem(0.0, 0.01, 0.01)
            start = seeded_two_species_start(spec, m0, 9)
        step = [0]  # the step now running; observer(n) runs after step n
        constructed = collections.Counter()
        matrices, inputs = [], []
        init = sp.csr_matrix.__init__

        def counting_init(self, *args, **kwargs):
            constructed[step[0]] += 1
            init(self, *args, **kwargs)

        def recording(fn):
            def wrapper(*args):
                out = fn(*args)
                matrices.extend(out if isinstance(out, tuple) else (out,))
                return out
            return wrapper

        add_scaled = assembly.add_scaled

        def checked_add_scaled(a, c, b):
            inputs.extend((m, m.data, m.data.copy()) for m in (a, b))
            return add_scaled(a, c, b)

        def observe(n, state):
            step[0] = n + 1

        monkeypatch.setattr(sp.csr_matrix, "__init__", counting_init)
        monkeypatch.setattr(assembly, "surface_matrices", recording(assembly.surface_matrices))
        monkeypatch.setattr(assembly, "add_scaled", recording(checked_add_scaled))
        n_steps = 5
        stepper.run(spec, m0, stepper.StepperConfig(tau=tau, t_end=n_steps * tau),
                    observers=[observe], start=start)
        monkeypatch.undo()

        assert step[0] == n_steps + 1
        # step 1 builds the one template; steps 2..n construct nothing
        assert constructed == {1: 1}
        template = assembly._topology(m0).template
        indices, indptr = template.indices, template.indptr
        assert template.data.strides == (0,)
        assert len(matrices) >= 3 * n_steps
        for matrix in matrices:
            assert type(matrix) is sp.csr_matrix
            assert matrix.indices is indices and matrix.indptr is indptr
            assert matrix.has_sorted_indices
        for matrix, data, saved in inputs:
            assert matrix.data is data
            assert np.array_equal(data.view(np.int64), saved.view(np.int64))
        pairs = {id(m): m for m in matrices if not m.data.flags.writeable}
        assert len(pairs) == 2 * (n_steps + 1)  # M and A of every surface
        for matrix in pairs.values():
            with pytest.raises(ValueError, match="read-only"):
                matrix.data[0] = 0.0


class CountingFactor:
    """Stands in for a held factor; records the column count of every
    solve, 1 for an (N,) right-hand side."""

    def __init__(self, lu):
        self.lu, self.widths = lu, []

    def solve(self, rhs):
        self.widths.append(1 if rhs.ndim == 1 else rhs.shape[1])
        return self.lu.solve(rhs)


def velocity_like_systems(level):
    """A held and a current matrix that differ the way two steps' velocity
    systems do, plus the mesh."""
    m0 = mesh.generate_icosphere(level, 1.0)
    mass, stiff = assembly.assemble_mass(m0), assembly.assemble_stiffness(m0)
    return m0, (mass + stiff).tocsr(), (mass + 1.05 * stiff).tocsr()


def lagged_solve(held_matrix, matrix, rhs, start):
    """Solve from ``start`` with ``held_matrix``'s factor held; returns the
    solution and the run record, whose _pcg calls and factor columns are
    that solve's.  The factor must not go stale."""
    held = stepper.RunRecord()
    stepper.make_solver(held_matrix, CHOLESKY, held, start, False)
    x = stepper.make_solver(matrix, CHOLESKY, held, start, False)(rhs)
    assert factorizations(held) == 1, "refactored"
    return x, held


def assert_matches_fresh_solve(x, matrix, rhs):
    expected = spla.splu(matrix.tocsc()).solve(rhs)
    assert np.abs(x - expected).max() <= 1e-13 * np.abs(expected).max()


class TestBlockedPCG:
    """A lagged solve of an (N, k) block of right-hand sides: each column
    runs _pcg from its start, preconditioned by the held factor, to its own
    stopping test."""

    def test_columns_converge_apart_and_a_zero_column_stays_zero(self):
        m0, held_matrix, matrix = velocity_like_systems(2)
        noise = np.random.Generator(np.random.Philox(4)).standard_normal(m0.num_nodes)
        smooth = held_matrix @ (m0.coords[:, 0] * m0.coords[:, 1])
        rhs = np.stack([noise, np.zeros(m0.num_nodes), smooth], axis=1)
        x, record = lagged_solve(held_matrix, matrix, rhs, np.zeros_like(rhs))
        assert_matches_fresh_solve(x, matrix, rhs)
        assert np.array_equal(x[:, 1], np.zeros(m0.num_nodes))
        # each column solved alone takes the same bits and iterations
        iterations = []
        for j in range(3):
            column, alone = lagged_solve(held_matrix, matrix, rhs[:, j], np.zeros(m0.num_nodes))
            assert np.array_equal(column, x[:, j])
            assert alone.pcg_calls["velocity"] == 1
            iterations.append(alone.pcg_iterations["velocity"])
        # the zero column never iterates, and the smooth one converges
        # before the noisy one
        assert record.pcg_calls["velocity"] == 3 and iterations[1] == 0
        assert 0 < iterations[2] < iterations[0]
        assert record.pcg_iterations["velocity"] == sum(iterations)
        # each iteration applies the factor to one column, and nothing
        # else applies it
        assert record.factor_columns == sum(iterations)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_columns_near_under_or_overflow_keep_the_factor(self, scale):
        # ||b||^2 underflows to 0 (or overflows to inf): each column is
        # solved scaled by a power of two, with the held factor
        m0, held_matrix, matrix = velocity_like_systems(2)
        rhs = scale * (matrix @ m0.coords)
        x, _ = lagged_solve(held_matrix, matrix, rhs, np.zeros_like(rhs))
        assert_matches_fresh_solve(x, matrix, rhs)

    def test_stale_factor_with_a_zero_column_refactors_once(self):
        m0 = mesh.generate_icosphere(2, 1.0)
        mass, stiff = assembly.assemble_mass(m0), assembly.assemble_stiffness(m0)
        far = (mass + 10.0 * stiff).tocsr()
        rhs = np.random.Generator(np.random.Philox(6)).standard_normal((m0.num_nodes, 3))
        rhs[:, 0] = 0.0
        expected = fresh_solve(far, rhs)
        held = stepper.RunRecord()
        near = (mass + 1e-6 * stiff).tocsr()
        stepper.make_solver(near, CHOLESKY, held, np.zeros_like(rhs), False)
        x = stepper.make_solver(far, CHOLESKY, held, np.zeros_like(rhs), False)(rhs)
        assert factorizations(held) == 2
        assert np.array_equal(x, expected)
        assert np.array_equal(x[:, 0], np.zeros(m0.num_nodes))

    @settings(max_examples=12, deadline=None)
    @given(k=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1),
           zero=st.integers(-1, 2))
    def test_every_column_matches_a_fresh_solve(self, k, seed, zero):
        m0, held_matrix, matrix = velocity_like_systems(1)
        rhs = np.random.Generator(np.random.Philox(seed)).standard_normal((m0.num_nodes, k))
        if 0 <= zero < k:
            rhs[:, zero] = 0.0
        x, _ = lagged_solve(held_matrix, matrix, rhs, np.zeros_like(rhs))
        assert x.shape == rhs.shape
        if 0 <= zero < k:
            assert not x[:, zero].any()
        if rhs.any():
            assert_matches_fresh_solve(x, matrix, rhs)


class TestWarmStart:
    def test_extrapolated_guess_matches_a_fresh_solve(self):
        # x_new = x + tau v: the guess 2 x - x_prev is off by O(tau^2)
        m0, held_matrix, matrix = velocity_like_systems(2)
        noise = np.random.Generator(np.random.Philox(9)).standard_normal(m0.coords.shape)
        x_prev, x = m0.coords, 1.01 * m0.coords + 1e-3 * noise
        rhs = matrix @ (1.0201 * m0.coords + 2e-3 * noise)
        x_new, _ = lagged_solve(held_matrix, matrix, rhs, 2.0 * x - x_prev)
        assert_matches_fresh_solve(x_new, matrix, rhs)

    def test_exact_guess_takes_no_factor_application(self):
        m0, held_matrix, matrix = velocity_like_systems(2)
        rhs = matrix @ m0.coords
        exact = spla.splu(matrix.tocsc()).solve(rhs)
        x, record = lagged_solve(held_matrix, matrix, rhs, exact)
        assert record.factor_columns == 0
        assert record.pcg_calls["velocity"] == 3 and record.pcg_iterations["velocity"] == 0
        assert_matches_fresh_solve(x, matrix, rhs)

    def test_zero_column_with_a_guess_returns_zeros(self):
        m0, held_matrix, matrix = velocity_like_systems(2)
        rhs = matrix @ m0.coords
        rhs[:, 1] = 0.0
        x, _ = lagged_solve(held_matrix, matrix, rhs, np.ones_like(rhs))
        assert np.array_equal(x[:, 1], np.zeros(m0.num_nodes))
        assert_matches_fresh_solve(x, matrix, rhs)

    def test_nan_guess_refactors_once(self):
        m0, held_matrix, matrix = velocity_like_systems(2)
        rhs = matrix @ m0.coords
        expected = fresh_solve(matrix, rhs)
        held = stepper.RunRecord()
        stepper.make_solver(held_matrix, CHOLESKY, held, np.zeros_like(rhs), False)
        x = stepper.make_solver(matrix, CHOLESKY, held, np.full_like(rhs, np.nan), False)(rhs)
        assert factorizations(held) == 2
        assert np.array_equal(x, expected)

    def test_first_solve_is_exact_whatever_the_guess(self):
        m0, _, matrix = velocity_like_systems(2)
        rhs = matrix @ m0.coords
        x = stepper.make_solver(matrix, CHOLESKY, stepper.RunRecord(), np.full_like(rhs, np.nan),
                                False)(rhs)
        assert np.array_equal(x, fresh_solve(matrix, rhs))

    @pytest.mark.parametrize("level, t_end, bound", [
        # measured 3.07 and 1.05 per column from the extrapolated guess
        # (1.55 at level 4 from the linear one), 2.9 and 2.0 from the linear
        # guess corrected once by the factor; started from the factor's
        # solve of b they took 4.9 and 3.9
        (2, 0.1, 3.5), (4, 0.03, 1.15)])
    def test_example1_factor_applications_per_lagged_solve(self, level, t_end, bound):
        m0 = mesh.generate_icosphere(level, 1.0)
        tau = experiments.step_size_for(m0, t_end)
        cfg = stepper.StepperConfig(tau=tau, t_end=t_end)
        record = stepper.RunRecord()
        stepper.run(problems.example1_problem(), m0, cfg, record=record)
        # one factor, so every step after the first is a lagged solve, one
        # _pcg call per column
        lagged_columns = record.pcg_calls["velocity"]
        assert factorizations(record) == 1 and lagged_columns == 3 * (round(t_end / tau) - 1)
        # the first, exact solve applies the factor to its three columns
        assert record.factor_columns - 3 <= bound * lagged_columns


def field_system(level=3, seed=8):
    """A sphere, its M and A, tau = 0.1 h^2, its u system M + tau A and a
    previous field."""
    m0 = mesh.generate_icosphere(level, 1.0)
    mass, stiff = assembly.assemble_mass(m0), assembly.assemble_stiffness(m0)
    tau = 0.1 * m0.h_max ** 2
    rng = np.random.Generator(np.random.Philox(seed))
    u_prev = m0.coords[:, 0] * m0.coords[:, 1] + 0.01 * rng.standard_normal(m0.num_nodes)
    return m0, mass, stiff, tau, assembly.add_scaled(mass, tau, stiff), u_prev


class TestFieldSolve:
    @pytest.mark.parametrize("solver", [stepper.DIRECT, stepper.CG])
    def test_reaches_the_relative_residual_without_a_factor(self, monkeypatch, solver):
        # the field carried on a slightly smaller sphere
        m0, mass, stiff, tau, system, u_prev = field_system()
        smaller = m0.with_coords(np.sqrt(0.99) * m0.coords)
        calls = count_factorizations(monkeypatch)
        record = stepper.RunRecord()
        cfg = stepper.StepperConfig(tau=tau, t_end=1.0, solver=solver)
        state = stepper.initial_state(quiescent_spec(), smaller, u0=u_prev)
        u, w = stepper._advance_fields(quiescent_spec(), state, m0, cfg, record)
        rhs = assembly.surface_matrices(smaller)[0] @ u_prev
        assert np.linalg.norm(system @ u - rhs) <= 1e-14 * np.linalg.norm(rhs)
        assert calls == [] and w is None
        assert record.pcg_calls == {"velocity": 0, "field": 1}
        assert record.pcg_iterations["field"] > 0

    def test_exact_start_returns_without_iterating(self):
        *_, system, u_prev = field_system()
        record = stepper.RunRecord()
        x = stepper._pcg_solver(system, stepper.LAG_TOL, u_prev, record, "field")(system @ u_prev)
        assert np.array_equal(x, u_prev)
        assert record.pcg_calls["field"] == 1 and record.pcg_iterations["field"] == 0
        stepper._pcg_solver(system, stepper.LAG_TOL, 1.001 * u_prev, record,
                            "field")(system @ u_prev)
        assert record.pcg_calls["field"] == 2 and record.pcg_iterations["field"] > 0


def count_cg_iterations_by_kind(monkeypatch):
    """Record the iteration count of every stepper._pcg call from now on,
    under "velocity" for the columns of a solve that stepper.make_solver
    built and under "field" for the others: the oracle that the run
    record's counts are held to (TestRunRecord)."""
    iterations, kind = {"velocity": [], "field": []}, ["field"]
    real_pcg, real_make_solver = stepper._pcg, stepper.make_solver

    def pcg(*args):
        x, n = real_pcg(*args)
        iterations[kind[0]].append(n)
        return x, n

    def make_solver(*args):
        solve = real_make_solver(*args)

        def velocity_solve(rhs):
            kind[0] = "velocity"
            try:
                return solve(rhs)
            finally:
                kind[0] = "field"

        return velocity_solve

    monkeypatch.setattr(stepper, "_pcg", pcg)
    monkeypatch.setattr(stepper, "make_solver", make_solver)
    return iterations


# the regularized law with alpha = 0 (the tumor and example3's beta arm)
# and the dynamic law: K = M in the velocity system
MASS_VELOCITY_SPECS = {
    "tumor": problems.tumor_problem(0.0, 0.01, 0.01),
    "beta_arm": problems.example1_problem(0.0, 1.0, 0.0),
    "dynamic": dataclasses.replace(problems.example1_problem(),
                                   law=problems.VelocityLaw(1.0, 0.0, 0.4, dynamic=True)),
}


class TestMassVelocitySolve:
    """Where K = M the velocity system runs Jacobi-PCG like the field
    systems: no factor, the same solve under both solvers."""

    def test_tumor_run_factors_only_its_pre_relaxation(self, monkeypatch):
        calls = count_factorizations(monkeypatch)
        experiments.tumor_experiment(0.0, 0.01, level=1, tau=1e-3, t_end=5e-3, pre_time=0.01)
        assert len(calls) == 2  # M + tau_pre A and M + tau_pre D_c A; was 3

    def test_alpha_zero_study_factors_nothing(self, monkeypatch):
        calls = count_factorizations(monkeypatch)
        report = experiments.example1_study(levels=(1, 2), alpha=0.0, beta=1.0, delta=0.0,
                                            t_end=0.05)
        assert len(report.levels) == 2
        assert calls == []  # was 1 per level

    @pytest.mark.parametrize("case", sorted(MASS_VELOCITY_SPECS))
    def test_both_solvers_end_bitwise_equal(self, monkeypatch, case):
        spec, m0 = MASS_VELOCITY_SPECS[case], mesh.generate_icosphere(2, 1.0)
        start = (seeded_two_species_start(spec, m0, 3) if case == "tumor"
                 else stepper.initial_state(spec, m0))
        calls = count_factorizations(monkeypatch)
        finals = [stepper.run(spec, m0, stepper.StepperConfig(2e-3, 0.02, solver=solver),
                              start=start) for solver in (stepper.DIRECT, stepper.CG)]
        assert calls == []
        for name in ("x", "u", "v", "w"):
            a, b = (getattr(final, name) for final in finals)
            assert (a is None and b is None) or np.array_equal(a.view(np.int64),
                                                               b.view(np.int64)), name

    @pytest.mark.parametrize("solver", [stepper.DIRECT, stepper.CG])
    def test_bench_tumor_iterations(self, monkeypatch, solver):
        # the benchmark's run (level 3, 1,000 pre-relaxation and 100 moving
        # steps): measured 3.7 per velocity column and 8.9 per field solve
        # from cubic starts, 9.2 and 12.0 from linear ones; the field solves
        # took 15.5 from the old field, not extrapolated
        records = record_runs(monkeypatch)
        experiments.tumor_experiment(0.0, 0.01, 0.01, level=3, tau=1e-3, t_end=0.1, seed=0,
                                     pre_time=1.0, solver=solver)
        (record,) = records
        calls, iterations = record.pcg_calls, record.pcg_iterations
        assert calls == {"velocity": 3 * 100, "field": 2 * 100}
        assert iterations["velocity"] <= 4.1 * calls["velocity"]
        assert iterations["field"] <= 9.8 * calls["field"]

    def test_example1_field_iterations(self):
        # level 4, the benchmark's coupled size: measured 5.1 per field
        # solve from the cubic start, 7.1 from the linear one and 9.0 from
        # the old field; the velocity keeps its factor, which
        # preconditions the three columns of every step after the first
        record = stepper.RunRecord()
        m0 = mesh.generate_icosphere(4, 1.0)
        cfg = stepper.StepperConfig(tau=experiments.step_size_for(m0, 0.03), t_end=0.03)
        stepper.run(problems.example1_problem(), m0, cfg, record=record)
        assert record.pcg_calls == {"velocity": 3 * 43, "field": 44}
        assert record.pcg_iterations["field"] <= 5.6 * record.pcg_calls["field"]


def pinned_extrapolation(values, order):
    """The start that a solve takes from ``values``, newest first: the
    backward difference of order min(order, len(values) - 1), each weight
    times its value summed left to right."""
    y = values[:order + 1]
    if len(y) == 1:
        return y[0]
    if len(y) == 2:
        return 2.0 * y[0] + (-1.0) * y[1]
    if len(y) == 3:
        return 3.0 * y[0] + (-3.0) * y[1] + 1.0 * y[2]
    return 4.0 * y[0] + (-6.0) * y[1] + 4.0 * y[2] + (-1.0) * y[3]


def recorded_starts(monkeypatch):
    """The (rtol, x0) of every stepper._pcg_solver call from now on."""
    starts, real = [], stepper._pcg_solver

    def recording(matrix, rtol, x0, *args):
        starts.append((rtol, x0))
        return real(matrix, rtol, x0, *args)

    monkeypatch.setattr(stepper, "_pcg_solver", recording)
    return starts


def history(states, n, name):
    """The values of ``name`` from states[n] back to states[0], newest first."""
    return [getattr(state, name) for state in states[n::-1]]


class TestExtrapolation:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), order=st.integers(1, 3), held=st.integers(0, 3))
    def test_reproduces_every_polynomial_of_its_degree(self, data, order, held):
        # y_j = p(-j) for j = 0..held and the next value p(1), for a few
        # polynomials p of degree <= min(order, held) with small integer
        # coefficients, so every value and every sum is exact
        degree = data.draw(st.integers(0, min(order, held)))
        coefficients = np.array(data.draw(st.lists(
            st.lists(st.integers(-20, 20), min_size=degree + 1, max_size=degree + 1),
            min_size=1, max_size=4)), dtype=float).T
        values = [np.polynomial.polynomial.polyval(-j, coefficients) for j in range(held + 1)]
        start = stepper._extrapolated(values[0], values[1:], order)
        assert np.array_equal(start, np.polynomial.polynomial.polyval(1, coefficients))
        assert np.array_equal(start, pinned_extrapolation(values, order))

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("held", [0, 1, 2, 3])
    def test_sums_the_pinned_weights_in_order(self, order, held):
        # a shorter history falls back to the order it holds
        values = list(np.random.Generator(np.random.Philox(order + 4 * held))
                      .standard_normal((held + 1, 50, 3)))
        start = stepper._extrapolated(values[0], values[1:], order)
        if held == 0:
            assert start is values[0]
        assert np.array_equal(start.view(np.int64),
                              pinned_extrapolation(values, order).view(np.int64))


class TestExtrapolatedStarts:
    def test_each_start_extrapolates_up_to_three_steps_before(self, monkeypatch):
        # every system of the tumor is mass-dominated: cubic starts
        spec, m0 = MASS_VELOCITY_SPECS["tumor"], mesh.generate_icosphere(1, 1.0)
        starts = recorded_starts(monkeypatch)
        tau, states = 1e-3, []
        stepper.run(spec, m0, stepper.StepperConfig(tau, 5 * tau),
                    observers=(lambda n, state: states.append(state),),
                    start=seeded_two_species_start(spec, m0, 4))
        # per step: the velocity (N, 3) to MASS_TOL, then u and w to LAG_TOL
        assert [rtol for rtol, _ in starts] == 5 * [stepper.MASS_TOL, stepper.LAG_TOL, stepper.LAG_TOL]
        for n in range(5):
            velocity, u, w = (x0 for _, x0 in starts[3 * n:3 * n + 3])
            now = states[n]
            v = pinned_extrapolation(history(states, n, "v"), 3)
            assert np.array_equal(velocity, now.x + tau * v), n
            for start, name in ((u, "u"), (w, "w")):
                assert np.array_equal(start, pinned_extrapolation(history(states, n, name), 3)), \
                    (n, name)

    @pytest.mark.parametrize("solver", [stepper.DIRECT, stepper.CG])
    @pytest.mark.parametrize("case", ["example1", "tumor"])
    def test_a_copied_state_steps_from_its_own_history(self, case, solver):
        # a state carries the fields it was stepped from, so a copy of a
        # run's last state, holding a full history, takes the step that the
        # run would have taken
        m0 = mesh.generate_icosphere(2, 1.0)
        if case == "tumor":
            spec = MASS_VELOCITY_SPECS["tumor"]
            start = seeded_two_species_start(spec, m0, 4)
        else:
            spec, start = problems.example1_problem(), None
        tau, record = 1e-3, stepper.RunRecord()
        fourth = stepper.run(spec, m0, stepper.StepperConfig(tau, 4 * tau, solver),
                             start=start, record=record)
        assert [len(older) for older in fourth.previous] == [3, 3, 3]
        fifth = stepper.step_coupled(dataclasses.replace(fourth), spec,
                                     stepper.StepperConfig(tau, tau, solver), record)
        expected = stepper.run(spec, m0, stepper.StepperConfig(tau, 5 * tau, solver),
                               start=start)
        for name in ("x", "u", "v", "w"):
            a, b = getattr(fifth, name), getattr(expected, name)
            assert (a is None and b is None) or np.array_equal(a.view(np.int64),
                                                               b.view(np.int64)), name

    def test_every_law_keeps_its_old_velocity(self):
        # every state holds v, u and w of the three states before it,
        # newest first, whatever its law and under either solver
        m0 = mesh.generate_icosphere(1, 1.0)
        for spec in (problems.example1_problem(), *MASS_VELOCITY_SPECS.values()):
            first = (seeded_two_species_start(spec, m0, 4) if len(spec.diffusion) == 2
                     else stepper.initial_state(spec, m0))
            assert first.previous == ((), (), ())
            for solver in (stepper.DIRECT, stepper.CG):
                states, record = [first], stepper.RunRecord()
                config = stepper.StepperConfig(1e-3, 1e-3, solver)
                for _ in range(4):
                    states.append(stepper.step_coupled(states[-1], spec, config, record))
                for n, state in enumerate(states[1:], start=1):
                    earlier = states[n - 1::-1][:3]
                    for name, older in zip("vuw", state.previous):
                        assert len(older) == len(earlier)
                        assert all(a is getattr(b, name) for a, b in zip(older, earlier))


class TestLaterVelocitySolves:
    """A run's first velocity system with alpha > 0 is solved from scratch;
    every later one runs _pcg from the quadratically extrapolated guess to
    LAG_TOL under either solver, which picks only the preconditioner."""

    def test_first_cg_step_is_a_zero_start_solve(self, monkeypatch):
        spec, m0 = problems.example1_problem(), mesh.generate_icosphere(2, 1.0)
        cfg = stepper.StepperConfig(1e-3, 1e-3, stepper.CG)
        first = stepper.run(spec, m0, cfg)
        real = stepper._pcg_solver
        monkeypatch.setattr(stepper, "make_solver", lambda matrix, config, record, guess, mass_only:
                            real(matrix, stepper.CG_TOL, np.zeros_like(guess), record, "velocity"))
        from_zero = stepper.run(spec, m0, cfg)
        for name in ("x", "u", "v"):
            a, b = getattr(first, name), getattr(from_zero, name)
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name

    @pytest.mark.parametrize("solver", [stepper.DIRECT, stepper.CG])
    def test_later_steps_start_from_the_extrapolated_guess(self, monkeypatch, solver):
        spec, m0 = problems.example1_problem(), mesh.generate_icosphere(1, 1.0)
        starts = recorded_starts(monkeypatch)
        tau, states = 1e-3, []
        stepper.run(spec, m0, stepper.StepperConfig(tau, 5 * tau, solver),
                    observers=(lambda n, state: states.append(state),))
        # the velocity solves are the (N, 3) ones; the u solves are (N,),
        # cubically extrapolated
        velocity = [(rtol, x0) for rtol, x0 in starts if x0.ndim == 2]
        fields = [x0 for _, x0 in starts if x0.ndim == 1]
        if solver == stepper.CG:
            rtol, x0 = velocity.pop(0)
            assert rtol == stepper.CG_TOL and not x0.any()
        # the cholesky solver's first system is its new factor's own solve
        assert len(velocity) == 4 and len(fields) == 5
        for n, (rtol, x0) in enumerate(velocity, start=1):
            assert rtol == stepper.LAG_TOL
            v = pinned_extrapolation(history(states, n, "v"), 2)
            assert np.array_equal(x0, states[n].x + tau * v), n
        for n, x0 in enumerate(fields):
            assert np.array_equal(x0, pinned_extrapolation(history(states, n, "u"), 3)), n

    def test_example1_cg_velocity_iterations(self):
        # level 3 to t = 0.2: measured 19.4 per velocity column from the
        # quadratic start, 24.3 from the linear one and 40.2 from zero
        record = stepper.RunRecord()
        m0 = mesh.generate_icosphere(3, 1.0)
        cfg = stepper.StepperConfig(tau=experiments.step_size_for(m0, 0.2), t_end=0.2,
                                    solver=stepper.CG)
        stepper.run(problems.example1_problem(), m0, cfg, record=record)
        calls = record.pcg_calls["velocity"]
        assert calls == 3 * round(0.2 / cfg.tau)
        assert record.pcg_iterations["velocity"] <= 21.5 * calls


def recorded_run(case):
    """The RunRecord of a short run: example1 at level 2 under the solver
    ``case``, or, for ``case`` "tumor", the two-species tumor spec (K = M)
    at level 1."""
    if case == "tumor":
        spec, m0 = MASS_VELOCITY_SPECS["tumor"], mesh.generate_icosphere(1, 1.0)
        start, solver = seeded_two_species_start(spec, m0, 5), stepper.DIRECT
    else:
        spec, m0 = problems.example1_problem(), mesh.generate_icosphere(2, 1.0)
        start, solver = None, case
    record = stepper.RunRecord()
    stepper.run(spec, m0, stepper.StepperConfig(1e-3, 8e-3, solver), start=start, record=record)
    return record


def counts(record):
    """Every count that ``record`` holds."""
    return (record.steps, record.pcg_calls, record.pcg_iterations, record.factorizations,
            record.factor_columns)


RECORDED_CASES = [stepper.DIRECT, stepper.CG, "tumor"]


class TestRunRecord:
    """The run record's counts equal those taken from outside the stepper:
    a stepper._pcg wrapper, an assembly.factorize wrapper and a
    CountingFactor."""

    @pytest.mark.parametrize("case", RECORDED_CASES)
    def test_pcg_counts_match_a_pcg_wrapper(self, monkeypatch, case):
        iterations = count_cg_iterations_by_kind(monkeypatch)
        record = recorded_run(case)
        for system, n in iterations.items():
            assert record.pcg_calls[system] == len(n) > 0, system
            assert record.pcg_iterations[system] == sum(n) > 0, system

    @pytest.mark.parametrize("case", RECORDED_CASES)
    def test_factorizations_match_a_factorize_wrapper(self, monkeypatch, case):
        kinds, real = [], assembly.factorize

        def factorize(matrix):
            factor = real(matrix)
            kinds.append(type(factor).__name__)
            return factor

        monkeypatch.setattr(assembly, "factorize", factorize)
        record = recorded_run(case)
        assert kinds == (["BandCholesky"] if case == stepper.DIRECT else [])
        assert record.factorizations == collections.Counter(kinds)

    @pytest.mark.parametrize("case", RECORDED_CASES)
    def test_factor_columns_match_a_counting_factor(self, monkeypatch, case):
        factors, real = [], assembly.factorize

        def factorize(matrix):
            factors.append(CountingFactor(real(matrix)))
            return factors[-1]

        monkeypatch.setattr(assembly, "factorize", factorize)
        columns = recorded_run(case).factor_columns
        assert columns == sum(sum(factor.widths) for factor in factors)
        assert (columns > 0) == (case == stepper.DIRECT)

    def test_tumor_record_counts_its_pre_relaxation_factors(self, monkeypatch):
        # the moving run (K = M) holds no factor: the record's factors are
        # the pre-relaxation's two, one column per field and step
        calls = count_factorizations(monkeypatch)
        records = record_runs(monkeypatch)
        experiments.tumor_experiment(0.0, 0.01, level=1, tau=1e-3, t_end=5e-3, pre_time=0.01)
        (record,) = records
        assert record.steps == 5  # the moving steps; the pre-relaxation counts none
        assert record.factorizations == collections.Counter(BandCholesky=2)
        assert sum(record.factorizations.values()) == len(calls)
        assert record.factor_columns == 2 * 10

    def test_a_record_holding_a_factor_is_freed_with_its_last_reference(self):
        # the held solve counts columns without holding the record, so no
        # cycle waits for the collector with the factor in it
        record = recorded_run(stepper.DIRECT)
        assert record.held is not None
        gone = weakref.ref(record)
        del record
        assert gone() is None

    @pytest.mark.parametrize("case", RECORDED_CASES)
    def test_identical_runs_give_identical_records(self, case):
        first = recorded_run(case)
        assert counts(first) == counts(recorded_run(case))
        assert first.steps == 8
        # a record that counts nothing repeats too: each count the run
        # must make is there
        for system in ("velocity", "field"):
            assert first.pcg_calls[system] > 0 and first.pcg_iterations[system] > 0
        factored = case == stepper.DIRECT
        assert first.factorizations == collections.Counter(BandCholesky=int(factored))
        assert (first.factor_columns > 0) == factored


@functools.lru_cache(maxsize=None)
def sphere_matrices(level):
    m0 = mesh.generate_icosphere(level, 1.0)
    return assembly.assemble_mass(m0), assembly.assemble_stiffness(m0)


def jacobi(matrix):
    """The Jacobi preconditioner that _pcg_solver gives _pcg."""
    return functools.partial(np.multiply, 1.0 / matrix.diagonal())


def jacobi_operator(matrix):
    inv_diag = 1.0 / matrix.diagonal()
    return spla.LinearOperator(matrix.shape, matvec=lambda r: inv_diag * r)


def scipy_jacobi_cg(matrix, rhs, x0, rtol):
    """Reference: spla.cg per column with the Jacobi LinearOperator;
    returns the solution and the iteration count of each column."""
    matrix, cols = matrix.tocsr(), rhs.reshape(rhs.shape[0], -1)
    starts = x0.reshape(cols.shape)
    out, iterations = np.empty_like(cols), []
    for j in range(cols.shape[1]):
        iterations.append(0)

        def count(xk):
            iterations[-1] += 1

        out[:, j], info = spla.cg(matrix, cols[:, j], x0=starts[:, j], rtol=rtol, atol=0.0,
                                  maxiter=stepper.CG_MAX_ITER, M=jacobi_operator(matrix),
                                  callback=count)
        assert info == 0
    return out.reshape(rhs.shape), iterations


def assert_agrees_with_scipy_cg(matrix, rhs, x0, rtol):
    """_pcg_solver takes spla.cg's iteration count per column, as a run
    record counts it for that column alone, and each column of its
    solution agrees with cg's within 1e-13 max|x|: the BLAS updates of _pcg
    round once where cg rounds twice."""
    expected, expected_iterations = scipy_jacobi_cg(matrix, rhs, x0, rtol)
    x = stepper._pcg_solver(matrix, rtol, x0, stepper.RunRecord(), "field")(rhs)
    iterations = []
    for b, start in zip(rhs.reshape(len(rhs), -1).T, x0.reshape(len(rhs), -1).T):
        record = stepper.RunRecord()
        stepper._pcg_solver(matrix, rtol, start, record, "field")(b)
        iterations.append(record.pcg_iterations["field"])
    assert iterations == expected_iterations
    assert x.shape == expected.shape
    x, expected = x.reshape(x.shape[0], -1), expected.reshape(x.shape[0], -1)
    bound = 1e-13 * np.abs(expected).max(axis=0)
    assert np.all(np.abs(x - expected).max(axis=0) <= bound)


class TestPCGKernel:
    @settings(max_examples=20, deadline=None)
    @given(level=st.integers(1, 3), c=st.floats(1e-6, 1.0), k=st.sampled_from([1, 3]),
           random_start=st.booleans(), rtol=st.sampled_from([1e-12, 1e-14]),
           zero=st.integers(-1, 2), seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_scipy_cg_in_as_many_iterations(self, level, c, k, random_start,
                                                         rtol, zero, seed):
        mass, stiff = sphere_matrices(level)
        matrix = assembly.add_scaled(mass, c, stiff)
        rng = np.random.Generator(np.random.Philox(seed))
        shape = (mass.shape[0],) if k == 1 else (mass.shape[0], k)
        rhs = rng.standard_normal(shape)
        if zero >= 0:
            rhs.reshape(shape[0], -1)[:, zero % k] = 0.0
        x0 = rng.standard_normal(shape) if random_start else np.zeros(shape)
        assert_agrees_with_scipy_cg(matrix, rhs, x0, rtol)

    @pytest.mark.parametrize("level", [2, 3])
    def test_shared_read_only_pattern_agrees_with_scipy_cg(self, level):
        m0 = mesh.generate_icosphere(level, 1.0)
        mass, stiff = assembly.surface_matrices(m0)
        rng = np.random.Generator(np.random.Philox(level))
        rhs = rng.standard_normal((mass.shape[0], 3))
        x0 = rng.standard_normal(rhs.shape)
        for matrix in (assembly.add_scaled(mass, 1e-3, stiff),
                       assembly.add_scaled(assembly.add_scaled(mass, 0.5, stiff), 0.01, stiff)):
            assert not matrix.indices.flags.writeable
            for start, rtol in ((np.zeros_like(x0), stepper.CG_TOL), (x0, stepper.LAG_TOL)):
                assert_agrees_with_scipy_cg(matrix, rhs, start, rtol)

    def test_strided_start_returns_the_solution(self):
        # daxpy updates a copy of a start that is not contiguous, so _pcg
        # must return that copy, not the start it was given
        mass, stiff = sphere_matrices(2)
        matrix = assembly.add_scaled(mass, 0.01, stiff)
        rng = np.random.Generator(np.random.Philox(3))
        rhs = rng.standard_normal(mass.shape[0])
        start = rng.standard_normal((mass.shape[0], 2))[:, 0]
        assert not start.flags.c_contiguous
        x, iterations = stepper._pcg(matrix, jacobi(matrix), rhs, start, 1e-12,
                                     stepper.CG_MAX_ITER)
        assert iterations > 0
        assert np.linalg.norm(matrix @ x - rhs) < 1e-12 * np.linalg.norm(rhs)

    def test_kernel_product_bitwise_equal_to_matmul(self):
        mass, stiff = assembly.surface_matrices(mesh.generate_icosphere(3, 1.0))
        matrix = assembly.add_scaled(mass, 0.01, stiff)
        rng = np.random.Generator(np.random.Philox(7))
        n = matrix.shape[0]
        signed_zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        for p in (rng.standard_normal(n), np.zeros(n), signed_zeros):
            q = np.full(n, np.nan)  # a used buffer, zeroed as _pcg does
            q.fill(0.0)
            stepper.csr_matvec(*matrix.shape, matrix.indptr, matrix.indices, matrix.data, p, q)
            assert np.array_equal(q.view(np.int64), (matrix @ p).view(np.int64))

    def test_nan_rhs_raises(self):
        mass, stiff = sphere_matrices(1)
        rhs = np.full(mass.shape[0], np.nan)
        with pytest.raises(LinearSolveFailure, match="conjugate gradient") as info:
            stepper._pcg_solver(mass + stiff, stepper.CG_TOL, np.zeros_like(rhs),
                                stepper.RunRecord(), "field")(rhs)
        assert np.isnan(info.value.residual)

    @pytest.mark.parametrize("exponent", [1000, 600, -600, -1000])
    def test_column_near_over_or_underflow_is_solved_exactly_scaled(self, exponent):
        # ||b||^2 overflows (or underflows): _pcg solves b / 2^e, and a power
        # of two scales every operation exactly
        mass, stiff = sphere_matrices(2)
        matrix = assembly.add_scaled(mass, 0.01, stiff)
        args = matrix, jacobi(matrix)
        rng = np.random.Generator(np.random.Philox(5))
        rhs, start = rng.standard_normal(mass.shape[0]), rng.standard_normal(mass.shape[0])
        expected, expected_iterations = stepper._pcg(*args, rhs, start.copy(), 1e-14,
                                                     stepper.CG_MAX_ITER)
        b = np.ldexp(rhs, exponent)
        assert not 2.0**-500 < np.sqrt(stepper.ddot(b, b)) < 2.0**500
        x, iterations = stepper._pcg(*args, b, np.ldexp(start, exponent), 1e-14,
                                     stepper.CG_MAX_ITER)
        assert iterations == expected_iterations > 0
        assert np.array_equal(x, np.ldexp(expected, exponent))

    def test_huge_finite_column_solves(self):
        mass, stiff = sphere_matrices(2)
        matrix = assembly.add_scaled(mass, 0.01, stiff)
        rhs = 1e300 * np.random.Generator(np.random.Philox(6)).standard_normal(mass.shape[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x = stepper._pcg_solver(matrix, stepper.LAG_TOL, np.zeros_like(rhs),
                                    stepper.RunRecord(), "field")(rhs)
        expected = spla.splu(matrix.tocsc()).solve(rhs)
        assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("case", ["nan rhs", "inf rhs", "nan start", "nan entry"])
    def test_non_finite_rho_or_alpha_fails_at_once(self, monkeypatch, case):
        mass, stiff = sphere_matrices(2)
        matrix = assembly.add_scaled(mass, 0.01, stiff)
        rng = np.random.Generator(np.random.Philox(7))
        rhs, start = rng.standard_normal(mass.shape[0]), np.zeros(mass.shape[0])
        if case == "nan entry":
            # an off-diagonal entry: rho is finite, p.q and with it alpha not
            data = matrix.data.copy()
            data[np.flatnonzero(matrix.indices != np.repeat(
                np.arange(matrix.shape[0]), np.diff(matrix.indptr)))[0]] = np.nan
            matrix = assembly._with_data(matrix, data)
        else:
            target = start if case == "nan start" else rhs
            target[3] = np.inf if case == "inf rhs" else np.nan
        counted = []
        real = stepper.csr_matvec

        def counting(*args):
            counted.append(1)
            return real(*args)

        monkeypatch.setattr(stepper, "csr_matvec", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(LinearSolveFailure, match="conjugate gradient"):
                stepper._pcg(matrix, jacobi(matrix), rhs, start, 1e-14, stepper.CG_MAX_ITER)
        assert len(counted) == 1  # the first iteration's product

    def test_long_column_has_the_same_bits_under_one_and_two_blas_threads(self):
        # OpenBLAS splits a ddot of more than 10,000 entries across its
        # threads; _pcg sums such dot products over fixed chunks instead
        code = ("import hashlib\n"
                "import numpy as np, scipy.sparse as sp\n"
                "from esfem import stepper\n"
                "n = 12000\n"
                "rng = np.random.Generator(np.random.Philox(2))\n"
                "off = -np.ones(n - 1)\n"
                "matrix = sp.diags([off, 2.01 + rng.random(n), off], [-1, 0, 1], format='csr')\n"
                "x = stepper._pcg_solver(matrix, 1e-14, np.zeros(n), stepper.RunRecord(),\n"
                "                        'field')(rng.standard_normal(n))\n"
                "print(hashlib.sha256(x.tobytes()).hexdigest())\n")
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout)
        assert digests[0] == digests[1]

    def test_iteration_cap_raises_with_the_residual(self, monkeypatch):
        mass, stiff = sphere_matrices(2)
        matrix = assembly.add_scaled(mass, 1.0, stiff).tocsr()
        rhs = np.random.Generator(np.random.Philox(4)).standard_normal(mass.shape[0])
        monkeypatch.setattr(stepper, "CG_MAX_ITER", 2)
        with pytest.raises(LinearSolveFailure) as info:
            stepper._pcg_solver(matrix, stepper.LAG_TOL, np.zeros_like(rhs), stepper.RunRecord(),
                                "field")(rhs)
        x, code = spla.cg(matrix, rhs, rtol=stepper.LAG_TOL, atol=0.0, maxiter=2,
                          M=jacobi_operator(matrix))
        assert code == 2
        # the updates of _pcg round once where cg rounds twice: to rounding
        expected = float(np.linalg.norm(matrix @ x - rhs))
        assert info.value.residual == pytest.approx(expected, rel=1e-12) and expected > 0.0


class TestRunNodeVectorLayout:
    """After every step of a run, x is the surface's own read-only coords
    and v a C-contiguous float64 (N, 3) array: the one node-vector layout."""

    @staticmethod
    def observed_steps(spec, m0, config, start=None):
        steps = []

        def check(step_index, state):
            assert state.x is state.mesh.coords and not state.x.flags.writeable, step_index
            assert state.v.shape == (state.mesh.num_nodes, 3), step_index
            assert state.v.dtype == np.float64 and state.v.flags.c_contiguous, step_index
            steps.append(step_index)

        stepper.run(spec, m0, config, observers=(check,), start=start)
        return steps

    @pytest.mark.parametrize("solver", [stepper.DIRECT, stepper.CG])
    @pytest.mark.parametrize("law", [problems.VelocityLaw(1.0, 0.0, 0.4),
                                     problems.VelocityLaw(1.0, 0.0, 0.4, dynamic=True)],
                             ids=["regularized", "dynamic"])
    def test_example1(self, law, solver):
        spec = dataclasses.replace(problems.example1_problem(), law=law)
        config = stepper.StepperConfig(tau=1e-3, t_end=5e-3, solver=solver)
        steps = self.observed_steps(spec, mesh.generate_icosphere(1, 1.0), config)
        assert steps == list(range(6))

    def test_tumor(self):
        kin = problems.TumorKinetics()
        spec = problems.tumor_problem(0.0, 0.01, 0.01, kin)
        m0 = mesh.generate_icosphere(1, 1.0)
        u0, w0 = problems.tumor_initial_data(m0, kin, seed=0, pre_time=0.01,
                                             record=stepper.RunRecord())
        start = stepper.initial_state(spec, m0, u0=u0, w0=w0)
        steps = self.observed_steps(spec, m0, stepper.StepperConfig(tau=1e-3, t_end=5e-3), start)
        assert steps == list(range(6))
