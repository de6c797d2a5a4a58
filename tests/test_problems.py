import dataclasses

import numpy as np
import pytest

from esfem import assembly, experiments, mesh, problems, stepper


class TestVelocityLaw:
    def test_exactly_four_fields(self):
        names = [f.name for f in dataclasses.fields(problems.VelocityLaw)]
        assert names == ["alpha", "beta", "delta", "dynamic"]
        assert problems.VelocityLaw(1.0) == problems.VelocityLaw(1.0, 0.0, 0.0, False)

    def test_unregularized_rejected(self):
        with pytest.raises(ValueError, match="alpha > 0 or beta > 0"):
            problems.VelocityLaw(0.0, 0.0)
        with pytest.raises(ValueError, match="alpha > 0 or beta > 0"):
            problems.example1_problem(alpha=0.0, beta=0.0)

    def test_negative_coefficients_rejected(self):
        for alpha, beta, dynamic in [(-1.0, 0.0, False), (0.0, -0.5, False), (-1.0, 0.0, True)]:
            with pytest.raises(ValueError, match="non-negative"):
                problems.VelocityLaw(alpha, beta, dynamic=dynamic)

    def test_dynamic_allows_zero_beta(self):
        for alpha in (1.0, 0.0):
            law = problems.VelocityLaw(alpha, dynamic=True)
            assert law.dynamic and law.beta == 0.0

    def test_dynamic_rejects_beta(self):
        # the dynamic law has no mean curvature term, so a beta would be ignored
        with pytest.raises(ValueError, match="need beta = 0"):
            problems.VelocityLaw(1.0, 0.5, dynamic=True)

    def test_problems_build_the_regularized_law(self):
        assert problems.example1_problem(0.5, 0.25, 0.4).law == problems.VelocityLaw(0.5, 0.25, 0.4)
        assert problems.tumor_problem(0.0, 0.01, 0.01).law == problems.VelocityLaw(0.0, 0.01, 0.01)


class TestLogisticRadius:
    def test_initial_value(self):
        s = problems.ManufacturedSphere(1.0, 2.0, 0.5)
        assert float(s.radius(0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_limit(self):
        s = problems.ManufacturedSphere(1.0, 2.0, 0.5)
        assert float(s.radius(200.0)) == pytest.approx(2.0, rel=1e-12)

    def test_value_at_one(self):
        # direct evaluation of the displayed formula
        s = problems.ManufacturedSphere(1.0, 2.0, 0.5)
        assert float(s.radius(1.0)) == pytest.approx(2.0 / (np.exp(-0.5) + 1.0), rel=1e-14)
        assert float(s.radius(1.0)) == pytest.approx(1.244919, abs=5e-7)

    def test_monotone_between_bounds(self):
        s = problems.ManufacturedSphere(1.0, 2.0, 0.5)
        t = np.linspace(0.0, 20.0, 200)
        r = s.radius(t)
        assert np.all(np.diff(r) > 0)
        assert np.all(r >= 1.0) and np.all(r < 2.0)

    def test_rate_matches_finite_differences_order_two(self):
        s = problems.ManufacturedSphere(1.0, 2.0, 0.5)
        t = 0.7
        errs = []
        for eps in (1e-3, 5e-4):
            fd = (float(s.radius(t + eps)) - float(s.radius(t - eps))) / (2 * eps)
            errs.append(abs(fd - float(s.radius_rate(t))))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.9

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            problems.ManufacturedSphere(0.0, 2.0, 0.5)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, field", [
    (problems.VelocityLaw, "alpha"), (problems.VelocityLaw, "beta"),
    (problems.VelocityLaw, "delta"), (problems.ManufacturedSphere, "r0"),
    (problems.ManufacturedSphere, "rK"), (problems.ManufacturedSphere, "k"),
    (problems.TumorKinetics, "D_c"), (problems.TumorKinetics, "gamma"),
    (problems.TumorKinetics, "a"), (problems.TumorKinetics, "b")],
    ids=lambda p: p if isinstance(p, str) else p.__name__)
def test_non_finite_parameter_refused_at_construction(cls, field, value):
    # a NaN or infinity would otherwise surface a step later, as a
    # singular system
    base = {"alpha": 1.0} if cls is problems.VelocityLaw else {}
    with pytest.raises(ValueError, match="finite"):
        cls(**{**base, field: value})


class TestExactSolution:
    def test_pole_point(self):
        s = problems.ManufacturedSphere()
        x, u, v = problems.exact_solution(s, np.array([[1.0, 0.0, 0.0]]), 0.0)
        assert np.allclose(x[0], [1, 0, 0])
        assert u[0] == 0.0

    def test_diagonal_point_value(self):
        s = problems.ManufacturedSphere()
        p = np.array([[1 / np.sqrt(2), 1 / np.sqrt(2), 0.0]])
        _, u, _ = problems.exact_solution(s, p, 0.0)
        assert u[0] == pytest.approx(0.5, rel=1e-14)

    def test_velocity_is_radial_with_speed_rdot(self):
        s = problems.ManufacturedSphere()
        rng = np.random.Generator(np.random.Philox(1))
        p = rng.standard_normal((40, 3))
        p /= np.linalg.norm(p, axis=1)[:, None]
        for t in (0.0, 0.3, 1.0):
            x, _, v = problems.exact_solution(s, p, t)
            r = float(s.radius(t))
            rdot = float(s.radius_rate(t))
            normals = x / r
            assert np.allclose(np.einsum("ij,ij->i", v, normals), rdot, rtol=1e-13)
            # no tangential component
            tang = v - rdot * normals
            assert np.abs(tang).max() < 1e-13


class TestManufacturedForcing:
    """The forcing formulas are re-derived here by an independent oracle:
    finite differences along the exact flow for material derivatives and
    velocities, the degree-two harmonic identity for the field Laplacian,
    the radial identities div v = 2 rdot / r and lap x = -(2/r^2) x.  The
    forcing is evaluated through the load closures that time stepping
    calls, ``example1_problem(...).source`` and ``.velocity_forcing``."""

    sphere = problems.ManufacturedSphere()

    def _random_points(self, n, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        p = rng.standard_normal((n, 3))
        return p / np.linalg.norm(p, axis=1)[:, None], rng

    def test_pde_identity_at_random_samples(self):
        p, rng = self._random_points(100, 2)
        pde_forcing = problems.example1_problem(1.0, 0.0, 0.4).source
        eps = 1e-5
        worst = 0.0
        for i in range(len(p)):
            t = rng.uniform(0.05, 1.0)
            r = float(self.sphere.radius(t))
            rdot = float(self.sphere.radius_rate(t))
            x = r * p[i]
            u = x[0] * x[1] * np.exp(-6 * t)

            def u_along_flow(s):
                xs = float(self.sphere.radius(s)) * p[i]
                return xs[0] * xs[1] * np.exp(-6 * s)

            material_du = (u_along_flow(t + eps) - u_along_flow(t - eps)) / (2 * eps)
            div_v = 2 * rdot / r
            lap_u = -(6.0 / r**2) * u
            f = pde_forcing(x.reshape(1, 3), t, np.array([u]))
            worst = max(worst, abs(material_du + u * div_v - lap_u - float(f[0])))
        assert worst <= 1e-6

    @pytest.mark.parametrize("alpha,beta,delta", [(1.0, 0.0, 0.4), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)])
    def test_velocity_law_identity_at_random_samples(self, alpha, beta, delta):
        p, rng = self._random_points(100, 3)
        velocity_forcing = problems.example1_problem(alpha, beta, delta).velocity_forcing
        eps = 1e-5
        worst = 0.0
        for i in range(len(p)):
            t = rng.uniform(0.05, 2.0)
            r = float(self.sphere.radius(t))
            x = r * p[i]
            u = x[0] * x[1] * np.exp(-6 * t)
            g = velocity_forcing(x.reshape(1, 3), t)
            v_fd = (float(self.sphere.radius(t + eps)) - float(self.sphere.radius(t - eps))) / (2 * eps) * p[i]
            # v ~ x, so lap v = -(2/r^2) v;  lap x = -(2/r^2) x = -(2/r) normal
            residual = v_fd * (1.0 + 2 * alpha / r**2) + (2 * beta / r) * p[i] \
                - (delta * u + float(g[0])) * p[i]
            worst = max(worst, np.linalg.norm(residual))
        assert worst <= 1e-6

    def test_stationary_limit_of_g(self):
        # as r -> rK the radius freezes; with beta = delta = 0 the forcing dies
        s = self.sphere
        t = 60.0
        x = float(s.radius(t)) * np.array([[0.0, 0.0, 1.0]])
        g = problems.example1_problem(1.0, 0.0, 0.0).velocity_forcing(x, t)
        assert abs(float(g[0])) < 1e-11


class TestSplitForcing:
    """Each forcing term evaluates only its own formula, bitwise equal to
    the closed forms of the pair (f, g) written out here."""

    @pytest.mark.parametrize("alpha,beta,delta", [
        (1.0, 0.0, 0.4), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.3, 0.7, 1.9)])
    def test_bitwise_equal_to_closed_forms(self, alpha, beta, delta):
        sphere = problems.ManufacturedSphere()
        spec = problems.example1_problem(alpha, beta, delta)
        rng = np.random.Generator(np.random.Philox(21))
        for t in rng.uniform(0.0, 3.0, 6):
            x = rng.uniform(-2.0, 2.0, (40, 3))
            r = float(sphere.radius(t))
            rdot = float(sphere.radius_rate(t))
            u = x[:, 0] * x[:, 1] * np.exp(-6.0 * t)
            f = (4.0 * rdot / r - 6.0 + 6.0 / r**2) * u
            g = rdot + 2.0 * alpha * rdot / r**2 + 2.0 * beta / r - delta * u
            # the source ignores the interpolated field
            assert np.array_equal(spec.source(x, t, rng.standard_normal(40)), f)
            assert np.array_equal(spec.velocity_forcing(x, t), g)


class TestTumorKinetics:
    def test_steady_state_annihilates(self):
        kin = problems.TumorKinetics()
        u, w = kin.steady_state()
        f1, f2 = kin.f1(u, w), kin.f2(u, w)
        assert abs(f1) <= 1e-13
        assert abs(f2) <= 1e-13

    def test_reference_parameter_point(self):
        kin = problems.TumorKinetics(gamma=100.0, a=0.1, b=0.9)
        # (1, 0.9) is the steady state for these parameters
        f1, f2 = kin.f1(1.0, 0.9), kin.f2(1.0, 0.9)
        assert f1 == pytest.approx(0.0, abs=1e-12)
        assert f2 == pytest.approx(0.0, abs=1e-12)

    def test_origin_values(self):
        kin = problems.TumorKinetics()
        f1, f2 = kin.f1(0.0, 0.0), kin.f2(0.0, 0.0)
        assert f1 == pytest.approx(kin.gamma * kin.a, rel=1e-15)
        assert f2 == pytest.approx(kin.gamma * kin.b, rel=1e-15)

    def test_sum_identity(self):
        kin = problems.TumorKinetics()
        rng = np.random.Generator(np.random.Philox(4))
        u = rng.uniform(0, 3, 50)
        w = rng.uniform(0, 3, 50)
        f1, f2 = kin.f1(u, w), kin.f2(u, w)
        assert np.allclose(f1 + f2, kin.gamma * (kin.a + kin.b - u), rtol=1e-12)


class TestTumorInitialData:
    kin = problems.TumorKinetics()

    def test_zero_perturbation_returns_steady_state(self):
        m = mesh.generate_icosphere(1, 1.0)
        u0, w0 = problems.tumor_initial_data(m, self.kin, seed=1,
                                             perturbation_bound=0.0,
                                             pre_time=0.05, record=stepper.RunRecord())
        us, ws = self.kin.steady_state()
        assert np.abs(u0 - us).max() <= 1e-10
        assert np.abs(w0 - ws).max() <= 1e-10

    @pytest.mark.parametrize("pre_time", [-0.01, 0.0105])
    def test_pre_time_must_be_a_whole_number_of_steps(self, pre_time):
        m = mesh.generate_icosphere(0, 1.0)
        with pytest.raises(ValueError, match="pre_time/tau_pre"):
            problems.tumor_initial_data(m, self.kin, seed=1, pre_time=pre_time,
                                        record=stepper.RunRecord())

    def test_same_seed_bitwise_identical(self):
        m = mesh.generate_icosphere(1, 1.0)
        a = problems.tumor_initial_data(m, self.kin, seed=42, pre_time=0.02,
                                        record=stepper.RunRecord())
        b = problems.tumor_initial_data(m, self.kin, seed=42, pre_time=0.02,
                                        record=stepper.RunRecord())
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = problems.tumor_initial_data(m, self.kin, seed=43, pre_time=0.02,
                                        record=stepper.RunRecord())
        assert not np.array_equal(a[0], c[0])

    def test_coarse_level_envelope(self):
        # full pre-relaxation at the coarse level stays within [0, 2(a+b)];
        # measured envelope at level 2, seed 7: u [0.478, 1.725], w [0.602, 1.134]
        m = mesh.generate_icosphere(2, 1.0)
        u0, w0 = problems.tumor_initial_data(m, self.kin, seed=7, record=stepper.RunRecord())
        bound = 2 * (self.kin.a + self.kin.b)
        for field in (u0, w0):
            assert np.all(field >= 0.0)
            assert np.all(field <= bound)

    def test_level1_recorded_envelope(self):
        # the level-1 patterns are under-resolved and overshoot the 2(a+b)
        # guide; first-run-recorded bounds (seed 7): u [0.305, 2.224],
        # w [0.386, 1.198], frozen with margin
        m = mesh.generate_icosphere(1, 1.0)
        u0, w0 = problems.tumor_initial_data(m, self.kin, seed=7, record=stepper.RunRecord())
        assert 0.25 <= u0.min() and u0.max() <= 2.4
        assert 0.3 <= w0.min() and w0.max() <= 1.35


class TestProblemSpecs:
    def test_initial_fields_from_exact_solution(self):
        spec = problems.example1_problem()
        m = mesh.generate_icosphere(1, 1.0)
        u0 = spec.initial_fields(m)
        expected = m.coords[:, 0] * m.coords[:, 1]
        assert np.allclose(u0, expected, rtol=1e-14)

    def test_tumor_problem_wires_kinetics(self):
        spec = problems.tumor_problem(0.0, 0.01, 0.01)
        kin = problems.TumorKinetics()
        u, w = np.array([0.5, 2.0]), np.array([0.3, 1.1])
        assert np.array_equal(spec.source(None, 0.0, u, w), kin.source(None, 0.0, u, w))
        assert spec.diffusion == (1.0, kin.D_c)
        assert spec.exact is None


class TestFieldStep:
    def test_pre_relaxation_and_moving_steps_share_it(self, monkeypatch):
        calls = []
        real = problems.field_step

        def counting(*args):
            calls.append(len(args[3]))
            return real(*args)

        monkeypatch.setattr(problems, "field_step", counting)
        experiments.tumor_experiment(0.0, 0.01, level=1, tau=1e-3, t_end=0.005, pre_time=0.01)
        assert calls == [2] * (10 + 5)

    def test_extra_fields_leave_u_bitwise_unchanged(self):
        m = mesh.generate_icosphere(2, 1.0)
        mass = assembly.assemble_mass(m)
        rng = np.random.Generator(np.random.Philox(9))
        u, w = rng.uniform(0.5, 1.5, (2, m.num_nodes))
        stiff = assembly.assemble_stiffness(m)
        solve = assembly.factorize(assembly.add_scaled(mass, 1e-3, stiff)).solve

        def f(x, t, uq):
            return x[:, 0] * uq + np.sin(t) * uq * uq

        def stacked(x, t, uq, wq):
            return np.stack((f(x, t, uq), 3.0 * wq - x[:, 2]))

        (alone,) = problems.field_step(m, f, 0.99 * mass, (u,), 1e-3, [solve], 0.3)
        paired, _ = problems.field_step(m, stacked, 0.99 * mass, (u, w), 1e-3, [solve] * 2, 0.3)
        assert np.array_equal(alone, paired)

    @staticmethod
    def surface_and_fields():
        m = mesh.generate_icosphere(2, 1.0)
        m = m.with_coords(m.coords * np.linspace(0.9, 1.1, m.num_nodes)[:, None])
        rng = np.random.Generator(np.random.Philox(4))
        return m, rng.uniform(0.5, 1.5, (2, m.num_nodes))

    @pytest.mark.parametrize("count", [1, 2])
    def test_no_source_solves_the_carried_mass_alone(self, count):
        m, fields = self.surface_and_fields()
        fields = tuple(fields[:count])
        mass, stiff = assembly.assemble_mass(m), assembly.assemble_stiffness(m)
        # 0.97 M on the topology's own pattern, which add_scaled requires
        mass_old = assembly._with_data(mass, 0.97 * mass.data)
        solves = [assembly.factorize(assembly.add_scaled(mass_old, 1e-3 * d, stiff)).solve
                  for d in (1.0, 10.0)[:count]]
        new = problems.field_step(m, None, mass_old, fields, 1e-3, solves, 0.0)
        assert len(new) == count
        for solve, f, g in zip(solves, fields, new):
            assert g.tobytes() == solve(mass_old @ f).tobytes()

    def test_two_field_source_arrives_as_rows(self):
        m, (u, w) = self.surface_and_fields()
        mass_old = assembly.assemble_mass(m)
        kin = problems.TumorKinetics()
        loads = assembly.assemble_scalar_load(m, kin.source, 0.2, (u, w))
        assert loads.shape == (2, m.num_nodes)
        # identity solves return each field's right-hand side
        new = problems.field_step(m, kin.source, mass_old, (u, w), 1e-3, [lambda r: r] * 2, 0.2)
        for f, load, g in zip((u, w), loads, new):
            assert g.tobytes() == (mass_old @ f + 1e-3 * load).tobytes()

    def test_moving_and_pre_relaxation_solves_agree(self):
        # the two solve(rhs) of the field systems: Jacobi-CG from the old
        # field to LAG_TOL (the moving run) and SuperLU (the pre-relaxation);
        # measured 2.3e-14 apart
        m, fields = self.surface_and_fields()
        mass, stiff = assembly.surface_matrices(m)
        kin = problems.TumorKinetics()
        systems = [assembly.add_scaled(mass, 1e-3 * d, stiff) for d in (1.0, kin.D_c)]
        cg = [stepper._pcg_solver(k, stepper.LAG_TOL, f, stepper.RunRecord(), "field")
              for k, f in zip(systems, fields)]
        lu = [assembly.factorize(k).solve for k in systems]
        moving = problems.field_step(m, kin.source, mass, tuple(fields), 1e-3, cg, 0.0)
        pre = problems.field_step(m, kin.source, mass, tuple(fields), 1e-3, lu, 0.0)
        for a, b in zip(moving, pre):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
