import csv

import numpy as np
import pytest

from esfem import analysis, assembly, experiments, mesh, problems, stepper
from esfem.errors import EmptyTrajectory, MissingExactSolution


def interpolated_exact(spec, labels, t):
    """The exact flow, field and velocity at the node labels, x and v as
    (N, 3) node vectors: what ErrorAccumulator measures the errors against."""
    return problems.exact_solution(spec.exact, labels, t)


def accumulated_norms(states, spec):
    """The error norms of a list of states, in time order from t = 0."""
    acc = analysis.ErrorAccumulator(spec, states[0].mesh)
    for i, state in enumerate(states):
        acc.update(i, state)
    return acc.result()


def make_states(spec, mesh0, times, du=0.0, dx=0.0, dv=0.0):
    """Trajectory whose fields deviate from the exact nodal data by fixed
    multiples of simple patterns (zero deviation = exact trajectory)."""
    labels = mesh0.coords / spec.exact.r0
    states = []
    n = mesh0.num_nodes
    rng = np.random.Generator(np.random.Philox(12))
    pat_u = rng.standard_normal(n)
    pat_x = rng.standard_normal((n, 3))
    pat_v = rng.standard_normal((n, 3))
    for step, t in enumerate(times):
        # the real scheme starts from exact nodal data, so the first state
        # is unperturbed (its coordinates define the node labels)
        on = 0.0 if step == 0 else 1.0
        x_star, u_star, v_star = interpolated_exact(spec, labels, t)
        x = x_star + on * dx * pat_x
        states.append(stepper.SystemState(
            t=t, u=u_star + on * du * pat_u, v=v_star + on * dv * pat_v,
            mesh=mesh0.with_coords(x)))
    return states


class TestInterpolatedExact:
    spec = problems.example1_problem()

    def test_time_zero_matches_initial_nodes(self):
        m0 = mesh.generate_icosphere(1, 1.0)
        x, u, v = interpolated_exact(self.spec, m0.coords, 0.0)
        assert np.allclose(x, m0.coords, rtol=1e-14)

    def test_positions_on_the_exact_sphere(self):
        m0 = mesh.generate_icosphere(1, 1.0)
        for t in (0.2, 0.9):
            x, _, _ = interpolated_exact(self.spec, m0.coords, t)
            radii = np.linalg.norm(x, axis=1)
            assert np.allclose(radii, float(self.spec.exact.radius(t)), rtol=1e-13)

    def test_field_values_formula(self):
        m0 = mesh.generate_icosphere(1, 1.0)
        t = 0.4
        x, u, _ = interpolated_exact(self.spec, m0.coords, t)
        assert np.allclose(u, x[:, 0] * x[:, 1] * np.exp(-6 * t), rtol=1e-13)

    def test_missing_exact_solution(self):
        bare = problems.ProblemSpec(law=problems.VelocityLaw(1.0))
        with pytest.raises(MissingExactSolution):
            analysis.ErrorAccumulator(bare, mesh.generate_icosphere(0, 1.0))
        with pytest.raises(MissingExactSolution):
            experiments.run_level(bare, 1, 0.1)


class TestErrorNorms:
    spec = problems.example1_problem()

    def test_exact_trajectory_has_zero_errors(self):
        m0 = mesh.generate_icosphere(1, 1.0)
        states = make_states(self.spec, m0, [0.0, 0.1, 0.2])
        norms = accumulated_norms(states, self.spec)
        assert norms.u_linf_l2 == 0.0
        assert norms.u_l2_h1 == 0.0
        assert norms.v_linf_l2 == 0.0
        assert norms.v_linf_h1 == 0.0
        assert norms.x_linf_h1 == 0.0

    def test_homogeneity_under_error_doubling(self):
        m0 = mesh.generate_icosphere(1, 1.0)
        one = accumulated_norms(
            make_states(self.spec, m0, [0.0, 0.1, 0.2], du=1e-3, dx=1e-3, dv=1e-3),
            self.spec)
        two = accumulated_norms(
            make_states(self.spec, m0, [0.0, 0.1, 0.2], du=2e-3, dx=2e-3, dv=2e-3),
            self.spec)
        assert two.u_linf_l2 == pytest.approx(2 * one.u_linf_l2, rel=1e-9)
        assert two.u_l2_h1 == pytest.approx(2 * one.u_l2_h1, rel=1e-9)
        assert two.v_linf_h1 == pytest.approx(2 * one.v_linf_h1, rel=1e-9)
        assert two.x_linf_h1 == pytest.approx(2 * one.x_linf_h1, rel=1e-9)

    def test_thinning_never_increases_sup_norms(self):
        m0 = mesh.generate_icosphere(1, 1.0)
        times = [0.05 * i for i in range(9)]
        full = accumulated_norms(
            make_states(self.spec, m0, times, du=1e-3, dx=1e-3, dv=1e-3), self.spec)
        thin = accumulated_norms(
            make_states(self.spec, m0, times[::2], du=1e-3, dx=1e-3, dv=1e-3), self.spec)
        assert thin.u_linf_l2 <= full.u_linf_l2 + 1e-15
        assert thin.v_linf_h1 <= full.v_linf_h1 + 1e-15
        assert thin.x_linf_h1 <= full.x_linf_h1 + 1e-15

    def test_empty_trajectory(self):
        acc = analysis.ErrorAccumulator(self.spec, mesh.generate_icosphere(0, 1.0))
        with pytest.raises(EmptyTrajectory):
            acc.result()


def reassembled_norms(spec, trajectory):
    """Oracle: the error norms with M and A assembled on every step's
    interpolated surface, mesh0.with_coords(x*)."""
    mesh0 = trajectory[0].mesh
    labels = mesh0.coords / spec.exact.r0
    u_linf = u_l2h1_sq = v_linf_l2 = v_linf_h1 = x_linf_h1 = 0.0
    for i, state in enumerate(trajectory):
        x_star, u_star, v_star = interpolated_exact(spec, labels, state.t)
        mesh_star = mesh0.with_coords(x_star)
        mass, stiff = assembly.assemble_mass(mesh_star), assembly.assemble_stiffness(mesh_star)
        mu, au = assembly.discrete_norms(mass, stiff, state.u - u_star)
        u_linf = max(u_linf, mu)
        if i > 0:
            u_l2h1_sq += (state.t - trajectory[i - 1].t) * (mu**2 + au**2)
        mx, ax = assembly.discrete_norms(mass, stiff, state.x - x_star)
        x_linf_h1 = max(x_linf_h1, np.sqrt(mx**2 + ax**2))
        if i > 0:
            mv, av = assembly.discrete_norms(mass, stiff, state.v - v_star)
            v_linf_l2, v_linf_h1 = max(v_linf_l2, mv), max(v_linf_h1, np.sqrt(mv**2 + av**2))
    return analysis.ErrorNorms(u_linf, float(np.sqrt(u_l2h1_sq)), v_linf_l2, v_linf_h1,
                               x_linf_h1)


class TestScaledNorms:
    """The accumulator measures on the interpolated surface by scaling the
    initial surface's matrices instead of reassembling them."""

    @pytest.mark.parametrize("r0", [1.0, 1.5])
    def test_match_reassembly_on_the_interpolated_surface(self, r0):
        spec = problems.example1_problem(r0=r0)
        mesh0 = mesh.generate_icosphere(2, r0)
        tau = experiments.step_size_for(mesh0, 0.2)
        trajectory = []
        acc = analysis.ErrorAccumulator(spec, mesh0)
        stepper.run(spec, mesh0, stepper.StepperConfig(tau=tau, t_end=0.2),
                    observers=[lambda i, state: trajectory.append(state), acc])
        assert len(trajectory) >= 10
        scaled = acc.result()
        oracle = reassembled_norms(spec, trajectory)
        for name in ("u_linf_l2", "u_l2_h1", "v_linf_l2", "v_linf_h1", "x_linf_h1"):
            assert getattr(oracle, name) > 0.0
            assert getattr(scaled, name) == pytest.approx(getattr(oracle, name), rel=1e-13)

    def test_update_assembles_nothing(self, monkeypatch):
        spec = problems.example1_problem()
        mesh0 = mesh.generate_icosphere(1, 1.0)
        acc = analysis.ErrorAccumulator(spec, mesh0)

        def refuse(mesh):
            raise AssertionError("assembled during an update")

        monkeypatch.setattr(assembly, "assemble_mass", refuse)
        monkeypatch.setattr(assembly, "assemble_stiffness", refuse)
        for i, state in enumerate(make_states(spec, mesh0, [0.0, 0.1, 0.2], du=1e-3, dx=1e-3,
                                              dv=1e-3)):
            acc.update(i, state)
        assert acc.result().u_linf_l2 > 0.0

    def test_run_level_assembles_two_matrices_per_step(self, monkeypatch):
        # one pair per surface: the initial surface's serves the error norms
        # and the first step, and each step assembles one on its new surface
        calls = count_assemblies(monkeypatch)
        spec = problems.example1_problem()
        steps = round(0.1 / experiments.step_size_for(mesh.generate_icosphere(2, 1.0), 0.1))
        experiments.run_level(spec, 2, 0.1)
        assert len(calls) == 2 * steps + 2

    def test_tumor_run_assembles_two_matrices_per_step(self, monkeypatch):
        # the pre-relaxation and the first moving step share the initial
        # surface's pair
        calls = count_assemblies(monkeypatch)
        experiments.tumor_experiment(0.0, 0.01, level=1, tau=1e-3, t_end=5e-3, pre_time=0.01)
        assert len(calls) == 2 * 5 + 2


def count_assemblies(monkeypatch):
    """Record the mesh of every mass and stiffness assembly from now on."""
    calls = []
    for name in ("assemble_mass", "assemble_stiffness"):
        real = getattr(assembly, name)

        def counted(m, real=real):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(assembly, name, counted)
    return calls


class TestComputeEoc:
    def test_exact_second_order_pair(self):
        assert analysis.compute_eoc([0.1, 0.025], [0.2, 0.1]) == [pytest.approx(2.0, abs=1e-13)]

    def test_reference_table_pair(self):
        # published benchmark row: errors (0.0896624, 0.0222349) at mesh
        # sizes (0.4088, 0.1799) give an observed order of 1.70
        (eoc,) = analysis.compute_eoc([0.0896624, 0.0222349], [0.4088, 0.1799])
        assert eoc == pytest.approx(1.70, abs=0.005)

    def test_constant_errors_give_zero(self):
        eocs = analysis.compute_eoc([0.5, 0.5, 0.5], [0.4, 0.2, 0.1])
        assert np.allclose(eocs, 0.0, atol=1e-14)

    def test_exact_power_sequence(self):
        for p in (0.5, 1.0, 2.0, 3.0):
            h = np.array([0.4, 0.19, 0.11, 0.05])
            e = 2.7 * h**p
            eocs = analysis.compute_eoc(e, h)
            assert np.allclose(eocs, p, atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            analysis.compute_eoc([0.1], [0.2])
        with pytest.raises(ValueError):
            analysis.compute_eoc([0.1, -0.1], [0.2, 0.1])
        with pytest.raises(ValueError):
            analysis.compute_eoc([0.1, 0.1], [0.2, 0.0])


class TestEmitTable:
    def make_report(self):
        report = analysis.ErrorReport()
        for level, h, scale in [(1, 0.4, 1.0), (2, 0.2, 0.25), (3, 0.1, 0.0625)]:
            norms = analysis.ErrorNorms(
                u_linf_l2=0.1 * scale, u_l2_h1=0.2 * scale, v_linf_l2=0.3 * scale,
                v_linf_h1=0.4 * scale, x_linf_h1=0.5 * scale)
            report.add(analysis.LevelResult(level=level, dof=10 * 4**level,
                                            h_final=h, norms=norms))
        return report

    def test_csv_schema(self, tmp_path):
        path = tmp_path / "table.csv"
        analysis.emit_table(self.make_report(), path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == analysis.CSV_HEADER
        assert len(rows) == 4
        # first level has empty EOC cells
        header_index = {name: i for i, name in enumerate(rows[0])}
        assert rows[1][header_index["eoc_u_LinfL2"]] == ""
        assert rows[2][header_index["eoc_u_LinfL2"]] == "2"
        assert float(rows[1][header_index["err_u_LinfL2"]]) == pytest.approx(0.1)

    def test_seven_significant_digits(self, tmp_path):
        report = analysis.ErrorReport()
        norms = analysis.ErrorNorms(*(np.pi * 1e-3,) * 5)
        report.add(analysis.LevelResult(level=1, dof=12, h_final=np.pi, norms=norms))
        path = tmp_path / "t.csv"
        analysis.emit_table(report, path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[1][2] == "%.7g" % np.pi
        assert rows[1][3] == "%.7g" % (np.pi * 1e-3)

    def test_eocs_of_report(self):
        report = self.make_report()
        eocs = report.eocs("u_linf_l2")
        assert eocs[0] is None
        assert eocs[1] == pytest.approx(2.0, abs=1e-12)
        assert eocs[2] == pytest.approx(2.0, abs=1e-12)


class TestConvergenceStudy:
    def test_starts_on_the_radius_r0_sphere_and_converges(self, monkeypatch):
        # the manufactured forcing and the exact flow assume a sphere of radius
        # r0; at r0=1.5 level 1 is still preasymptotic (EOC 1.0 to level 2)
        starts = []
        run = stepper.run

        def recording_run(spec, mesh0, *args, **kwargs):
            starts.append(mesh0.coords)
            return run(spec, mesh0, *args, **kwargs)

        monkeypatch.setattr(stepper, "run", recording_run)
        report = experiments.example1_study(levels=(2, 3), r0=1.5, t_end=0.2)
        assert len(starts) == 2
        for level, coords in zip((2, 3), starts):
            np.testing.assert_array_equal(coords, mesh.generate_icosphere(level, 1.5).coords)
        assert report.eocs("u_linf_l2")[1] >= 1.5

    @pytest.mark.parametrize("levels, bad", [((3, -1), -1), ((-1, 3), -1), ((2, 9), 9)])
    def test_every_level_checked_before_any_runs(self, levels, bad, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a level ran")

        monkeypatch.setattr(experiments, "run_level", unreachable)
        with pytest.raises(ValueError, match=f"subdivision_level {bad} "):
            experiments.example1_study(levels=levels, t_end=0.01)


class TestReferenceTables:
    def test_known_entries(self):
        table = analysis.load_reference_table("coupled_u")
        dof, h, value = table["err_u_LinfL2"][3]
        assert (dof, h, value) == (2070, 0.1799, 0.0222349)
        (eoc,) = analysis.compute_eoc(
            [table["err_u_LinfL2"][2][2], value],
            [table["err_u_LinfL2"][2][1], h])
        assert eoc == pytest.approx(1.70, abs=0.005)

    def test_comparison_tables_ordering(self):
        # the elliptic regularization's reference velocity errors sit below
        # the mean-curvature arm's at every level
        alpha = analysis.load_reference_table("comparison_alpha")["err_v_LinfL2"]
        beta = analysis.load_reference_table("comparison_beta")["err_v_LinfL2"]
        for level in range(1, 6):
            assert alpha[level][2] < beta[level][2]

    def test_unknown_table(self):
        with pytest.raises(KeyError):
            analysis.load_reference_table("nope")
