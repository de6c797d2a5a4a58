import numpy as np
import pytest

from esfem import assembly, mesh, verification
from esfem.verification import (
    DegenerateIntermediateMesh,
    RadialPath,
    check_matrix_difference,
    check_norm_equivalence,
    check_sphere_identities,
    check_transport,
    verify_suite,
)


class TestMatrixDifference:
    def setup_method(self):
        self.mesh = mesh.generate_icosphere(2, 1.0)
        self.rng = np.random.Generator(np.random.Philox(20))
        n = self.mesh.num_nodes
        self.w = self.rng.standard_normal(n)
        self.z = self.rng.standard_normal(n)

    def test_zero_perturbation(self):
        e = np.zeros_like(self.mesh.coords)
        res_m, res_a = check_matrix_difference(self.mesh, e, self.w, self.z)
        assert res_m["lhs"] == 0.0 and res_m["rhs"] == 0.0
        assert res_a["lhs"] == 0.0 and res_a["rhs"] == 0.0

    def test_translation_invariance(self):
        e = np.tile([0.3, -0.2, 0.1], (self.mesh.num_nodes, 1))
        res_m, res_a = check_matrix_difference(self.mesh, e, self.w, self.z)
        scale = np.linalg.norm(self.w) * np.linalg.norm(self.z)
        assert abs(res_m["lhs"]) <= 1e-12 * scale
        assert abs(res_m["rhs"]) <= 1e-12 * scale
        assert abs(res_a["lhs"]) <= 1e-12 * scale
        assert abs(res_a["rhs"]) <= 1e-12 * scale

    def test_small_rough_perturbation_identity(self):
        # tolerance frozen after confirming 8 vs 16 quadrature points agree
        # far below it (both sit near 1e-18 relative for this scaling)
        n = self.mesh.num_nodes
        e = self.rng.uniform(-1, 1, (n, 3)) * (0.01 * self.mesh.h_max)
        for theta_points in (8, 16):
            res_m, res_a = check_matrix_difference(self.mesh, e, self.w, self.z,
                                                   theta_points)
            assert res_m["rel"] <= 1e-8
            assert res_a["rel"] <= 1e-8

    def test_degenerate_intermediate_detected(self):
        # collapse one triangle at full perturbation strength
        n = self.mesh.num_nodes
        tri = self.mesh.triangles[0]
        e = np.zeros((n, 3))
        e[tri[1]] = self.mesh.coords[tri[0]] - self.mesh.coords[tri[1]]
        e[tri[2]] = self.mesh.coords[tri[0]] - self.mesh.coords[tri[2]]
        with pytest.raises(DegenerateIntermediateMesh):
            check_matrix_difference(self.mesh, e, self.w, self.z)


class TestNormEquivalence:
    def test_random_sweep_no_violations(self):
        m = mesh.generate_icosphere(2, 1.0)
        excess = check_norm_equivalence(m, seed=5)
        assert excess <= 1e-6

    def test_uniform_inflation_exact_ratio(self):
        # scaling the sphere by (1 + eps) scales the mass matrix by its
        # square, so every mass norm grows by exactly (1 + eps), and the
        # growth bound holds since exp(mu/2) >= 1 + eps
        m = mesh.generate_icosphere(1, 1.0)
        eps = 0.05
        inflated = m.with_coords((1 + eps) * m.coords)
        mass0 = assembly.assemble_mass(m)
        mass1 = assembly.assemble_mass(inflated)
        rng = np.random.Generator(np.random.Philox(6))
        w = rng.standard_normal(m.num_nodes)
        ratio = np.sqrt(float(w @ (mass1 @ w)) / float(w @ (mass0 @ w)))
        assert ratio == pytest.approx(1 + eps, rel=1e-12)
        e = eps * m.coords
        mu = max(
            np.abs(assembly.tangential_divergence(
                m.with_coords(m.coords * (1 + theta * eps)), e)).max()
            for theta in (0.0, 0.25, 0.5, 0.75, 1.0))
        assert ratio <= np.exp(mu / 2.0) * (1 + 1e-6)


class TestTransport:
    def test_stationary_path(self):
        m = mesh.generate_icosphere(1, 1.0)

        class Still:
            mesh0 = m

            def position(self, s):
                return m.coords

            def velocity(self, s):
                return np.zeros_like(m.coords)

        n = m.num_nodes
        rng = np.random.Generator(np.random.Philox(7))
        res = check_transport(Still(), rng.standard_normal(n), rng.standard_normal(n))
        assert res["exact"] == 0.0
        assert abs(res["finite_difference"]) <= 1e-12

    def test_area_rate_identity_radial_flow(self):
        # d/ds of the polyhedral area equals 2 (rdot/r) area exactly for
        # uniform scaling; the assembled divergence form reproduces it
        m = mesh.generate_icosphere(2, 1.0)
        path = RadialPath(m)
        s = 0.5
        mesh_s = m.with_coords(path.position(s))
        ones = np.ones(m.num_nodes)
        area = float(ones @ (assembly.assemble_mass(mesh_s) @ ones))
        q = assembly.mass_divergence_form(mesh_s, path.velocity(s), ones, ones)
        r = float(path.sphere.radius(s))
        rdot = float(path.sphere.radius_rate(s))
        assert abs(q - 2 * (rdot / r) * area) <= 1e-10 * abs(q)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_observed_order_per_level(self, level):
        m = mesh.generate_icosphere(level, 1.0)
        rng = np.random.Generator(np.random.Philox(8))
        n = m.num_nodes
        res = check_transport(RadialPath(m), rng.standard_normal(n), rng.standard_normal(n))
        assert res["order"] >= 0.9


class TestSphereIdentities:
    def test_residuals_decrease_under_refinement(self):
        prev = None
        for level in (1, 2, 3):
            ident = check_sphere_identities(level)
            assert ident["area"] < 4 * np.pi
            assert ident["normal_sum_over_area"] <= 1e-12
            if prev is not None:
                assert ident["area_defect_rel"] < prev["area_defect_rel"]
                assert ident["laplace_coordinate_residual"] \
                    <= 0.6 * prev["laplace_coordinate_residual"]
            prev = ident

    def test_radius_scaling(self):
        ident = check_sphere_identities(2, radius=2.0)
        assert ident["area"] == pytest.approx(
            check_sphere_identities(2, radius=1.0)["area"] * 4.0, rel=1e-12)


class TestVerifySuite:
    def test_all_pass_and_line_format(self):
        results = verify_suite(level=2, seed=0)
        assert len(results) >= 9
        for r in results:
            assert r.passed, f"{r.name}: residual={r.residual} bound={r.bound}"
            line = r.line()
            assert line.startswith(f"CHECK {r.name} residual=")
            assert "bound=" in line and line.endswith("PASS")
        report = verification.format_report(results)
        assert report.strip().endswith("ALL PASS")

    def test_failure_formatting(self):
        bad = verification.CheckResult("demo", 1.0, 0.5, False)
        assert bad.line().endswith("FAIL")
        report = verification.format_report([bad])
        assert "FAILURES PRESENT" in report

    def test_recorded_bounds_carry_provenance(self):
        results = verify_suite(level=2, seed=0)
        provenance = {r.name: r.provenance for r in results}
        assert provenance["sphere_area_defect"] == "recorded"
        assert provenance["matrix_derivative_mass_ratio"] == "recorded"
        assert provenance["matrix_difference_mass"] == "fixed"

    def test_energy_norm_identity_measures_the_assembled_k(self, monkeypatch):
        # |w|_K^2 is read off K = M + alpha A itself, so a K that lost its
        # stiffness term fails the identity
        monkeypatch.setattr(assembly, "add_scaled", lambda a, c, b: a)
        results = {r.name: r for r in verify_suite(level=1, seed=0)}
        assert not results["energy_norm_identity"].passed

    @pytest.mark.parametrize("level", [0, 6])
    def test_unrecorded_level_rejected_before_any_check(self, level, monkeypatch):
        def no_mesh(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verification, "generate_icosphere", no_mesh)
        with pytest.raises(ValueError, match="levels 1, 2, 3, 4, 5 only"):
            verify_suite(level=level)
