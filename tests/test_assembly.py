import collections
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from esfem import assembly, experiments, mesh, problems, stepper
from esfem.errors import FieldLengthMismatch, NonFiniteIntegrand


def single_triangle(coords=None):
    if coords is None:
        coords = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return mesh.SurfaceMesh(coords, np.array([[0, 1, 2]]), validate=False)


def quad_l2_norms(m, w):
    """Independent L2/H1-seminorm quadrature oracle for a nodal field.

    Values via the exact 3-midpoint rule, gradients via a per-element
    linear solve (a different construction than the assembly code path).
    """
    w = np.asarray(w, dtype=float)
    l2 = 0.0
    h1 = 0.0
    for i, j, k in m.triangles:
        a, b, c = m.coords[i], m.coords[j], m.coords[k]
        n = np.cross(b - a, c - a)
        area = 0.5 * np.linalg.norm(n)
        n = n / np.linalg.norm(n)
        mid_vals = [(w[i] + w[j]) / 2, (w[j] + w[k]) / 2, (w[k] + w[i]) / 2]
        l2 += area * sum(v * v for v in mid_vals) / 3.0
        grad = np.linalg.solve(np.array([b - a, c - a, n]),
                               np.array([w[j] - w[i], w[k] - w[i], 0.0]))
        h1 += area * float(grad @ grad)
    return np.sqrt(l2), np.sqrt(h1)


class TestQuadratureRule:
    def test_weights_sum_to_one(self):
        assert assembly.MIDPOINT_WEIGHTS.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(assembly.MIDPOINT_WEIGHTS > 0)

    @pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
    def test_exact_through_degree_two(self, a, b):
        # reference triangle integral of x^a y^b: a! b! / (a+b+2)!
        import math
        exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
        pts = assembly.MIDPOINT_POINTS @ np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        approx = 0.5 * float(assembly.MIDPOINT_WEIGHTS @ (pts[:, 0] ** a * pts[:, 1] ** b))
        assert approx == pytest.approx(exact, rel=1e-14)


class TestMassMatrix:
    def test_single_triangle_block(self):
        m = single_triangle()
        M = assembly.assemble_mass(m).toarray()
        area = 0.5
        expected = area / 12.0 * np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]])
        assert np.allclose(M, expected, rtol=1e-15)

    def test_row_sums_total_area(self):
        m = mesh.generate_icosphere(2, 1.0)
        M = assembly.assemble_mass(m)
        ones = np.ones(m.num_nodes)
        total = float(ones @ (M @ ones))
        # independent oracle: raw cross-product areas
        oracle = sum(
            0.5 * np.linalg.norm(np.cross(m.coords[j] - m.coords[i], m.coords[k] - m.coords[i]))
            for i, j, k in m.triangles)
        assert total == pytest.approx(oracle, rel=1e-12)

    def test_level3_area_brackets_sphere(self):
        m = mesh.generate_icosphere(3, 1.0)
        M = assembly.assemble_mass(m)
        ones = np.ones(m.num_nodes)
        total = float(ones @ (M @ ones))
        assert 0.98 * 4 * np.pi <= total <= 4 * np.pi

    def test_exact_symmetry_and_determinism(self):
        m = mesh.generate_icosphere(2, 1.0)
        M1 = assembly.assemble_mass(m)
        M2 = assembly.assemble_mass(m.with_coords(m.coords))
        assert np.array_equal(M1.data, M2.data)
        d = M1 - M1.T
        assert d.nnz == 0 or np.abs(d.data).max() == 0.0

    def test_positive_definite(self):
        m = mesh.generate_icosphere(1, 1.0)
        M = assembly.assemble_mass(m).toarray()
        assert np.linalg.eigvalsh(M).min() > 0.0


class TestStiffnessMatrix:
    def test_constants_in_kernel(self):
        m = mesh.generate_icosphere(3, 1.0)
        A = assembly.assemble_stiffness(m)
        ones = np.ones(m.num_nodes)
        assert np.abs(A @ ones).max() <= 1e-12 * np.abs(A.data).max()

    def test_square_diagonal_entry_hand_value(self):
        # unit square split along its diagonal; the stiffness diagonal at a
        # diagonal endpoint is 1.0 by hand integration (two right triangles,
        # each contributing |grad phi|^2 * area = 1 * 1/2)
        coords = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
        tris = np.array([[0, 1, 2], [0, 2, 3]])
        m = mesh.SurfaceMesh(coords, tris, validate=False)
        A = assembly.assemble_stiffness(m).toarray()
        assert A[0, 0] == pytest.approx(1.0, rel=1e-14)
        assert A[2, 2] == pytest.approx(1.0, rel=1e-14)

    def test_positive_semidefinite(self):
        m = mesh.generate_icosphere(1, 1.0)
        A = assembly.assemble_stiffness(m).toarray()
        ev = np.linalg.eigvalsh(A)
        assert ev.min() > -1e-12 * ev.max()

    def test_sphere_laplacian_of_coordinates_decays(self):
        # A X = (2/r^2) M X + O(h^2): residual contracts by at least 0.6/level
        rho = {}
        for level in (2, 3, 4, 5):
            m = mesh.generate_icosphere(level, 1.0)
            M = assembly.assemble_mass(m)
            A = assembly.assemble_stiffness(m)
            res = A @ m.coords - 2.0 * (M @ m.coords)
            rho[level] = np.sqrt((res**2).sum(axis=1)).max()
        for level in (2, 3, 4):
            assert rho[level + 1] <= 0.6 * rho[level]

    def test_exact_symmetry(self):
        m = mesh.generate_icosphere(2, 1.0)
        A = assembly.assemble_stiffness(m)
        d = A - A.T
        assert d.nnz == 0 or np.abs(d.data).max() == 0.0


class TestSurfaceMatrices:
    def test_each_surface_keeps_its_own_read_only_pair(self):
        m = mesh.generate_icosphere(2, 1.0)
        pair = assembly.surface_matrices(m)
        again = assembly.surface_matrices(m)
        assert again[0] is pair[0] and again[1] is pair[1]
        # a moved copy shares the topology caches but not the matrices
        moved = m.with_coords(1.5 * m.coords)
        mass, stiff = assembly.surface_matrices(moved)
        assert mass is not pair[0] and stiff is not pair[1]
        for kept, fresh in [(mass, assembly.assemble_mass(moved)),
                            (stiff, assembly.assemble_stiffness(moved))]:
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(kept, name), getattr(fresh, name))
        template = assembly._topology(m).template
        for matrix in (*pair, mass, stiff):
            assert not matrix.data.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                matrix.data[0] = 0.0
            # the index arrays are the topology template's, locked there
            assert matrix.indices is template.indices and matrix.indptr is template.indptr
            assert not matrix.indices.flags.writeable and not matrix.indptr.flags.writeable


# The cached arrays a surface needs only until its M and A exist.
ASSEMBLY_GEOMETRY = ("edges", "edge_lengths", "basis_gradients")


class TestAssemblyReleasesGeometry:
    """Once a surface has its M and A, it drops the edge, edge-length and
    basis-gradient arrays; a later read recomputes them unchanged."""

    def test_matrices_release_the_arrays_only_assembly_reads(self):
        m = jittered_icosphere(2, 3)
        before = {name: getattr(m, name) for name in ASSEMBLY_GEOMETRY}
        assembly.surface_matrices(m)
        assert not m.__dict__.keys() & set(ASSEMBLY_GEOMETRY)
        # what later calls read stays: areas and normals, h_max, the matrices
        assert {"_areas_normals", "h_max", "degenerate"} <= m.__dict__.keys()
        assert m._matrices is not None
        for name, array in before.items():
            again = getattr(m, name)
            assert again is not array and again.tobytes() == array.tobytes(), name
            for a in [again] + ([again.base] if again.base is not None else []):
                assert not a.flags.writeable, name

    @staticmethod
    def traced_run(monkeypatch, workload):
        """Run ``workload`` with an observer appended to every stepper.run
        that records which of ASSEMBLY_GEOMETRY each state's mesh still
        caches, and count the surfaces made and the geometry calls."""
        cached, surfaces, calls = [], [], collections.Counter()
        run, init = stepper.run, mesh.SurfaceMesh.__init__

        def observe(step_index, state):
            cached.append(state.mesh.__dict__.keys() & set(ASSEMBLY_GEOMETRY))

        def run_observed(*args, observers=(), **kwargs):
            return run(*args, observers=(*observers, observe), **kwargs)

        def init_recorded(self, *args, **kwargs):
            init(self, *args, **kwargs)
            surfaces.append(self)

        monkeypatch.setattr(stepper, "run", run_observed)
        monkeypatch.setattr(mesh.SurfaceMesh, "__init__", init_recorded)
        for name in ("triangle_areas_normals", "triangle_basis_gradients"):
            def counted(*args, _name=name, _f=getattr(mesh, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(mesh, name, counted)
        workload()
        return cached, surfaces, calls

    @pytest.mark.parametrize("workload", [
        pytest.param(lambda solver=solver: experiments.run_level(
            problems.example1_problem(), 2, 0.05, solver=solver), id=f"example1-{solver}")
        for solver in stepper.StepperConfig.CHOICES["solver"]
    ] + [pytest.param(lambda: experiments.tumor_experiment(
        0.0, 0.01, 0.01, level=2, tau=1e-3, t_end=0.02, seed=3, pre_time=0.1), id="tumor")])
    def test_runs_hold_no_released_array_and_compute_geometry_once(self, monkeypatch,
                                                                   workload):
        cached, surfaces, calls = self.traced_run(monkeypatch, workload)
        assert len(cached) > 2 and not any(cached)
        # every surface was assembled, so it took at least one call of
        # each; as many calls as surfaces means exactly one each
        assert all(s._matrices is not None for s in surfaces)
        assert calls == {"triangle_areas_normals": len(surfaces),
                         "triangle_basis_gradients": len(surfaces)}


class TestAddScaled:
    @pytest.mark.parametrize("c", [1.0, 0.37, 1e-3 * 0.01, -2.5])
    def test_bitwise_equal_to_a_sparse_add(self, c):
        m = mesh.generate_icosphere(2, 1.3)
        mass, stiff = assembly.assemble_mass(m), assembly.assemble_stiffness(m)
        total, expected = assembly.add_scaled(mass, c, stiff), (mass + c * stiff).tocsr()
        assert total.shape == expected.shape
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(total, name), getattr(expected, name)), name
        assert np.array_equal(total.toarray(), expected.toarray())

    def test_one_topology_shares_one_read_only_pattern(self):
        m = mesh.generate_icosphere(2, 1.0)
        template = assembly._topology(m).template
        indices, indptr = template.indices, template.indptr
        mass, stiff = assembly.surface_matrices(m)
        total = assembly.add_scaled(mass, 0.37, stiff)
        for matrix in (mass, stiff, total, assembly.assemble_mass(m)):
            assert np.shares_memory(matrix.indices, indices)
            assert np.shares_memory(matrix.indptr, indptr)
            with pytest.raises(ValueError, match="read-only"):
                matrix.indices[0] = matrix.indices[0]
            with pytest.raises(ValueError, match="read-only"):
                matrix.indptr[0] = 0
        # every surface of the topology shares the incidences, whose arrays
        # are read-only down to their base and whose data is one vector of ones
        moved = m.with_coords(1.5 * m.coords)
        assembly.assemble_normal_load(moved, lambda x, t: x[:, 0], 0.0)
        topology = assembly._topology(moved)
        assert assembly._topology(m) is topology
        incidence, corner, twin = topology.pairs, topology.corners, topology.twin
        ones = incidence.data
        assert ones.size == 9 * m.num_triangles and np.all(ones == 1.0)
        assert twin.indptr is corner.indptr
        assert np.array_equal(twin.indices, corner.indices % m.num_triangles)
        for inc in (incidence, corner, twin):
            assert np.shares_memory(inc.data, ones)
            for array in (inc.data, inc.indices, inc.indptr):
                assert array.dtype == np.float64 or array.dtype == np.int32
                while isinstance(array, np.ndarray):
                    assert not array.flags.writeable
                    array = array.base
        assert topology.nodes.shape == (3, m.num_triangles)
        assert not topology.nodes.flags.writeable
        # no bincount index is cached: neither inv nor a flat int64 scatter index
        assert set(m._topo_cache) == {"assembly"}
        assert not any(isinstance(a, np.ndarray) and a.ndim == 1 for a in topology)

    def test_foreign_pattern_refused(self):
        # only the topology's own index arrays are accepted: equal entries
        # in other arrays are refused too
        m = mesh.generate_icosphere(1, 1.0)
        mass, stiff = assembly.assemble_mass(m), assembly.assemble_stiffness(m)
        copy = sp.csr_matrix((stiff.data.copy(), stiff.indices.copy(), stiff.indptr.copy()),
                             shape=stiff.shape)
        assert not np.shares_memory(copy.indices, mass.indices)
        for other in (sp.identity(m.num_nodes, format="csr"), copy,
                      assembly.assemble_stiffness(mesh.generate_icosphere(2, 1.0))):
            with pytest.raises(ValueError, match="pattern"):
                assembly.add_scaled(mass, 1.0, other)


class TestTemplateCopy:
    """``assembly._with_data``: the topology's CSR template with new data."""

    @staticmethod
    def template_and_copy(level=2):
        template = assembly._topology(mesh.generate_icosphere(level, 1.0)).template
        data = np.random.Generator(np.random.Philox(3)).standard_normal(template.indices.size)
        return template, assembly._with_data(template, data)

    def test_shares_the_template_index_arrays(self):
        template, copied = self.template_and_copy()
        assert type(copied) is sp.csr_matrix
        assert copied.indices is template.indices and copied.indptr is template.indptr
        assert copied.has_sorted_indices

    def test_owns_its_attributes(self):
        template, copied = self.template_and_copy()
        assert copied.__dict__ is not template.__dict__
        copied.data = np.ones(template.indices.size)
        copied.has_sorted_indices = False
        assert template.data.strides == (0,) and not template.data.any()
        assert template.has_sorted_indices

    def test_product_bitwise_equal_to_separately_built_csr(self):
        template, copied = self.template_and_copy(3)
        separate = sp.csr_matrix((copied.data.copy(), copied.indices.copy(),
                                  copied.indptr.copy()), shape=copied.shape)
        rng = np.random.Generator(np.random.Philox(5))
        for x in (rng.standard_normal(copied.shape[0]), rng.standard_normal((copied.shape[0], 3))):
            assert np.array_equal((copied @ x).view(np.int64), (separate @ x).view(np.int64))


def jittered_icosphere(level, seed):
    m = mesh.generate_icosphere(level, 1.0)
    rng = np.random.Generator(np.random.Philox(seed))
    return m.with_coords(m.coords + rng.uniform(-0.2, 0.2, m.coords.shape) * m.h_max)


def bipyramid(sides=12, seed=5):
    """Closed bipyramid over a jittered ``sides``-gon, its triangles
    shuffled and their corners rotated: both poles have valence ``sides``,
    beyond the icosphere's 5 and 6, and appear at every local vertex."""
    rng = np.random.Generator(np.random.Philox(seed))
    phi = 2.0 * np.pi * np.arange(sides) / sides
    radius = rng.uniform(0.9, 1.1, sides)
    ring = np.column_stack([radius * np.cos(phi), radius * np.sin(phi),
                            rng.uniform(-0.1, 0.1, sides)])
    coords = np.vstack([ring, [0.0, 0.0, 1.2], [0.0, 0.0, -0.9]])
    k, nxt = np.arange(sides), (np.arange(sides) + 1) % sides
    tris = np.vstack([np.column_stack([k, nxt, np.full(sides, sides)]),
                      np.column_stack([nxt, k, np.full(sides, sides + 1)])])
    tris = np.array([np.roll(tri, r) for tri, r in zip(tris, rng.integers(0, 3, len(tris)))])
    return mesh.SurfaceMesh(coords, tris[rng.permutation(len(tris))])


INCIDENCE_MESHES = {**{f"icosphere{level}": functools.partial(jittered_icosphere, level, level)
                       for level in (1, 2, 3)},
                    "bipyramid12": bipyramid}


def bincount_pairs(m, local):
    """Oracle: (T, 3, 3) local blocks summed onto the template's CSR slots
    with one bincount, in the blocks' flat order."""
    template = assembly._topology(m).template
    n, t = m.num_nodes, m.triangles
    slot_keys = np.repeat(np.arange(n), np.diff(template.indptr)) * n + template.indices
    slots = np.searchsorted(slot_keys, (t[:, :, None] * n + t[:, None, :]).ravel())
    return np.bincount(slots, weights=local.ravel(), minlength=slot_keys.size)


def bincount_scatter(m, corner):
    """Oracle: (k, 3, T) or (3, T) corner values summed into nodal rows
    with one bincount, each node in (i, t) order."""
    k, n = corner.size // m.triangles.size, m.num_nodes
    index = (np.arange(k)[:, None] * n + m.triangles.T.ravel()).ravel()
    return np.bincount(index, corner.ravel(), k * n).reshape(*corner.shape[:-2], -1)


class TestIncidenceSums:
    """Every incidence product bitwise equal to the bincount it replaces."""

    @pytest.fixture(params=sorted(INCIDENCE_MESHES))
    def m(self, request):
        return INCIDENCE_MESHES[request.param]()

    def test_mass_and_stiffness(self, m):
        area, g = m.element_areas, m.basis_gradients
        local = np.empty((m.num_triangles, 3, 3))
        for i in range(3):
            for j in range(3):
                local[:, i, j] = mesh.einsum_dot(g[:, i], g[:, j]) * area
        stiffness = assembly.assemble_stiffness(m)
        assert stiffness.data.tobytes() == bincount_pairs(m, local).tobytes()
        mass = assembly.assemble_mass(m)
        expected = bincount_pairs(m, area[:, None, None] * assembly._MASS_TEMPLATE)
        assert mass.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(k, 3) for k in (1, 2, 3)], ids=lambda s: f"shape{s[0]}")
    def test_scatter(self, m, shape):
        rng = np.random.Generator(np.random.Philox(len(shape) + shape[0]))
        corner = rng.standard_normal((*shape, m.num_triangles))
        out = assembly._scatter(m, corner)
        assert out.shape == (*shape[:-1], m.num_nodes)
        assert out.tobytes() == bincount_scatter(m, corner).tobytes()

    def test_normal_couplings(self, m):
        u = np.random.Generator(np.random.Philox(9)).uniform(0.5, 1.5, m.num_nodes)
        area, normal = m.element_areas, m.normals
        w = normal * (area / 3.0)
        nodal = bincount_scatter(m, np.broadcast_to(w[:, None], (3, 3, len(area)))) * u
        coeff = (assembly._MASS_TEMPLATE @ u[m.triangles.T]) * area
        interpolated = bincount_scatter(m, normal[:, None] * coeff)
        for mode, expected in [("nodal", nodal), ("interpolated", interpolated)]:
            out = assembly.assemble_normal_coupling(m, u, mode)
            assert out.tobytes() == expected.T.tobytes(), mode


class TestTemplateAgainstScipy:
    @pytest.mark.parametrize("name", sorted(INCIDENCE_MESHES))
    def test_index_arrays_those_of_scipys_conversion(self, name):
        # every (t_i, t_j) pair of every triangle, through SciPy's own
        # COO -> CSR conversion and duplicate sum
        m = INCIDENCE_MESHES[name]()
        t, n, nt = m.triangles, m.num_nodes, m.num_triangles
        rows = np.broadcast_to(t[:, :, None], (nt, 3, 3)).ravel()
        cols = np.broadcast_to(t[:, None, :], (nt, 3, 3)).ravel()
        expected = sp.coo_matrix((np.ones(9 * nt), (rows, cols)), shape=(n, n)).tocsr()
        expected.sum_duplicates()
        template = assembly._topology(m).template
        assert np.array_equal(template.indices, expected.indices)
        assert np.array_equal(template.indptr, expected.indptr)
        assert template.has_sorted_indices and template.data.strides == (0,)


def matvec_inputs(matrix, seed=11):
    """Right-hand sides in every shape and layout the stepper hands to
    ``assembly.matvec``, keyed by a label; the F-ordered one is a
    SuperLU solve of ``matrix``."""
    rng = np.random.Generator(np.random.Philox(seed))
    n = matrix.shape[0]
    solved = spla.splu(matrix.tocsc()).solve(rng.standard_normal((n, 3)))
    wide = rng.standard_normal((n, 4))
    return {
        "(N,)": rng.standard_normal(n),
        "(N, 1)": rng.standard_normal((n, 1)),
        "C (N, 3)": rng.standard_normal((n, 3)),
        "F (N, 3) from SuperLU.solve": solved,
        "strided column": wide[:, 1],
        "strided (N, 1)": wide[:, 2:3],
        "zero": np.zeros(n),
        "zero (N, 3)": np.zeros((n, 3)),
    }


class TestMatvec:
    """``assembly.matvec`` is ``matrix @ x`` bitwise, shape included."""

    @staticmethod
    def matrices():
        mass, stiff = assembly.surface_matrices(mesh.generate_icosphere(3, 1.0))
        total = assembly.add_scaled(mass, 0.01, stiff)
        separate = sp.csr_matrix((total.data.copy(), total.indices.copy(), total.indptr.copy()),
                                 shape=total.shape)
        return {"template copy": total, "surface mass": mass,
                "separate arrays": separate, "scipy sum": (mass + 0.01 * stiff).tocsr()}

    def test_bitwise_equal_to_matmul(self):
        matrices = self.matrices()
        inputs = matvec_inputs(matrices["surface mass"])
        assert inputs["F (N, 3) from SuperLU.solve"].flags.f_contiguous
        assert not inputs["F (N, 3) from SuperLU.solve"].flags.c_contiguous
        assert not inputs["strided column"].flags.contiguous
        for name, matrix in matrices.items():
            for label, x in inputs.items():
                out, expected = assembly.matvec(matrix, x), matrix @ x
                assert out.shape == expected.shape and out.dtype == expected.dtype, (name, label)
                assert np.array_equal(out.view(np.int64), expected.view(np.int64)), (name, label)
                assert out.flags.c_contiguous == expected.flags.c_contiguous, (name, label)

    def test_input_untouched_and_output_fresh(self):
        matrix = self.matrices()["template copy"]
        x = np.random.Generator(np.random.Philox(2)).standard_normal((matrix.shape[0], 3))
        before = x.copy()
        first, second = assembly.matvec(matrix, x), assembly.matvec(matrix, x)
        assert np.array_equal(x, before)
        assert not np.shares_memory(first, second) and not np.shares_memory(first, x)

    def test_row_count_mismatch_refused(self):
        matrix = self.matrices()["template copy"]
        for x in (np.ones(641), np.ones((643, 3))):
            with pytest.raises(ValueError, match="rows"):
                assembly.matvec(matrix, x)


def spd_system(level, c=1.0):
    """M + c A on the unit icosphere of ``level``, a template copy, and the mesh."""
    m = mesh.generate_icosphere(level, 1.0)
    mass, stiff = assembly.surface_matrices(m)
    return assembly.add_scaled(mass, c, stiff), m


class TestBandCholesky:
    """``factorize`` is a Cholesky factor in the RCM band up to level 4,
    with SuperLU's ``solve`` contract, and SuperLU where the band does not
    serve."""

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("c", [1.0, 1e-3])
    def test_agrees_with_superlu_in_every_shape_and_layout(self, level, c):
        matrix, _ = spd_system(level, c)
        factor = assembly.factorize(matrix)
        assert isinstance(factor, assembly.BandCholesky)
        lu = spla.splu(matrix.tocsc())
        rng = np.random.Generator(np.random.Philox(level))
        n = matrix.shape[0]
        for shape in [(n,), (n, 1), (n, 3)]:
            c_order = rng.standard_normal(shape)
            for rhs in (c_order, np.asfortranarray(c_order)):
                kept = rhs.copy()
                x, expected = factor.solve(rhs), lu.solve(rhs)
                assert x.shape == rhs.shape
                assert np.abs(x - expected).max() <= 1e-13 * np.abs(expected).max()
                assert np.array_equal(rhs, kept)

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5])
    def test_order_is_scipys_reverse_cuthill_mckee(self, level, monkeypatch):
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        # level 5's band is past the size rule, and its order is the same
        monkeypatch.setattr(assembly, "BAND_MAX_ENTRIES", np.inf)
        matrix, _ = spd_system(level)
        ones = sp.csr_matrix((np.ones(matrix.nnz), matrix.indices, matrix.indptr),
                             shape=matrix.shape)
        perm = assembly._band_plan(matrix).perm
        assert perm.dtype == np.int64
        assert np.array_equal(perm, reverse_cuthill_mckee(ones))

    def test_order_is_built_once_per_topology(self, monkeypatch):
        from scipy.sparse import csgraph

        calls = []
        real = csgraph.reverse_cuthill_mckee
        monkeypatch.setattr(csgraph, "reverse_cuthill_mckee",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        matrix, m0 = spd_system(2)
        assembly.factorize(matrix)
        moved = m0.with_coords(1.5 * m0.coords)
        mass, stiff = assembly.surface_matrices(moved)
        assembly.factorize(assembly.add_scaled(mass, 0.1, stiff))
        assembly.factorize(mass)
        assert len(calls) == 1
        assembly.factorize(spd_system(2)[0])  # a new topology orders again
        assert len(calls) == 2

    @pytest.mark.parametrize("case", ["level 5", "indefinite", "not symmetric",
                                      "off the template"])
    def test_superlu_where_the_band_does_not_serve(self, case):
        matrix, m = spd_system(5 if case == "level 5" else 2)
        mass, stiff = assembly.surface_matrices(m)
        if case == "indefinite":
            matrix = assembly.add_scaled(mass, -10.0, stiff)
        elif case == "not symmetric":
            data = matrix.data.copy()
            data[1] *= 1.5  # an off-diagonal slot of row 0
            matrix = assembly._with_data(matrix, data)
        elif case == "off the template":
            matrix = (mass + stiff).tocsr()  # SciPy's own sum: no topology's band plan
        factor = assembly.factorize(matrix)
        assert isinstance(factor, spla.SuperLU)
        rhs = np.random.Generator(np.random.Philox(3)).standard_normal((matrix.shape[0], 3))
        assert np.array_equal(factor.solve(rhs), spla.splu(matrix.tocsc()).solve(rhs))

    def test_a_run_without_a_factor_never_imports_csgraph(self):
        # the band's order comes from scipy.sparse.csgraph, imported by the
        # first factorization only
        code = ("import sys\n"
                "from esfem import experiments, problems\n"
                "spec = problems.example1_problem(1.0, 0.0, 0.4, 1.0, 2.0, 0.5)\n"
                "experiments.run_level(spec, 2, 0.01, solver='cg')\n"
                "print('scipy.sparse.csgraph' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"


def block_apply(scalar, w):
    """The velocity law's block operator K = I_3 (x) scalar on an (N, 3)
    node vector, applied as the stepper does: to its three columns."""
    return np.asarray(scalar @ w)


class TestBlockSystemMatrix:
    """K = I_3 (x) (M + alpha A) from assemble_mass and assemble_stiffness."""

    def test_alpha_zero_is_blockwise_mass(self):
        m = mesh.generate_icosphere(1, 1.0)
        M = assembly.assemble_mass(m)
        rng = np.random.Generator(np.random.Philox(1))
        v = rng.standard_normal((m.num_nodes, 3))
        expected = np.stack([M @ v[:, c] for c in range(3)], axis=1)
        assert np.allclose(block_apply(M, v), expected, rtol=1e-15, atol=0)

    def test_block_semantics_random_vectors(self):
        m = mesh.generate_icosphere(2, 1.0)
        K = assembly.assemble_mass(m) + 0.7 * assembly.assemble_stiffness(m)
        rng = np.random.Generator(np.random.Philox(2))
        for _ in range(5):
            v = rng.standard_normal((m.num_nodes, 3))
            blockwise = np.empty_like(v)
            for c in range(3):
                blockwise[:, c] = K @ v[:, c]
            diff = np.abs(block_apply(K, v) - blockwise).max()
            assert diff <= 1e-13 * np.abs(blockwise).max()

    def test_energy_dominates_mass(self):
        m = mesh.generate_icosphere(1, 1.0)
        M = assembly.assemble_mass(m)
        K = M + assembly.assemble_stiffness(m)
        rng = np.random.Generator(np.random.Philox(3))
        for _ in range(10):
            w = rng.standard_normal((m.num_nodes, 3))
            kw = float(np.vdot(w, block_apply(K, w)))
            mw = float(np.vdot(w, block_apply(M, w)))
            assert kw >= mw - 1e-12 * abs(kw)

    def test_energy_identity_against_quadrature(self):
        # w' K w = |w_h|_L2^2 + alpha |grad w_h|_L2^2, checked componentwise
        # against the independent quadrature oracle
        m = mesh.generate_icosphere(2, 1.0)
        K = assembly.assemble_mass(m) + 1.0 * assembly.assemble_stiffness(m)
        rng = np.random.Generator(np.random.Philox(4))
        w = rng.standard_normal((m.num_nodes, 3))
        kw = float(np.vdot(w, block_apply(K, w)))
        oracle = 0.0
        for c in range(3):
            l2, h1 = quad_l2_norms(m, w[:, c])
            oracle += l2**2 + h1**2
        assert kw == pytest.approx(oracle, rel=1e-11)


class TestNormalCoupling:
    def test_constant_field_closed_sum_vanishes(self):
        m = mesh.generate_icosphere(2, 1.0)
        out = assembly.assemble_normal_coupling(m, np.ones(m.num_nodes), "nodal")
        area = float(m.element_areas.sum())
        sums = out.sum(axis=0)
        assert np.abs(sums).max() <= 1e-12 * area

    def test_zero_field(self):
        m = mesh.generate_icosphere(1, 1.0)
        out = assembly.assemble_normal_coupling(m, np.zeros(m.num_nodes), "nodal")
        assert np.all(out == 0.0)

    def test_single_triangle_nodal_block(self):
        m = single_triangle()
        u = np.array([1.0, 0.0, 0.0])
        out = assembly.assemble_normal_coupling(m, u, "nodal")
        # integral of phi_1 over the triangle is area/3 (hand quadrature)
        assert np.allclose(out[0], np.array([0, 0, 1.0]) * (0.5 / 3.0), rtol=1e-14)
        assert np.allclose(out[1:], 0.0)

    def test_modes_differ_at_h_squared(self):
        m = mesh.generate_icosphere(3, 1.0)
        u = m.coords[:, 0] * m.coords[:, 1]
        nodal = assembly.assemble_normal_coupling(m, u, "nodal")
        interp = assembly.assemble_normal_coupling(m, u, "interpolated")
        diff = np.abs(nodal - interp).max()
        assert 0.0 < diff < m.h_max**2

    def test_field_length_checked(self):
        m = mesh.generate_icosphere(0, 1.0)
        with pytest.raises(FieldLengthMismatch):
            assembly.assemble_normal_coupling(m, np.ones(5), "nodal")

    def test_unknown_mode_refused(self):
        m = mesh.generate_icosphere(0, 1.0)
        with pytest.raises(ValueError, match="unknown normal coupling mode: 'lumped'"):
            assembly.assemble_normal_coupling(m, np.ones(m.num_nodes), "lumped")


class TestScalarLoad:
    def test_constant_integrand_gives_mass_row_sums(self):
        m = mesh.generate_icosphere(2, 1.0)
        M = assembly.assemble_mass(m)
        load = assembly.assemble_scalar_load(m, lambda x, t: np.ones(len(x)), 0.0)
        expected = np.asarray(M @ np.ones(m.num_nodes))
        assert np.abs(load - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_linearity_in_constant(self):
        m = mesh.generate_icosphere(1, 1.0)
        one = assembly.assemble_scalar_load(m, lambda x, t: np.ones(len(x)), 0.0)
        c = assembly.assemble_scalar_load(m, lambda x, t: np.full(len(x), 3.25), 0.0)
        assert np.allclose(c, 3.25 * one, rtol=1e-14)

    def test_field_integrand_matches_mass_product(self):
        m = mesh.generate_icosphere(2, 1.0)
        rng = np.random.Generator(np.random.Philox(5))
        u = rng.standard_normal(m.num_nodes)
        load = assembly.assemble_scalar_load(m, lambda x, t, uq: uq, 0.0, (u,))
        expected = np.asarray(assembly.assemble_mass(m) @ u)
        assert np.abs(load - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_non_finite_integrand(self):
        m = mesh.generate_icosphere(0, 1.0)
        with pytest.raises(NonFiniteIntegrand):
            assembly.assemble_scalar_load(m, lambda x, t: np.full(len(x), np.nan), 0.0)

    def test_extra_fields_interpolated(self):
        m = mesh.generate_icosphere(1, 1.0)
        rng = np.random.Generator(np.random.Philox(6))
        u = rng.standard_normal(m.num_nodes)
        w = rng.standard_normal(m.num_nodes)
        # integrand uses only the extra field: same as u-integrand with w
        via_extra = assembly.assemble_scalar_load(m, lambda x, t, uq, wq: wq, 0.0, (u, w))
        direct = assembly.assemble_scalar_load(m, lambda x, t, wq: wq, 0.0, (w,))
        assert np.allclose(via_extra, direct, rtol=1e-14)


class TestNormalLoad:
    def test_constant_integrand_sums_vanish(self):
        m = mesh.generate_icosphere(2, 1.0)
        load = assembly.assemble_normal_load(m, lambda x, t: np.ones(len(x)), 0.0)
        area = float(m.element_areas.sum())
        sums = load.sum(axis=0)
        assert np.abs(sums).max() <= 1e-12 * area

    def test_zero_integrand(self):
        m = mesh.generate_icosphere(1, 1.0)
        load = assembly.assemble_normal_load(m, lambda x, t: np.zeros(len(x)), 0.0)
        assert np.all(load == 0.0)

    def test_velocity_law_defect_is_h_squared(self):
        # exact data inserted into the discrete velocity law leave an O(h^2)
        # defect in the mass-weighted dual norm (first-run constants: the
        # measured defect/h^2 sits at 0.15-0.16 on levels 1-4)
        sphere = problems.ManufacturedSphere()
        alpha, beta, delta = 1.0, 0.0, 0.4
        spec = problems.example1_problem(alpha, beta, delta)
        dual = {}
        for level in (1, 2, 3):
            m = mesh.generate_icosphere(level, 1.0)
            x0, u0, v0 = problems.exact_solution(sphere, m.coords, 0.0)
            M = assembly.assemble_mass(m)
            A = assembly.assemble_stiffness(m)
            K = (M + alpha * A).tocsr()
            r = np.asarray(K @ v0) + beta * np.asarray(A @ x0)
            r -= delta * assembly.assemble_normal_coupling(m, u0, "nodal")
            r -= assembly.assemble_normal_load(m, spec.velocity_forcing, 0.0)
            lu = spla.splu(K.tocsc())
            dual[level] = np.sqrt(sum(float(r[:, c] @ lu.solve(r[:, c])) for c in range(3)))
            assert dual[level] <= 0.25 * m.h_max**2
        assert dual[2] <= 0.35 * dual[1]
        assert dual[3] <= 0.35 * dual[2]


class TestLoadContract:
    """Every load calls integrand(x, t, *values) with the interpolated values
    of exactly the fields it is given, in their order."""

    def test_normal_load_calls_its_integrand_with_x_and_t(self):
        m = mesh.generate_icosphere(1, 1.0)
        calls = []

        def g(*args):
            calls.append(args)
            return np.ones(len(args[0]))

        assembly.assemble_normal_load(m, g, 0.25)
        (args,) = calls
        assert len(args) == 2
        assert args[0] is m.midpoint_positions and args[1] == 0.25

    def test_scalar_load_passes_the_fields_in_order(self):
        m = mesh.generate_icosphere(1, 1.0)
        rng = np.random.Generator(np.random.Philox(12))
        u, w = rng.standard_normal((2, m.num_nodes))
        seen = []

        def h(x, t, uq, wq):
            seen.append((t, uq, wq))
            return uq * wq

        assembly.assemble_scalar_load(m, h, 0.5, (u, w))
        P, tri = assembly.MIDPOINT_POINTS, m.triangles
        (t, uq, wq), = seen
        assert t == 0.5
        assert np.array_equal(uq, (P @ u[tri.T]).ravel())
        assert np.array_equal(wq, (P @ w[tri.T]).ravel())

    @pytest.mark.parametrize("load", [assembly.assemble_scalar_load,
                                      assembly.assemble_normal_load])
    def test_field_length_checked_before_the_integrand(self, load):
        m = mesh.generate_icosphere(1, 1.0)

        def never(*args):
            raise AssertionError("the integrand ran")

        with pytest.raises(FieldLengthMismatch):
            load(m, never, 0.0, (np.ones(m.num_nodes), np.ones(5)))


class TestLoadsAreGradientFree:
    def test_no_load_computes_basis_gradients(self):
        # no integrand reads the field's gradient, so no load may pay for it
        m = mesh.generate_icosphere(1, 1.0)
        u = np.linspace(0.5, 1.5, m.num_nodes)
        assembly.assemble_scalar_load(m, lambda x, t, uq: uq, 0.0, (u,))
        assembly.assemble_normal_load(m, lambda x, t, uq: uq, 0.0, (u,))
        problems.field_step(m, problems.TumorKinetics().source, assembly.assemble_mass(m),
                            (u, u[::-1].copy()), 1e-3, [lambda r: r] * 2, 0.0)
        assert "basis_gradients" not in m.__dict__


class TestMidpointPositionsCached:
    """Quadrature-point positions are gathered once per surface."""

    @staticmethod
    def uncached_load(m, integrand, u):
        # the plain formula, gathering the quadrature positions on every call
        t, P = m.triangles, assembly.MIDPOINT_POINTS
        pos = (P @ m.coords[t.T].reshape(3, -1)).reshape(-1, 3)
        f = integrand(pos, 0.0, (P @ u[t.T]).ravel())
        weighted = f * (assembly.MIDPOINT_WEIGHTS[:, None] * m.element_areas).ravel()
        corner = P.T @ weighted.reshape(1, 3, -1)
        return assembly._scatter(m, corner)

    def test_loads_share_one_read_only_positions_array(self):
        m = mesh.generate_icosphere(2, 1.0)
        u = np.linspace(0.5, 1.5, m.num_nodes)
        seen = []

        def integrand(x, t, uq):
            seen.append(x)
            return np.sin(x[:, 0]) * uq

        scalar = assembly.assemble_scalar_load(m, integrand, 0.0, (u,))
        assembly.assemble_normal_load(m, integrand, 0.0, (u,))
        assert seen[0] is seen[1] is m.midpoint_positions
        assert not seen[0].flags.writeable
        expected = self.uncached_load(m, integrand, u)
        assert scalar.tobytes() == expected.tobytes()

    def test_positions_bitwise_equal_to_uncached_gather(self):
        m = mesh.generate_icosphere(3, 1.3)
        m = m.with_coords(m.coords * np.linspace(0.9, 1.1, m.num_nodes)[:, None])
        P, t = assembly.MIDPOINT_POINTS, m.triangles
        expected = (P @ m.coords[t.T].reshape(3, -1)).reshape(-1, 3)
        assert m.midpoint_positions.tobytes() == expected.tobytes()

    def test_pre_relaxation_gathers_once(self, monkeypatch):
        gather = mesh.SurfaceMesh.midpoint_positions.func
        calls = []

        def counted(self):
            calls.append(self)
            return gather(self)

        prop = functools.cached_property(counted)
        prop.__set_name__(mesh.SurfaceMesh, "midpoint_positions")
        monkeypatch.setattr(mesh.SurfaceMesh, "midpoint_positions", prop)
        m = mesh.generate_icosphere(1, 1.0)
        problems.tumor_initial_data(m, problems.TumorKinetics(), seed=0, pre_time=1.0,
                                    record=stepper.RunRecord())
        assert len(calls) == 1  # 1000 steps, 1000 loads, one gather


def per_corner_sum(m, corner):
    """Nodal sums of per-corner values corner[i][t] (local vertex i of
    triangle t), added node by node in (i, t) order."""
    out = np.zeros(m.num_nodes)
    for i in range(3):
        np.add.at(out, m.triangles[:, i], corner[i])
    return out


def per_corner_load(m, values):
    """Midpoint-rule corner integrals of the (3, T) midpoint values: corner i
    averages midpoints i and i-1, each weighted by a third of the area."""
    weighted = [v * ((1.0 / 3.0) * m.element_areas) for v in values]
    return [0.5 * (weighted[i] + weighted[i - 1]) for i in range(3)]


def node_vector(columns):
    """The (N, 3) node vector of three (N,) columns."""
    return np.stack(columns, axis=1)


class TestLoadsMatchPerCornerFormulas:
    """Every load bitwise equal to the plain per-corner formula, on a moved,
    non-uniform surface: midpoint values, corner weights, normals and the
    per-node summation order all as written out here."""

    @staticmethod
    def surface_and_fields(seed):
        m = mesh.generate_icosphere(3, 1.0)
        rng = np.random.Generator(np.random.Philox(seed))
        coords = m.coords * np.linspace(0.8, 1.3, m.num_nodes)[:, None]
        m = m.with_coords(coords + rng.uniform(-0.1, 0.1, coords.shape) * m.h_max)
        return m, rng.uniform(0.5, 1.5, (2, m.num_nodes))

    @staticmethod
    def midpoint_values(m, f):
        t = m.triangles
        return [0.5 * (f[t[:, q]] + f[t[:, (q + 1) % 3]]) for q in range(3)]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_two_field_tumor_source(self, seed):
        m, (u, w) = self.surface_and_fields(seed)
        kin = problems.TumorKinetics()
        uq, wq = self.midpoint_values(m, u), self.midpoint_values(m, w)
        load = assembly.assemble_scalar_load(m, kin.source, 0.0, (u, w))
        assert load.shape == (2, m.num_nodes)
        for row, f in enumerate((kin.f1, kin.f2)):
            values = [f(a, b) for a, b in zip(uq, wq)]
            expected = per_corner_sum(m, per_corner_load(m, values))
            assert load[row].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_normal_load(self, seed):
        m, _ = self.surface_and_fields(seed)
        g = problems.example1_problem().velocity_forcing
        x = m.midpoint_positions.reshape(3, -1, 3)
        corner = per_corner_load(m, [g(x[q], 0.3) for q in range(3)])
        normal = m.normals.T
        expected = node_vector([per_corner_sum(m, [c * normal[:, l] for c in corner])
                               for l in range(3)])
        load = assembly.assemble_normal_load(m, g, 0.3)
        assert load.shape == expected.shape and load.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_nodal_coupling(self, seed):
        m, (u, _) = self.surface_and_fields(seed)
        weight = (m.element_areas / 3.0)[:, None] * m.normals.T
        expected = node_vector([per_corner_sum(m, [weight[:, l]] * 3) * u for l in range(3)])
        out = assembly.assemble_normal_coupling(m, u, "nodal")
        assert out.shape == expected.shape and out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_interpolated_coupling(self, seed):
        m, (u, _) = self.surface_and_fields(seed)
        # corner i: the integral of u_h phi_i, the mass template's row i
        coeff = (assembly._MASS_TEMPLATE @ u[m.triangles.T]) * m.element_areas
        normal = m.normals.T
        expected = node_vector([per_corner_sum(m, [c * normal[:, l] for c in coeff])
                               for l in range(3)])
        out = assembly.assemble_normal_coupling(m, u, "interpolated")
        assert out.shape == expected.shape and out.tobytes() == expected.tobytes()


class TestDiscreteNorms:
    def test_zero_vector(self):
        m = mesh.generate_icosphere(0, 1.0)
        M = assembly.assemble_mass(m)
        A = assembly.assemble_stiffness(m)
        assert assembly.discrete_norms(M, A, np.zeros(m.num_nodes)) == (0.0, 0.0)

    def test_constant_vector(self):
        m = mesh.generate_icosphere(2, 1.0)
        M = assembly.assemble_mass(m)
        A = assembly.assemble_stiffness(m)
        mn, an = assembly.discrete_norms(M, A, np.ones(m.num_nodes))
        area = float(m.element_areas.sum())
        assert mn**2 == pytest.approx(area, rel=1e-12)
        assert an <= 1e-7 * mn

    def test_blockwise_for_vector_fields(self):
        m = mesh.generate_icosphere(1, 1.0)
        M = assembly.assemble_mass(m)
        A = assembly.assemble_stiffness(m)
        rng = np.random.Generator(np.random.Philox(8))
        w = rng.standard_normal((m.num_nodes, 3))
        mn, an = assembly.discrete_norms(M, A, w)
        comp = [assembly.discrete_norms(M, A, w[:, c]) for c in range(3)]
        assert mn**2 == pytest.approx(sum(c[0] ** 2 for c in comp), rel=1e-13)
        assert an**2 == pytest.approx(sum(c[1] ** 2 for c in comp), rel=1e-13)

    def test_norm_bridge_against_quadrature(self):
        m = mesh.generate_icosphere(2, 1.0)
        M = assembly.assemble_mass(m)
        A = assembly.assemble_stiffness(m)
        rng = np.random.Generator(np.random.Philox(9))
        w = rng.standard_normal(m.num_nodes)
        mn, an = assembly.discrete_norms(M, A, w)
        l2, h1 = quad_l2_norms(m, w)
        assert mn == pytest.approx(l2, rel=1e-12)
        assert an == pytest.approx(h1, rel=1e-11)

    def test_dimension_mismatch(self):
        m = mesh.generate_icosphere(0, 1.0)
        M = assembly.assemble_mass(m)
        A = assembly.assemble_stiffness(m)
        # the one error for a vector whose row count does not fit the mesh,
        # a flat 3N vector included
        for w in (np.zeros(5), np.zeros(36)):
            with pytest.raises(FieldLengthMismatch, match=f"has {len(w)} rows, expected N=12"):
                assembly.discrete_norms(M, A, w)


class TestMatrixDump:
    def test_coordinate_format(self, tmp_path):
        m = mesh.generate_icosphere(0, 1.0)
        M = assembly.assemble_mass(m)
        path = tmp_path / "mass.txt"
        assembly.write_coordinate_matrix(M, path)
        lines = path.read_text().splitlines()
        assert len(lines) == M.nnz
        i, j, v = lines[0].split()
        assert int(i) == 0 and float(v) != 0.0
