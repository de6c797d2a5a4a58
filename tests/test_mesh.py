import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esfem import assembly, mesh
from esfem.errors import DegenerateElement, FieldLengthMismatch


def flat_triangle_mesh():
    """Single right triangle in the z=0 plane (open; unit tests only)."""
    coords = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    tris = np.array([[0, 1, 2]])
    return mesh.SurfaceMesh(coords, tris, validate=False)


def independent_flat_area(coords, tris):
    # oracle: plain cross-product sum, no library geometry involved
    total = 0.0
    for i, j, k in tris:
        total += 0.5 * np.linalg.norm(np.cross(coords[j] - coords[i], coords[k] - coords[i]))
    return total


def loop_quadrisection(verts, faces, radius):
    """Oracle: quarter one face at a time, numbering each new midpoint when
    its edge first appears and projecting it by np.linalg.norm."""
    verts = list(map(np.asarray, verts))
    midpoint = {}

    def mid(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in midpoint:
            m = 0.5 * (verts[i] + verts[j])
            verts.append(m * (radius / np.linalg.norm(m)))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    new_faces = []
    for i, j, k in faces:
        ij, jk, ki = mid(i, j), mid(j, k), mid(k, i)
        new_faces += [[i, ij, ki], [j, jk, ij], [k, ki, jk], [ij, jk, ki]]
    return np.array(verts), np.array(new_faces, dtype=np.int64)


class TestIcosphere:
    def test_level0_is_icosahedron(self):
        m = mesh.generate_icosphere(0, 1.0)
        assert m.num_nodes == 12
        assert m.num_triangles == 20

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_quadrisection_counts(self, level):
        m = mesh.generate_icosphere(level, 1.0)
        assert m.num_triangles == 20 * 4**level

    def test_nodes_on_sphere(self):
        m = mesh.generate_icosphere(2, 1.7)
        radii = np.linalg.norm(m.coords, axis=1)
        assert np.allclose(radii, 1.7, rtol=1e-14, atol=0)

    def test_level3_flat_area_brackets_sphere(self):
        m = mesh.generate_icosphere(3, 1.0)
        total = independent_flat_area(m.coords, m.triangles)
        assert total < 4 * np.pi
        assert total > 0.98 * 4 * np.pi

    def test_h_halves_per_level(self):
        # the 0 -> 1 ratio is 1/golden-ratio = 0.588 for the icosahedron;
        # from level 1 on the ratio is within 10% of one half
        h = [mesh.generate_icosphere(L, 1.0).h_max for L in range(6)]
        for L in range(1, 5):
            ratio = h[L + 1] / h[L]
            assert 0.45 <= ratio <= 0.55
        assert 0.55 < h[1] / h[0] < 0.60

    @pytest.mark.parametrize("radius", [1.0, 1.3])
    def test_nodes_and_faces_bitwise_those_of_the_loop(self, radius):
        verts, faces = mesh._icosahedron(radius)
        for level in range(6):
            m = mesh.generate_icosphere(level, radius)
            assert m.triangles.dtype == faces.dtype
            assert np.array_equal(m.triangles, faces)
            assert np.array_equal(m.coords.view(np.int64), verts.view(np.int64))
            verts, faces = loop_quadrisection(verts, faces, radius)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            mesh.generate_icosphere(-1, 1.0)
        for radius in (0.0, -1.0, 0.9e-50, 1.1e50, np.inf, np.nan):
            with pytest.raises(ValueError, match="radius"):
                mesh.generate_icosphere(1, radius)

    @pytest.mark.parametrize("radius", mesh.RADIUS_RANGE)
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_radius_range_ends_give_finite_geometry(self, level, radius):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            m = mesh.generate_icosphere(level, radius)
            quality = mesh.mesh_quality(m)
            pair = assembly.surface_matrices(m)
        area = m.element_areas
        assert np.all(np.isfinite(area)) and np.all(area > 0.0) and not m.degenerate
        unit = mesh.mesh_quality(mesh.generate_icosphere(level, 1.0))
        assert quality.min_angle_deg == pytest.approx(unit.min_angle_deg, rel=1e-12)
        assert all(np.isfinite(matrix.data).all() for matrix in pair)

    @pytest.mark.parametrize("level", [mesh.MAX_LEVEL + 1, 30])
    def test_level_above_max_refused_before_any_allocation(self, level, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a mesh was built")

        monkeypatch.setattr(mesh, "_icosahedron", unreachable)
        with pytest.raises(ValueError, match=f"subdivision_level {level} is not in"):
            mesh.generate_icosphere(level, 1.0)


class TestSurfaceMeshValidation:
    def test_inward_orientation_rejected(self):
        m = mesh.generate_icosphere(0, 1.0)
        flipped = m.triangles[:, [0, 2, 1]]
        with pytest.raises(ValueError, match="inward"):
            mesh.SurfaceMesh(m.coords, flipped)

    def test_open_surface_rejected(self):
        m = mesh.generate_icosphere(0, 1.0)
        with pytest.raises(ValueError):
            mesh.SurfaceMesh(m.coords, m.triangles[:-1])

    def test_inconsistent_orientation_rejected(self):
        m = mesh.generate_icosphere(0, 1.0)
        tris = m.triangles.copy()
        tris[0] = tris[0][[0, 2, 1]]
        with pytest.raises(ValueError):
            mesh.SurfaceMesh(m.coords, tris)

    def test_non_finite_coords_rejected(self):
        m = mesh.generate_icosphere(0, 1.0)
        bad = m.coords.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            mesh.SurfaceMesh(bad, m.triangles)

    def test_malformed_input_refused(self):
        m = mesh.generate_icosphere(0, 1.0)
        high, negative, coincident = m.triangles.copy(), m.triangles.copy(), m.coords.copy()
        high[0, 0], negative[0, 0] = m.num_nodes, -1
        coincident[0] = coincident[11]  # face (0, 11, 5) collapses to a segment
        for coords, triangles, message in [
            (m.coords[:, :2], m.triangles, "coords must have shape"),
            (m.coords.ravel(), m.triangles, "coords must have shape"),
            (m.coords, m.triangles[:, :2], "triangles must have shape"),
            (m.coords, high, "out of range"),
            (m.coords, negative, "out of range"),
            (coincident, m.triangles, "zero-area"),
        ]:
            with pytest.raises(ValueError, match=message):
                mesh.SurfaceMesh(coords, triangles)

    def test_overflowing_areas_refused_without_warnings(self):
        m = mesh.generate_icosphere(1, 1.0)
        for scale in (1e100, 1e200):  # inf areas, then NaN ones
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(ValueError, match="not finite"):
                    mesh.SurfaceMesh(m.coords * scale, m.triangles)

    def test_arrays_locked(self):
        m = mesh.generate_icosphere(0, 1.0)
        with pytest.raises(ValueError):
            m.coords[0, 0] = 2.0

    def test_cached_geometry_read_only_all_the_way_down(self):
        # a view's base must be locked too, or a write through it would
        # change the cached geometry behind the mesh's back
        m = mesh.generate_icosphere(2, 1.0)
        # coords that view another array, whose base must be locked as well
        m = m.with_coords((m.coords.ravel() * 1.1).reshape(-1, 3))
        for name in ("coords", "triangles", "edges", "edge_lengths", "element_areas",
                     "normals", "basis_gradients", "midpoint_positions"):
            array = getattr(m, name)
            for a in [array] + ([array.base] if array.base is not None else []):
                assert not a.flags.writeable, name
                with pytest.raises(ValueError):
                    a[...] = 0


class TestElementGeometry:
    """Areas, normals and basis gradients as the assembly reads them."""

    def test_unit_right_triangle(self):
        m = flat_triangle_mesh()
        area, normal = mesh.triangle_areas_normals(m.edges)
        assert area[0] == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(normal[:, 0], [0, 0, 1], atol=1e-15)
        assert m.element_areas[0] == area[0]
        assert np.array_equal(m.normals, normal)

    def test_barycentric_gradients(self):
        m = flat_triangle_mesh()
        expected = np.array([[-1.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.allclose(m.basis_gradients[..., 0].T, expected, atol=1e-14)
        area, normal = mesh.triangle_areas_normals(m.edges)
        assert np.allclose(mesh.triangle_basis_gradients(m.edges, area, normal)[..., 0].T,
                           expected, atol=1e-14)

    def test_gradient_invariants_random_triangles(self):
        rng = np.random.Generator(np.random.Philox(11))
        for _ in range(50):
            coords = rng.standard_normal((3, 3))
            m = mesh.SurfaceMesh(coords, np.array([[0, 1, 2]]), validate=False)
            normal, g = m.normals[:, 0], m.basis_gradients[..., 0].T
            assert abs(np.linalg.norm(normal) - 1.0) < 1e-12
            assert np.linalg.norm(g.sum(axis=0)) < 1e-12 * np.abs(g).max()
            assert np.abs(g @ normal).max() < 1e-12 * np.abs(g).max()

    def test_degenerate_element_raises(self):
        coords = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        m = mesh.SurfaceMesh(coords, np.array([[0, 1, 2]]), validate=False)
        # geometry reports the collapse; assembly refuses it
        assert m.element_areas[0] == 0.0
        assert np.all(m.normals[:, 0] == 0.0)
        with pytest.raises(DegenerateElement):
            assembly.assemble_mass(m)

    def test_rigid_motion_invariance(self):
        m = mesh.generate_icosphere(1, 1.0)
        rng = np.random.Generator(np.random.Philox(3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        shift = rng.standard_normal(3)
        moved = m.with_coords(m.coords @ q.T + shift)
        assert np.allclose(moved.element_areas, m.element_areas, rtol=1e-12, atol=0)
        assert np.allclose(moved.normals.T, m.normals.T @ q.T, atol=1e-12)
        assert np.allclose(moved.basis_gradients.T, m.basis_gradients.T @ q.T, atol=1e-12)


class TestMeshQuality:
    def test_equilateral_min_angle(self):
        m = mesh.generate_icosphere(0, 1.0)  # 20 congruent equilateral faces
        q = mesh.mesh_quality(m)
        assert q.min_angle_deg == pytest.approx(60.0, abs=1e-9)
        assert q.min_angle_deg > 30.0

    def test_collapsed_triangle_reported_not_raised(self):
        m = mesh.generate_icosphere(0, 1.0)
        coords = m.coords.copy()
        coords[1] = coords[0]  # collapse every triangle sharing this edge
        q = mesh.mesh_quality(m.with_coords(coords))
        assert q.min_area == 0.0
        assert q.max_aspect_ratio == np.inf

    @pytest.mark.parametrize("collapsed", [
        [[0.3, 0.7, 2.0], [0.3, 0.7, 2.0], [1.9, -0.4, 1.1]],  # one zero-length edge
        [[0.3, 0.7, 2.0]] * 3])  # three
    def test_zero_length_edge_reads_angle_zero(self, collapsed):
        # beside an equilateral triangle: a zero-length edge counts as
        # cosine 1, angle 0; read as cosine 0 (90 degrees), the minimum
        # would come from the rounding of the other corners, or be 60
        equilateral = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, np.sqrt(0.75), 0.0]]
        m = mesh.SurfaceMesh(np.array(equilateral + collapsed), np.array([[0, 1, 2], [3, 4, 5]]),
                             validate=False)
        q = mesh.mesh_quality(m)
        assert q.min_angle_deg == 0.0 and q.max_aspect_ratio == np.inf

    def test_closed_surface_normal_sum(self):
        for level in (0, 2, 3):
            m = mesh.generate_icosphere(level, 1.3)
            area, normal = mesh.triangle_areas_normals(m.edges)
            s = np.linalg.norm((area * normal).sum(axis=1))
            assert s <= 1e-12 * area.sum()


# ---------------------------------------------------------------------------
# Bitwise oracle: the element geometry in the plain (T, 3, 3) numpy
# formulas (np.roll gather, np.cross, einsum, arccos of every angle).  The
# library's component-major pass must reproduce every value bit for bit,
# not merely to rounding.

def oracle_geometry(coords, triangles):
    p = coords[triangles]
    edges = np.roll(p, -1, axis=1) - p
    lengths = np.sqrt((edges**2).sum(axis=2))
    cr = np.cross(edges[:, 0], -edges[:, 2])
    two_area = np.sqrt((cr**2).sum(axis=1))
    area = 0.5 * two_area
    with np.errstate(invalid="ignore", divide="ignore"):
        normal = np.where(two_area[:, None] > 0.0, cr / two_area[:, None], 0.0)
        grads = np.cross(normal[:, None], edges[:, [1, 2, 0]]) / (2.0 * area)[:, None, None]
    return {"edges": edges, "edge_lengths": lengths, "element_areas": area,
            "normals": normal, "basis_gradients": grads}


def oracle_quality(geometry):
    edge, elen, area = (geometry[k] for k in ("edges", "edge_lengths", "element_areas"))
    dot = -np.einsum("tkj,tkj->tk", edge, np.roll(edge, 1, axis=1))
    denom = elen * np.roll(elen, 1, axis=1)
    ok = denom > 0.0
    cosang = np.where(ok, dot / np.where(ok, denom, 1.0), 1.0)
    angles = np.where(ok, np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))), 0.0)
    longest = elen.max(axis=1)
    with np.errstate(divide="ignore"):
        aspect = np.where(area > 0.0, longest**2 / (2.0 * np.where(area > 0, area, 1.0)), np.inf)
    return mesh.QualityReport(float(angles.min()), float(aspect.max()), float(area.min()))


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def assert_matches_oracle(m):
    """Geometry and quality of ``m`` bitwise equal to the oracle's, each
    mesh array to the transpose of the oracle's (T, ...) one; returns the
    oracle geometry."""
    expected = oracle_geometry(m.coords, m.triangles)
    with np.errstate(invalid="ignore", divide="ignore"):
        for name, value in expected.items():
            assert_bitwise(getattr(m, name), value.T)
    assert_bitwise(astuple(mesh.mesh_quality(m)), astuple(oracle_quality(expected)))
    return expected


def oracle_pairs(m, local, template):
    """Sum the oracle's (T, 3, 3) local blocks onto the template's CSR
    slots with one bincount, entry (t, i, j) going to slot (t_i, t_j) in
    the blocks' flat order: the summation under test, written apart."""
    n, t = m.num_nodes, m.triangles
    slot_rows = np.repeat(np.arange(n), np.diff(template.indptr))
    slot_keys = slot_rows * n + template.indices
    keys = (t[:, :, None] * n + t[:, None, :]).ravel()
    slots = np.searchsorted(slot_keys, keys)
    assert np.array_equal(slot_keys[slots], keys)
    return np.bincount(slots, weights=local.ravel(), minlength=slot_keys.size)


def assert_matrices_match_oracle(m, geometry):
    g, area = geometry["basis_gradients"], geometry["element_areas"]
    local_stiffness = area[:, None, None] * np.einsum("tik,tjk->tij", g, g)
    local_mass = area[:, None, None] * assembly._MASS_TEMPLATE
    template = assembly._topology(m).template
    for actual, local in [(assembly.assemble_stiffness(m), local_stiffness),
                          (assembly.assemble_mass(m), local_mass)]:
        assert actual.indices is template.indices and actual.indptr is template.indptr
        assert_bitwise(actual.data, oracle_pairs(m, local, template))


ORACLE_LEVELS = {level: mesh.generate_icosphere(level, 1.0) for level in range(5)}


def jittered(level, seed):
    """Icosphere with every node moved by up to 20% of h_max."""
    m = ORACLE_LEVELS[level]
    rng = np.random.Generator(np.random.Philox(seed))
    return m.with_coords(m.coords + rng.uniform(-0.2, 0.2, m.coords.shape) * m.h_max)


class TestOneGeometryPass:
    """The component-major geometry pass against the bitwise oracle."""

    @settings(max_examples=10, deadline=None)
    @given(level=st.sampled_from(sorted(ORACLE_LEVELS)), seed=st.integers(0, 2**32 - 1))
    def test_jittered_icospheres(self, level, seed):
        m = jittered(level, seed)
        assert_matrices_match_oracle(m, assert_matches_oracle(m))

    def test_rotated_and_scaled_copy(self):
        m = jittered(3, 5)
        rng = np.random.Generator(np.random.Philox(8))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = m.with_coords(2.7 * m.coords @ q.T + rng.standard_normal(3))
        assert_matrices_match_oracle(moved, assert_matches_oracle(moved))

    def test_collapsed_triangle(self):
        # triangle 0 is collinear: area 0, zero normal, angle 0, aspect inf
        coords = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        m = mesh.SurfaceMesh(coords, np.array([[0, 1, 2], [0, 3, 1]]), validate=False)
        assert_matches_oracle(m)
        assert m.element_areas[0] == 0.0
        assert np.all(m.normals[:, 0] == 0.0)
        assert mesh.mesh_quality(m) == mesh.QualityReport(0.0, np.inf, 0.0)

    def test_coincident_nodes(self):
        m = ORACLE_LEVELS[1]
        a, b = m.triangles[0, :2]
        coords = m.coords.copy()
        coords[b] = coords[a]  # both triangles on edge a-b get a zero-length edge
        collapsed = m.with_coords(coords)
        assert_matches_oracle(collapsed)
        assert np.count_nonzero(collapsed.edge_lengths == 0.0) == 2
        q = mesh.mesh_quality(collapsed)
        assert (q.min_angle_deg, q.max_aspect_ratio, q.min_area) == (0.0, np.inf, 0.0)


def test_element_geometry_is_component_major():
    # every per-element array ends in the triangle axis, C-contiguous and
    # read-only down to its base; no (T, 3) copy of the normals is kept
    m = jittered(2, 7)
    t = m.num_triangles
    for name, shape in [("edges", (3, 3, t)), ("edge_lengths", (3, t)),
                        ("normals", (3, t)), ("basis_gradients", (3, 3, t))]:
        array = getattr(m, name)
        assert array.shape == shape and array.flags.c_contiguous, name
        for a in [array] + ([array.base] if array.base is not None else []):
            assert not a.flags.writeable, name
    assert not hasattr(m, "element_normals")


class TestNodeVectorLayout:
    """Node vectors are (N, 3), the layout of coords; no flat form."""

    def test_flat_vector_refused(self):
        m = mesh.generate_icosphere(0, 1.0)
        with pytest.raises(ValueError, match=r"shape \(12, 3\), got \(36,\)"):
            m.with_coords(m.coords.ravel())

    def test_bad_length(self):
        m = mesh.generate_icosphere(0, 1.0)
        with pytest.raises(ValueError):
            m.with_coords(np.zeros((m.num_nodes - 1, 3)))

    def test_h_max_tracks_current_coords(self):
        m = mesh.generate_icosphere(1, 1.0)
        doubled = m.with_coords(2.0 * m.coords)
        assert doubled.h_max == pytest.approx(2.0 * m.h_max, rel=1e-14)


class TestExport:
    def test_vtk_byte_deterministic(self, tmp_path):
        m = mesh.generate_icosphere(1, 1.0)
        u = np.linspace(0.0, 1.0, m.num_nodes)
        v = np.tile([0.1, -0.2, 0.3], (m.num_nodes, 1))
        a, b = tmp_path / "a.vtk", tmp_path / "b.vtk"
        mesh.export_surface(m, {"u": u, "vel": v}, a)
        mesh.export_surface(m, {"u": u, "vel": v}, b)
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.startswith("# vtk DataFile Version 2.0")
        assert f"POINTS {m.num_nodes} double" in text
        assert "SCALARS u double" in text
        assert "VECTORS vel double" in text

    def test_field_length_mismatch(self, tmp_path):
        m = mesh.generate_icosphere(0, 1.0)
        with pytest.raises(FieldLengthMismatch):
            mesh.export_surface(m, {"u": np.zeros(5)}, tmp_path / "x.vtk")
        # a bad field after a good one still fails before the file is opened
        with pytest.raises(FieldLengthMismatch,
                           match=r"'bad' has shape \(5,\), expected \(12,\) or \(12, 3\)"):
            mesh.export_surface(m, {"u": np.zeros(12), "bad": np.zeros(5)}, tmp_path / "x.vtk")
        # a vector field is (N, 3), not a flat 3N vector
        with pytest.raises(FieldLengthMismatch, match=r"'vel' has shape \(36,\)"):
            mesh.export_surface(m, {"vel": np.zeros(36)}, tmp_path / "x.vtk")
        assert not (tmp_path / "x.vtk").exists()

    @pytest.mark.parametrize("surface, order", [("first", "vtk-obj"), ("moved", "vtk-obj"),
                                                ("moved", "obj-vtk")])
    def test_one_format_per_block_matches_per_row_formatting(self, tmp_path, surface, order):
        m = first = jittered(2, 4)
        if surface == "moved":
            # the first surface's export fills the caches a stale read would
            # take; its moved copy must still write its own nodes
            mesh.export_surface(first, {"u": first.coords[:, 0]}, tmp_path / "first.vtk")
            mesh.export_obj(first, tmp_path / "first.obj")
            rows = first._topo_cache["export_rows"]
            m = first.with_coords(first.coords * 1.25 + 0.01)
        u = np.random.Generator(np.random.Philox(1)).standard_normal(m.num_nodes)
        v = np.random.Generator(np.random.Philox(2)).standard_normal((m.num_nodes, 3))
        fields = {"u": u, "vel": v, "w": -u}
        lines = ["# vtk DataFile Version 2.0", "surface snapshot", "ASCII",
                 "DATASET UNSTRUCTURED_GRID", f"POINTS {m.num_nodes} double"]
        lines += ["%.17g %.17g %.17g" % tuple(p) for p in m.coords]
        nt = m.num_triangles
        lines.append(f"CELLS {nt} {4 * nt}")
        lines += ["3 %d %d %d" % tuple(t) for t in m.triangles]
        lines.append(f"CELL_TYPES {nt}")
        lines += ["5"] * nt
        lines.append(f"POINT_DATA {m.num_nodes}")
        for name, values in fields.items():
            if values.ndim == 1:
                lines += [f"SCALARS {name} double", "LOOKUP_TABLE default"]
                lines += ["%.17g" % x for x in values]
            else:
                lines.append(f"VECTORS {name} double")
                lines += ["%.17g %.17g %.17g" % tuple(x) for x in values]
        obj = ["v %.17g %.17g %.17g" % tuple(p) for p in m.coords]
        obj += ["f %d %d %d" % (t[0] + 1, t[1] + 1, t[2] + 1) for t in m.triangles]
        expected = {"vtk": lines, "obj": obj}
        for kind in order.split("-"):
            path = tmp_path / f"a.{kind}"
            if kind == "vtk":
                mesh.export_surface(m, fields, path)
            else:
                mesh.export_obj(m, path)
            assert path.read_bytes() == ("\n".join(expected[kind]) + "\n").encode()
        if surface == "moved":
            assert m._topo_cache is first._topo_cache
            assert m._topo_cache["export_rows"] is rows

    def test_obj_writer(self, tmp_path):
        m = mesh.generate_icosphere(0, 1.0)
        path = tmp_path / "m.obj"
        mesh.export_obj(m, path)
        lines = path.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 12
        assert sum(1 for l in lines if l.startswith("f ")) == 20
        # 1-based indices: the faces use exactly the nodes 1..N
        faces = [int(i) for l in lines if l.startswith("f ") for i in l.split()[1:]]
        assert sorted(set(faces)) == list(range(1, m.num_nodes + 1))
