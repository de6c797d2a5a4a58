"""Property tests of the assembled matrices, loads and mesh quality on
randomly perturbed level-1/2 icospheres."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from esfem import assembly, mesh, problems

LEVELS = {level: mesh.generate_icosphere(level, 1.0) for level in (1, 2)}

cases = dict(level=st.sampled_from(sorted(LEVELS)), seed=st.integers(0, 2**32 - 1))
few = settings(max_examples=8, deadline=None)


def perturbed(level, seed):
    """Icosphere with nodes moved by up to 5% of the radius; stays valid."""
    m = LEVELS[level]
    rng = np.random.Generator(np.random.Philox(seed))
    jitter = rng.uniform(-0.05, 0.05, m.coords.shape) * m.h_max
    return m.with_coords(m.coords * rng.uniform(0.95, 1.05, (m.num_nodes, 1)) + jitter), rng


def rel_diff(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.abs(a - b).max() / np.abs(b).max()


def rigid_motion(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q, rng.standard_normal(3)


@few
@given(**cases)
def test_exact_symmetry_and_constants_in_stiffness_kernel(level, seed):
    m, _ = perturbed(level, seed)
    M, A = assembly.assemble_mass(m), assembly.assemble_stiffness(m)
    assert (M != M.T).nnz == 0
    assert (A != A.T).nnz == 0
    assert np.abs(A @ np.ones(m.num_nodes)).max() <= 1e-13 * np.abs(A.data).max()


@few
@given(**cases)
def test_mass_row_sums_are_nodal_areas(level, seed):
    m, _ = perturbed(level, seed)
    nodal = np.zeros(m.num_nodes)
    for tri in m.triangles:
        a, b, c = m.coords[tri]
        nodal[tri] += 0.5 * np.linalg.norm(np.cross(b - a, c - a)) / 3.0
    row_sums = assembly.assemble_mass(m) @ np.ones(m.num_nodes)
    assert rel_diff(row_sums, nodal) <= 1e-13


@few
@given(**cases)
def test_rigid_motion_invariance(level, seed):
    m, rng = perturbed(level, seed)
    q, shift = rigid_motion(rng)
    moved = m.with_coords(m.coords @ q.T + shift)
    for assemble in (assembly.assemble_mass, assembly.assemble_stiffness):
        assert rel_diff(assemble(moved).data, assemble(m).data) <= 1e-12


@few
@given(scale=st.floats(0.1, 10.0), **cases)
def test_scaling_multiplies_mass_by_square_and_keeps_stiffness(level, seed, scale):
    m, _ = perturbed(level, seed)
    scaled = m.with_coords(scale * m.coords)
    M, A = assembly.assemble_mass(m), assembly.assemble_stiffness(m)
    assert rel_diff(assembly.assemble_mass(scaled).data, scale**2 * M.data) <= 1e-13
    assert rel_diff(assembly.assemble_stiffness(scaled).data, A.data) <= 1e-12


@few
@given(**cases)
def test_unit_loads(level, seed):
    m, _ = perturbed(level, seed)
    ones = np.ones(m.num_nodes)

    def unit(x, t):
        return np.ones(len(x))

    scalar = assembly.assemble_scalar_load(m, unit, 0.0)
    assert rel_diff(scalar, assembly.assemble_mass(m) @ ones) <= 1e-14
    # the element normals of a closed surface integrate to zero
    normal = assembly.assemble_normal_load(m, unit, 0.0).reshape(-1, 3)
    assert np.abs(normal.sum(axis=0)).max() <= 1e-13 * m.element_areas.sum()


@few
@given(**cases)
def test_two_column_load_equals_two_single_loads(level, seed):
    m, rng = perturbed(level, seed)
    u = rng.uniform(0.5, 1.5, m.num_nodes)
    w = rng.uniform(0.5, 1.5, m.num_nodes)
    kin = problems.TumorKinetics()
    both = assembly.assemble_scalar_load(
        m, lambda x, t, uq, wq: np.stack((kin.f1(uq, wq), kin.f2(uq, wq))),
        0.0, (u, w))
    assert both.shape == (2, m.num_nodes)
    for row, f in enumerate((kin.f1, kin.f2)):
        single = assembly.assemble_scalar_load(
            m, lambda x, t, uq, wq: f(uq, wq), 0.0, (u, w))
        assert rel_diff(both[row], single) <= 1e-14


@few
@given(scale=st.floats(0.1, 10.0), **cases)
def test_quality_and_h_max_under_rigid_motion_and_scaling(level, seed, scale):
    m, rng = perturbed(level, seed)
    q, shift = rigid_motion(rng)
    base = mesh.mesh_quality(m)
    for moved, s in ((m.with_coords(m.coords @ q.T + shift), 1.0),
                     (m.with_coords(scale * m.coords), scale)):
        quality = mesh.mesh_quality(moved)
        assert np.isclose(quality.min_angle_deg, base.min_angle_deg, rtol=1e-12, atol=0)
        assert np.isclose(quality.max_aspect_ratio, base.max_aspect_ratio, rtol=1e-12, atol=0)
        assert np.isclose(quality.min_area, s**2 * base.min_area, rtol=1e-12, atol=0)
        assert np.isclose(moved.h_max, s * m.h_max, rtol=1e-13, atol=0)
