"""Property tests of the assembled matrices, loads and mesh quality on
randomly perturbed level-1/2 icospheres, and of whole runs under node
relabelling and rotation."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esfem import assembly, experiments, mesh, problems, stepper

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
    normal = assembly.assemble_normal_load(m, unit, 0.0)
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


# Whole runs are equivariant: relabelling the nodes, shuffling the
# triangles and rotating each triangle's corners, or rotating the surface,
# moves every output with it up to rounding.  The tolerances are 20 times
# the worst agreement over 30 seeds per case (x, u, w at most 2.3e-14
# relative; v, through the 1/tau quotient (x_new - x)/tau, 6.7e-13 on
# example1 and 9.2e-11 on the tumor run); an index or layout mix-up moves
# the outputs by O(1).
FIELD_TOL = 5e-13
V_TOL = {"example1": 2e-11, "tumor": 2e-9}


def relabelled(m, rng):
    """m with its nodes permuted, its triangles shuffled and each
    triangle's corners rotated cyclically, orientation kept; returns the
    mesh and perm, node i of the new mesh being node perm[i] of m."""
    perm = rng.permutation(m.num_nodes)
    triangles = np.argsort(perm)[m.triangles][rng.permutation(m.num_triangles)]
    shift = rng.integers(0, 3, (len(triangles), 1))
    triangles = np.take_along_axis(triangles, (np.arange(3) + shift) % 3, axis=1)
    return mesh.SurfaceMesh(m.coords[perm], triangles), perm


def assert_equivariant(moved, base, perm, q, v_tol):
    """moved's outputs are base's, rotated by q and relabelled by perm."""
    assert rel_diff(moved.mesh.coords, (base.mesh.coords @ q.T)[perm]) <= FIELD_TOL
    assert rel_diff(moved.u, base.u[perm]) <= FIELD_TOL
    if base.w is not None:
        assert rel_diff(moved.w, base.w[perm]) <= FIELD_TOL
    assert rel_diff(moved.v, (base.v @ q.T)[perm]) <= v_tol


def example1_run(level, solver, m0):
    """example1 on m0 to t = 0.05 at the step size of the level's
    icosphere: 2 steps at level 1, 5 at level 2."""
    sphere = mesh.generate_icosphere(level, 1.0)
    config = stepper.StepperConfig(experiments.step_size_for(sphere, 0.05), 0.05, solver=solver)
    return stepper.run(problems.example1_problem(), m0, config)


@pytest.mark.parametrize("solver", stepper.StepperConfig.CHOICES["solver"])
@pytest.mark.parametrize("level", [1, 2])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_example1_run_is_equivariant_under_relabelling(level, solver, seed):
    m0 = mesh.generate_icosphere(level, 1.0)
    m1, perm = relabelled(m0, np.random.Generator(np.random.Philox(seed)))
    assert_equivariant(example1_run(level, solver, m1), example1_run(level, solver, m0),
                       perm, np.eye(3), V_TOL["example1"])


TUMOR_SPEC = problems.tumor_problem(0.0, 0.01, 0.01)
TUMOR_CONFIG = stepper.StepperConfig(1e-3, 0.05)


@functools.lru_cache(maxsize=None)
def tumor_start():
    """The seeded level-2 start after 200 pre-relaxation steps, and the
    run of 50 moving steps from it."""
    m0 = mesh.generate_icosphere(2, 1.0)
    u0, w0 = problems.tumor_initial_data(m0, problems.TumorKinetics(), 7, pre_time=0.2,
                                         record=stepper.RunRecord())
    start = stepper.initial_state(TUMOR_SPEC, m0, u0=u0, w0=w0)
    return start, stepper.run(TUMOR_SPEC, m0, TUMOR_CONFIG, start=start)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_tumor_run_is_equivariant_under_rotation_and_relabelling(seed):
    start, base = tumor_start()
    rng = np.random.Generator(np.random.Philox(seed))
    q, _ = rigid_motion(rng)
    m1, perm = relabelled(start.mesh.with_coords(start.mesh.coords @ q.T), rng)
    # the seeded perturbation is drawn per node index, so the fields are
    # passed in, relabelled, rather than drawn again on m1
    moved_start = stepper.initial_state(TUMOR_SPEC, m1, u0=start.u[perm], w0=start.w[perm])
    moved = stepper.run(TUMOR_SPEC, m1, TUMOR_CONFIG, start=moved_start)
    assert_equivariant(moved, base, perm, q, V_TOL["tumor"])
