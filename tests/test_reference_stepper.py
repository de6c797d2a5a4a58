"""The example1 step, under the regularized and the dynamic velocity law,
and the two-species tumor step, written out once more as a textbook P1
method and held against ``stepper.run``.

Nothing here comes from ``mesh.py`` or ``assembly.py``: the geometry is
``np.cross`` per triangle, M and A are summed from COO triplets, the loads
use the edge-midpoint rule and every system goes to ``spsolve``.  So the
whole step, the layout of the element geometry included, is checked
against code that shares nothing with it: to rounding under the direct
solver, to the CG tolerances under cg.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from esfem import stepper
from esfem.experiments import step_size_for
from esfem.mesh import generate_icosphere
from esfem.problems import TumorKinetics, VelocityLaw, example1_problem, tumor_problem


def geometry(x, tris):
    """Corners (T, 3, 3), areas (T,), unit normals (T, 3) and basis
    gradients (T, 3, 3), row i the gradient of the basis at corner i:
    n x (opposite edge) / (2 area)."""
    p = x[tris]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    two_area = np.linalg.norm(cross, axis=1)
    normal = cross / two_area[:, None]
    opposite = np.roll(p, -2, axis=1) - np.roll(p, -1, axis=1)
    grads = np.cross(normal[:, None], opposite) / two_area[:, None, None]
    return p, two_area / 2, normal, grads


def matrices(x, tris):
    """Mass and stiffness from the local blocks area (2, 1, 1)/12 and
    area grad phi_i . grad phi_j."""
    _, area, _, grads = geometry(x, tris)
    n = len(x)
    rows, cols = np.repeat(tris, 3, axis=1).ravel(), np.tile(tris, 3).ravel()
    blocks = [area[:, None, None] * (np.ones((3, 3)) + np.eye(3)) / 12,
              area[:, None, None] * np.einsum("tik,tjk->tij", grads, grads)]
    return [sp.coo_matrix((b.ravel(), (rows, cols)), shape=(n, n)).tocsc() for b in blocks]


def corner_integrals(x, tris, integrand, t, *fields):
    """Edge-midpoint rule for the integral of integrand * phi_i over each
    triangle, (T, 3): midpoint q, on edge q -> q+1, has weight area/3, and
    phi_i is 1/2 there when corner i ends that edge."""
    p, area, _, _ = geometry(x, tris)
    mids = 0.5 * (p + np.roll(p, -1, axis=1))
    values = [0.5 * (f[tris] + np.roll(f[tris], -1, axis=1)).ravel() for f in fields]
    g = integrand(mids.reshape(-1, 3), t, *values).reshape(-1, 3)
    return area[:, None] / 3 * 0.5 * (g + np.roll(g, 1, axis=1))


def scatter(tris, corner, n):
    return np.bincount(tris.ravel(), weights=corner.ravel(), minlength=n)


def normal_scatter(x, tris, corner):
    """(N, 3): column l sums corner * (normal)_l into the nodes."""
    normal = geometry(x, tris)[2]
    return np.stack([scatter(tris, corner * normal[:, l, None], len(x)) for l in range(3)], axis=1)


def reference_step(spec, x, fields, v, t, tau, tris):
    """The velocity law on the old surface, l the nodal normal coupling
    delta u, u the first of ``fields``, plus the g load at t + tau when the
    spec has one: regularized,
    (M + alpha A + tau beta A) x_new = (M + alpha A) x + tau l and
    v_new = (x_new - x) / tau; dynamic, (M + tau alpha A) v_new = M v + tau l
    and x_new = x + tau v_new.  Then each field f_i solves
    (M_new + tau d_i A_new) f_new = M f_i + tau s_i on the new surface, s_i
    the load of row i of the source with the old fields."""
    law = spec.law
    mass, stiff = matrices(x, tris)
    area = geometry(x, tris)[1]
    load = (law.delta * normal_scatter(x, tris, np.repeat(area[:, None] / 3, 3, axis=1))
            * fields[0][:, None])
    if spec.velocity_forcing is not None:
        load = load + normal_scatter(
            x, tris, corner_integrals(x, tris, spec.velocity_forcing, t + tau))
    if law.dynamic:
        v_new = spla.spsolve(mass + tau * law.alpha * stiff, mass @ v + tau * load)
        x_new = x + tau * v_new
    else:
        k = mass + law.alpha * stiff
        x_new = spla.spsolve(k + tau * law.beta * stiff, k @ x + tau * load)
        v_new = (x_new - x) / tau
    mass_new, stiff_new = matrices(x_new, tris)
    new = []
    for i, (f, d) in enumerate(zip(fields, spec.diffusion)):
        def row(*args, i=i):
            return np.reshape(spec.source(*args), (len(fields), -1))[i]

        s = scatter(tris, corner_integrals(x_new, tris, row, t + tau, *fields), len(x))
        new.append(spla.spsolve(mass_new + tau * d * stiff_new, mass @ f + tau * s))
    return x_new, new, v_new


def assert_run_matches_the_textbook_step(spec, start, tau, steps, solver, tols):
    """Final x, the fields (u, then w if any) and v of ``stepper.run`` from
    ``start`` against ``steps`` reference steps, each to its relative
    max-norm tolerance."""
    config = stepper.StepperConfig(tau, steps * tau, solver=solver)
    final = stepper.run(spec, start.mesh, config, start=start)
    fields = [f for f in (start.u, start.w) if f is not None]
    x, v, t = start.mesh.coords, start.v, 0.0
    for _ in range(steps):
        x, fields, v = reference_step(spec, x, fields, v, t, tau, start.mesh.triangles)
        t += tau
    finals = [final.x, *(f for f in (final.u, final.w) if f is not None), final.v]
    assert len(finals) == len(tols)
    for actual, expected, tol in zip(finals, (x, *fields, v), tols):
        assert actual.shape == expected.shape
        assert np.abs(actual - expected).max() <= tol * np.abs(expected).max()


def assert_example1_matches_the_textbook_step(spec, level, steps, solver, tols):
    """example1 from rest, at the studies' step size."""
    m0 = generate_icosphere(level, 1.0)
    assert_run_matches_the_textbook_step(spec, stepper.initial_state(spec, m0),
                                         step_size_for(m0, 1.0), steps, solver, tols)


@pytest.mark.parametrize("solver, tols", [("cholesky", (1e-13, 1e-13, 1e-10)),
                                          ("cg", (1e-11, 1e-11, 1e-8))])
@pytest.mark.parametrize("level, steps", [(1, 2), (2, 5)])
def test_run_matches_the_textbook_step(level, steps, solver, tols):
    assert_example1_matches_the_textbook_step(example1_problem(), level, steps, solver, tols)


@pytest.mark.parametrize("solver, tols", [("cholesky", (1e-13, 1e-13, 1e-13)),
                                          ("cg", (1e-12, 1e-12, 1e-10))])
@pytest.mark.parametrize("level, steps", [(1, 2), (2, 5)])
def test_run_matches_the_textbook_dynamic_step(level, steps, solver, tols):
    spec = dataclasses.replace(example1_problem(), law=VelocityLaw(1.0, 0.0, 0.4, dynamic=True))
    assert_example1_matches_the_textbook_step(spec, level, steps, solver, tols)


# tolerances for x, u, w and v: v carries the 1/tau quotient of x_new - x
@pytest.mark.parametrize("solver, tols", [("cholesky", (1e-13, 1e-12, 1e-12, 1e-9)),
                                          ("cg", (1e-10, 1e-10, 1e-10, 2e-6))])
@pytest.mark.parametrize("level, steps", [(1, 2), (2, 5)])
def test_run_matches_the_textbook_tumor_step(level, steps, solver, tols):
    # the steady state plus seeded uniform [0, 0.01] noise, not relaxed
    spec, m0 = tumor_problem(0.0, 0.01, 0.01), generate_icosphere(level, 1.0)
    rng = np.random.Generator(np.random.Philox(level))
    u0, w0 = (s + rng.uniform(0.0, 0.01, m0.num_nodes) for s in TumorKinetics().steady_state())
    start = stepper.initial_state(spec, m0, u0=u0, w0=w0)
    assert_run_matches_the_textbook_step(spec, start, 1e-3, steps, solver, tols)
