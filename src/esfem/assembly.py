"""Surface-dependent matrices, load vectors and discrete norms.

All integrals are over the flat triangles of a ``SurfaceMesh`` with the
piecewise linear nodal basis.  Mass/load integrands use the 3-point
edge-midpoint rule, which is exact for quadratics and hence for all
products of two linear basis functions; stiffness entries only involve
constant gradients and are exact with the plain area weight.

Assembly sums element contributions in a fixed order into a precomputed
sparsity pattern, so repeated assemblies of the same mesh are bitwise
identical, and the symmetric local blocks make the global matrices
exactly symmetric entry by entry.  Every sum is a product with a 0/1
incidence matrix of the topology's record (``_topology``), on SciPy's
compiled CSR kernel: each row lists its entries in the order a bincount
over the same index would add them, so the sums are bitwise a bincount's.
Every matrix of one topology (mass, stiffness and their sums, formed
entry by entry by ``add_scaled``) is a shallow copy of the record's one
CSR template, holding its own data on the template's read-only index
arrays, so no step runs SciPy's validating constructor.  ``matvec``
forms ``matrix @ x`` on SciPy's own compiled kernels without its
dispatch.  ``factorize`` is the one factor entry point: a band Cholesky
of a matrix on a topology's own pattern, in SciPy's reverse Cuthill-McKee
order built once per topology, or SuperLU where the band does not serve;
its ``solve(rhs)`` is the one-argument contract of every linear solve.

Every load runs through one field-major kernel: an integrand returns
(k, Q) rows at the Q quadrature points, the corner values are (k, 3, T)
and ``_scatter`` sums them into (k, N) nodal rows through the corner
incidence, each node adding its entries in (i, t) order.  The normal load
and both normal couplings are three such rows, one per component of the
component-major (3, T) ``mesh.normals``, returned as their (N, 3) view, the
node-vector layout (``mesh``).
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

from .errors import DegenerateElement, FieldLengthMismatch, LinearSolveFailure, NonFiniteIntegrand
from .mesh import MIDPOINT_POINTS, SurfaceMesh, _locked, einsum_dot

# Local P1 mass block for a triangle of unit area.
_MASS_TEMPLATE = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
# Upper-triangle entries (i, j) of a symmetric local block: the rows of
# its (6, T) element entries.
_UPPER = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
# The row of entry (i, j) of a local block among them.
_UPPER_ROW = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


#: Degree-2 rule at the three edge midpoints (``MIDPOINT_POINTS``, whose
#: positions each mesh caches): weights (Q,) summing to one; integrals are
#: ``area * sum(w_q * f(x_q))``.
MIDPOINT_WEIGHTS = np.array([1.0, 1.0, 1.0]) / 3.0


def _checked_areas(mesh):
    area = mesh.element_areas
    if mesh.degenerate:
        bad = int(np.argmin(area))
        raise DegenerateElement(bad, float(area[bad]))
    return area


# A 0/1 CSR incidence matrix as the arrays SciPy's kernels take, built
# without the validating constructor.
_Incidence = namedtuple("_Incidence", "shape indptr indices data")


def _incidence(targets, columns, shape, ones):
    """0/1 CSR matrix of ``shape`` whose row r sums the entries k with
    targets[k] == r, at columns[k], in the order of k: the order in which
    ``np.bincount(targets, weights)`` adds them, so its products are
    bitwise that bincount.  Its data is a slice of the read-only ``ones``,
    the topology's one vector of 9T ones (``_topology``)."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(targets, minlength=shape[0]), out=indptr[1:])
    indices = columns[np.argsort(targets, kind="stable")].astype(np.int32)
    return _Incidence(shape, _locked(indptr), _locked(indices), ones[:targets.size])


# The assembly structures of one topology, by name (``_topology``).
_Topology = namedtuple("_Topology", "template pairs nodes corners twin")


def _topology(mesh):
    """The topology's assembly record, cached once for every surface on
    its triangles.  Its fields:

    - ``template``: the CSR matrix of the P1 pair coupling on read-only
      index arrays, its data a zero-stride view, so it pins no
      nnz-length array; its ``_band`` dict, which every copy shares and
      only copies carry, keeps the band plan of the topology's first
      factorization (``_band_plan``);
    - ``pairs``: the nnz x 6T incidence that sums the (6, T) upper
      entries of the local blocks into their CSR slots, each slot adding
      the entries of the (T, 3, 3) blocks in their flat order;
    - ``nodes``: the read-only (3, T) node at each triangle corner;
    - ``corners``: the N x 3T incidence that sums (3, T) corner values
      into their nodes, each node adding its entries in (i, t) order;
    - ``twin``: its N x T twin (the same indptr, indices % T), which sums
      one value per triangle into each of its three nodes.

    The template's index arrays and every incidence come from
    ``_incidence``, on the topology's one read-only vector of 9T ones."""
    cache = mesh._topo_cache
    if "assembly" not in cache:
        t = mesh.triangles
        n, nt = mesh.num_nodes, len(t)
        keys = np.repeat(t, 3, axis=1).ravel().astype(np.int64) * n + np.tile(t, (1, 3)).ravel()
        unique_keys, inv = np.unique(keys, return_inverse=True)
        ones = _locked(np.ones(9 * nt))
        # the keys are sorted, so the stable argsort keeps their order
        slots = _incidence(unique_keys // n, unique_keys % n, (n, n), ones)
        template = sp.csr_matrix((np.broadcast_to(0.0, unique_keys.size), slots.indices,
                                  slots.indptr), shape=(n, n))
        # the constructor keeps views of the index arrays: put the arrays
        # themselves back, so one pattern stays one object
        template.indices, template.indptr = slots.indices, slots.indptr
        template.has_sorted_indices = True
        template._band = {}
        # entry (t, i, j) of the blocks is column row(i, j) * T + t
        columns = (_UPPER_ROW.ravel() * nt + np.arange(nt)[:, None]).ravel()
        pairs = _incidence(inv, columns, (unique_keys.size, 6 * nt), ones)
        nodes = _locked(np.ascontiguousarray(t.T))
        corners = _incidence(nodes.ravel(), np.arange(3 * nt), (n, 3 * nt), ones)
        twin = corners._replace(shape=(n, nt), indices=_locked(corners.indices % np.int32(nt)))
        cache["assembly"] = _Topology(template, pairs, nodes, corners, twin)
    return cache["assembly"]


def _with_data(matrix, data):
    """Copy of the CSR ``matrix`` holding ``data``: the same index arrays
    and flags in an attribute dict of its own, without the constructor's
    validation or the generic copy protocol."""
    copied = object.__new__(type(matrix))
    copied.__dict__.update(matrix.__dict__, data=data)
    return copied


def _assemble_pairs(mesh, entries):
    """Sum the (6, T) upper entries of the symmetric local blocks, rows in
    ``_UPPER`` order, into a global CSR matrix, a copy of the topology's
    template, through the pair incidence."""
    topology = _topology(mesh)
    return _with_data(topology.template, matvec(topology.pairs, entries.ravel()))


def assemble_mass(mesh: SurfaceMesh) -> sp.csr_matrix:
    """Mass matrix M with M[j, k] = integral of phi_j phi_k."""
    area = _checked_areas(mesh)
    return _assemble_pairs(mesh, _MASS_TEMPLATE[tuple(zip(*_UPPER))][:, None] * area)


def assemble_stiffness(mesh: SurfaceMesh) -> sp.csr_matrix:
    """Stiffness matrix A with A[j, k] = integral of grad phi_j . grad phi_k.

    Constants lie in the kernel: A @ 1 = 0 up to roundoff.
    """
    area = _checked_areas(mesh)
    # The 6 distinct entries of each symmetric local block, summed in
    # einsum's order.
    g = mesh.basis_gradients
    entries = np.empty((6, len(area)))
    for row, (i, j) in zip(entries, _UPPER):
        np.multiply(einsum_dot(g[:, i], g[:, j]), area, out=row)
    return _assemble_pairs(mesh, entries)


def surface_matrices(mesh: SurfaceMesh):
    """The (mass, stiffness) pair of ``mesh``, assembled on the first call
    and kept on that surface, read-only, for every later one.  Assembling
    releases the surface's ``mesh._ASSEMBLY_GEOMETRY`` arrays, which a
    step reads only to check quality and to assemble."""
    if mesh._matrices is None:
        pair = assemble_mass(mesh), assemble_stiffness(mesh)
        for matrix in pair:  # index arrays locked in the topology's record (_topology)
            _locked(matrix.data)
        mesh._matrices = pair
        mesh._release_assembly_geometry()
    return mesh._matrices


def add_scaled(a, c, b) -> sp.csr_matrix:
    """a + c * b for two matrices on one topology's own pattern (mass,
    stiffness and their sums), summed entry by entry without a sparse add:
    bitwise equal to scipy's ``a + c * b``, as a shallow copy of a holding
    the sum.  The pattern is recognized by the identity of its index
    arrays, which every matrix built here shares; ValueError otherwise."""
    if not (a.indices is b.indices and a.indptr is b.indptr):
        raise ValueError("add_scaled needs two matrices on one topology's pattern")
    return _with_data(a, a.data + c * b.data)


def matvec(matrix, x) -> np.ndarray:
    """``matrix @ x``, bitwise, for a float CSR matrix and a float x of
    shape (N,), (N, 1) or (N, k), without SciPy's dispatch: the compiled
    kernel its ``@`` ends in, csr_matvec for one column and csr_matvecs
    for k, each summing into a fresh zeroed array."""
    m, n = matrix.shape
    if x.shape[0] != n:
        raise ValueError(f"matvec: {x.shape[0]} rows for a matrix of {n} columns")
    arrays = matrix.indptr, matrix.indices, matrix.data
    if x.ndim == 2 and x.shape[1] > 1:
        out = np.zeros((m, x.shape[1]))
        csr_matvecs(m, n, x.shape[1], *arrays, x.ravel(), out.ravel())
        return out
    out = np.zeros(m)
    csr_matvec(m, n, *arrays, x.ravel(), out)
    return out.reshape(m, *x.shape[1:])


# The band factor holds at most this many entries (8 MiB): icosphere levels
# up to 4.  Its cost grows like N^1.5, so SuperLU's sparse LU factors the
# larger systems; the measured crossover is in ROADMAP.md.
BAND_MAX_ENTRIES = 2**20

# The band layout of one topology (``_band_plan``): its order ``perm``
# (new -> old) and inverse ``pos``, the band's half-width, each slot's
# flat index in the Fortran-ordered (width + 1, N) upper band, and the
# slot of each slot's transpose.
_BandPlan = namedtuple("_BandPlan", "perm pos width index mirror")


def _band_plan(matrix):
    """The band layout of a copy of its topology's template (``_topology``),
    built on the topology's first factorization and kept in the ``_band``
    dict that every copy shares; None for any other matrix, or where the
    band in SciPy's reverse Cuthill-McKee order holds more than
    BAND_MAX_ENTRIES entries.  The template's pattern is canonical and
    structurally symmetric, so every slot has a mirror."""
    cache = matrix.__dict__.get("_band")
    if cache is None:
        return None
    if "plan" not in cache:
        # imported here: a run that factors nothing never loads csgraph
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        indptr, indices = matrix.indptr, matrix.indices
        n = len(indptr) - 1
        perm = reverse_cuthill_mckee(matrix, symmetric_mode=True).astype(np.int64)
        pos = np.empty_like(perm)
        pos[perm] = np.arange(n)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        lo, hi = np.minimum(pos[rows], pos[indices]), np.maximum(pos[rows], pos[indices])
        width = int((hi - lo).max(initial=0))
        cache["plan"] = None
        if (width + 1) * n <= BAND_MAX_ENTRIES:
            # listed by column, and by row within one, the symmetric pattern's
            # slots run through the transposes of its slots in CSR order
            mirror = np.argsort(indices, kind="stable")
            # entry (lo, hi), lo <= hi, of the reordered matrix is band[width + lo - hi, hi]
            cache["plan"] = _BandPlan(perm, pos, width, width + lo + width * hi, mirror)
    return cache["plan"]


class BandCholesky:
    """Cholesky factor of a symmetric positive definite matrix in the RCM
    band of its pattern (``_band_plan``), from LAPACK's ``dpbtrf`` on the
    upper band; ``solve(rhs)`` takes (N,) or (N, k) right-hand sides, as
    SuperLU's does, and returns the (N, k) solution in Fortran order."""

    def __init__(self, plan, band):
        self.plan, self.band = plan, band

    def solve(self, rhs):
        # gathers along the last axis of the transpose: the (N, k) columns
        # reach dpbtrs in the Fortran order it solves in place
        b = np.take(np.asarray(rhs, dtype=float).T, self.plan.perm, axis=-1).T
        y, _ = dpbtrs(self.band, b, lower=0, overwrite_b=1)
        return np.take(y.T, self.plan.pos, axis=-1).T


def factorize(matrix):
    """Factor of a sparse system with ``solve(rhs)`` for (N,) or (N, k)
    right-hand sides: a BandCholesky when the matrix is a copy of its
    topology's template with a small enough band (``_band_plan``), its
    values are symmetric and ``dpbtrf`` finds it positive definite;
    SuperLU's LU otherwise.  LinearSolveFailure if SuperLU refuses it (an
    exactly singular matrix)."""
    plan = _band_plan(matrix)
    if plan is not None and np.array_equal(matrix.data, matrix.data[plan.mirror]):
        band = np.zeros((plan.width + 1) * len(plan.perm))
        band[plan.index] = matrix.data  # a slot and its mirror hold one value
        band, info = dpbtrf(band.reshape(plan.width + 1, -1, order="F"), lower=0,
                            overwrite_ab=1)
        if info == 0:
            return BandCholesky(plan, band)
    try:
        return spla.splu(matrix.tocsc())
    except RuntimeError as err:  # "Factor is exactly singular"
        raise LinearSolveFailure(f"system not factorable: {err}", float("inf")) from err


def _sum_rows(incidence, rows):
    """(k, N) products of the incidence with each of k contiguous rows, on
    csr_matvec, one row at a time into one zeroed array."""
    out = np.zeros((len(rows), incidence.shape[0]))
    for row, sums in zip(rows, out):
        csr_matvec(*incidence.shape, incidence.indptr, incidence.indices, incidence.data, row, sums)
    return out


def _scatter(mesh, corner_values):
    """Sum (k, 3, T) per-corner values into (k, N) nodal rows through the
    corner incidence; each node sums its entries in (i, t) order."""
    return _sum_rows(_topology(mesh).corners, corner_values.reshape(len(corner_values), -1))


def assemble_normal_coupling(mesh: SurfaceMesh, u, mode: str) -> np.ndarray:
    """Normal coupling (N, 3) driving the velocity law with the field u.

    ``mode`` is StepperConfig's normal_coupling.  ``nodal`` puts the nodal
    coefficient u_j inside the integral: entry (j, l) is u_j * integral of
    (normal)_l phi_j.  ``interpolated`` integrates the interpolant u_h
    instead; the two differ at O(h^2).
    """
    u = np.asarray(u, dtype=float)
    n = mesh.num_nodes
    if u.size != n:
        raise FieldLengthMismatch(f"field has {u.size} entries, expected {n}")
    area = _checked_areas(mesh)
    normal = mesh.normals
    if mode == "nodal":
        # integral of phi_j over one triangle is area/3
        out = _sum_rows(_topology(mesh).twin, normal * (area / 3.0)) * u
    elif mode == "interpolated":
        coeff = (_MASS_TEMPLATE @ u[_topology(mesh).nodes]) * area
        out = _scatter(mesh, normal[:, None] * coeff)
    else:
        raise ValueError(f"unknown normal coupling mode: {mode!r}")
    return out.T


def _corner_loads(mesh, integrand, time, fields):
    """Midpoint-rule integrals of integrand * phi_i per corner, (k, 3, T)
    for an integrand of k rows.  The 3T quadrature points go through one
    integrand call, midpoint-major, without numpy warnings: a non-finite
    result raises NonFiniteIntegrand; corner i collects midpoints i and i-1."""
    fields = [np.asarray(f, dtype=float) for f in fields]
    for f in fields:
        if f.size != mesh.num_nodes:
            raise FieldLengthMismatch(f"field has {f.size} entries, expected {mesh.num_nodes}")
    area = _checked_areas(mesh)
    nodes = _topology(mesh).nodes
    vals = [(MIDPOINT_POINTS @ f[nodes]).ravel() for f in fields]
    with np.errstate(over="ignore", invalid="ignore"):
        f_vals = np.asarray(integrand(mesh.midpoint_positions, time, *vals), dtype=float)
    if not np.isfinite(f_vals).all():
        raise NonFiniteIntegrand(f"integrand non-finite at t={time}")
    weighted = f_vals * (MIDPOINT_WEIGHTS[:, None] * area).ravel()
    return MIDPOINT_POINTS.T @ weighted.reshape(-1, 3, len(area))


def assemble_scalar_load(mesh: SurfaceMesh, integrand, time: float, fields=()) -> np.ndarray:
    """Load rows (k, N) with entries integral of integrand_j * phi_n.

    ``integrand(x, t, *values)`` must be vectorized: it receives the
    quadrature-point positions (Q, 3), the time and the interpolated
    values (Q,) of each of ``fields``, in their order, and returns (Q,)
    values, read as one row, or (k, Q) for k integrands at once.
    """
    return _scatter(mesh, _corner_loads(mesh, integrand, time, fields))


def assemble_normal_load(mesh: SurfaceMesh, integrand, time: float, fields=()) -> np.ndarray:
    """Vector load (N, 3) with the element normal multiplying the integrand,
    which takes ``assemble_scalar_load``'s arguments and returns (Q,).

    Entry (j, l) is the integral of integrand * (normal)_l * phi_j.
    """
    corner = _corner_loads(mesh, integrand, time, fields)
    return _scatter(mesh, mesh.normals[:, None] * corner).T


def discrete_norms(M, A, w) -> tuple[float, float]:
    """(|w|_M, |w|_A) of a node field (N,) or node vector (N, k); the
    columns of an (N, k) one are measured together, their quadratic forms
    summed."""
    w = np.asarray(w, dtype=float)
    if w.shape[0] != M.shape[0]:
        raise FieldLengthMismatch(f"vector has {w.shape[0]} rows, expected N={M.shape[0]}")
    cols = w[:, None] if w.ndim == 1 else w
    m2 = float(np.einsum("ij,ij->", cols, matvec(M, cols)))
    a2 = float(np.einsum("ij,ij->", cols, matvec(A, cols)))
    return np.sqrt(max(m2, 0.0)), np.sqrt(max(a2, 0.0))


# ---------------------------------------------------------------------------
# Bilinear forms over one surface (used by the lemma checks)

def tangential_divergence(mesh: SurfaceMesh, e) -> np.ndarray:
    """Elementwise-constant tangential divergence of the P1 field e (N, 3), on
    (T, 3, 3) gradients: einsum's summation order follows their layout."""
    e = np.asarray(e, dtype=float)
    return np.einsum("tik,tik->t", np.ascontiguousarray(mesh.basis_gradients.T), e[mesh.triangles])


def mass_divergence_form(mesh: SurfaceMesh, velocity, w, z) -> float:
    """integral of w_h z_h (div velocity_h), velocity (N, 3): the
    mass-transport form.

    Exact for P1 data (quadratic integrand times a constant).
    """
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    div = tangential_divergence(mesh, velocity)
    t = mesh.triangles
    wz = np.einsum("ti,ij,tj->t", w[t], _MASS_TEMPLATE, z[t])
    return float(np.sum(mesh.element_areas * div * wz))


def stiffness_difference_form(mesh: SurfaceMesh, e, w, z) -> float:
    """integral of grad w . (trace(E) I - E - E^T) grad z with E = grad e_h,
    for e (N, 3)."""
    e = np.asarray(e, dtype=float)
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    g = np.ascontiguousarray(mesh.basis_gradients.T)
    t = mesh.triangles
    E = np.einsum("tik,til->tkl", g, e[t])
    D = np.trace(E, axis1=1, axis2=2)[:, None, None] * np.eye(3) - (E + E.transpose(0, 2, 1))
    gw = np.einsum("tik,ti->tk", g, w[t])
    gz = np.einsum("tik,ti->tk", g, z[t])
    return float(np.sum(mesh.element_areas * np.einsum("tk,tkl,tl->t", gw, D, gz)))


def write_coordinate_matrix(matrix, path) -> None:
    """Dump a sparse matrix as '<row> <col> <value>' lines (0-based)."""
    coo = sp.csr_matrix(matrix).sorted_indices().tocoo()
    with open(path, "w") as f:
        for i, j, v in zip(coo.row, coo.col, coo.data):
            f.write("%d %d %.17g\n" % (i, j, v))
