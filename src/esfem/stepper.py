"""Linearly implicit Euler stepping of the coupled node/field system.

One step advances, in order: (1) take the mass and stiffness of the
current surface, which keeps them (assembly.surface_matrices), (2) solve
the velocity law of spec.law for the new node positions (matrices frozen
at the old surface, the mean curvature term implicit), (3) assemble on
the new surface, (4) advance the scalar field(s) with the mass-transport
term treated exactly and the nonlinearity evaluated at the old field.
Surface first, then PDE on the new surface, keeps the d/dt(M u) update
telescoping exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.blas import daxpy, ddot, dscal
from scipy.sparse._sparsetools import csr_matvec

from . import assembly, problems
from .errors import LinearSolveFailure, MeshDegenerated, NonFiniteState
from .mesh import SurfaceMesh, mesh_quality

DIRECT = "cholesky"
CG = "cg"


@dataclass(frozen=True)
class SystemState:
    """Snapshot of the coupled system at one time.

    u is the scalar field (N,), v the nodal velocity, a C-contiguous (N, 3)
    array, w the optional second species; the mesh carries the topology and
    the node positions.
    """

    t: float
    u: np.ndarray
    v: np.ndarray
    mesh: SurfaceMesh
    w: Optional[np.ndarray] = None

    @property
    def x(self) -> np.ndarray:
        """The node positions (N, 3): mesh.coords, read-only."""
        return self.mesh.coords


@dataclass(frozen=True)
class StepperConfig:
    """Step size, horizon and solve options of one run.

    ``solver`` chooses how a velocity system whose K holds a stiffness part
    (K = M + alpha A, alpha > 0) is solved.  A run's first such system is
    solved from scratch: ``cholesky`` factors it and solves exactly, ``cg``
    runs Jacobi-CG from zero to CG_TOL.  Every later one runs _pcg from the
    extrapolated guess to LAG_TOL, and the option picks only its
    preconditioner: the factor that ``cholesky`` keeps for the run
    (LaggedFactor), or Jacobi's under ``cg``.  Every other system, the
    field systems and the velocity system where K = M, is mass-dominated
    and runs the same Jacobi-PCG under both, so those runs end bitwise
    equal whichever solver is chosen.

    ``CHOICES`` lists the allowed values of each solve option (solver,
    normal_coupling); the command line and the experiment drivers take the
    options, their defaults and their values from here.
    """

    tau: float
    t_end: float
    solver: str = DIRECT
    normal_coupling: str = "nodal"

    CHOICES = {"solver": (DIRECT, CG), "normal_coupling": ("nodal", "interpolated")}

    def __post_init__(self):
        if not 0.0 < self.tau <= self.t_end:
            raise ValueError("need 0 < tau <= t_end")
        for name, allowed in self.CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)}, "
                                 f"got {getattr(self, name)!r}")


# Relative residual and iteration cap of the cg solver's velocity solve of
# a run's first system with alpha > 0, from zero: started from its guess,
# example1's level-4 v error moved past the 1e-8 that the two solvers are
# held to (CHANGES.md).  Later ones run to LAG_TOL from the extrapolated
# guess; every Jacobi-PCG solve shares the cap.
CG_TOL = 1e-12
CG_MAX_ITER = 10000
# A step whose surface has a triangle angle below this many degrees raises
# MeshDegenerated.
ABORT_MIN_ANGLE = 5.0

# A lagged velocity solve refactors when one of its columns has not
# converged within this many PCG iterations: a stale factor then costs at
# most about two factorizations' time (the measured counts are in
# CHANGES.md).
LAG_MAX_ITER = 30
# Relative residual of a field solve and of every velocity solve with
# alpha > 0 after a run's first, under either solver: the held factor
# moves example1's error norms far less than factoring in a different
# ordering does.  Each starts from a guess of the solution, so the
# rounding scales with that start's residual and a still surface stays
# still to criterion 5's 1e-12 (CHANGES.md).
LAG_TOL = 1e-14
# Relative residual of the Jacobi-PCG velocity solve of a system with K = M:
# v = (x_new - x) / tau carries x_new's residual times 1/tau, and at LAG_TOL
# the level-2 tumor v missed the textbook step's 1e-9 (CHANGES.md).
MASS_TOL = 1e-15


class LaggedFactor:
    """What one run keeps across its steps: the fields of the step before
    the last, from which every solve extrapolates its start
    (``previous``), and under the cholesky solver the factor of the
    velocity system where K = M + alpha A with alpha > 0
    (assembly.factorize).

    The matrices of the linearly implicit scheme change only O(tau) per
    step, so an old factor is a close preconditioner for the current one.
    The first system is factored where its solve is built, and that solve
    is the factor's own, exact; later ones run _pcg on each column of the
    right-hand side from the guess, preconditioned by the held factor.
    A column that has not converged within LAG_MAX_ITER iterations, or
    turns non-finite, drops the factor, which is refactored to solve every
    column exactly.  A singular matrix raises LinearSolveFailure.
    """

    def __init__(self):
        self._lu = None
        # (the state stepped to last, the (v, u, w) it came from)
        self._last = None, (None, None, None)

    @property
    def first(self):
        """No step has been kept yet: the run's first system is to come."""
        return self._last[0] is None

    def previous(self, state):
        """(v, u, w) of the state that the last step left to reach
        ``state``; three Nones where ``state`` is not that step's result."""
        return self._last[1] if self._last[0] is state else (None, None, None)

    def stepped(self, old, new):
        """Keep ``old``'s fields for the step from ``new``."""
        self._last = new, (old.v, old.u, old.w)

    def solver(self, matrix, start):
        """solve(rhs) for (N,) or (N, k) right-hand sides of ``matrix``;
        ``start``, shaped like rhs, is the guess of the solution."""
        if self._lu is None:
            return self._refactor(matrix).solve

        def solve(rhs):
            # self._lu is read as the solve runs, so after a refactor it is
            # this matrix's own factor
            try:
                return _pcg_solver(matrix, LAG_TOL, start, lambda r, out: self._lu.solve(r),
                                   LAG_MAX_ITER)(rhs)
            except LinearSolveFailure:
                return self._refactor(matrix).solve(rhs)

        return solve

    def _refactor(self, matrix):
        self._lu = None  # free the stale factor before building its replacement
        self._lu = assembly.factorize(matrix)
        return self._lu


# OpenBLAS splits a ddot of more than 10,000 entries across its threads,
# so that its rounding follows the thread count; _pcg sums a longer dot
# product over chunks of this many entries, in order.
DOT_CHUNK = 8192


def _chunked_ddot(x, y):
    """ddot(x, y) as the in-order sum over chunks of DOT_CHUNK entries: the
    same bits under every BLAS thread count."""
    total = 0.0
    for i in range(0, len(x), DOT_CHUNK):
        total += ddot(x[i:i + DOT_CHUNK], y[i:i + DOT_CHUNK])
    return total


def _pcg(matrix, precondition, b, x, rtol, max_iter):
    """Preconditioned CG on one contiguous column b from x to
    ||r|| < rtol ||b||; returns (x, iterations).  ``precondition(r,
    out=z)`` returns the preconditioned residual, written into z or fresh.

    The iteration is SciPy 1.17's ``scipy.sparse.linalg.cg`` with
    ``atol=0``, each vector operation one BLAS level-1 call: ``ddot`` for
    the dot products, ``dscal`` then ``daxpy`` for p = z + beta p, and
    ``daxpy`` for x += alpha p and r -= alpha q.  Those two updates are
    fused multiply-adds, rounded once where ``cg`` rounds alpha p first,
    so the results agree with ``cg``'s to rounding, in as many iterations.
    A column of more than DOT_CHUNK entries takes its dot products by
    _chunked_ddot, so its bits do not depend on the BLAS thread count.
    ``daxpy`` updates a contiguous float64 y in place and a copy of any
    other, so each update rebinds to its result: x is the start updated in
    place when it is contiguous.  A zero b returns b.  Each product
    q = matrix @ p calls the compiled CSR kernel that ``matrix @ p`` ends
    in, summing into one zeroed buffer, without the sparse dispatch and its
    fresh array.  A finite b whose norm lies outside 2^-500..2^500, where
    its squares and r.z would over- or underflow, is solved scaled by a
    power of two, with its start: every operation carries such a scale
    exactly, so the iterations and the bits are those of the unscaled
    solve wherever that one neither overflows nor underflows.  Raises
    LinearSolveFailure in the iteration where rho or alpha first turns
    non-finite (a NaN or infinite b, start or matrix entry), and after
    max_iter iterations, with the residual of the column it solved (a
    scaled one's, scaled).
    """
    dot = ddot if len(b) <= DOT_CHUNK else _chunked_ddot
    b_norm = math.sqrt(dot(b, b))
    if not 2.0**-500 < b_norm < 2.0**500 and b.any() and np.isfinite(b).all():
        exponent = int(np.frexp(np.abs(b).max())[1])
        x, iterations = _pcg(matrix, precondition, np.ldexp(b, -exponent),
                             np.ldexp(x, -exponent), rtol, max_iter)
        with np.errstate(over="ignore"):  # an infinite x is the step's non-finite state
            return np.ldexp(x, exponent), iterations
    if b_norm == 0.0:
        return b, 0
    tol = rtol * b_norm
    r = b - assembly.matvec(matrix, x) if x.any() else b.copy()
    z, q = np.empty_like(b), np.empty_like(b)
    kernel_args = (*matrix.shape, matrix.indptr, matrix.indices, matrix.data)
    p, rho_prev = None, None
    for iteration in range(max_iter):
        if math.sqrt(dot(r, r)) < tol:
            return x, iteration
        z = precondition(r, out=z)
        rho = dot(r, z)
        p = z.copy() if p is None else daxpy(z, dscal(rho / rho_prev, p))
        q.fill(0.0)
        csr_matvec(*kernel_args, p, q)
        alpha = rho / dot(p, q)
        if not math.isfinite(alpha):  # a non-finite rho makes alpha so too
            break
        x = daxpy(p, x, a=alpha)
        r = daxpy(q, r, a=-alpha)
        rho_prev = rho
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm(matrix @ x - b))
    raise LinearSolveFailure("conjugate gradient did not converge", residual)


def _pcg_solver(matrix, rtol, x0, precondition=None, max_iter=None):
    """solve(rhs) for the CSR ``matrix`` by _pcg per column of the (N,) or
    (N, k) array rhs to relative residual ``rtol``, from ``x0``, shaped
    like rhs (all zeros to start from zero), within ``max_iter``
    iterations, CG_MAX_ITER where None; ``precondition`` is Jacobi's,
    1 / diag(matrix), where None."""
    if precondition is None:
        precondition = functools.partial(np.multiply, 1.0 / matrix.diagonal())

    def solve(rhs):
        cols = rhs.reshape(rhs.shape[0], -1)
        starts = np.reshape(x0, cols.shape)
        out = np.empty_like(cols)
        for j in range(cols.shape[1]):
            out[:, j], _ = _pcg(matrix, precondition, np.ascontiguousarray(cols[:, j]),
                                np.array(starts[:, j]), rtol, max_iter or CG_MAX_ITER)
        return out.reshape(rhs.shape)

    return solve


def make_solver(matrix, config: StepperConfig, factor: Optional[LaggedFactor], guess):
    """solve(rhs) for the velocity system and (N,) or (N, k) right-hand
    sides; ``guess``, shaped like rhs, is a guess of the solution.

    ``factor`` None marks a system with K = M, which c = O(h^2) keeps as
    mass-dominated as the field systems: under either solver it is solved
    as they are, by Jacobi-CG from the guess, to MASS_TOL, with no factor.
    Otherwise ``factor`` is the run's LaggedFactor.  The run's first
    system is solved from scratch: the direct solver factors it and solves
    exactly, the cg solver runs Jacobi-CG from zero to CG_TOL.  Every later
    one runs _pcg from the guess to LAG_TOL, preconditioned by the held
    factor (LaggedFactor.solver) or, under cg, by Jacobi's within
    CG_MAX_ITER.
    """
    if factor is None:
        return _pcg_solver(matrix, MASS_TOL, guess)
    if config.solver == DIRECT:
        return factor.solver(matrix, guess)
    if factor.first:
        return _pcg_solver(matrix, CG_TOL, np.zeros_like(guess))
    return _pcg_solver(matrix, LAG_TOL, guess)


def _extrapolated(current, previous):
    """2 current - previous: the first-order start ``current`` plus the
    change of the step before; ``current`` itself where previous is None."""
    return current if previous is None else 2.0 * current - previous


def _advance_fields(spec, state, mesh_new, config, previous):
    """PDE step of every field on the new surface; returns (u_new, w_new),
    w_new None for a single field.

    tau ~ h^2 keeps each field system M + tau d A (d from spec.diffusion)
    mass-dominated, so under either solver it is solved by Jacobi-CG to
    LAG_TOL, started from the old field extrapolated by ``previous``, the
    fields (u, w) of the state before it, None where there is none
    (_extrapolated).
    """
    tau = config.tau
    mass_new, stiff_new = assembly.surface_matrices(mesh_new)
    fields = (state.u, state.w)[:len(spec.diffusion)]
    solves = [_pcg_solver(assembly.add_scaled(mass_new, tau * d, stiff_new), LAG_TOL,
                          _extrapolated(f, f_prev))
              for d, f, f_prev in zip(spec.diffusion, fields, previous)]
    mass_old = assembly.surface_matrices(state.mesh)[0]
    new = problems.field_step(mesh_new, spec.source, mass_old, fields, tau, solves, state.t + tau)
    return (*new, None)[:2]


def _check_finite(t, **fields):
    """Raise NonFiniteState naming every given field with a NaN or infinity."""
    bad = [name for name, value in fields.items()
           if value is not None and not np.isfinite(value).all()]
    if bad:
        raise NonFiniteState(t, bad)


def _new_surface(mesh, x, t, config):
    """The surface at node vector x, checked once: NonFiniteState for a
    non-finite x, MeshDegenerated with its own quality for an angle below
    ABORT_MIN_ANGLE, a collapsed triangle, or a surface shrunk towards a
    point until its mass matrix vanishes beneath the rounding of tau A
    (an area below 1e-14 tau), where the field systems are singular.  An
    overflowing geometry's NaN fails every check, without numpy warnings."""
    _check_finite(t, x=x)
    mesh_new = mesh.with_coords(x)
    with np.errstate(over="ignore", invalid="ignore"):
        quality = mesh_quality(mesh_new)
        sound = (quality.min_angle_deg >= ABORT_MIN_ANGLE and not mesh_new.degenerate
                 and quality.min_area >= 1e-14 * config.tau)
    if not sound:
        raise MeshDegenerated(t, quality)
    return mesh_new


def _velocity(state, spec, config, factor):
    """Solve (K + cA) y = K y0 + tau * load on the old surface from a guess of
    y, where load = delta N(x) u + g load; returns (x_new, v_new), (N, 3) each.
    Regularized: K = M + alpha A, c = tau beta, y = x_new from y0 = x and the
    guess x + tau v; dynamic: K = M, c = tau alpha, y = v_new from y0 = v
    and the guess v.  Under every law v is extrapolated from the state
    before (LaggedFactor.previous, _extrapolated).  Where K = M the system
    goes to make_solver without ``factor``.  y is copied C-contiguous (a
    factor's solve returns Fortran order), so every stored v is, and the
    sums that read it keep their order."""
    law, tau, mesh = spec.law, config.tau, state.mesh
    mass, stiff = assembly.surface_matrices(mesh)
    if law.dynamic:
        k, c, y0 = mass, tau * law.alpha, state.v
    else:
        k = assembly.add_scaled(mass, law.alpha, stiff) if law.alpha != 0.0 else mass
        c, y0 = tau * law.beta, state.x
    v = _extrapolated(state.v, factor.previous(state)[0])
    guess = v if law.dynamic else state.x + tau * v
    held = None if k is mass else factor
    solve = make_solver(assembly.add_scaled(k, c, stiff) if c != 0.0 else k, config, held, guess)
    load = np.zeros((mesh.num_nodes, 3))
    if law.delta != 0.0:
        load += law.delta * assembly.assemble_normal_coupling(mesh, state.u, config.normal_coupling)
    if spec.velocity_forcing is not None:
        load += assembly.assemble_normal_load(mesh, spec.velocity_forcing, state.t + tau)
    y = np.ascontiguousarray(solve(assembly.matvec(k, y0) + tau * load))
    return (state.x + tau * y, y) if law.dynamic else (y, (y - state.x) / tau)


def step_coupled(state: SystemState, spec, config: StepperConfig, factor) -> SystemState:
    """One step of the velocity law ``spec.law`` on the old surface, then of
    the fields on the new one; returns the new state.  ``factor`` is the
    run's LaggedFactor, kept across the steps of one run on one mesh: its
    velocity factor, and the fields of the state before ``state`` when
    ``state`` is its last step's result, from which the Jacobi-PCG solves
    extrapolate their starts.  A new one factors afresh and starts the
    solves from the old values."""
    t_new = state.t + config.tau
    x_new, v_new = _velocity(state, spec, config, factor)
    mesh_new = _new_surface(state.mesh, x_new, t_new, config)
    u_new, w_new = _advance_fields(spec, state, mesh_new, config, factor.previous(state)[1:])
    _check_finite(t_new, u=u_new, w=w_new)
    new = SystemState(t_new, u_new, v_new, mesh_new, w_new)
    factor.stepped(state, new)
    return new


# One step for every law; bench/tracer.py patches both names.
step_dynamic = step_coupled


def initial_state(spec, mesh0: SurfaceMesh, u0=None, w0=None) -> SystemState:
    """The state at rest at t = 0; u defaults to the exact nodal data.  w0
    is required for a two-field spec (len(spec.diffusion) == 2) and refused
    for a one-field one, with ValueError."""
    if (w0 is not None) != (len(spec.diffusion) == 2):
        raise ValueError(f"a spec with {len(spec.diffusion)} field(s) "
                         f"{'needs' if w0 is None else 'takes no'} w0")
    u0 = np.asarray(spec.initial_fields(mesh0) if u0 is None else u0, dtype=float)
    return SystemState(t=0.0, u=u0, v=np.zeros((mesh0.num_nodes, 3)), mesh=mesh0,
                       w=None if w0 is None else np.asarray(w0, dtype=float))


def run(spec, mesh0: SurfaceMesh, config: StepperConfig, observers=(),
        start: Optional[SystemState] = None) -> SystemState:
    """Advance from t=0 to t_end with uniform steps; returns the final state.

    t_end/tau must be an integer to 1e-9.  Observers are the view of the
    intermediate states: they are called synchronously as
    observer(step_index, state) for the initial state and after every step,
    and must not mutate the state.  One LaggedFactor carries the velocity
    factorization, where there is one, and the warm starts across the run.
    """
    n_steps = problems.step_count(config.t_end, config.tau, "t_end/tau")

    state = start if start is not None else initial_state(spec, mesh0)
    for obs in observers:
        obs(0, state)
    factor = LaggedFactor()
    for n in range(1, n_steps + 1):
        state = step_coupled(state, spec, config, factor)
        for obs in observers:
            obs(n, state)
    return state
