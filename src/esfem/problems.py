"""Coupled problems (velocity laws, manufactured solution, kinetics) and their field step.

The manufactured benchmark drives a sphere through the logistic radius
r(t) = r0*rK / (rK*exp(-k t) + r0*(1 - exp(-k t))) while the surface field
u(x, t) = x1*x2*exp(-6 t) diffuses on it.  The forcing terms below make
that pair an exact solution of the coupled system

    du/dt (material) + u div v - lap u = f,
    v - alpha lap v - beta lap x = (delta u + g) normal.

Both forcing terms, like every load integrand, follow assembly's one
contract ``integrand(x, t, *fields)``: the source f(x, t, u) and the
velocity forcing g(x, t) each evaluate only their own formula.  A source
of k fields returns (k, Q) rows, one per field, and ``field_step`` takes
its (k, N) load rows one per field solve.  The test
suite re-derives both forcing identities term by term with
finite-difference and spherical-harmonic oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import assembly
from .mesh import SurfaceMesh


@dataclass(frozen=True)
class VelocityLaw:
    """Which equation determines the surface velocity, and its parameters.

    alpha    weight of the elliptic regularization (lap v term)
    beta     weight of the mean curvature term (lap x term)
    delta    strength of the normal coupling to the surface field
    dynamic  the velocity itself evolves; otherwise the regularized law
             determines it: an elliptic regularization for beta = 0, mean
             curvature flow for beta > 0 (the stepper branches on this alone)
    """

    alpha: float
    beta: float = 0.0
    delta: float = 0.0
    dynamic: bool = False

    def __post_init__(self):
        if not (0.0 <= self.alpha < np.inf and 0.0 <= self.beta < np.inf
                and abs(self.delta) < np.inf):
            raise ValueError("alpha and beta must be finite and non-negative, delta finite")
        if self.dynamic and self.beta != 0.0:
            raise ValueError("the dynamic law has no mean curvature term: need beta = 0")
        if not self.dynamic and self.alpha == 0.0 and self.beta == 0.0:
            # The bare mass matrix would enforce an ill-posed pointwise law.
            raise ValueError("regularized laws need alpha > 0 or beta > 0")


@dataclass(frozen=True)
class ManufacturedSphere:
    """Logistic radius family r0 -> rK with growth rate k."""

    r0: float = 1.0
    rK: float = 2.0
    k: float = 0.5

    def __post_init__(self):
        if not all(0.0 < value < np.inf for value in (self.r0, self.rK, self.k)):
            raise ValueError("r0, rK and k must be finite and positive")

    def radius(self, t):
        ekt = np.exp(-self.k * np.asarray(t, dtype=float))
        return self.r0 * self.rK / (self.rK * ekt + self.r0 * (1.0 - ekt))

    def radius_rate(self, t):
        r = self.radius(t)
        return self.k * r * (1.0 - r / self.rK)


def exact_solution(sphere: ManufacturedSphere, p, t):
    """Exact flow position, field and velocity at unit-sphere labels p (N, 3).

    Returns (X, u, v) with X = r(t) p, u = X1 X2 exp(-6 t) and the purely
    radial velocity v = (rdot/r) X.
    """
    p = np.asarray(p, dtype=float)
    r = float(sphere.radius(t))
    rdot = float(sphere.radius_rate(t))
    x = r * p
    u = x[:, 0] * x[:, 1] * np.exp(-6.0 * t)
    v = (rdot / r) * x
    return x, u, v


@dataclass(frozen=True)
class TumorKinetics:
    """Two-species activator-depleted reaction terms.

    f1 = gamma (a - u + u^2 w),  f2 = gamma (b - u^2 w); the second species
    diffuses with coefficient D_c.
    """

    D_c: float = 10.0
    gamma: float = 100.0
    a: float = 0.1
    b: float = 0.9

    def __post_init__(self):
        if not all(0.0 < value < np.inf for value in (self.D_c, self.gamma, self.a, self.b)):
            raise ValueError("all kinetics parameters must be finite and positive")

    def steady_state(self):
        u = self.a + self.b
        return u, self.b / u**2

    def f1(self, u, w):
        return self.gamma * (self.a - u + u * u * w)

    def f2(self, u, w):
        return self.gamma * (self.b - u * u * w)

    def source(self, x, t, u, w):
        """The (2, Q) integrand rows (f1, f2) of ProblemSpec.source, with
        f1's and f2's arithmetic and u^2 w formed once."""
        uuw = u * u
        uuw *= w
        out = np.empty((2, len(uuw)))
        np.subtract(self.a, u, out=out[0])
        out[0] += uuw
        np.subtract(self.b, uuw, out=out[1])
        out *= self.gamma
        return out


def field_step(mesh: SurfaceMesh, source, mass_old, fields, tau, solves, time):
    """One linearly implicit Euler step of the fields on ``mesh``.

    All source loads come from one quadrature pass with the old fields,
    as (k, N) rows, one per field (zeros without a ``source``);
    ``solves[i]`` inverts M + tau d_i A on ``mesh``, and ``mass_old`` is
    the mass matrix the fields were carried on.  Returns the new fields as
    a tuple.
    """
    if source is None:
        loads = np.zeros((len(fields), mesh.num_nodes))
    else:
        loads = assembly.assemble_scalar_load(mesh, source, time, fields)
    return tuple(solve(assembly.matvec(mass_old, f) + tau * load)
                 for solve, f, load in zip(solves, fields, loads))


@dataclass(frozen=True)
class ProblemSpec:
    """Everything the time stepper needs to advance one coupled system.

    source            source(x, t, u, *others) -> (Q,) values at quadrature
                      points for u alone, or (k, Q) rows, one per field, for
                      u and k - 1 further fields; None means no source
    diffusion         each field's diffusion coefficient, u first; its
                      length is the number of fields (u, and w when two)
    velocity_forcing  g(x, t) -> (Q,) scalar normal speed contribution, or
                      None
    exact             manufactured solution, when one exists

    Both callables are load integrands of assembly's one contract
    ``integrand(x, t, *fields)``: the (Q, 3) quadrature points, the time
    and the interpolated (Q,) values of each field.  The source receives
    every field, the velocity forcing none; assembly calls each as it is
    and turns the source's rows into (k, N) load rows.
    """

    law: VelocityLaw
    source: Optional[Callable] = None
    diffusion: tuple = (1.0,)
    velocity_forcing: Optional[Callable] = None
    exact: Optional[ManufacturedSphere] = None

    def initial_fields(self, mesh: SurfaceMesh):
        """Nodal initial u: exact values at the nodes when available."""
        if self.exact is not None:
            return exact_solution(self.exact, mesh.coords / self.exact.r0, 0.0)[1]
        return np.zeros(mesh.num_nodes)


def example1_problem(alpha=1.0, beta=0.0, delta=0.4, r0=1.0, rK=2.0, k=0.5) -> ProblemSpec:
    """Coupled benchmark: field-driven expanding sphere with manufactured forcing.

    The source is f = (4 rdot/r - 6 + 6/r^2) u and the velocity forcing
    g = rdot + 2 alpha rdot/r^2 + 2 beta/r - delta u, with u = x1 x2
    exp(-6 t) at the (Q, 3) points x; f ignores the interpolated field.
    Time stepping evaluates both on the numerical surface, which carries
    an O(h^2) radius error, so x need not lie on the radius-r(t) sphere.
    """
    sphere = ManufacturedSphere(r0, rK, k)

    def exact_terms(x, t):
        """r(t), rdot(t) and u = x1 x2 exp(-6 t) at the points x."""
        r, rdot = float(sphere.radius(t)), float(sphere.radius_rate(t))
        return r, rdot, x[:, 0] * x[:, 1] * np.exp(-6.0 * t)

    def f(x, t, _u):
        r, rdot, u = exact_terms(x, t)
        return (4.0 * rdot / r - 6.0 + 6.0 / r**2) * u

    def g(x, t):
        r, rdot, u = exact_terms(x, t)
        return rdot + 2.0 * alpha * rdot / r**2 + 2.0 * beta / r - delta * u

    return ProblemSpec(
        law=VelocityLaw(alpha, beta, delta),
        source=f,
        velocity_forcing=g,
        exact=sphere,
    )


def tumor_problem(alpha, beta, delta, kinetics: Optional[TumorKinetics] = None) -> ProblemSpec:
    """Two-species pattern-forming system whose field pushes the surface."""
    kin = kinetics if kinetics is not None else TumorKinetics()
    return ProblemSpec(law=VelocityLaw(alpha, beta, delta), source=kin.source,
                       diffusion=(1.0, kin.D_c))


def step_count(span: float, tau: float, name: str, minimum: int = 1) -> int:
    """span/tau as an int; ValueError unless it is an integer to 1e-9 from
    minimum to MAX_STEPS (``name`` labels the ratio in the message)."""
    n_steps_f = span / tau if tau > 0.0 else float("nan")
    if np.isfinite(n_steps_f) and abs(n_steps_f - round(n_steps_f)) <= 1e-9 \
            and minimum <= round(n_steps_f) <= MAX_STEPS:
        return int(round(n_steps_f))
    raise ValueError(f"{name} = {n_steps_f} is not an integer in [{minimum}, {MAX_STEPS}]")


# A count past this (the longest shipped run takes about 11,700 steps) is a mistyped step size.
MAX_STEPS = 10**6
TAU_PRE = 1e-3


def check_seed(seed):
    """ValueError for a negative seed, which np.random.Philox refuses."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def tumor_initial_data(mesh: SurfaceMesh, kinetics: TumorKinetics, seed: int,
                       perturbation_bound: float = 0.01, pre_time: float = 5.0, *, record):
    """Initial fields for the tumor run.

    Perturbs the steady state by per-node uniform [0, perturbation_bound]
    noise (counter-based generator, so identical seeds give identical
    fields) and relaxes the pure reaction-diffusion system on the frozen
    initial surface until ``pre_time`` with linearly implicit Euler steps
    of tau_pre = TAU_PRE; pre_time/tau_pre must be an integer >= 0 to 1e-9.
    Its two systems are factored by ``record.factor`` (stepper.RunRecord).
    """
    n_steps = step_count(pre_time, TAU_PRE, "pre_time/tau_pre", minimum=0)
    rng = np.random.Generator(np.random.Philox(seed))
    n = mesh.num_nodes
    u_star, w_star = kinetics.steady_state()
    u = u_star + rng.uniform(0.0, perturbation_bound, n)
    w = w_star + rng.uniform(0.0, perturbation_bound, n)

    mass, stiff = assembly.surface_matrices(mesh)
    solves = [record.factor(assembly.add_scaled(mass, TAU_PRE * d, stiff))
              for d in (1.0, kinetics.D_c)]
    for _ in range(n_steps):
        u, w = field_step(mesh, kinetics.source, mass, (u, w), TAU_PRE, solves, 0.0)
    return u, w
