"""Discrete error norms against nodal interpolation, and EOC tables.

All errors are nodal-versus-nodal on the interpolated surface, i.e. the
mesh whose nodes sit at the exact flow positions of the initial node
labels.  With the mass/stiffness matrices of that surface, the matrix
quadratic forms coincide with the L2 / H1-seminorm integrals of the
piecewise linear error function, so no continuous geometry is needed.

For the manufactured sphere that surface is the initial mesh scaled by
s = r(t)/r0: node j sits at r(t) x_j(0)/r0.  Scaling a flat triangle by s
multiplies its area by s^2 and its basis gradients by 1/s, so the mass
matrix there is s^2 M0 and the stiffness matrix is A0, the pair the
initial mesh keeps (assembly.surface_matrices).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import assembly, problems
from .errors import EmptyTrajectory, MissingExactSolution
from .mesh import SurfaceMesh


@dataclass(frozen=True)
class ErrorNorms:
    """Trajectory error norms (sup over step endpoints, rectangle rule in time)."""

    u_linf_l2: float
    u_l2_h1: float
    v_linf_l2: float
    v_linf_h1: float
    x_linf_h1: float


class ErrorAccumulator:
    """Streaming computation of the trajectory error norms.

    Usable directly as a run() observer; feed it (step_index, state) pairs
    in time order.  Velocity errors start at the first step because the
    difference-quotient velocity of the regularized laws only exists there.

    M0 and A0 are the pair ``mesh0`` keeps, which a run starting from
    ``mesh0`` reuses for its first step; each update assembles nothing,
    scaling the M-norms by s = r(t)/r0 and using the A-norms as they are,
    which is exact because the interpolated surface is ``mesh0`` scaled by s.
    """

    def __init__(self, spec, mesh0: SurfaceMesh):
        if spec.exact is None:
            raise MissingExactSolution("problem has no manufactured solution")
        self.exact = spec.exact
        self.mass0, self.stiff0 = assembly.surface_matrices(mesh0)
        self.labels = mesh0.coords / spec.exact.r0
        self._last_t = None
        self._u_linf = 0.0
        self._u_l2h1_sq = 0.0
        self._v_linf_l2 = 0.0
        self._v_linf_h1 = 0.0
        self._x_linf_h1 = 0.0

    def __call__(self, step_index, state):
        self.update(step_index, state)

    def update(self, step_index, state):
        x_star, u_star, v_star = problems.exact_solution(self.exact, self.labels, state.t)
        s = float(self.exact.radius(state.t)) / self.exact.r0

        def norms(e):
            m, a = assembly.discrete_norms(self.mass0, self.stiff0, e)
            return s * m, a

        mu, au = norms(state.u - u_star)
        self._u_linf = max(self._u_linf, mu)
        if self._last_t is not None:
            dt = state.t - self._last_t
            self._u_l2h1_sq += dt * (mu**2 + au**2)
        self._last_t = state.t

        mx, ax = norms(state.x - x_star)
        self._x_linf_h1 = max(self._x_linf_h1, np.sqrt(mx**2 + ax**2))

        if step_index > 0:
            mv, av = norms(state.v - v_star)
            self._v_linf_l2 = max(self._v_linf_l2, mv)
            self._v_linf_h1 = max(self._v_linf_h1, np.sqrt(mv**2 + av**2))

    def result(self) -> ErrorNorms:
        if self._last_t is None:
            raise EmptyTrajectory("no states were accumulated")
        return ErrorNorms(
            u_linf_l2=self._u_linf,
            u_l2_h1=float(np.sqrt(self._u_l2h1_sq)),
            v_linf_l2=self._v_linf_l2,
            v_linf_h1=self._v_linf_h1,
            x_linf_h1=self._x_linf_h1,
        )


def compute_eoc(errors, h_values):
    """Pairwise experimental orders of convergence.

    EOC_k = log(E_{k-1}/E_k) / log(h_{k-1}/h_k) for consecutive levels.
    """
    errors = np.asarray(errors, dtype=float)
    h_values = np.asarray(h_values, dtype=float)
    if errors.size != h_values.size or errors.size < 2:
        raise ValueError("need equally many errors and mesh sizes, at least two")
    if np.any(errors <= 0.0) or np.any(h_values <= 0.0):
        raise ValueError("errors and mesh sizes must be positive")
    return list(np.log(errors[:-1] / errors[1:]) / np.log(h_values[:-1] / h_values[1:]))


@dataclass(frozen=True)
class LevelResult:
    """One refinement level of a convergence study."""

    level: int
    dof: int
    h_final: float
    norms: ErrorNorms


@dataclass
class ErrorReport:
    """Per-level errors plus pairwise EOCs, mirroring the CSV layout."""

    levels: list = field(default_factory=list)

    def add(self, result: LevelResult):
        self.levels.append(result)

    def column(self, name):
        return [getattr(r.norms, name) for r in self.levels]

    def eocs(self, name):
        """EOC column for one error norm; None for the first level."""
        if len(self.levels) < 2:
            return [None] * len(self.levels)
        h = [r.h_final for r in self.levels]
        return [None] + compute_eoc(self.column(name), h)


CSV_HEADER = [
    "level", "dof", "h",
    "err_u_LinfL2", "eoc_u_LinfL2",
    "err_u_L2H1", "eoc_u_L2H1",
    "err_v_LinfH1", "eoc_v_LinfH1",
    "err_x_LinfH1", "eoc_x_LinfH1",
]

_CSV_NORMS = ["u_linf_l2", "u_l2_h1", "v_linf_h1", "x_linf_h1"]


def emit_table(report: ErrorReport, path) -> None:
    """Write the report as CSV (7 significant digits, empty first EOC cell)."""
    eoc_cols = {name: report.eocs(name) for name in _CSV_NORMS}
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for i, res in enumerate(report.levels):
            row = [res.level, res.dof, "%.7g" % res.h_final]
            for name in _CSV_NORMS:
                row.append("%.7g" % getattr(res.norms, name))
                eoc = eoc_cols[name][i]
                row.append("" if eoc is None else "%.7g" % eoc)
            writer.writerow(row)


def load_reference_table(table: str):
    """Published reference values for these benchmarks, shipped for
    regression comparison.

    They come from a different (non-icosphere) mesh family, so only orders
    and magnitudes are comparable, not exact values.  Returns
    {metric: {level: (dof, h, value)}} for one of the table names
    'coupled_u', 'coupled_vx', 'comparison_alpha', 'comparison_beta'.
    """
    from importlib import resources

    out = {}
    with resources.files("esfem.data").joinpath("reference_tables.csv").open() as f:
        for row in csv.DictReader(f):
            if row["table"] != table:
                continue
            metric = out.setdefault(row["metric"], {})
            metric[int(row["level"])] = (
                int(row["dof"]), float(row["h"]), float(row["value"]))
    if not out:
        raise KeyError(f"unknown reference table {table!r}")
    return out
