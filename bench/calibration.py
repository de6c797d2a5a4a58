"""A small fixed unit of work that measures how fast the machine runs right now.

The reference machine (2 vCPUs of a shared host) switches between a fast
and a slow state, about 1.5x apart, for a second to minutes at a time and
on each vCPU on its own; the slow state slows CPU time as much as wall
time.  An untraced workload process therefore times this unit a few times
after its imports, once after every moving-surface step, and a few times
after its workload, and reports each time as a speed factor: the unit's
time divided by REFERENCE_S, its median time on the reference machine in
the fast state.  ``bench/run.py`` divides each stretch of the workload's
wall time by the speed factors measured around it, so its timings read as
seconds on the reference machine in its fast state.

The unit mixes the kinds of work a step does: P1 geometry and assembly on a
fixed triangulated grid (NumPy), a sparse LU factorization and solve
(SuperLU), and formatting node coordinates as text (pure Python).  It takes
about 1 ms, uses only NumPy and SciPy, never esfem, and runs with the
garbage collector paused, so a change to the program cannot change it.
"""

from __future__ import annotations

import gc
import time

import numpy as np
import scipy.sparse as sp
# Bound here, before a traced process wraps scipy.sparse.linalg.splu, so the
# unit's factorizations never show up among the stepper's.
from scipy.sparse.linalg import splu

REFERENCE_S = 1.00e-3
WARM_UP = 20  # untimed units, so that the timed ones find every code path loaded
REPEATS = 7  # timed units before, and again after, the workload

_N = 10  # nodes per grid side
_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def _grid():
    i, j = (a.ravel() for a in np.meshgrid(np.arange(_N), np.arange(_N), indexing="ij"))
    s, t = i / (_N - 1), j / (_N - 1)
    x = np.stack([s, t, 0.2 * np.sin(3.0 * s) * np.cos(2.0 * t)], axis=1)
    k = (i * _N + j).reshape(_N, _N)[:-1, :-1].ravel()
    tri = np.concatenate([np.stack([k, k + _N, k + 1], axis=1),
                          np.stack([k + 1, k + _N, k + _N + 1], axis=1)])
    return x, tri


_X, _TRI = _grid()


def unit():
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    x, tri = _X, _TRI
    p0, p1, p2 = x[tri[:, 0]], x[tri[:, 1]], x[tri[:, 2]]
    normal = np.cross(p1 - p0, p2 - p0)
    twice_area = np.linalg.norm(normal, axis=1)
    area = 0.5 * twice_area
    unit_normal = normal / twice_area[:, None]
    edges = np.stack([p2 - p1, p0 - p2, p1 - p0], axis=1)
    grads = np.cross(unit_normal[:, None, :], edges) / twice_area[:, None, None]
    local_a = area[:, None, None] * np.einsum("eid,ejd->eij", grads, grads)
    local_m = area[:, None, None] * _MASS
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    n = len(x)
    stiffness = sp.coo_matrix((local_a.ravel(), (rows, cols)), shape=(n, n)).tocsc()
    mass = sp.coo_matrix((local_m.ravel(), (rows, cols)), shape=(n, n)).tocsc()
    lu = splu((mass + 1e-2 * stiffness).tocsc())
    u = lu.solve(mass @ np.cos(x[:, 0] + x[:, 2]))
    text = "\n".join(f"{a:.10g} {b:.10g} {c:.10g}" for a, b, c in (x + u[:, None]).tolist())
    return float(u.sum()) + len(text)


def speed():
    """One timed unit, as its time over REFERENCE_S (1.5 means 1.5x slower)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        unit()
        return (time.perf_counter() - start) / REFERENCE_S
    finally:
        if enabled:
            gc.enable()


def warm_up():
    for _ in range(WARM_UP):
        unit()
