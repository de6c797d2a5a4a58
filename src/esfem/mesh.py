"""Triangulated closed surfaces and their element geometry.

Node vectors are (N, 3), one row per node, the layout of ``coords``:
positions, velocities, normal loads and displacements alike, so the
velocity law's K = I_3 (x) (M + alpha A) acts on their three columns.
Per-element arrays are component-major and end in the triangle axis T,
as (3, T) or (3, 3, T), so each per-component (T,) slice is contiguous.
All triangles are flat (affine); the nodal basis is piecewise linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FieldLengthMismatch

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

#: Barycentric coordinates (Q, 3) of the three edge midpoints, the points of
#: the degree-2 quadrature rule assembly integrates loads with; midpoint q
#: lies on the edge from vertex q to vertex q+1.
MIDPOINT_POINTS = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])


@dataclass(frozen=True)
class QualityReport:
    """Worst-case element quality over a mesh."""

    min_angle_deg: float
    max_aspect_ratio: float
    min_area: float


#: The cached arrays a surface drops once its M and A exist.
_ASSEMBLY_GEOMETRY = ("edges", "edge_lengths", "basis_gradients")


class SurfaceMesh:
    """A closed, consistently oriented triangulated surface.

    Parameters
    ----------
    coords : (N, 3) array
        Node positions.
    triangles : (T, 3) int array
        Vertex indices, counter-clockwise seen from outside.
    validate : bool
        Check closedness, orientation and non-degeneracy.  Skipped by
        ``with_coords`` because moving nodes cannot change the topology.

    Instances are immutable (the arrays, and any array they view, are
    locked), so derived element geometry is a pure function of them,
    computed lazily; meshes are safe to share across threads.  Edge
    lengths, ``h_max``, areas, normals, basis gradients, quality and the
    degeneracy rule all derive from one corner gather, ``edges``.  Export
    text is cached too: the node rows once per surface, shared by its VTK
    and OBJ files, and the cell and face rows once per topology; so are M
    and A, per surface (``assembly.surface_matrices``).  Once M and A
    exist, the surface drops the arrays only quality and assembly read
    (``_ASSEMBLY_GEOMETRY``); a later read recomputes them, bitwise equal
    and read-only.  That is thread-safe: a reader holds its own reference
    to the array it got.
    """

    def __init__(self, coords, triangles, validate=True, _topo_cache=None):
        coords = np.ascontiguousarray(coords, dtype=float)
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError("coords must have shape (N, 3)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (T, 3)")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords contain non-finite entries")
        self.coords = _locked(coords)
        self.triangles = _locked(triangles)
        # Topology-derived data (assembly index patterns, export rows);
        # shared between meshes that differ only in coordinates.
        self._topo_cache = _topo_cache if _topo_cache is not None else {}
        self._matrices = None  # this surface's (M, A), kept by assembly.surface_matrices
        if validate:
            self._validate()

    @property
    def num_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def edges(self) -> np.ndarray:
        """(3, 3, T) edge vectors, component x edge x triangle: the one
        coordinate gather all element geometry derives from; edge k runs
        from vertex k to vertex k+1."""
        p = np.take(self.coords.T, self.triangles.T, axis=1)  # coords.T[:, triangles.T]
        e = np.empty_like(p)
        np.subtract(p[:, 1:], p[:, :2], out=e[:, :2])
        np.subtract(p[:, 0], p[:, 2], out=e[:, 2])
        return _locked(e)

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        """(3, T) lengths of ``edges``, edge x triangle."""
        return _locked(_norm(self.edges))

    @cached_property
    def h_max(self) -> float:
        """Maximal edge length."""
        return float(self.edge_lengths.max())

    @cached_property
    def _areas_normals(self):
        area, normal = triangle_areas_normals(self.edges)
        return _locked(area), _locked(normal)

    @property
    def element_areas(self) -> np.ndarray:
        return self._areas_normals[0]

    @property
    def normals(self) -> np.ndarray:
        """(3, T) unit normals, component x triangle."""
        return self._areas_normals[1]

    @cached_property
    def basis_gradients(self) -> np.ndarray:
        return _locked(triangle_basis_gradients(self.edges, self.element_areas, self.normals))

    @cached_property
    def midpoint_positions(self) -> np.ndarray:
        """(3T, 3) positions of the edge-midpoint quadrature points,
        midpoint-major: row q*T + t is midpoint q of triangle t."""
        corners = np.take(self.coords, self.triangles.T, axis=0).reshape(3, -1)
        return _locked((MIDPOINT_POINTS @ corners).reshape(-1, 3))

    @cached_property
    def _node_rows(self) -> tuple:
        """The ``%.17g`` rows of ``coords``, as ``_rows`` returns them."""
        return tuple(_rows("%.17g %.17g %.17g", self.coords))

    @cached_property
    def degenerate(self) -> bool:
        """Whether some triangle's area is below 1e-14 h_max^2, or NaN (a
        geometry that overflows): the one rule by which assembly and the
        time stepper refuse a collapsed triangle."""
        return not self.element_areas.min() >= 1e-14 * self.h_max**2

    def _release_assembly_geometry(self):
        """Drop the cached ``_ASSEMBLY_GEOMETRY`` arrays (class docstring)."""
        for name in _ASSEMBLY_GEOMETRY:
            self.__dict__.pop(name, None)

    def with_coords(self, coords) -> "SurfaceMesh":
        """Same topology with moved nodes, (N, 3); finiteness is the only check."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape != self.coords.shape:
            raise ValueError(f"coords must have shape {self.coords.shape}, got {coords.shape}")
        return SurfaceMesh(coords, self.triangles, validate=False, _topo_cache=self._topo_cache)

    def _validate(self):
        n, t = self.num_nodes, self.triangles
        if t.size and (t.min() < 0 or t.max() >= n):
            raise ValueError("triangle indices out of range")
        # Closed + consistently oriented: every directed edge occurs exactly
        # once, and its reverse occurs exactly once as well.
        directed = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        keys = directed[:, 0] * n + directed[:, 1]
        if np.unique(keys).size != keys.size:
            raise ValueError("surface is not consistently oriented (repeated directed edge)")
        rev = directed[:, 1] * n + directed[:, 0]
        if not np.array_equal(np.sort(keys), np.sort(rev)):
            raise ValueError("surface is not closed (unmatched edge)")
        with np.errstate(over="ignore", invalid="ignore"):  # refused here, not warned
            area = self.element_areas
        if not np.isfinite(area).all():
            raise ValueError("element areas are not finite: the coordinates are too large")
        if np.any(area <= 0.0):
            raise ValueError("mesh contains a zero-area triangle")
        # Outward orientation: signed enclosed volume must be positive.
        a, b, c = (self.coords[t[:, k]] for k in range(3))
        vol = np.einsum("ij,ij->i", np.cross(a, b), c).sum() / 6.0
        if vol <= 0.0:
            raise ValueError("triangulation is oriented inward (negative enclosed volume)")


def _locked(array):
    """Make ``array`` read-only, and the array it views, if any, so no
    write reaches the data through either."""
    array.setflags(write=False)
    if isinstance(array.base, np.ndarray):
        array.base.setflags(write=False)
    return array


# The element geometry works on the component-major arrays it publishes
# and repeats numpy's own arithmetic, so every value is bitwise equal to
# the plain (T, 3, 3) formulas: ``np.cross`` computes a1*b2 - a2*b1,
# ``.sum`` over three components adds left to right, and numpy 2.x's
# ``einsum`` sums a length-3 contraction as (p0 + p2) + p1 (checked for
# "tik,tjk->tij" and "tkj,tkj->tk" on contiguous and misaligned arrays;
# tests/test_mesh.py keeps the oracle).

def _cross(a, b, out):
    """Component-major cross product with ``np.cross``'s arithmetic,
    written row by row into ``out``, which it returns."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    np.subtract(a1 * b2, a2 * b1, out=out[0])
    np.subtract(a2 * b0, a0 * b2, out=out[1])
    np.subtract(a0 * b1, a1 * b0, out=out[2])
    return out


def _norm(v):
    """Euclidean norm over the leading component axis, summed as ``.sum``."""
    return np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def einsum_dot(a, b):
    """Dot product over the leading component axis, summed in ``einsum``'s
    order for a length-3 contraction."""
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def triangle_areas_normals(edges):
    """Areas (T,) and unit normals (3, T) of triangles from (3, 3, T) edges.

    Degenerate triangles get area 0 and a zero normal; callers decide
    whether that is an error.  The normal is the unit vector along
    edge 2 x edge 0.
    """
    cr = _cross(edges[:, 2], edges[:, 0], np.empty_like(edges[:, 0]))
    two_area = _norm(cr)
    area = 0.5 * two_area
    with np.errstate(invalid="ignore"):
        normal = np.divide(cr, two_area, out=np.zeros_like(cr), where=two_area > 0.0)
    return area, normal


def triangle_basis_gradients(edges, area, normal):
    """Constant tangential gradients of the three nodal basis functions.

    From (3, 3, T) edges, (T,) areas and (3, T) normals, returns a
    C-contiguous (3, 3, T) array; entry [:, i, t] is the gradient of the
    basis function attached to local vertex i of triangle t.  The
    gradient of basis i is the in-plane vector perpendicular to the
    opposite edge, edge i+1: ``normal x edge / (2 area)``.
    """
    g = np.empty((3, 3, len(area)))
    for i in range(3):
        _cross(normal, edges[:, (i + 1) % 3], g[:, i])
    g /= 2.0 * area
    return g


def mesh_quality(mesh: SurfaceMesh) -> QualityReport:
    """Exact min angle, max aspect ratio and min area over all elements.

    Collapsed triangles are reported (angle 0, aspect inf), never raised;
    the time stepper uses this to decide when to abort.
    """
    edge, elen, area = mesh.edges, mesh.edge_lengths, mesh.element_areas

    # Angle at vertex k lies between edge k and reversed edge k-1; arccos
    # falls monotonically, so the smallest angle is that of the largest
    # cosine.  A zero-length edge counts as cosine 1, angle 0.
    dot = -np.array([einsum_dot(edge[:, k], edge[:, k - 1]) for k in range(3)])
    denom = elen * elen[[2, 0, 1]]
    cosang = np.divide(dot, denom, out=np.ones_like(dot), where=denom > 0.0)
    min_angle = np.degrees(np.arccos(np.clip(cosang.max(), -1.0, 1.0)))

    # aspect = longest edge over its own altitude = longest^2 / (2 area)
    longest = elen.max(axis=0)
    aspect = np.divide(longest**2, 2.0 * area, out=np.full_like(area, np.inf), where=area > 0.0)
    return QualityReport(
        min_angle_deg=float(min_angle),
        max_aspect_ratio=float(aspect.max()),
        min_area=float(area.min()),
    )


# ---------------------------------------------------------------------------
# Icosphere generation

def _icosahedron(radius):
    """12 vertices / 20 faces, outward oriented, circumradius ``radius``."""
    t = GOLDEN
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=float,
    )
    verts *= radius / np.sqrt(1.0 + t * t)
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return verts, faces


def _subdivide_project(verts, faces, radius):
    """Quadrisect every triangle; new edge midpoints are pushed to the sphere.

    Midpoints are numbered after the old nodes in the order in which their
    edges (i, j), (j, k), (k, i) first appear over the faces (i, j, k), and
    ||m|| is a batched matmul, which rounds as np.linalg.norm of a single
    3-vector does (norm(axis=1) and einsum do not): nodes and faces are
    bitwise those of quartering one face at a time.
    """
    n = len(verts)
    edges = np.stack((faces, np.roll(faces, -1, axis=1)), axis=-1).reshape(-1, 2)
    keys = edges.min(axis=1) * n + edges.max(axis=1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    mid = (n + np.argsort(order))[inverse].reshape(-1, 3)
    ends = edges[first[order]]
    m = 0.5 * (verts[ends[:, 0]] + verts[ends[:, 1]])
    norms = np.sqrt((m[:, None, :] @ m[:, :, None]).reshape(-1))
    (i, j, k), (ij, jk, ki) = faces.T, mid.T
    new_faces = np.stack(([i, ij, ki], [j, jk, ij], [k, ki, jk], [ij, jk, ki]))
    return (np.concatenate((verts, m * (radius / norms)[:, None])),
            new_faces.transpose(2, 0, 1).reshape(-1, 3))


#: Finest icosphere level (655,362 nodes): memory grows about 4x per
#: level, to about 1 GiB at level 8 by extrapolation from levels 4-6.
MAX_LEVEL = 8
#: Radii whose element geometry stays finite and normal at every level up to
#: MAX_LEVEL: an area's cross-product norm squares terms of order radius^2.
RADIUS_RANGE = (1e-50, 1e50)


def check_level(level):
    """ValueError for an icosphere level outside [0, MAX_LEVEL]."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"subdivision_level {level} is not in [0, {MAX_LEVEL}]")


def generate_icosphere(subdivision_level: int, radius: float) -> SurfaceMesh:
    """Projected icosahedral quadrisection of the sphere.

    Level 0 is the icosahedron (12 nodes, 20 triangles); each level
    quarters every triangle and reprojects the new nodes, so the maximal
    edge length roughly halves per level (the 0 -> 1 ratio is the golden
    0.588 for geometric reasons; from level 1 on it sits near 0.5).
    Levels above MAX_LEVEL and radii outside RADIUS_RANGE are refused
    before any subdivision.
    """
    check_level(subdivision_level)
    if not RADIUS_RANGE[0] <= radius <= RADIUS_RANGE[1]:
        raise ValueError(f"radius {radius} is not in [{RADIUS_RANGE[0]}, {RADIUS_RANGE[1]}]")
    verts, faces = _icosahedron(radius)
    for _ in range(subdivision_level):
        verts, faces = _subdivide_project(verts, faces, radius)
    return SurfaceMesh(verts, faces)


# ---------------------------------------------------------------------------
# Export

def _rows(row, values):
    """``values`` formatted one row each with the ``%`` template ``row``,
    as a list of at most one string: one ``%`` over Python scalars, the
    same bytes as formatting each row apart."""
    values = np.asarray(values)
    return ["\n".join([row] * len(values)) % tuple(values.ravel().tolist())] if len(values) else []


def _topology_rows(mesh):
    """The VTK cell block and the OBJ face rows, formatted once per topology."""
    cache = mesh._topo_cache
    if "export_rows" not in cache:
        nt = mesh.num_triangles
        cells = ([f"CELLS {nt} {4 * nt}"] + _rows("3 %d %d %d", mesh.triangles)
                 + [f"CELL_TYPES {nt}"] + ["5"] * nt)
        cache["export_rows"] = ("\n".join(cells), tuple(_rows("f %d %d %d", mesh.triangles + 1)))
    return cache["export_rows"]


def export_surface(mesh: SurfaceMesh, nodal_fields, path) -> None:
    """Write the mesh and named point fields as legacy-ASCII VTK.

    Scalar fields are (N,), vector fields (N, 3).  Output is
    byte-deterministic for identical inputs (fixed 17-significant-digit
    formatting, fixed iteration order).
    """
    n, nodal_fields = mesh.num_nodes, dict(nodal_fields or {})
    lines = ["# vtk DataFile Version 2.0", "surface snapshot", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {n} double",
             *mesh._node_rows, _topology_rows(mesh)[0]]
    if nodal_fields:
        lines.append(f"POINT_DATA {n}")
        for name, values in nodal_fields.items():
            values = np.asarray(values, dtype=float)
            if values.shape == (n,):
                lines += [f"SCALARS {name} double", "LOOKUP_TABLE default", *_rows("%.17g", values)]
            elif values.shape == (n, 3):
                lines += [f"VECTORS {name} double", *_rows("%.17g %.17g %.17g", values)]
            else:
                raise FieldLengthMismatch(
                    f"field '{name}' has shape {values.shape}, expected ({n},) or ({n}, 3)")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def export_obj(mesh: SurfaceMesh, path) -> None:
    """Geometry-only Wavefront OBJ export (v/f lines, 1-based indices)."""
    lines = ["v " + rows.replace("\n", "\nv ") for rows in mesh._node_rows]
    lines += _topology_rows(mesh)[1]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
