"""Triangulated closed surfaces and their element geometry.

Node vectors follow a flat, node-major layout: the position of node j
occupies entries ``3*j .. 3*j+2`` of a length-``3N`` array, so
``x.reshape(-1, 3)`` is the ``(N, 3)`` point array.
All triangles are flat (affine); the nodal basis is piecewise linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FieldLengthMismatch

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class QualityReport:
    """Worst-case element quality over a mesh."""

    min_angle_deg: float
    max_aspect_ratio: float
    min_area: float


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

    Instances are immutable (the arrays are locked), so derived element
    geometry is computed lazily once and can never go stale; meshes are
    safe to share across threads and all per-element queries are pure.
    Edge lengths, ``h_max``, areas, normals, basis gradients, quality and
    the degeneracy rule all derive from one cached corner gather, ``edges``.
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
        # Topology-derived data (assembly index patterns); shared between
        # meshes that differ only in coordinates.
        self._topo_cache = _topo_cache if _topo_cache is not None else {}
        if validate:
            self._validate()

    @property
    def num_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def node_vector(self) -> np.ndarray:
        """Flat node-major copy of the coordinates (length 3N)."""
        return self.coords.reshape(-1).copy()

    @cached_property
    def edges(self) -> np.ndarray:
        """(T, 3, 3) edge vectors, the one coordinate gather all element
        geometry derives from; edge k runs from vertex k to vertex k+1."""
        p = self.coords[self.triangles]
        return _locked(np.roll(p, -1, axis=1) - p)

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        """(T, 3) lengths of ``edges``."""
        return _locked(np.sqrt((self.edges**2).sum(axis=2)))

    @cached_property
    def h_max(self) -> float:
        """Maximal edge length."""
        return float(self.edge_lengths.max())

    @cached_property
    def _areas_normals(self):
        return tuple(map(_locked, triangle_areas_normals(self.edges)))

    @property
    def element_areas(self) -> np.ndarray:
        return self._areas_normals[0]

    @property
    def element_normals(self) -> np.ndarray:
        return self._areas_normals[1]

    @cached_property
    def basis_gradients(self) -> np.ndarray:
        return _locked(triangle_basis_gradients(self.edges, *self._areas_normals))

    @cached_property
    def degenerate(self) -> bool:
        """Whether some triangle's area is below 1e-14 h_max^2: the one rule
        by which assembly and the time stepper refuse a collapsed triangle."""
        return bool(self.element_areas.min() < 1e-14 * self.h_max**2)

    def with_coords(self, coords) -> "SurfaceMesh":
        """Same topology with moved nodes; finiteness is the only check."""
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords.reshape(-1, 3)
        if coords.shape != self.coords.shape:
            raise ValueError("node count must not change")
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
        if np.any(self.element_areas <= 0.0):
            raise ValueError("mesh contains a zero-area triangle")
        # Outward orientation: signed enclosed volume must be positive.
        a, b, c = (self.coords[t[:, k]] for k in range(3))
        vol = np.einsum("ij,ij->i", np.cross(a, b), c).sum() / 6.0
        if vol <= 0.0:
            raise ValueError("triangulation is oriented inward (negative enclosed volume)")


def _locked(array):
    array.setflags(write=False)
    return array


def triangle_areas_normals(edges):
    """Areas and unit normals of all triangles from their (T, 3, 3) edges.

    Degenerate triangles get area 0 and a zero normal; callers decide
    whether that is an error.
    """
    cr = np.cross(edges[:, 0], -edges[:, 2])
    two_area = np.sqrt((cr**2).sum(axis=1))
    area = 0.5 * two_area
    with np.errstate(invalid="ignore", divide="ignore"):
        normal = np.where(two_area[:, None] > 0.0, cr / two_area[:, None], 0.0)
    return area, normal


def triangle_basis_gradients(edges, area, normal):
    """Constant tangential gradients of the three nodal basis functions.

    Returns a (T, 3, 3) array; entry [t, i] is the gradient of the basis
    function attached to local vertex i of triangle t.  The gradient of
    basis i is the in-plane vector perpendicular to the opposite edge,
    edge i+1: ``normal x edge / (2 area)``.
    """
    return np.cross(normal[:, None], edges[:, [1, 2, 0]]) / (2.0 * area)[:, None, None]


def mesh_quality(mesh: SurfaceMesh) -> QualityReport:
    """Exact min angle, max aspect ratio and min area over all elements.

    Collapsed triangles are reported (angle 0, aspect inf), never raised;
    the time stepper uses this to decide when to abort.
    """
    edge, elen, area = mesh.edges, mesh.edge_lengths, mesh.element_areas

    # Angle at vertex k lies between edge k and reversed edge k-1.
    dot = -np.einsum("tkj,tkj->tk", edge, np.roll(edge, 1, axis=1))
    denom = elen * np.roll(elen, 1, axis=1)
    ok = denom > 0.0
    cosang = np.where(ok, dot / np.where(ok, denom, 1.0), 1.0)
    angles = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    angles = np.where(ok, angles, 0.0)

    # aspect = longest edge over its own altitude = longest^2 / (2 area)
    longest = elen.max(axis=1)
    with np.errstate(divide="ignore"):
        aspect = np.where(area > 0.0, longest**2 / (2.0 * np.where(area > 0, area, 1.0)), np.inf)
    return QualityReport(
        min_angle_deg=float(angles.min()),
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
    """Quadrisect every triangle; new edge midpoints are pushed to the sphere."""
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


def generate_icosphere(subdivision_level: int, radius: float) -> SurfaceMesh:
    """Projected icosahedral quadrisection of the sphere.

    Level 0 is the icosahedron (12 nodes, 20 triangles); each level
    quarters every triangle and reprojects the new nodes, so the maximal
    edge length roughly halves per level (the 0 -> 1 ratio is the golden
    0.588 for geometric reasons; from level 1 on it sits near 0.5).
    """
    if subdivision_level < 0:
        raise ValueError("subdivision_level must be non-negative")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    verts, faces = _icosahedron(radius)
    for _ in range(subdivision_level):
        verts, faces = _subdivide_project(verts, faces, radius)
    return SurfaceMesh(verts, faces)


# ---------------------------------------------------------------------------
# Export

def _check_fields(n, nodal_fields):
    for name, values in nodal_fields.items():
        values = np.asarray(values, dtype=float)
        if values.size not in (n, 3 * n):
            raise FieldLengthMismatch(
                f"field '{name}' has {values.size} entries, expected {n} or {3 * n}"
            )


def export_surface(mesh: SurfaceMesh, nodal_fields, path) -> None:
    """Write the mesh and named point fields as legacy-ASCII VTK.

    Scalar fields have length N, vector fields 3N (node-major).  Output is
    byte-deterministic for identical inputs (fixed 17-significant-digit
    formatting, fixed iteration order).
    """
    nodal_fields = dict(nodal_fields or {})
    _check_fields(mesh.num_nodes, nodal_fields)
    lines = [
        "# vtk DataFile Version 2.0",
        "surface snapshot",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.num_nodes} double",
    ]
    lines += ["%.17g %.17g %.17g" % tuple(p) for p in mesh.coords]
    nt = mesh.num_triangles
    lines.append(f"CELLS {nt} {4 * nt}")
    lines += ["3 %d %d %d" % tuple(t) for t in mesh.triangles]
    lines.append(f"CELL_TYPES {nt}")
    lines += ["5"] * nt
    if nodal_fields:
        lines.append(f"POINT_DATA {mesh.num_nodes}")
        for name, values in nodal_fields.items():
            values = np.asarray(values, dtype=float)
            if values.size == mesh.num_nodes:
                lines.append(f"SCALARS {name} double")
                lines.append("LOOKUP_TABLE default")
                lines += ["%.17g" % v for v in values]
            else:
                lines.append(f"VECTORS {name} double")
                lines += ["%.17g %.17g %.17g" % tuple(v) for v in values.reshape(-1, 3)]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def export_obj(mesh: SurfaceMesh, path) -> None:
    """Geometry-only Wavefront OBJ export (v/f lines, 1-based indices)."""
    lines = ["v %.17g %.17g %.17g" % tuple(p) for p in mesh.coords]
    lines += ["f %d %d %d" % (t[0] + 1, t[1] + 1, t[2] + 1) for t in mesh.triangles]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
