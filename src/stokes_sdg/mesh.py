"""Primal polygonal meshes of the unit square and their staggered subdivision.

A ``PrimalMesh`` is a set of convex CCW cells tiling (0,1)^2.  The staggered
structure fans every cell from its centroid x*, producing sub-triangles
(one per cell edge), dual edges (centroid-to-vertex segments), and the dual
regions D(e) that carry the velocity unknowns.

Orientation rules (fixed once, so jump signs are reproducible):
  * primal edge normals point from the lower-indexed adjacent cell to the
    higher-indexed one; boundary normals point out of the domain;
  * dual edge normals point from the lower-indexed adjacent sub-triangle to
    the higher-indexed one;
  * jumps are [v] = v_first - v_second with "first" the entity the normal
    points away from; on the boundary [v] = v_first.
"""

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeshError", "PrimalMesh", "StaggeredMesh", "RegularityReport",
    "generate_triangular", "generate_trapezoidal", "generate_polygonal",
    "read_mesh", "write_mesh", "build_staggered", "validate",
]


class MeshError(ValueError):
    """Raised for malformed mesh files or invalid mesh geometry."""


def _signed_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y))


def _centroid(poly: np.ndarray) -> np.ndarray:
    """Area centroid of a CCW polygon: the split point x* of its fan."""
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * np.sum(cross)
    cx = np.sum((x + xn) * cross) / (6.0 * a)
    cy = np.sum((y + yn) * cross) / (6.0 * a)
    return np.array([cx, cy])


def _is_strictly_convex_ccw(poly: np.ndarray) -> bool:
    """Edges of positive length, each corner turning left by more than a
    relative cross product of 1e-13."""
    tang = np.roll(poly, -1, axis=0) - poly
    elen = np.linalg.norm(tang, axis=1)
    if np.any(elen <= 0.0):
        return False
    nxt = np.roll(tang, -1, axis=0)
    cross = tang[:, 0] * nxt[:, 1] - tang[:, 1] * nxt[:, 0]
    return bool(np.all(cross > 1e-13 * elen * np.roll(elen, -1)))


def _edge_normals(poly: np.ndarray):
    """Lengths and outward unit normals of the edges v_i -> v_i+1 of a CCW polygon."""
    tang = np.roll(poly, -1, axis=0) - poly
    elen = np.linalg.norm(tang, axis=1)
    return elen, np.stack([tang[:, 1], -tang[:, 0]], axis=1) / elen[:, None]


def _fan_triangles(poly: np.ndarray, xstar: np.ndarray) -> np.ndarray:
    """(m, 3, 2) fan sub-triangles (x*, v_i, v_i+1) of a polygon, CCW."""
    tri = np.empty((len(poly), 3, 2))
    tri[:, 0] = xstar
    tri[:, 1] = poly
    tri[:, 2] = np.roll(poly, -1, axis=0)
    return tri


def _fan_areas(tri_verts: np.ndarray) -> np.ndarray:
    """Signed areas of the (x*, v_k, v_k+1) sub-triangles; all must be positive."""
    e1 = tri_verts[:, 1] - tri_verts[:, 0]
    e2 = tri_verts[:, 2] - tri_verts[:, 0]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    bad = np.flatnonzero(~(area > 0.0))
    if bad.size:
        t = int(bad[0])
        raise MeshError(f"sub-triangle {t}: non-positive area {area[t]:g}")
    return area


class PrimalMesh:
    """Conforming mesh of convex polygons.

    vertices : (nv, 2) float array
    cells    : list of integer index arrays, each a CCW cycle

    The constructor checks orientation, strict convexity, and edge sharing;
    the generators and the mesh-file reader additionally guarantee that the
    cells tile the unit square.
    """

    def __init__(self, vertices, cells):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = [np.asarray(c, dtype=np.int64) for c in cells]
        self._validate_structure()

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def _validate_structure(self):
        nv = self.n_vertices
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        areas = np.empty(self.n_cells)
        for ci, cell in enumerate(self.cells):
            if len(cell) < 3:
                raise MeshError(f"cell {ci}: fewer than 3 vertices")
            if len(np.unique(cell)) != len(cell):
                raise MeshError(f"cell {ci}: repeated vertex index")
            if cell.min() < 0 or cell.max() >= nv:
                raise MeshError(f"cell {ci}: vertex index {int(cell.max())} out of range")
            poly = self.vertices[cell]
            a = _signed_area(poly)
            if a <= 0.0:
                raise MeshError(
                    f"cell {ci}: vertices not counterclockwise (signed area {a:g})"
                )
            if not _is_strictly_convex_ccw(poly):
                raise MeshError(f"cell {ci}: not strictly convex")
            areas[ci] = a
        self.cell_areas = areas
        # edge table: interior edges must be shared by exactly two cells with
        # opposite orientation, boundary edges by exactly one
        seen: dict[tuple[int, int], list] = {}
        for ci, cell in enumerate(self.cells):
            for k in range(len(cell)):
                a, b = int(cell[k]), int(cell[(k + 1) % len(cell)])
                key = (min(a, b), max(a, b))
                seen.setdefault(key, []).append((ci, k, a < b))
        boundary_vertex = np.zeros(nv, dtype=bool)
        for key, users in seen.items():
            if len(users) > 2:
                raise MeshError(f"edge {key} shared by more than two cells")
            if len(users) == 2 and users[0][2] == users[1][2]:
                raise MeshError(f"edge {key} traversed twice in the same direction")
            if len(users) == 1:
                boundary_vertex[list(key)] = True
        self.boundary_vertex = boundary_vertex
        self._edge_users = seen

    def total_area(self) -> float:
        return float(self.cell_areas.sum())

    def __eq__(self, other):
        if not isinstance(other, PrimalMesh):
            return NotImplemented
        if self.n_cells != other.n_cells or self.n_vertices != other.n_vertices:
            return False
        if any((a != b).any() for a, b in zip(self.cells, other.cells)):
            return False
        return bool(np.all(np.abs(self.vertices - other.vertices) <= 1e-15))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def generate_triangular(n: int, jitter: float = 0.0, seed: int = 0) -> PrimalMesh:
    """n x n grid of squares, each split along its SW-NE diagonal.

    ``jitter`` displaces interior grid vertices uniformly in
    [-jitter*h, jitter*h] per coordinate; values above 0.2 are rejected
    because they can break convexity/orientation.
    """
    if n < 1:
        raise MeshError("triangular generator needs n >= 1")
    if jitter < 0.0 or jitter > 0.2:
        raise MeshError("jitter must lie in [0, 0.2]")
    h = 1.0 / n
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    verts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        interior = (
            (verts[:, 0] > 0.0) & (verts[:, 0] < 1.0)
            & (verts[:, 1] > 0.0) & (verts[:, 1] < 1.0)
        )
        verts[interior] += rng.uniform(-jitter * h, jitter * h, (interior.sum(), 2))

    def vid(i, j):
        return i * (n + 1) + j

    cells = []
    for i in range(n):
        for j in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v11, v01 = vid(i + 1, j + 1), vid(i, j + 1)
            cells.append([v00, v10, v11])
            cells.append([v00, v11, v01])
    return PrimalMesh(verts, cells)


def generate_trapezoidal(n: int) -> PrimalMesh:
    """n x n array of convex trapezoids (n even).

    Interior horizontal grid lines are displaced alternately by +-0.25*h
    along each column, the classic trapezoidal distortion of a square grid.
    """
    if n < 1:
        raise MeshError("trapezoidal generator needs n >= 1")
    if n % 2 != 0:
        raise MeshError("trapezoidal generator needs even n (alternating pattern)")
    h = 1.0 / n
    verts = np.empty(((n + 1) * (n + 1), 2))
    for i in range(n + 1):
        for j in range(n + 1):
            y = j * h
            if 0 < j < n:
                y += 0.25 * h * (1.0 if (i + j) % 2 == 0 else -1.0)
            verts[i * (n + 1) + j] = (i * h, y)

    def vid(i, j):
        return i * (n + 1) + j

    cells = []
    for i in range(n):
        for j in range(n):
            cells.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)])
    return PrimalMesh(verts, cells)


def generate_polygonal(n: int) -> PrimalMesh:
    """Hexagon-dominant tiling: n columns of hexagons, clipped cells on the rim.

    Hexagons are scaled anisotropically so that an integer number of rows
    fits the unit square exactly; boundary rows/columns become convex
    pentagons and quadrilaterals.  Interior cells have 6 vertices.
    """
    if n < 2:
        raise MeshError("polygonal generator needs n >= 2")
    w = 1.0 / n       # hexagon width
    nrow = n          # rows scale with n so refinement halves h exactly;
    r = 2.0 / (3.0 * n)  # costs a uniform ~15% vertical stretch of the hexagons

    # all vertex coordinates live on the half-lattice (w/2, r/2)
    vid: dict[tuple[int, int], int] = {}
    coords: list[tuple[float, float]] = []

    def node(ix, iy):
        # ix in units of w/2, iy in units of r/2; clamp to the square
        key = (ix, iy)
        if key not in vid:
            vid[key] = len(coords)
            coords.append((min(max(ix * 0.5 * w, 0.0), 1.0),
                           min(max(iy * 0.5 * r, 0.0), 1.0)))
        return vid[key]

    cells = []
    for j in range(nrow + 1):
        cy = 3 * j              # center y in units of r/2
        odd = j % 2 == 1
        ncol = n if odd else n + 1
        bottom, top = j == 0, j == nrow
        for i in range(ncol):
            cx = 2 * i + 1 if odd else 2 * i   # center x in units of w/2
            left = not odd and i == 0          # clipped at x = 0
            right = not odd and i == ncol - 1  # clipped at x = 1
            if bottom:
                if left:
                    cell = [(cx, cy), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 2)]
                elif right:
                    cell = [(cx, cy), (cx, cy + 2), (cx - 1, cy + 1), (cx - 1, cy)]
                else:
                    cell = [(cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 2),
                            (cx - 1, cy + 1), (cx - 1, cy)]
            elif top:
                if left:
                    cell = [(cx, cy - 2), (cx + 1, cy - 1), (cx + 1, cy), (cx, cy)]
                elif right:
                    cell = [(cx, cy - 2), (cx, cy), (cx - 1, cy), (cx - 1, cy - 1)]
                else:
                    cell = [(cx, cy - 2), (cx + 1, cy - 1), (cx + 1, cy),
                            (cx - 1, cy), (cx - 1, cy - 1)]
            elif left:
                cell = [(cx, cy - 2), (cx + 1, cy - 1), (cx + 1, cy + 1), (cx, cy + 2)]
            elif right:
                cell = [(cx, cy - 2), (cx, cy + 2), (cx - 1, cy + 1), (cx - 1, cy - 1)]
            else:
                cell = [(cx, cy - 2), (cx + 1, cy - 1), (cx + 1, cy + 1),
                        (cx, cy + 2), (cx - 1, cy + 1), (cx - 1, cy - 1)]
            cells.append([node(*p) for p in cell])
    return PrimalMesh(np.asarray(coords), cells)


# ---------------------------------------------------------------------------
# Mesh file IO (JSON: {"vertices": [[x, y], ...], "cells": [[i, ...], ...]})
# ---------------------------------------------------------------------------

def read_mesh(stream) -> PrimalMesh:
    """Parse the mesh text format; accepts a file-like object or a string."""
    text = stream.read() if hasattr(stream, "read") else stream
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MeshError(f"malformed mesh file at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict) or "vertices" not in data or "cells" not in data:
        raise MeshError('mesh file must be an object with "vertices" and "cells"')
    try:
        verts = np.asarray(data["vertices"], dtype=float)
        cells = [np.asarray(c, dtype=np.int64) for c in data["cells"]]
    except (TypeError, ValueError) as exc:
        raise MeshError(f"malformed vertex/cell arrays: {exc}") from exc
    mesh = PrimalMesh(verts, cells)
    # the file contract pins the domain to the unit square
    if abs(mesh.total_area() - 1.0) > 1e-12:
        raise MeshError(
            f"mesh does not tile the unit square: total area {mesh.total_area()!r}"
        )
    _check_unit_square_boundary(mesh)
    return mesh


def _check_unit_square_boundary(mesh: PrimalMesh):
    """Every vertex lies in [0,1]^2 and every boundary edge on one side of it."""
    tol = 1e-12
    v = mesh.vertices
    outside = np.flatnonzero(np.any((v < -tol) | (v > 1.0 + tol), axis=1))
    if outside.size:
        i = int(outside[0])
        raise MeshError(
            f"mesh does not tile the unit square: vertex {i} at {v[i].tolist()} lies outside it"
        )
    bd = np.array([key for key, users in mesh._edge_users.items() if len(users) == 1],
                  dtype=np.int64).reshape(-1, 2)
    a, b = v[bd[:, 0]], v[bd[:, 1]]
    # both endpoints share the coordinate of one side: 0 or 1, in x or in y
    on_side = (((np.abs(a) <= tol) & (np.abs(b) <= tol))
               | ((np.abs(a - 1.0) <= tol) & (np.abs(b - 1.0) <= tol))).any(axis=1)
    off = np.flatnonzero(~on_side)
    if off.size:
        edge = tuple(int(k) for k in bd[off[0]])
        raise MeshError(
            f"mesh does not tile the unit square: boundary edge {edge} "
            "does not lie on its boundary"
        )


def write_mesh(mesh: PrimalMesh) -> str:
    data = {
        "vertices": [[float(x), float(y)] for x, y in mesh.vertices],
        "cells": [[int(i) for i in c] for c in mesh.cells],
    }
    return json.dumps(data, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Staggered subdivision
# ---------------------------------------------------------------------------

class StaggeredMesh:
    """Primal mesh plus centroid fans: sub-triangles, dual edges, D(e).

    Array attributes (ne = primal edges, nd = dual edges, nt = sub-triangles,
    nc = cells; "first/second" follow the orientation rules in the module
    docstring):

    edge_verts (ne,2) int     endpoints as traversed CCW in the first cell
    edge_cells (ne,2) int     [first cell, second cell or -1]
    edge_normal (ne,2)        fixed unit normal n_e
    edge_len (ne,)
    edge_interior (ne,) bool
    edge_tris (ne,2) int      D(e): base sub-tris [in first cell, second or -1]
    dual_normal (nd,2), dual_len (nd,), dual_tris (nd,2)
    tri_cell, tri_base (nt,)  owning cell, base primal edge
    tri_dual (nt,2)           the two flanking dual edges
    tri_verts (nt,3,2)        (x*, v_i, v_i+1), CCW
    tri_area, tri_diam (nt,)
    cell_ptr (nc+1,)          packed per-cell offsets (cell c owns slots
                              cell_ptr[c]:cell_ptr[c+1] in loc_* arrays,
                              sub-tris and dual edges alike)
    loc_edge (sum m,)         global primal edge of each local edge
    cvert, cnorm (sum m, 2)   packed cell vertices / outward edge normals
    celen (sum m,)
    xstar (nc,2)              centroids
    """

    def __init__(self, primal: PrimalMesh):
        self.primal = primal
        self._build()

    def _build(self):
        mesh = self.primal
        nc = mesh.n_cells
        sizes = np.array([len(c) for c in mesh.cells], dtype=np.int64)
        cell_ptr = np.concatenate([[0], np.cumsum(sizes)])
        total = int(cell_ptr[-1])

        # primal edge table, ordered deterministically by first appearance
        edge_index: dict[tuple[int, int], int] = {}
        users: list[list] = []
        for ci, cell in enumerate(mesh.cells):
            for k in range(len(cell)):
                a, b = int(cell[k]), int(cell[(k + 1) % len(cell)])
                key = (min(a, b), max(a, b))
                if key not in edge_index:
                    edge_index[key] = len(users)
                    users.append([])
                users[edge_index[key]].append((ci, k))
        ne = len(users)
        edge_verts = np.empty((ne, 2), dtype=np.int64)
        edge_cells = np.full((ne, 2), -1, dtype=np.int64)
        edge_normal = np.empty((ne, 2))
        edge_len = np.empty(ne)
        loc_edge = np.empty(total, dtype=np.int64)
        for e, us in enumerate(users):
            us.sort()  # first cell = lower-indexed cell
            ci, k = us[0]
            cell = mesh.cells[ci]
            a, b = int(cell[k]), int(cell[(k + 1) % len(cell)])
            va, vb = mesh.vertices[a], mesh.vertices[b]
            tang = vb - va
            ln = float(np.hypot(*tang))
            edge_verts[e] = (a, b)
            edge_len[e] = ln
            edge_normal[e] = (tang[1] / ln, -tang[0] / ln)  # outward for first cell
            for rank, (cj, kj) in enumerate(us):
                edge_cells[e, rank] = cj
                loc_edge[cell_ptr[cj] + kj] = e
        edge_interior = edge_cells[:, 1] >= 0

        # packed cell geometry and centroids
        cvert = np.empty((total, 2))
        cnorm = np.empty((total, 2))
        celen = np.empty(total)
        xstar = np.empty((nc, 2))
        for ci, cell in enumerate(mesh.cells):
            poly = mesh.vertices[cell]
            lo, hi = cell_ptr[ci], cell_ptr[ci + 1]
            cvert[lo:hi] = poly
            celen[lo:hi], cnorm[lo:hi] = _edge_normals(poly)
            xstar[ci] = _centroid(poly)
            d = np.einsum("mc,mc->m", poly - xstar[ci], cnorm[lo:hi])
            if not np.all(d > 0.0):
                raise MeshError(f"cell {ci}: centroid not interior to the cell")

        # sub-triangles (cell c, local k) and dual edges (cell c, vertex k);
        # both share the packed slot cell_ptr[c] + k
        nt = total
        tri_cell = np.repeat(np.arange(nc), sizes)
        tri_base = loc_edge.copy()
        tri_verts = np.empty((nt, 3, 2))
        tri_dual = np.empty((nt, 2), dtype=np.int64)
        dual_normal = np.empty((nt, 2))
        dual_len = np.empty(nt)
        dual_tris = np.empty((nt, 2), dtype=np.int64)
        for ci, cell in enumerate(mesh.cells):
            m = len(cell)
            lo = cell_ptr[ci]
            poly = mesh.vertices[cell]
            tri_verts[lo:lo + m] = _fan_triangles(poly, xstar[ci])
            for k in range(m):
                tri_dual[lo + k] = (lo + k, lo + (k + 1) % m)
                # dual edge k runs from x* to vertex k, between fan triangles
                # k-1 and k
                d = lo + k
                ta, tb = lo + (k - 1) % m, lo + k
                first, second = (ta, tb) if ta < tb else (tb, ta)
                dual_tris[d] = (first, second)
                seg = poly[k] - xstar[ci]
                ln = float(np.hypot(*seg))
                nvec = np.array([seg[1], -seg[0]]) / ln
                # orient from the first toward the second sub-triangle
                kk = second - lo
                cen = (xstar[ci] + poly[kk] + poly[(kk + 1) % m]) / 3.0
                if np.dot(nvec, cen - xstar[ci]) < 0.0:
                    nvec = -nvec
                dual_normal[d] = nvec
                dual_len[d] = ln
        tri_area = _fan_areas(tri_verts)
        sides = np.stack([
            np.linalg.norm(tri_verts[:, 1] - tri_verts[:, 0], axis=1),
            np.linalg.norm(tri_verts[:, 2] - tri_verts[:, 0], axis=1),
            np.linalg.norm(tri_verts[:, 2] - tri_verts[:, 1], axis=1),
        ], axis=1)
        tri_diam = sides.max(axis=1)

        # dual regions D(e): base sub-triangles ordered [first cell, second]
        edge_tris = np.full((ne, 2), -1, dtype=np.int64)
        for t in range(nt):
            e = tri_base[t]
            rank = 0 if tri_cell[t] == edge_cells[e, 0] else 1
            edge_tris[e, rank] = t

        self.n_cells = nc
        self.cell_ptr = cell_ptr
        self.cell_sizes = sizes
        self.cell_area = mesh.cell_areas
        self.xstar = xstar
        self.cvert, self.cnorm, self.celen = cvert, cnorm, celen
        self.loc_edge = loc_edge
        self.n_edges = ne
        self.edge_verts, self.edge_cells = edge_verts, edge_cells
        self.edge_normal, self.edge_len = edge_normal, edge_len
        self.edge_interior = edge_interior
        self.edge_tris = edge_tris
        self.interior_edges = np.flatnonzero(edge_interior)
        self.boundary_edges = np.flatnonzero(~edge_interior)
        self.n_duals = nt
        self.dual_normal, self.dual_len, self.dual_tris = dual_normal, dual_len, dual_tris
        self.n_tris = nt
        self.tri_cell, self.tri_base = tri_cell, tri_base
        self.tri_dual, self.tri_verts = tri_dual, tri_verts
        self.tri_area, self.tri_diam = tri_area, tri_diam
        self.h = float(tri_diam.max())

    # convenience views -----------------------------------------------------
    def edge_endpoints(self):
        """(v0, v1) coordinate arrays of the primal edges, shape (ne, 2) each."""
        return (self.primal.vertices[self.edge_verts[:, 0]],
                self.primal.vertices[self.edge_verts[:, 1]])


def build_staggered(primal: PrimalMesh) -> StaggeredMesh:
    return StaggeredMesh(primal)


@dataclass(frozen=True)
class RegularityReport:
    h: float
    aspect_min: float
    aspect_max: float
    rho_e: float
    ok: bool
    rho_e_min: float
    aspect_max_allowed: float


def validate(stag: StaggeredMesh, rho_e_min: float = 0.1,
             aspect_max_allowed: float = 20.0) -> RegularityReport:
    """Shape-regularity report: sub-triangle aspect ratios and edge/diameter ratio."""
    tv = stag.tri_verts
    sides = np.stack([
        np.linalg.norm(tv[:, 1] - tv[:, 0], axis=1),
        np.linalg.norm(tv[:, 2] - tv[:, 1], axis=1),
        np.linalg.norm(tv[:, 0] - tv[:, 2], axis=1),
    ], axis=1)
    perim = sides.sum(axis=1)
    # diameter over twice the inradius (= 1 for the equilateral limit 1.0*...)
    aspect = stag.tri_diam * perim / (4.0 * stag.tri_area)
    rho = np.inf
    for ci in range(stag.n_cells):
        lo, hi = stag.cell_ptr[ci], stag.cell_ptr[ci + 1]
        poly = stag.cvert[lo:hi]
        diam = np.max(np.linalg.norm(poly[:, None, :] - poly[None, :, :], axis=2))
        rho = min(rho, float(stag.celen[lo:hi].min() / diam))
    ok = (rho >= rho_e_min) and (float(aspect.max()) <= aspect_max_allowed)
    return RegularityReport(
        h=stag.h,
        aspect_min=float(aspect.min()),
        aspect_max=float(aspect.max()),
        rho_e=rho,
        ok=bool(ok),
        rho_e_min=rho_e_min,
        aspect_max_allowed=aspect_max_allowed,
    )
