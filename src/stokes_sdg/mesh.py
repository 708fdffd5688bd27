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

import itertools
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


# ---------------------------------------------------------------------------
# Polygon toolkit.  Every helper takes one polygon (m, 2) or a stack of
# equal-size polygons (..., m, 2), vertices counterclockwise.
# ---------------------------------------------------------------------------

def _signed_area(poly: np.ndarray) -> np.ndarray:
    x, y = poly[..., 0], poly[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    return 0.5 * np.sum(x * yn - xn * y, axis=-1)


def _centroid(poly: np.ndarray) -> np.ndarray:
    """Area centroid (..., 2) of a CCW polygon: the split point x* of its fan."""
    x, y = poly[..., 0], poly[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    a = 0.5 * np.sum(cross, axis=-1)
    cx = np.sum((x + xn) * cross, axis=-1) / (6.0 * a)
    cy = np.sum((y + yn) * cross, axis=-1) / (6.0 * a)
    return np.stack([cx, cy], axis=-1)


def _is_strictly_convex_ccw(poly: np.ndarray) -> np.ndarray:
    """Edges of positive length, each corner turning left by more than a
    relative cross product of 1e-13; one flag per polygon."""
    tang = np.roll(poly, -1, axis=-2) - poly
    elen = np.linalg.norm(tang, axis=-1)
    nxt = np.roll(tang, -1, axis=-2)
    cross = tang[..., 0] * nxt[..., 1] - tang[..., 1] * nxt[..., 0]
    return np.all(elen > 0.0, axis=-1) & np.all(
        cross > 1e-13 * elen * np.roll(elen, -1, axis=-1), axis=-1)


def _edge_normals(poly: np.ndarray):
    """Lengths (..., m) and outward unit normals (..., m, 2) of the edges
    v_i -> v_i+1 of a CCW polygon."""
    tang = np.roll(poly, -1, axis=-2) - poly
    elen = np.linalg.norm(tang, axis=-1)
    return elen, np.stack([tang[..., 1], -tang[..., 0]], axis=-1) / elen[..., None]


def _diameter(poly: np.ndarray) -> np.ndarray:
    """Largest vertex-to-vertex distance of a polygon."""
    diff = poly[..., :, None, :] - poly[..., None, :, :]
    return np.max(np.linalg.norm(diff, axis=-1), axis=(-2, -1))


def _fan_triangles(poly: np.ndarray, xstar: np.ndarray) -> np.ndarray:
    """(..., m, 3, 2) fan sub-triangles (x*, v_i, v_i+1) of a polygon, CCW."""
    tri = np.empty(poly.shape[:-1] + (3, 2))
    tri[..., 0, :] = xstar[..., None, :]
    tri[..., 1, :] = poly
    tri[..., 2, :] = np.roll(poly, -1, axis=-2)
    return tri


def _fan_areas(tri_verts: np.ndarray) -> np.ndarray:
    """Signed areas of the (x*, v_k, v_k+1) sub-triangles; all must be positive."""
    e1 = tri_verts[..., 1, :] - tri_verts[..., 0, :]
    e2 = tri_verts[..., 2, :] - tri_verts[..., 0, :]
    area = 0.5 * (e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
    bad = np.flatnonzero(~(area > 0.0))
    if bad.size:
        t = int(bad[0])
        raise MeshError(f"sub-triangle {t}: non-positive area {area.flat[t]:g}")
    return area


# ---------------------------------------------------------------------------
# Packed cells.  Cell c owns the slots cell_ptr[c]:cell_ptr[c+1] of every
# packed per-vertex array; slot s of cell c at local position k holds vertex
# k of the cell, edge k (vertex k -> k+1), sub-triangle k and dual edge k.
# ---------------------------------------------------------------------------

def _is_index_type(t) -> bool:
    return issubclass(t, (int, np.integer)) and not issubclass(t, (bool, np.bool_))


def _pack_cells(cells):
    """(cell_ptr, cell_idx) of a sequence of vertex-index cycles."""
    try:
        sizes = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
        flat = list(itertools.chain.from_iterable(cells))
    except TypeError as exc:
        raise MeshError(f"cells must be lists of vertex indices: {exc}") from exc
    cell_ptr = np.concatenate([[0], np.cumsum(sizes)])
    if not all(map(_is_index_type, set(map(type, flat)))):
        k = next(k for k, i in enumerate(flat) if not _is_index_type(type(i)))
        ci = int(np.searchsorted(cell_ptr, k, side="right")) - 1
        raise MeshError(f"cell {ci}: vertex index {flat[k]!r} is not an integer")
    try:
        cell_idx = np.array(flat, dtype=np.int64)
    except OverflowError as exc:
        raise MeshError(f"vertex index out of range: {exc}") from exc
    return cell_ptr, cell_idx


def _cycle_slots(cell_ptr):
    """(nxt, prv): the packed slot of the next and of the previous vertex of
    each slot's cell, cyclically."""
    slots = np.arange(cell_ptr[-1])
    nxt, prv = slots + 1, slots - 1
    nxt[cell_ptr[1:] - 1] = cell_ptr[:-1]
    prv[cell_ptr[:-1]] = cell_ptr[1:] - 1
    return nxt, prv


def _edge_keys(cell_ptr, cell_idx, nv):
    """Per-slot key min*nv + max of the edge from the slot's vertex to the next."""
    a, b = cell_idx, cell_idx[_cycle_slots(cell_ptr)[0]]
    return np.minimum(a, b) * nv + np.maximum(a, b)


def _size_groups(cell_ptr):
    """(m, cells, slots) for each distinct cell size m: the cells with m
    vertices, ascending, and their packed slots, shape (len(cells), m)."""
    sizes = np.diff(cell_ptr)
    for m in np.unique(sizes):
        cells = np.flatnonzero(sizes == m)
        yield int(m), cells, cell_ptr[cells][:, None] + np.arange(m)


def _raise_first(checks):
    """Raise MeshError for the lowest index flagged by any of the (flags,
    message(index)) checks; at a tie the earlier check names it."""
    hits = [(int(np.argmax(flags)), k) for k, (flags, _) in enumerate(checks)
            if flags.any()]
    if hits:
        i, k = min(hits)
        raise MeshError(checks[k][1](i))


class PrimalMesh:
    """Conforming mesh of convex polygons.

    vertices  : (nv, 2) float array, each vertex used by some cell
    cell_ptr  : (nc+1,) offsets of the cells in cell_idx
    cell_idx  : (sum m,) packed vertex indices, each cell a CCW cycle
    edge_key  : (sum m,) key min*nv + max of each slot's edge

    The constructor takes the cells as a sequence of index cycles.  It
    checks orientation, strict convexity, and edge sharing; the generators
    and the mesh-file reader additionally guarantee that the cells tile the
    unit square.
    """

    def __init__(self, vertices, cells):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cell_ptr, self.cell_idx = _pack_cells(cells)
        self._validate_structure()

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return len(self.cell_ptr) - 1

    @property
    def cells(self) -> list:
        """Per-cell views of cell_idx."""
        return np.split(self.cell_idx, self.cell_ptr[1:-1])

    def _validate_structure(self):
        v, ptr, idx = self.vertices, self.cell_ptr, self.cell_idx
        if v.ndim != 2 or v.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        nv, nc = self.n_vertices, self.n_cells
        _raise_first([(~np.all(np.isfinite(v), axis=1),
                       lambda i: f"vertex {i}: coordinates {v[i].tolist()} are not finite")])
        sizes = np.diff(ptr)
        slot_cell = np.repeat(np.arange(nc), sizes)
        off = (idx < 0) | (idx >= nv)
        out_of_range = np.zeros(nc, dtype=bool)
        out_of_range[slot_cell[off]] = True
        repeated = np.zeros(nc, dtype=bool)
        for m, cells, slots in _size_groups(ptr):
            s = np.sort(idx[slots], axis=1)
            repeated[cells] = np.any(s[:, 1:] == s[:, :-1], axis=1)
        _raise_first([
            (sizes < 3, lambda c: f"cell {c}: fewer than 3 vertices"),
            (repeated, lambda c: f"cell {c}: repeated vertex index"),
            (out_of_range, lambda c: "cell {}: vertex index {} out of range".format(
                c, int(idx[ptr[c] + np.argmax(off[ptr[c]:ptr[c + 1]])]))),
        ])
        unused = np.ones(nv, dtype=bool)
        unused[idx] = False
        _raise_first([(unused, lambda i: f"vertex {i} is used by no cell")])

        areas = np.empty(nc)
        convex = np.empty(nc, dtype=bool)
        for m, cells, slots in _size_groups(ptr):
            poly = v[idx[slots]]
            areas[cells] = _signed_area(poly)
            convex[cells] = _is_strictly_convex_ccw(poly)
        _raise_first([
            (areas <= 0.0, lambda c: (f"cell {c}: vertices not counterclockwise "
                                      f"(signed area {areas[c]:g})")),
            (~convex, lambda c: f"cell {c}: not strictly convex"),
        ])
        self.cell_areas = areas

        # edge table: interior edges must be shared by exactly two cells with
        # opposite orientation, boundary edges by exactly one
        key = _edge_keys(ptr, idx, nv)
        uniq, first, inverse, users = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True)
        forward = np.bincount(inverse, weights=idx < idx[_cycle_slots(ptr)[0]],
                              minlength=len(uniq))
        order = np.argsort(first)  # edges in order of first appearance
        uniq, users, forward = uniq[order], users[order], forward[order]

        def pair(e):
            return (int(uniq[e] // nv), int(uniq[e] % nv))
        _raise_first([
            (users > 2, lambda e: f"edge {pair(e)} shared by more than two cells"),
            ((users == 2) & (forward != 1),
             lambda e: f"edge {pair(e)} traversed twice in the same direction"),
        ])
        boundary_vertex = np.zeros(nv, dtype=bool)
        bd = uniq[users == 1]
        boundary_vertex[bd // nv] = True
        boundary_vertex[bd % nv] = True
        self.boundary_vertex = boundary_vertex
        self.edge_key = key

    def total_area(self) -> float:
        return float(self.cell_areas.sum())

    def __eq__(self, other):
        if not isinstance(other, PrimalMesh):
            return NotImplemented
        if not (self.n_vertices == other.n_vertices
                and np.array_equal(self.cell_ptr, other.cell_ptr)
                and np.array_equal(self.cell_idx, other.cell_idx)):
            return False
        return bool(np.all(np.abs(self.vertices - other.vertices) <= 1e-15))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

MAX_JITTER = 0.2


def generate_triangular(n: int, jitter: float = 0.0, seed: int = 0) -> PrimalMesh:
    """n x n grid of squares, each split along its SW-NE diagonal.

    ``jitter`` displaces interior grid vertices uniformly in
    [-jitter*h, jitter*h] per coordinate.  nan and values outside
    [0, MAX_JITTER] are rejected, since larger ones can break convexity or
    orientation.  Up to 0.2 every triangle stays convex and
    counter-clockwise, but a seed may still give staggered
    sub-triangles beyond ``validate``'s aspect-ratio limit of 20: at n = 64
    and jitter 0.2, seeds 20, 40, 41, 52 and 220 do (aspect 22.4 for 220).
    """
    if n < 1:
        raise MeshError("triangular generator needs n >= 1")
    if not 0.0 <= jitter <= MAX_JITTER:
        raise MeshError(f"jitter must lie in [0, {MAX_JITTER}], got {jitter:g}")
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
    _check_coordinates_are_numbers(data["vertices"])
    try:
        verts = np.asarray(data["vertices"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise MeshError(f"malformed vertex/cell arrays: {exc}") from exc
    mesh = PrimalMesh(verts, data["cells"])
    # the file contract pins the domain to the unit square
    if abs(mesh.total_area() - 1.0) > 1e-12:
        raise MeshError(
            f"mesh does not tile the unit square: total area {mesh.total_area()!r}"
        )
    _check_unit_square_boundary(mesh)
    return mesh


def _check_coordinates_are_numbers(rows):
    """Every vertex coordinate is a JSON number: the float conversion alone
    would read the string "1" and true as 1.0."""
    if not isinstance(rows, list):
        return  # the float conversion or PrimalMesh rejects the shape
    for i, row in enumerate(rows):
        bad = [c for c in row if type(c) not in (int, float)] if isinstance(row, list) else []
        if bad:
            raise MeshError(f"vertex {i}: coordinate {json.dumps(bad[0])} is not a number")


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
    # boundary edges (used by one cell), in order of first appearance
    nv = mesh.n_vertices
    keys, first, users = np.unique(mesh.edge_key, return_index=True, return_counts=True)
    bd = keys[users == 1][np.argsort(first[users == 1])]
    bd = np.stack([bd // nv, bd % nv], axis=1)
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
    idx = mesh.cell_idx.tolist()
    ptr = mesh.cell_ptr.tolist()
    data = {
        "vertices": mesh.vertices.tolist(),
        "cells": [idx[lo:hi] for lo, hi in zip(ptr[:-1], ptr[1:])],
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
        verts, ptr, idx = mesh.vertices, mesh.cell_ptr, mesh.cell_idx
        nc = mesh.n_cells
        sizes = np.diff(ptr)
        total = int(ptr[-1])
        slot = np.arange(total)
        slot_cell = np.repeat(np.arange(nc), sizes)
        nxt, prv = _cycle_slots(ptr)

        # primal edge table, numbered by first appearance; the first user of
        # an edge is its lower-indexed cell, which also uses it first
        _, first, inverse = np.unique(mesh.edge_key, return_index=True, return_inverse=True)
        ne = len(first)
        order = np.argsort(first)
        rank = np.empty(ne, dtype=np.int64)
        rank[order] = np.arange(ne)
        loc_edge = rank[inverse]
        first_slot = first[order]
        second_slot = np.full(ne, -1, dtype=np.int64)
        later = slot != first_slot[loc_edge]
        second_slot[loc_edge[later]] = slot[later]
        edge_verts = np.stack([idx[first_slot], idx[nxt[first_slot]]], axis=1)
        edge_cells = np.stack([slot_cell[first_slot],
                               np.where(second_slot >= 0, slot_cell[second_slot], -1)], axis=1)
        tang = verts[edge_verts[:, 1]] - verts[edge_verts[:, 0]]
        edge_len = np.hypot(tang[:, 0], tang[:, 1])
        # outward for the first cell
        edge_normal = np.stack([tang[:, 1] / edge_len, -tang[:, 0] / edge_len], axis=1)
        edge_interior = edge_cells[:, 1] >= 0

        # packed cell geometry, centroids and fan sub-triangles (cell c,
        # local k), per group of equal-size cells
        cvert = verts[idx]
        cnorm = np.empty((total, 2))
        celen = np.empty(total)
        xstar = np.empty((nc, 2))
        tri_verts = np.empty((total, 3, 2))
        for m, cells, slots in _size_groups(ptr):
            poly = cvert[slots]
            celen[slots], cnorm[slots] = _edge_normals(poly)
            xstar[cells] = _centroid(poly)
            tri_verts[slots] = _fan_triangles(poly, xstar[cells])
        # dual edge k of a cell runs from x* to vertex k, between fan
        # triangles k-1 and k; it shares the packed slot of sub-triangle k
        xs = xstar[slot_cell]
        seg = cvert - xs
        d = np.einsum("sc,sc->s", seg, cnorm)
        _raise_first([(~(d > 0.0),
                       lambda t: f"cell {slot_cell[t]}: centroid not interior to the cell")])
        nt = total
        tri_dual = np.stack([slot, nxt], axis=1)
        dual_tris = np.stack([np.minimum(prv, slot), np.maximum(prv, slot)], axis=1)
        dual_len = np.hypot(seg[:, 0], seg[:, 1])
        dual_normal = np.stack([seg[:, 1], -seg[:, 0]], axis=1) / dual_len[:, None]
        # orient from the first toward the second sub-triangle
        second = dual_tris[:, 1]
        cen = (xs + cvert[second] + cvert[nxt[second]]) / 3.0
        flip = np.einsum("sc,sc->s", dual_normal, cen - xs) < 0.0
        dual_normal[flip] = -dual_normal[flip]
        tri_area = _fan_areas(tri_verts)
        sides = np.stack([
            np.linalg.norm(tri_verts[:, 1] - tri_verts[:, 0], axis=1),
            np.linalg.norm(tri_verts[:, 2] - tri_verts[:, 0], axis=1),
            np.linalg.norm(tri_verts[:, 2] - tri_verts[:, 1], axis=1),
        ], axis=1)
        tri_diam = sides.max(axis=1)

        # dual regions D(e): base sub-triangles ordered [first cell, second]
        edge_tris = np.stack([first_slot, second_slot], axis=1)

        self.n_cells = nc
        self.cell_ptr = ptr
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
        self.tri_cell, self.tri_base = slot_cell, loc_edge.copy()
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


_RHO_E_MIN = 0.1
_ASPECT_MAX = 20.0


def validate(stag: StaggeredMesh) -> RegularityReport:
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
    for m, cells, slots in _size_groups(stag.cell_ptr):
        ratio = stag.celen[slots].min(axis=1) / _diameter(stag.cvert[slots])
        rho = min(rho, float(ratio.min()))
    ok = (rho >= _RHO_E_MIN) and (float(aspect.max()) <= _ASPECT_MAX)
    return RegularityReport(
        h=stag.h,
        aspect_min=float(aspect.min()),
        aspect_max=float(aspect.max()),
        rho_e=rho,
        ok=bool(ok),
        rho_e_min=_RHO_E_MIN,
        aspect_max_allowed=_ASPECT_MAX,
    )
