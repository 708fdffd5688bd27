"""Primal polygonal meshes of the unit square and their staggered subdivision.

A ``PrimalMesh`` is a set of convex CCW cells tiling (0,1)^2.  The staggered
structure fans every cell from its centroid x*, producing sub-triangles
(one per cell edge), dual edges (centroid-to-vertex segments), and the dual
regions D(e) that carry the velocity unknowns.

Orientation rule: every normal is fixed by its own cell's counterclockwise
vertex order.  Edge k of a cell (v_k -> v_k+1) carries the cell's outward
normal, so an interior edge is seen once from each side; dual edge k
(x* -> v_k) carries the normal from sub-triangle k-1 into sub-triangle k.
Jumps are [v] = v_first - v_second with "first" the entity the normal
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
# Packed cells.  Cell c owns the slots cell_ptr[c]:cell_ptr[c+1] of every
# packed per-vertex array; slot s of cell c at local position k holds vertex
# k of the cell, edge k (vertex k -> k+1), sub-triangle k (x*, v_k, v_k+1)
# and dual edge k (x* -> v_k, between sub-triangles k-1 and k).  Cell
# geometry is computed per slot (_slot_geometry) and summed per cell with
# np.add.reduceat over cell_ptr[:-1]: the area |T| (cell_area) and the
# centroid x* both come from one set of shoelace terms taken about the
# cell's first vertex, so neither loses digits to where the cell sits.
# PrimalMesh keeps the per-slot arrays (the edge tangents tang among them)
# and the edge split into interior and boundary edges; the StaggeredMesh
# that fans it shares them and adds the dual-edge vectors dual_vec
# (x* -> v_k).  Every other layer reads these arrays, and |T| is cell_area
# in every layer.
# _size_groups stacks the cells of one size only where a batched dense
# operation needs equal sizes: validate's pairwise vertex distances, the
# solver's batched block inverse and the per-cell cumulative sums of
# _kernels.cell_moments.  The generators hand PrimalMesh._from_packed these
# arrays directly, and write_mesh serializes the vertex array as it is, so
# no per-cell Python list is built on the way from a generator to a mesh
# file.
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
        raise MeshError(f"cell {ci}: vertex index {_shown(repr(flat[k]))} is not an integer")
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


def _slot_geometry(p, nxt, first):
    """(tang, elen, mid, cross) of the packed cell vertices p (sum m, 2)
    whose cells start at the vertices first (per slot): the tangent
    v_k+1 - v_k of edge k, its length, and, with r_k = v_k - first,
    r_k + r_k+1 and the shoelace term r_k x r_k+1.  Taken about the cell's
    first vertex, the last two keep their digits wherever the cell sits."""
    tang = p[nxt] - p
    tx, ty = tang[:, 0], tang[:, 1]
    r = p - first
    rn = r[nxt]
    return tang, np.sqrt(tx * tx + ty * ty), r + rn, r[:, 0] * rn[:, 1] - rn[:, 0] * r[:, 1]


def _first_appearance(keys):
    """(ids, first): the number of each key when the distinct keys are
    numbered in order of first appearance, and where each number first
    appears."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[order] = np.arange(len(first))
    return rank[inverse], first[order]


def _edge_table(cell_idx, nxt, nv):
    """The primal edges, numbered by first appearance, of the packed cells
    cell_idx whose next slots are nxt.

    Returns (loc_edge, edge_slots, users, forward): the edge of each slot
    (vertex k -> k+1 of its cell), each edge's [first slot, second slot or
    -1], and per edge the number of slots that use it and how many of them
    run from its lower to its higher vertex index.  The first user of an
    edge is its lower-indexed cell, which also uses it first.
    """
    a, b = cell_idx, cell_idx[nxt]
    loc_edge, first = _first_appearance(np.minimum(a, b) * nv + np.maximum(a, b))
    ne = len(first)
    edge_slots = np.stack([first, np.full(ne, -1, dtype=np.int64)], axis=1)
    later = np.flatnonzero(np.arange(len(a)) != first[loc_edge])
    edge_slots[loc_edge[later], 1] = later
    users = np.bincount(loc_edge, minlength=ne)
    forward = np.bincount(loc_edge, weights=a < b, minlength=ne)
    return loc_edge, edge_slots, users, forward


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


# the largest coordinate magnitude a mesh takes
_MAX_COORD = 1e100


class PrimalMesh:
    """Conforming mesh of convex polygons.

    vertices   : (nv, 2) float array, each vertex used by some cell
    cell_ptr   : (nc+1,) offsets of the cells in cell_idx
    cell_idx   : (sum m,) packed vertex indices, each cell a CCW cycle
    cell_area  : (nc,) cell areas
    xstar      : (nc, 2) area centroids x*, from which the staggered build
                 fans each cell
    cell_sizes : (nc,) vertex counts m of the cells
    next_slot, prev_slot : (sum m,) slot of the next / previous vertex of
                 the same cell
    tri_cell   : (sum m,) cell of each slot
    cvert      : (sum m, 2) packed cell vertices, vertices[cell_idx]
    tang       : (sum m, 2) tangent v_k+1 - v_k of each slot's edge
    celen      : (sum m,) length |e_k| of each slot's edge
    loc_edge   : (sum m,) primal edge of each slot, numbered by first appearance
    edge_slots : (ne, 2) [first slot, second slot or -1] of each edge; the
                 first slot lies in the lower-numbered cell
    interior_edges, boundary_edges   edge indices (two users, one), ascending
    n_vertices, n_cells, n_edges     nv, nc and ne

    The constructor takes the cells as a sequence of index cycles.  It
    checks that every coordinate is finite and at most 1e100 in magnitude,
    so that no product of the geometry overflows; a nonzero area, which a
    collinear cell or one too small for its shoelace terms lacks;
    orientation; strict convexity, which also rejects an edge too short to
    measure (its length underflows to 0) and a star polygon, whose edges
    wind around it more than once; and edge sharing.  The generators and
    the mesh-file reader additionally guarantee that the cells tile the unit
    square, and the staggered build enforces that the tiling is conforming.
    """

    def __init__(self, vertices, cells):
        self._set_up(vertices, *_pack_cells(cells))

    @classmethod
    def _from_packed(cls, vertices, cell_ptr, cell_idx):
        """The mesh of the packed cells (cell_ptr, cell_idx), with the
        constructor's checks."""
        mesh = cls.__new__(cls)
        mesh._set_up(vertices, cell_ptr, cell_idx)
        return mesh

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return len(self.cell_ptr) - 1

    @property
    def n_edges(self) -> int:
        return len(self.edge_slots)

    def _set_up(self, vertices, ptr, idx):
        # C order, which write_mesh's serializer requires
        self.vertices = v = np.ascontiguousarray(vertices, dtype=float)
        self.cell_ptr, self.cell_idx = ptr, idx
        if v.ndim != 2 or v.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        nv, nc = self.n_vertices, self.n_cells
        # the centroid sums products of three coordinate differences, which
        # stay finite below 1e100
        _raise_first([
            (~np.all(np.isfinite(v), axis=1),
             lambda i: f"vertex {i}: coordinates {v[i].tolist()} are not finite"),
            (np.any(np.abs(v) > _MAX_COORD, axis=1), lambda i: (
                f"vertex {i}: coordinates {v[i].tolist()} exceed {_MAX_COORD:g} in magnitude")),
        ])
        sizes = np.diff(ptr)
        slot_cell = np.repeat(np.arange(nc), sizes)
        off = (idx < 0) | (idx >= nv)
        out_of_range = np.zeros(nc, dtype=bool)
        out_of_range[slot_cell[off]] = True
        # sorted by cell, then by index, a repeated index follows its twin
        order = np.lexsort((idx, slot_cell))
        ids, owner = idx[order], slot_cell[order]
        twin = (ids[1:] == ids[:-1]) & (owner[1:] == owner[:-1])
        repeated = np.bincount(owner[1:][twin], minlength=nc) > 0
        _raise_first([
            (sizes < 3, lambda c: f"cell {c}: fewer than 3 vertices"),
            (repeated, lambda c: f"cell {c}: repeated vertex index"),
            (out_of_range, lambda c: "cell {}: vertex index {} out of range".format(
                c, int(idx[ptr[c] + np.argmax(off[ptr[c]:ptr[c + 1]])]))),
        ])
        unused = np.ones(nv, dtype=bool)
        unused[idx] = False
        _raise_first([(unused, lambda i: f"vertex {i} is used by no cell")])

        self.next_slot, self.prev_slot = _cycle_slots(ptr)
        nxt = self.next_slot
        self.cvert, self.cell_sizes, self.tri_cell = v[idx], sizes, slot_cell
        first = self.cvert[ptr[:-1]]
        tang, elen, mid, cross = _slot_geometry(self.cvert, nxt, np.repeat(first, sizes, axis=0))
        self.tang, self.celen = tang, elen
        areas = 0.5 * np.add.reduceat(cross, ptr[:-1])
        # each corner turns left by more than a relative cross product of
        # 1e-13, and each edge has a length: a zero-length edge fails both,
        # and one whose length underflows to 0 fails the second.  The edges
        # of a convex cell then wind around it once, so its edge direction
        # crosses +x from below once; a star polygon's crosses it more often
        turn = tang[:, 0] * tang[nxt, 1] - tang[:, 1] * tang[nxt, 0]
        bent = ~(turn > 1e-13 * elen * elen[nxt]) | (elen == 0)
        winds = np.bincount(slot_cell[(tang[:, 1] < 0) & (tang[nxt, 1] >= 0)], minlength=nc)
        _raise_first([
            (areas == 0.0, lambda c: f"cell {c}: zero area (collinear, or too small to measure)"),
            (areas < 0.0, lambda c: (f"cell {c}: vertices not counterclockwise "
                                     f"(signed area {areas[c]:g})")),
            ((np.bincount(slot_cell[bent], minlength=nc) > 0) | (winds != 1),
             lambda c: f"cell {c}: not strictly convex"),
        ])
        self.cell_area = areas
        # the area centroid first + sum (r_k + r_k+1) cross_k / (6 |T|)
        self.xstar = first + (np.add.reduceat(mid * cross[:, None], ptr[:-1])
                              / (6.0 * areas)[:, None])

        # interior edges must be shared by exactly two cells with opposite
        # orientation, boundary edges by exactly one
        loc_edge, edge_slots, users, forward = _edge_table(idx, nxt, nv)

        def pair(e):
            s = edge_slots[e, 0]
            a, b = int(idx[s]), int(idx[nxt[s]])
            return (min(a, b), max(a, b))
        _raise_first([
            (users > 2, lambda e: f"edge {pair(e)} shared by more than two cells"),
            ((users == 2) & (forward != 1),
             lambda e: f"edge {pair(e)} traversed twice in the same direction"),
        ])
        self.loc_edge, self.edge_slots = loc_edge, edge_slots
        self.interior_edges = np.flatnonzero(edge_slots[:, 1] >= 0)
        self.boundary_edges = np.flatnonzero(edge_slots[:, 1] < 0)

    def total_area(self) -> float:
        return float(self.cell_area.sum())

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


def _grid_quads(n: int) -> np.ndarray:
    """(n*n, 4) vertex indices, CCW from the lower left, of the squares of
    the (n+1) x (n+1) grid whose vertex (i, j) is i*(n+1) + j; square (i, j)
    is row i*n + j."""
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    return np.stack([v00, v00 + n + 1, v00 + n + 2, v00 + 1], axis=1)


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
        raise ValueError(f"triangular generator needs n >= 1, got {n}")
    if not 0.0 <= jitter <= MAX_JITTER:
        raise ValueError(f"jitter must lie in [0, {MAX_JITTER}], got {jitter:g}")
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
    # per square (v00, v10, v11) then (v00, v11, v01)
    cells = _grid_quads(n)[:, [0, 1, 2, 0, 2, 3]].ravel()
    return PrimalMesh._from_packed(verts, 3 * np.arange(2 * n * n + 1), cells)


def generate_trapezoidal(n: int) -> PrimalMesh:
    """n x n array of convex trapezoids (n even).

    Interior horizontal grid lines are displaced alternately by +-0.25*h
    along each column, the classic trapezoidal distortion of a square grid.
    """
    if n < 2 or n % 2 != 0:  # the displacement alternates along each column
        raise ValueError(f"trapezoidal generator needs an even n >= 2, got {n}")
    h = 1.0 / n
    i, j = np.divmod(np.arange((n + 1) ** 2), n + 1)
    y = j * h
    inner = (j > 0) & (j < n)
    y[inner] += 0.25 * h * np.where((i + j) % 2 == 0, 1.0, -1.0)[inner]
    return PrimalMesh._from_packed(np.stack([i * h, y], axis=1),
                                   4 * np.arange(n * n + 1), _grid_quads(n).ravel())


# a hexagon around its center, in (w/2, r/2) lattice units, CCW from the bottom
_HEXAGON = np.array([(0, -2), (1, -1), (1, 1), (0, 2), (-1, 1), (-1, -1)])


def _clip_to_square(polys: np.ndarray, nx: int, ny: int):
    """Clamp a stack (k, m, 2) of convex lattice polygons to [0, nx] x [0, ny].

    Returns the clamped stack and a (k, m) mask of its corners, where the
    boundary turns: the step to such a vertex from the nearest earlier
    vertex that differs from it is not parallel to the (nonzero) step on to
    the next vertex.
    """
    p = np.clip(polys, 0, [nx, ny])
    prv = np.roll(p, 1, axis=1)
    for shift in range(2, p.shape[1]):  # step back over repeated vertices
        prv = np.where(np.all(prv == p, axis=2, keepdims=True), np.roll(p, shift, axis=1), prv)
    a, b = p - prv, np.roll(p, -1, axis=1) - p
    return p, a[..., 0] * b[..., 1] != a[..., 1] * b[..., 0]


def generate_polygonal(n: int) -> PrimalMesh:
    """Hexagon-dominant tiling: n columns of hexagons, each hexagon clipped
    to the square.

    Hexagons are scaled anisotropically so that an integer number of rows
    fits the unit square exactly; clipping turns the boundary rows/columns
    into convex pentagons and quadrilaterals.  Interior cells have 6
    vertices.
    """
    if n < 2:
        raise ValueError(f"polygonal generator needs n >= 2, got {n}")
    w = 1.0 / n          # hexagon width
    r = 2.0 / (3.0 * n)  # n rows, so refinement halves h exactly; this costs
    #                      a uniform ~15% vertical stretch of the hexagons

    # row j has its centers at height 3j and, in even rows, on both sides of
    # the square; vertices are numbered by first appearance
    cx, j = np.meshgrid(np.arange(2 * n + 1), np.arange(n + 1))
    row = (cx + j) % 2 == 0
    centers = np.stack([cx[row], 3 * j[row]], axis=1)
    pts, corner = _clip_to_square(centers[:, None] + _HEXAGON, 2 * n, 3 * n)
    flat = pts[corner]
    ids, first = _first_appearance(flat[:, 0] * (3 * n + 1) + flat[:, 1])
    ptr = np.concatenate([[0], np.cumsum(corner.sum(axis=1))])
    coords = np.clip(flat[first] * 0.5 * [w, r], 0.0, 1.0)
    return PrimalMesh._from_packed(coords, ptr, ids)


# ---------------------------------------------------------------------------
# Mesh file IO (JSON: {"vertices": [[x, y], ...], "cells": [[i, ...], ...]})
# ---------------------------------------------------------------------------

# how far a vertex or a boundary edge of a mesh file may lie off the unit square
_SQUARE_TOL = 1e-12


def read_mesh(source) -> PrimalMesh:
    """Parse a mesh file: a file-like object, a str, or bytes, which json
    decodes as UTF-8, UTF-16 or UTF-32, with or without a BOM."""
    text = source.read() if hasattr(source, "read") else source
    # the stdlib parser, not orjson's: orjson.loads rejects NaN and Infinity
    # and reads 100000000000000000000 as a float, so the non-finite and
    # out-of-range messages below would not name the vertex or the index
    try:
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            raise
        except ValueError:  # an integer beyond int()'s digit limit, or undecodable bytes
            data = json.loads(text, parse_int=_clamped_int)
    except json.JSONDecodeError as exc:
        raise MeshError(f"malformed mesh file at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:
        raise MeshError(f"malformed mesh file: {exc}") from exc
    if not isinstance(data, dict) or "vertices" not in data or "cells" not in data:
        raise MeshError('mesh file must be an object with "vertices" and "cells"')
    mesh = PrimalMesh(_vertex_array(data["vertices"]), data["cells"])
    _check_unit_square(mesh)
    return mesh


def _clamped_int(literal):
    """The integer of a JSON integer literal; one of more than 400 digits,
    which int() may refuse, is read as +-10**400, beyond both the float and
    the index range like the literal itself."""
    if len(literal.lstrip("-")) <= 400:
        return int(literal)
    return -10 ** 400 if literal.startswith("-") else 10 ** 400


def _shown(text):
    """text as a message shows it: whole up to 40 characters, else its first
    20 and last 17 around "..."."""
    return text if len(text) <= 40 else f"{text[:20]}...{text[-17:]}"


def _vertex_array(rows):
    """The float array of the vertex list rows, each a list of two JSON
    numbers within the float range (the float conversion alone reads the
    string "1" and true as 1.0, and raises OverflowError for an integer
    beyond the float range).  The counterpart of _pack_cells: one walk over
    the rows names the first that breaks the rule, and the C-level
    conversion runs only on a list that keeps it."""
    if not isinstance(rows, list):
        raise MeshError("vertices must be a list of [x, y] rows")
    for i, row in enumerate(rows):
        if type(row) is not list:
            raise MeshError(f"vertex {i}: not an [x, y] row")
        if len(row) != 2:
            raise MeshError(f"vertex {i}: {len(row)} coordinate{'s' * (len(row) != 1)}, not 2")
        for c in row:
            if type(c) is float:  # json reads a float literal beyond the range as inf
                continue
            if type(c) is not int:
                raise MeshError(f"vertex {i}: coordinate {_shown(json.dumps(c))} is not a number")
            try:
                float(c)
            except OverflowError:
                raise MeshError(f"vertex {i}: integer coordinate beyond the float range") from None
    return np.array(rows, dtype=float)


def _check_unit_square(mesh: PrimalMesh):
    """The cells tile the unit square: every vertex lies in it, the total
    area is 1, and every boundary edge lies on one side of it."""
    v, tol = mesh.vertices, _SQUARE_TOL
    _raise_first([(((v < -tol) | (v > 1.0 + tol)).any(axis=1),
                   lambda i: f"mesh does not tile the unit square: "
                             f"vertex {i} at {v[i].tolist()} lies outside it")])
    if abs(mesh.total_area() - 1.0) > 1e-12:
        raise MeshError(f"mesh does not tile the unit square: total area {mesh.total_area()!r}")
    # boundary edges (used by one cell), in order of first appearance
    first = mesh.edge_slots[mesh.boundary_edges, 0]
    bd = np.sort(mesh.cell_idx[np.stack([first, mesh.next_slot[first]], axis=1)], axis=1)
    a, b = v[bd[:, 0]], v[bd[:, 1]]
    # both endpoints share the coordinate of one side: 0 or 1, in x or in y
    on_side = (((np.abs(a) <= tol) & (np.abs(b) <= tol))
               | ((np.abs(a - 1.0) <= tol) & (np.abs(b - 1.0) <= tol))).any(axis=1)
    _raise_first([(~on_side, lambda k: f"mesh does not tile the unit square: boundary edge "
                                      f"{tuple(bd[k].tolist())} does not lie on its boundary")])


def write_mesh(mesh: PrimalMesh) -> str:
    """The mesh file text of mesh: compact JSON, each coordinate written as
    the shortest decimal that reads back as the same float (values below
    1e-4 in positional notation, as 0.00001), which read_mesh parses back
    into an equal mesh."""
    import orjson  # here, so that importing the package does not load it

    idx, ptr = mesh.cell_idx.tolist(), mesh.cell_ptr.tolist()
    data = {
        "vertices": mesh.vertices,
        "cells": [idx[lo:hi] for lo, hi in zip(ptr[:-1], ptr[1:])],
    }
    return orjson.dumps(data, option=orjson.OPT_SERIALIZE_NUMPY).decode()


# ---------------------------------------------------------------------------
# Staggered subdivision
# ---------------------------------------------------------------------------

class StaggeredMesh(PrimalMesh):
    """A PrimalMesh fanned from its cell centroids: sub-triangles, dual
    edges, D(e).

    Sub-triangles and dual edges are numbered by packed slot (see "Packed
    cells" above): sub-triangle s is (x*, v_k, v_k+1) on primal edge k of its
    cell, and dual edge s (x* -> v_k) leaves sub-triangle prev_slot[s] and
    enters sub-triangle s.  It shares the primal's arrays, the centroids
    xstar, the tangents tang and the edge split among them, and adds
    (nd = slots = dual edges = sub-triangles):

    n_duals                   nd
    cnorm (nd,2)              packed outward edge normals
    dual_vec (nd,2)           v_k - x*, the vector of dual edge s
    dual_normal (nd,2)        unit normal of dual edge s, into sub-triangle s
    dual_len (nd,)            |x* v_k|
    tri_area (nd,)            |e_k| d_k / 2, d_k the distance from x* to edge k
    tri_diam (nd,)            longest of the sides dual_len, dual_len[next_slot]
                              and celen
    h                         largest tri_diam

    The build rejects a cell whose centroid is not interior to it, and a
    mesh that is not a conforming tiling of a simply connected domain.
    """

    def __init__(self, primal: PrimalMesh):
        vars(self).update(vars(primal))  # the same arrays, checked once
        tang, celen = self.tang, self.celen
        self.cnorm = np.stack([tang[:, 1], -tang[:, 0]], axis=1) / celen[:, None]
        self.dual_vec = dv = self.cvert - self.xstar[self.tri_cell]
        # distance from x* to the line of edge k: the height of sub-triangle k
        d = np.einsum("sc,sc->s", dv, self.cnorm)
        _raise_first([(~(d > 0.0),
                       lambda t: f"cell {self.tri_cell[t]}: centroid not interior to the cell")])
        euler = self.n_vertices - self.n_edges + self.n_cells
        if euler != 1:  # as for every conforming tiling of a disk
            raise MeshError(f"mesh is not a conforming tiling of a simply connected domain: "
                            f"V - E + C = {euler}, not 1 (a hole, or a vertex hanging on an edge)")
        self.n_duals = int(self.cell_ptr[-1])
        self.dual_len = dual_len = np.hypot(dv[:, 0], dv[:, 1])
        # the left normal of x* -> v_k points into sub-triangle k
        self.dual_normal = np.stack([-dv[:, 1], dv[:, 0]], axis=1) / dual_len[:, None]
        self.tri_area = 0.5 * celen * d
        self.tri_diam = np.maximum(np.maximum(dual_len, dual_len[self.next_slot]), celen)
        self.h = float(self.tri_diam.max())

    # convenience views -----------------------------------------------------
    def edge_endpoints(self, edges=slice(None)):
        """(v0, v1) coordinates of the primal edges (all by default), shape
        (len(edges), 2) each, as traversed CCW in the first cell."""
        first = self.edge_slots[edges, 0]
        return self.cvert[first], self.cvert[self.next_slot[first]]


def build_staggered(primal: PrimalMesh) -> StaggeredMesh:
    return StaggeredMesh(primal)


@dataclass(frozen=True)
class RegularityReport:
    h: float
    aspect_min: float
    aspect_max: float
    rho_e: float
    ok: bool

    def breaches(self) -> str:
        """The measures that break their bounds, each named with its bound;
        empty when the report is ok."""
        found = []
        if not self.aspect_max <= _ASPECT_MAX:
            found.append(f"sub-triangle aspect ratio {self.aspect_max:.3g} "
                         f"exceeds {_ASPECT_MAX:g}")
        if not self.rho_e >= _RHO_E_MIN:
            found.append(f"edge/diameter ratio {self.rho_e:.3g} is below {_RHO_E_MIN:g}")
        return ", ".join(found)


_RHO_E_MIN = 0.1
_ASPECT_MAX = 20.0


def _diameter(poly: np.ndarray) -> np.ndarray:
    """Largest vertex-to-vertex distance of a polygon."""
    diff = poly[..., :, None, :] - poly[..., None, :, :]
    return np.max(np.linalg.norm(diff, axis=-1), axis=(-2, -1))


def validate(stag: StaggeredMesh) -> RegularityReport:
    """Shape-regularity report: sub-triangle aspect ratios and edge/diameter ratio."""
    perim = stag.dual_len + stag.dual_len[stag.next_slot] + stag.celen
    # diameter over twice the inradius: sqrt(3) for an equilateral triangle
    aspect = stag.tri_diam * perim / (4.0 * stag.tri_area)
    rho = min(float((stag.celen[slots].min(axis=1) / _diameter(stag.cvert[slots])).min())
              for _, _, slots in _size_groups(stag.cell_ptr))
    aspect_max = float(aspect.max())
    return RegularityReport(h=stag.h, aspect_min=float(aspect.min()), aspect_max=aspect_max,
                            rho_e=rho, ok=rho >= _RHO_E_MIN and aspect_max <= _ASPECT_MAX)
