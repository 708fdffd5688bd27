import numpy as np

from stokes_sdg.assembly import RTTable
from stokes_sdg.mesh import PrimalMesh, build_staggered
from stokes_sdg.quadrature import _rule_from_orbits, map_rule, triangle_rule

# Dunavant's symmetric degree-10 rule, the reference the package's degree-8
# rule is checked against (orbits as in quadrature._TRI_ORBITS)
TRI_RULE_10 = _rule_from_orbits([
    ("c", 0.090817990382754),
    ("s", 0.036725957756467, 0.028844733232685),
    ("s", 0.045321059435528, 0.781036849029926),
    ("p", 0.072757916845420, 0.141707219414880, 0.307939838764121, 0.550352941820999),
    ("p", 0.028327242531057, 0.025003534762686, 0.246672560639903, 0.728323904597411),
    ("p", 0.009421666963733, 0.009540815400299, 0.066803251012200, 0.923655933587500),
])


def _file(vertices="[[0,0],[1,0],[1,1],[0,1]]", cells="[[0,1,2,3]]"):
    """Mesh file text of the JSON texts of its arrays, by default the unit
    square as one cell."""
    return f'{{"vertices":{vertices},"cells":{cells}}}'


_TRIANGLE = "[[0,0],[1,0],[0,1]]"


def _huge(zeros):
    """The unit square with the y of vertex 2 written as 1 and zeros zeros."""
    return _file(f"[[0,0],[1,0],[1,1{'0' * zeros}],[0,1]]")


# an integer of 5001 digits, more than int() converts by default
_DIGIT_LIMIT = _file("[[0,0],[1,0],\n[1,1" + "0" * 5000 + "],[0,1]]")
_BEYOND_FLOATS = "^vertex 2: integer coordinate beyond the float range$"

# One failing mesh file per rule of the mesh-file contract, id -> (file text
# or bytes, regex of the MeshError message).  test_mesh reads each with
# read_mesh, and test_cli runs each through the CLI.
MESH_FILE_REJECTIONS = {
    # the file is JSON, in an encoding json detects, and an object with both
    # keys; an integer literal too long for int() is read as one beyond the
    # float and index ranges, and named as the coordinate or index it is
    "malformed-json": ('{"vertices": [[0,0],\n  oops', "^malformed mesh file at line 2: "),
    "undecodable": (b'{"vertices":\xff}', "^malformed mesh file: 'utf-8' codec can't decode"),
    "digit-limit": (_DIGIT_LIMIT, _BEYOND_FLOATS),
    "digit-limit-utf16": (_DIGIT_LIMIT.encode("utf-16"), _BEYOND_FLOATS),
    "index-digit-limit": (_file(_TRIANGLE, f"[[0,1,{'9' * 5000}]]"),
                          "^vertex index out of range: "),
    "one-key": ('{"vertices":[]}', '^mesh file must be an object with "vertices" and "cells"'),
    # vertices: a list of [x, y] rows of JSON numbers within the float
    # range; the float conversion alone would read "1" and true as 1.0, and
    # it raises OverflowError for an integer beyond the float range.  A
    # value too long to read whole is shown by its ends
    "string-vertices": (_file('"abc"'), r"^vertices must be a list of \[x, y\] rows$"),
    "object-vertices": (_file('{"a":1}'), r"^vertices must be a list of \[x, y\] rows$"),
    "scalar-row": (_file("[[0,0],[1,0],[1,1],5]"), r"^vertex 3: not an \[x, y\] row$"),
    "string-y": (_file('[[0,0],[1,0],[1,1],[0,"1"]]'), 'vertex 3: coordinate "1" is not a number'),
    "bool-y": (_file("[[0,0],[1,0],[1,1],[0,true]]"), "vertex 3: coordinate true is not a number"),
    "string-x": (_file('[[0,0],["1",0],[1,1],[0,1]]'), 'vertex 1: coordinate "1" is not a number'),
    "long-string-y": (_file(f'[[0,0],[1,0],[1,1],[0,"{"a" * 1000}"]]'),
                      r'^vertex 3: coordinate "a{19}\.\.\.a{16}" is not a number$'),
    "rows-and-scalars": (_file('[[0,"1"],5]'), '^vertex 0: coordinate "1" is not a number$'),
    "huge-integer": (_huge(400), _BEYOND_FLOATS),
    "flat-huge": (_file(f"[1{'0' * 400}]"), r"^vertex 0: not an \[x, y\] row$"),
    "ragged-rows": (_file("[[0,0],[1,0],[1,1],[0]]"), "^vertex 3: 1 coordinate, not 2$"),
    "ragged-xyz-row": (_file("[[0,0],[1,0,5],[1,1],[0,1]]"), "^vertex 1: 3 coordinates, not 2$"),
    "xyz-vertices": (_file("[[0,0,0],[1,0,0],[0,1,0]]"), "^vertex 0: 3 coordinates, not 2$"),
    # the mesh constructor takes finite coordinates of at most 1e100 in
    # magnitude, so that no product of its geometry overflows; vertex 4 is
    # used by no cell, so no area or convexity check sees it
    "nan": (_file("[[0,0],[1,0],[1,1],[0,1],[NaN,0]]"), "^vertex 4: .* not finite$"),
    "infinity": (_file("[[0,0],[1,0],[1,1],[0,1],[Infinity,0]]"), "^vertex 4: .* not finite$"),
    "far-vertex": (_file("[[0,0],[1e300,0],[1,1],[0,1]]"),
                   r"^vertex 1: coordinates \[1e\+300, 0\.0\] exceed 1e\+100 in magnitude$"),
    # cells: at least three distinct in-range JSON integers each; an integer
    # conversion would truncate 2.7 to vertex 2 and parse "2" as 2
    "flat-cells": (_file(cells="[0,1,2,3]"), "^cells must be lists of vertex indices: "),
    "index-2.7": (_file(cells="[[0,1,2.7,3]]"), "^cell 0: vertex index 2.7 is not an integer$"),
    "long-index": (_file(cells=f"[[0,1,[1{'0' * 400}],3]]"),
                   r"^cell 0: vertex index \[10{18}\.\.\.0{16}\] is not an integer$"),
    "string-index": (_file(cells='[[0,1,"2",3]]'), "^cell 0: vertex index '2' is not an integer$"),
    "float-index": (_file(cells="[[0,1,2.0,3]]"), "^cell 0: vertex index 2.0 is not an integer$"),
    "bool-index": (_file(cells="[[0,1,true,3]]"), "^cell 0: vertex index True is not an integer$"),
    "int64-index": (_file(_TRIANGLE, f"[[0,1,{10 ** 20}]]"), "^vertex index out of range: "),
    "index-out-of-range": (_file(_TRIANGLE, "[[0,1,7]]"), "^cell 0: vertex index 7 out of range$"),
    "negative-index": (_file(_TRIANGLE, "[[0,1,-1]]"), "^cell 0: vertex index -1 out of range$"),
    "two-vertex-cell": (_file(cells="[[0,1,2],[2,3]]"), "^cell 1: fewer than 3 vertices$"),
    "repeated-index": (_file(cells="[[0,1,2,0]]"), "^cell 0: repeated vertex index$"),
    "unused-vertex": (_file("[[0,0],[1,0],[1,1],[0,1],[0.5,0.5]]"), "vertex 4 is used by no cell"),
    # cells counterclockwise and strictly convex
    "clockwise": (_file(cells="[[0,3,2,1]]"), r"^cell 0: vertices not counterclockwise \(signed"),
    "reflex-corner": (_file("[[0,0],[1,0],[0.4,0.4],[0,1]]"), "^cell 0: not strictly convex$"),
    # an edge used by at most two cells, in opposite directions when two
    "edge-in-three-cells": (_file("[[0.5,0.2],[0.5,0.8],[0.2,0.5],[0.1,0.5],[0.8,0.5]]",
                                  "[[0,1,2],[0,1,3],[1,0,4]]"),
                            r"^edge \(0, 1\) shared by more than two cells$"),
    "one-way-edge": (_file(cells="[[0,1,2],[0,1,3]]"),
                     r"^edge \(0, 1\) traversed twice in the same direction$"),
    # the cells tile the unit square, checked on the mesh the constructor
    # accepts: every vertex in it, total area 1, and every edge used once on
    # its boundary
    "quarter": (_file("[[0,0],[0.5,0],[0.5,0.5],[0,0.5]]"), "unit square: total area 0.25$"),
    "sheared": (_file("[[0,0],[1,0],[1.5,1],[0.5,1]]"), "unit square: vertex 2 .* lies outside"),
    # the lower-left half of the square, twice: area 1 and every vertex in the
    # square, but the diagonal boundary edges cut across it
    "triangle-twice": (_file("[[0,0],[1,0],[0,1],[0,0],[1,0],[0,1]]", "[[0,1,2],[3,4,5]]"),
                       r"boundary edge \(1, 2\) does not lie"),
    # the left half of the square and two quarters on the right: vertex 6
    # hangs on the edge (1, 4) of cell 0, so V - E + C = 8 - 11 + 3 = 0
    "hanging": (_file("[[0,0],[0.5,0],[1,0],[0,1],[0.5,1],[1,1],[0.5,0.5],[1,0.5]]",
                      "[[0,1,4,3],[1,2,7,6],[6,7,5,4]]"),
                r"boundary edge \(1, 4\) does not lie on its boundary"),
}

def random_convex_polygon(m: int, rng, center=(0.5, 0.5), radius=0.35):
    """Strictly convex CCW polygon: distinct sorted angles on a circle, then a
    mild random affine distortion."""
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
        if gaps.min() > 0.25 * (2.0 * np.pi / m):
            break
    pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    shear = np.eye(2) + rng.uniform(-0.2, 0.2, (2, 2))
    return np.asarray(center) + radius * (pts @ shear.T)


# Single-polygon geometry oracles (vertices (m, 2), counterclockwise).  Each
# sum over the vertices is a one-cell np.add.reduceat in slot order, the
# reduction the packed mesh applies to every cell, so the two agree bit for
# bit (np.sum may add the terms in another order).

def edge_normals(poly):
    """Lengths (m,) and outward unit normals (m, 2) of the edges v_k -> v_k+1."""
    tang = np.roll(poly, -1, axis=0) - poly
    elen = np.linalg.norm(tang, axis=1)
    return elen, np.stack([tang[:, 1], -tang[:, 0]], axis=1) / elen[:, None]


def polygon_area(poly):
    """Shoelace area: half the sum of x_k y_k+1 - x_k+1 y_k."""
    nxt = np.roll(poly, -1, axis=0)
    return 0.5 * np.add.reduceat(poly[:, 0] * nxt[:, 1] - nxt[:, 0] * poly[:, 1], [0])[0]


def centroid(poly):
    """Area centroid: sum (v_k + v_k+1) cross_k / (3 sum cross_k), the split
    point x* of the fan."""
    nxt = np.roll(poly, -1, axis=0)
    cross = poly[:, 0] * nxt[:, 1] - nxt[:, 0] * poly[:, 1]
    return np.add.reduceat((poly + nxt) * cross[:, None], [0])[0] / (
        3.0 * np.add.reduceat(cross, [0])[0])


def interior_points(verts: np.ndarray, rng, n: int, pull: float = 0.9):
    """Strictly interior sample points of a convex polygon."""
    cen = verts.mean(axis=0)
    wts = rng.dirichlet(np.ones(len(verts)), size=n)
    return cen + pull * (wts @ verts - cen)


# One cell of the H(div) reconstruction, unpacked: the coefficients solved
# from their defining equations, the basis evaluated pointwise from the fan
# hats, independently of the moment kernel, which needs no C.

def rt_cell(verts):
    """(normals, edge_len, xstar, c0, cmat) of one convex CCW polygon:
    c0 = |e_i| / (2|T|), and cmat has zero row sums and C_ik - C_i,k+1 = b_ik
    = delta_ik |e_k| - |e_i| |tau_k| / |T|."""
    edge_len, normals = edge_normals(verts)
    xstar = centroid(verts)
    sub = one_cell(verts).tri_area
    # |T| summed over the fan as RTTable sums each cell, so c0 agrees bit for bit
    m, area = len(verts), np.add.reduceat(sub, [0])[0]
    c0 = edge_len / (2.0 * area)
    b = np.diag(edge_len) - np.outer(edge_len, sub / area)
    lhs = np.vstack([(np.eye(m) - np.roll(np.eye(m), 1, axis=1))[:-1], np.ones(m)])
    rhs = np.hstack([b[:, :-1], np.zeros((m, 1))])
    cmat = np.linalg.solve(lhs, rhs.T).T
    return normals, edge_len, xstar, c0, cmat


def fan_hats(verts, pts):
    """Values (n, m) and curls (n, m, 2) of the fan hats at points (n, 2) of
    the polygon verts.  Hat k is continuous and linear on each sub-triangle
    (x*, v_j, v_j+1): 1 at v_k, 0 at the other vertices and
    (|tau_k-1| + |tau_k|) / (2|T|) at x*.  Each linear piece is found by
    solving the 3x3 interpolation system of its sub-triangle; a point on a
    fan edge takes the piece of the later sub-triangle."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    m, n = len(verts), len(pts)
    xstar = centroid(verts)
    sub = one_cell(verts).tri_area
    hom = np.c_[pts, np.ones(n)]
    vals, curls = np.full((n, m), np.nan), np.full((n, m, 2), np.nan)
    for k in range(m):
        corners = np.c_[[xstar, verts[k], verts[(k + 1) % m]], np.ones(3)]
        nodal = np.zeros((3, m))
        nodal[0] = (sub + np.roll(sub, 1)) / (2.0 * sub.sum())
        nodal[1, k] = nodal[2, (k + 1) % m] = 1.0
        coef = np.linalg.solve(corners, nodal)  # h = a x + b y + c, rows a, b, c
        inside = np.all(np.linalg.solve(corners.T, hom.T) >= -1e-12, axis=0)
        vals[inside] = hom[inside] @ coef
        curls[inside] = np.stack([-coef[1], coef[0]], axis=-1)
    return vals, curls


def rt_basis(verts, pts):
    """Basis values phi (n, m, 2) at points (n, 2) of the polygon:
    c0_i (x - x*) + sum_k C_ik curl h_k."""
    pts = np.atleast_2d(pts)
    _, _, xstar, c0, cmat = rt_cell(verts)
    return (c0[None, :, None] * (pts[:, None, :] - xstar)
            + np.einsum("ik,nkc->nic", cmat, fan_hats(verts, pts)[1]))


def rt_moments(verts, f, rule=None):
    """int_T f . phi_i dx for each i, by quadrature on the fan sub-triangles
    (the package's triangle rule by default)."""
    s = one_cell(verts)
    rule = rule or triangle_rule()
    pts = map_rule(rule, (s.xstar[s.tri_cell], s.cvert, s.cvert[s.next_slot]))
    w = 2.0 * s.tri_area * rule.weights[:, None]
    pts = pts.reshape(-1, 2)
    return np.einsum("nic,nc,n->i", rt_basis(verts, pts), f(pts), w.ravel())


def one_cell(verts):
    """Staggered mesh of the single polygon verts."""
    return build_staggered(PrimalMesh(verts, [list(range(len(verts)))]))


def cells_of(mesh):
    """The cells of a mesh as lists of vertex indices, in cell order."""
    return [c.tolist() for c in np.split(mesh.cell_idx, mesh.cell_ptr[1:-1])]


def pressure_mean(p):
    """The area-weighted mean of a pressure field, which the solve makes 0."""
    area = p.stag.cell_area
    return float(area @ p.values / area.sum())


def jump_norm(v):
    """The paper's jump seminorm of a velocity field over the dual edges,
    (sum h_e^-1 ||[v]||_{0,e}^2)^(1/2): with h_e = |e| and [v] constant on
    each edge, every term is |[v]|^2."""
    tv = v.on_tris()
    jump = tv[v.stag.prev_slot] - tv
    return float(np.sqrt(np.sum(jump * jump)))


def reconstruction_divergence(stag, values):
    """Per-cell divergence sum_i 2 c0_i (u[loc_edge_i] . n_i) of the flux
    reconstruction of an edge velocity field (values (n_edges, 2))."""
    flux = np.einsum("sc,sc->s", values[stag.loc_edge], stag.cnorm)
    return np.add.reduceat(2.0 * RTTable(stag).c0 * flux, stag.cell_ptr[:-1])
