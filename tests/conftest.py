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


def reconstruction_divergence(stag, values):
    """Per-cell divergence sum_i 2 c0_i (u[loc_edge_i] . n_i) of the flux
    reconstruction of an edge velocity field (values (n_edges, 2))."""
    flux = np.einsum("sc,sc->s", values[stag.loc_edge], stag.cnorm)
    return np.add.reduceat(2.0 * RTTable(stag).c0 * flux, stag.cell_ptr[:-1])
