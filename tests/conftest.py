import numpy as np

from stokes_sdg import _kernels
from stokes_sdg.assembly import RTTable
from stokes_sdg.mesh import (PrimalMesh, _centroid, _edge_normals, _fan_triangles,
                             build_staggered)
from stokes_sdg.quadrature import map_to_triangles, triangle_rule


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


def interior_points(verts: np.ndarray, rng, n: int, pull: float = 0.9):
    """Strictly interior sample points of a convex polygon."""
    cen = verts.mean(axis=0)
    wts = rng.dirichlet(np.ones(len(verts)), size=n)
    return cen + pull * (wts @ verts - cen)


# One cell of the H(div) reconstruction, built by the same polygon helpers
# and kernels that the packed RTTable and load_moments use, but unpacked.

def rt_cell(verts):
    """(normals, edge_len, xstar, c0, cmat) of one convex CCW polygon."""
    edge_len, normals = _edge_normals(verts)
    xstar = _centroid(verts)
    c0, cmat = _kernels.rt_coefficients(edge_len, one_cell(verts).tri_area)
    return normals, edge_len, xstar, c0, cmat


def wachspress(verts, pts):
    """Coordinates (n, m) and their gradients (n, m, 2) at interior points (n, 2)."""
    return _kernels.coords_grads(verts, _edge_normals(verts)[1], np.atleast_2d(pts))


def rt_basis(verts, pts):
    """Basis values phi (n, m, 2) at interior points (n, 2)."""
    normals, _, xstar, c0, cmat = rt_cell(verts)
    return _kernels.basis_values(verts, normals, xstar, c0, cmat, np.atleast_2d(pts))


def rt_moments(verts, f, degree=8):
    """int_T f . phi_i dx for each i, by quadrature on the fan sub-triangles."""
    pts, w = map_to_triangles(triangle_rule(degree), _fan_triangles(verts, _centroid(verts)))
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
