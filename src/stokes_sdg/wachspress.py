"""Wachspress generalized barycentric coordinates on convex polygons.

Coordinates are rational functions with poles on the edge lines, so every
evaluation point must be strictly interior.  ``lam[i]`` is the coordinate of
vertex i (Lagrange property lam_i(v_j) = delta_ij); gradients come from the
ratio-function identity grad(lam_i) = lam_i (R_i - sum_j lam_j R_j) with
R_i = n~_{i-1} + n~_i, which is the analytic derivative of the determinant
weights.
"""

import numpy as np

from . import _kernels
from .mesh import _diameter, _edge_normals, _is_strictly_convex_ccw

__all__ = ["PolygonGeom", "eval_coords", "eval_grads", "eval_curls", "interp_nodal"]


class PolygonGeom:
    """Immutable geometry of a convex CCW polygon used for evaluation.

    Edge i connects vertex i to vertex i+1 (indices mod m) and carries the
    outward unit normal ``normals[i]``.
    """

    def __init__(self, verts):
        verts = np.asarray(verts, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise ValueError("polygon needs an (m, 2) vertex array with m >= 3")
        if not _is_strictly_convex_ccw(verts):
            raise ValueError("polygon is not strictly convex CCW or has a zero-length edge")
        self.verts = verts
        self.m = verts.shape[0]
        self.edge_len, self.normals = _edge_normals(verts)
        self.diam = _diameter(verts)

    def distances(self, pts):
        """Signed distances d_i = (v_i - x) . n_i, shape (n, m)."""
        diff = self.verts[None, :, :] - pts[:, None, :]
        return np.einsum("nmc,mc->nm", diff, self.normals)

    def check_interior(self, pts):
        eps = 1e-12 * self.diam
        d = self.distances(pts)
        if np.any(d <= eps):
            bad = np.argwhere(d <= eps)[0]
            raise ValueError(
                f"evaluation point {pts[bad[0]]} is within {eps:g} of edge line "
                f"{bad[1]} (Wachspress coordinates are singular there)"
            )


def _as_batch(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def eval_coords(poly: PolygonGeom, x):
    """Coordinates lam_1..lam_m at x; x may be (2,) or (n, 2)."""
    pts, single = _as_batch(x)
    poly.check_interior(pts)
    lam, _ = _kernels.coords_grads(poly.verts, poly.normals, pts)
    return lam[0] if single else lam


def eval_grads(poly: PolygonGeom, x):
    """Gradients of the coordinates, shape (m, 2) or (n, m, 2)."""
    pts, single = _as_batch(x)
    poly.check_interior(pts)
    _, grad = _kernels.coords_grads(poly.verts, poly.normals, pts)
    return grad[0] if single else grad


def eval_curls(poly: PolygonGeom, x):
    """curl lam_i = (-d_y lam_i, d_x lam_i): CCW 90-degree rotation of the gradient."""
    grad = eval_grads(poly, x)
    return np.stack([-grad[..., 1], grad[..., 0]], axis=-1)


def interp_nodal(poly: PolygonGeom, vertex_values, x):
    """Nodal interpolant sum_i values[i] lam_i(x) (scalar or vector values)."""
    vertex_values = np.asarray(vertex_values, dtype=float)
    lam = eval_coords(poly, x)
    return np.tensordot(lam, vertex_values, axes=([-1], [0]))
