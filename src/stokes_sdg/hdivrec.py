"""Minimal-degree H(div)-conforming basis on convex cells and the flux
reconstruction operator.

On a cell with m edges the basis is

    phi_i(x) = c_{i,0} (x - x*) + sum_k c_{i,k} curl lam_k,

with c_{i,0} = |e_i| / (2|T|), b_{i,l} = delta_il |e_l| - |e_i| |T_l| / |T|
and c_{i,k} = -(1/m) sum_{l=1}^{m-1} l * b_{i,k+l} (indices mod m), where
|T_l| is the area of the fan triangle (x*, v_l, v_l+1).  The coefficients
satisfy c_{i,k} - c_{i,k+1} = b_{i,k}, which is exactly what makes the
normal traces Kronecker: phi_i . n_j = delta_ij / 1 on edge j.  The
divergence is the constant 2 c_{i,0}.

Reconstruction maps edge-average normal fluxes r_i to the H(div) field
sum_i r_i phi_i, reproducing constants and commuting with curl through the
nodal interpolant.
"""

import numpy as np

from . import _kernels
from .mesh import _centroid, _fan_areas, _fan_triangles
from .quadrature import edge_points, edge_rule, map_to_triangles, triangle_rule
from .wachspress import PolygonGeom

__all__ = [
    "RTBasis", "build_basis", "eval_basis", "divergence",
    "edge_fluxes", "reconstruct", "moments", "Reconstruction",
]


class RTBasis:
    """Per-cell coefficients of the H(div) basis."""

    def __init__(self, poly: PolygonGeom, xstar, subareas, c0, cmat):
        self.poly = poly
        self.xstar = xstar
        self.subareas = subareas
        self.c0 = c0
        self.cmat = cmat

    @property
    def m(self) -> int:
        return self.poly.m

    @property
    def area(self) -> float:
        return float(self.subareas.sum())


def rt_coefficients(edge_len, subareas):
    """(c0, C) from the edge lengths and fan-triangle areas (..., m) of one
    cell or of a stack of cells of equal size; C has shape (..., m, m)."""
    m = edge_len.shape[-1]
    area = subareas.sum(axis=-1)[..., None]
    c0 = edge_len / (2.0 * area)
    b = (edge_len[..., :, None] * np.eye(m)
         - edge_len[..., :, None] * subareas[..., None, :] / area[..., None])
    # C[i, k] = -(1/m) sum_l l * b[i, (k + l) % m], l = 1 .. m-1
    ell = np.arange(1, m)
    return c0, -(ell * b[..., (np.arange(m)[:, None] + ell) % m]).sum(axis=-1) / m


def build_basis(verts, xstar=None) -> RTBasis:
    """Basis for the convex CCW cell ``verts``; x* defaults to the centroid
    (the same split point used by the staggered subdivision)."""
    poly = PolygonGeom(verts)
    xstar = _centroid(poly.verts) if xstar is None else np.asarray(xstar, dtype=float)
    sub = _fan_areas(_fan_triangles(poly.verts, xstar))
    c0, cmat = rt_coefficients(poly.edge_len, sub)
    return RTBasis(poly, xstar, sub, c0, cmat)


def eval_basis(basis: RTBasis, i: int, x):
    """phi_i at interior x; x may be (2,) or (n, 2)."""
    return eval_basis_all(basis, x)[..., i, :]


def eval_basis_all(basis: RTBasis, x):
    """All basis values, shape (m, 2) or (n, m, 2)."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    basis.poly.check_interior(pts)
    phi = _kernels.basis_values(
        basis.poly.verts, basis.poly.normals, basis.xstar,
        basis.c0, basis.cmat, pts,
    )
    return phi[0] if single else phi


def divergence(basis: RTBasis, i: int) -> float:
    """div phi_i, constant on the cell."""
    return 2.0 * float(basis.c0[i])


def edge_fluxes(basis: RTBasis, field, n_gauss: int = 8) -> np.ndarray:
    """r_i = (1/|e_i|) int_{e_i} field . n_i ds for a smooth vector field.

    ``field`` maps points (n, 2) to values (n, 2).  For piecewise-constant
    velocity fields use the exact dof expression in ``spaces`` instead.
    """
    rule = edge_rule(n_gauss)
    v0 = basis.poly.verts
    v1 = np.roll(v0, -1, axis=0)
    pts, w = edge_points(rule, v0, v1)
    vals = np.asarray(field(pts.reshape(-1, 2))).reshape(pts.shape)
    flux = np.einsum("eqc,ec,eq->e", vals, basis.poly.normals, w)
    return flux / basis.poly.edge_len


class Reconstruction:
    """Cell-local field sum_i r_i phi_i with constant divergence."""

    def __init__(self, basis: RTBasis, fluxes):
        self.basis = basis
        self.fluxes = np.asarray(fluxes, dtype=float)

    def __call__(self, x):
        phi = eval_basis_all(self.basis, x)
        return np.tensordot(phi, self.fluxes, axes=([-2], [0]))

    def divergence(self) -> float:
        return float(np.sum(2.0 * self.basis.c0 * self.fluxes))


def reconstruct(basis: RTBasis, fluxes) -> Reconstruction:
    return Reconstruction(basis, fluxes)


def moments(basis: RTBasis, f, degree: int = 8) -> np.ndarray:
    """int_T f . phi_i dx for each i, by fan sub-triangle quadrature.

    Accurate for the rational integrands because nodes stay strictly inside
    each sub-triangle, away from the cell's edge lines.
    """
    rule = triangle_rule(degree)
    pts, w = map_to_triangles(rule, _fan_triangles(basis.poly.verts, basis.xstar))
    pts = pts.reshape(-1, 2)
    fvals = np.asarray(f(pts))
    phi = eval_basis_all(basis, pts)
    return np.einsum("nic,nc,n->i", phi, fvals, w.ravel())
