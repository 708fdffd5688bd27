"""Hot evaluation kernels: Wachspress coordinates, the coefficients of the
H(div) reconstruction basis and its values.

Every kernel is one vectorized numpy implementation; ``assembly`` calls them
through this module's attributes.

Conventions baked into these kernels (shared with the rest of the package):
vertices are counterclockwise, edge i runs from vertex i to vertex i+1 with
outward unit normal ``normals[i]``, and the coordinate ``lam[i]`` belongs to
vertex i, i.e. its weight is det(n~_{i-1}, n~_i) built from the two edges
meeting at vertex i.  Callers guarantee that evaluation points are strictly
interior; there is no domain guard here.
"""

import numpy as np

from .mesh import _size_groups

# read by perfbench/run.py for the kernel path it reports on its "# env" line
USE_NUMBA = False


# Cells per chunk of cell_moments.  Its temporaries grow with the chunk: on
# the hexagons of poly L5, load_moments raised the peak memory by 22 MB at
# 512 cells and by 137 MB at 2048, and by nothing measurable at 128, where
# it ran no slower.
CHUNK = 128


# ---------------------------------------------------------------------------
# Wachspress coordinates and gradients at a batch of points of one polygon,
# or of each polygon of a stack of equal-size polygons (leading axes ...).
# ---------------------------------------------------------------------------

def coords_grads(verts, normals, pts):
    """lam (..., n, m) and grad (..., n, m, 2) at interior points pts (..., n, 2)
    of the polygons verts (..., m, 2) with outward normals (..., m, 2)."""
    diff = verts[..., None, :, :] - pts[..., :, None, :]        # (..., n, m, 2)
    nrm = normals[..., None, :, :]                              # (..., 1, m, 2)
    d = diff[..., 0] * nrm[..., 0] + diff[..., 1] * nrm[..., 1]  # (..., n, m)
    ntil = nrm / d[..., None]                                   # (..., n, m, 2)
    prev = np.roll(ntil, 1, axis=-2)                            # edge i-1 at slot i
    w = prev[..., 0] * ntil[..., 1] - prev[..., 1] * ntil[..., 0]
    lam = w / w.sum(axis=-1)[..., None]
    # ratio-function gradient: grad w_i / w_i = n~_{i-1} + n~_i
    r = prev + ntil
    rbar = np.einsum("...nm,...nmc->...nc", lam, r)
    grad = lam[..., None] * (r - rbar[..., None, :])
    return lam, grad


# ---------------------------------------------------------------------------
# H(div) basis on a convex cell with m edges:
#
#     phi_i(x) = c_{i,0} (x - x*) + sum_k c_{i,k} curl lam_k,
#
# with c_{i,0} = |e_i| / (2|T|), b_{i,l} = delta_il |e_l| - |e_i| |T_l| / |T|
# and c_{i,k} = -(1/m) sum_{l=1}^{m-1} l * b_{i,k+l} (indices mod m), where
# |T_l| is the area of the fan triangle (x*, v_l, v_l+1).  The coefficients
# satisfy c_{i,k} - c_{i,k+1} = b_{i,k}, which is exactly what makes the
# normal traces Kronecker: phi_i . n_j = delta_ij on edge j.  The divergence
# is the constant 2 c_{i,0}, so the reconstruction sum_i r_i phi_i of the
# edge fluxes r_i has divergence sum_i 2 c_{i,0} r_i.
# ---------------------------------------------------------------------------

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


def basis_values(verts, normals, xstar, c0, cmat, pts):
    """phi (..., n, m, 2) at interior points pts (..., n, 2) of one cell or of
    a stack of equal-size cells: xstar (..., 2), c0 (..., m), cmat (..., m, m)."""
    _, grad = coords_grads(verts, normals, pts)
    curl = np.stack([-grad[..., 1], grad[..., 0]], axis=-1)
    phi = np.einsum("...ik,...nkc->...nic", cmat, curl)
    phi += c0[..., None, :, None] * (pts[..., :, None, :] - xstar[..., None, None, :])
    return phi


# ---------------------------------------------------------------------------
# Per-cell load moments  mom[c, i] = sum_q w_q f(x_q) . phi_i(x_q)
# over packed cells.  ``fw`` carries f already multiplied by the quadrature
# weight; the point block of cell c is rows ptr[c]*npc : ptr[c+1]*npc where
# npc is the number of points per sub-triangle (each cell has m sub-tris).
# Cells are evaluated in chunks of at most CHUNK cells of equal size.
# ---------------------------------------------------------------------------

def cell_moments(cell_ptr, verts, normals, xstar, c0, cmat_ptr, cmat, pts, fw, npc):
    mom = np.empty(cell_ptr[-1])
    for m, cells, slots in _size_groups(cell_ptr):
        for lo in range(0, len(cells), CHUNK):
            cc, sl = cells[lo:lo + CHUNK], slots[lo:lo + CHUNK]
            rows = (cell_ptr[cc] * npc)[:, None] + np.arange(m * npc)
            cm = cmat[cmat_ptr[cc][:, None] + np.arange(m * m)].reshape(len(cc), m, m)
            phi = basis_values(verts[sl], normals[sl], xstar[cc], c0[sl], cm, pts[rows])
            mom[sl] = np.einsum("knic,knc->ki", phi, fw[rows])
    return mom
