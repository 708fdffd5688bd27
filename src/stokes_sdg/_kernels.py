"""Hot evaluation kernels: Wachspress coordinates and H(div) basis values.

Every kernel is one vectorized numpy implementation; ``wachspress``,
``hdivrec`` and ``assembly`` call them through this module's attributes.

Conventions baked into these kernels (shared with the rest of the package):
vertices are counterclockwise, edge i runs from vertex i to vertex i+1 with
outward unit normal ``normals[i]``, and the coordinate ``lam[i]`` belongs to
vertex i, i.e. its weight is det(n~_{i-1}, n~_i) built from the two edges
meeting at vertex i.  Callers guarantee that evaluation points are strictly
interior; there is no domain guard here.
"""

import numpy as np

# read by perfbench/run.py for the kernel path it reports on its "# env" line
USE_NUMBA = False


# ---------------------------------------------------------------------------
# Wachspress coordinates and gradients, one polygon, a batch of points.
# ---------------------------------------------------------------------------

def coords_grads(verts, normals, pts):
    """lam (n, m) and grad (n, m, 2) at interior points pts (n, 2)."""
    diff = verts[None, :, :] - pts[:, None, :]          # (n, m, 2)
    d = np.einsum("nmc,mc->nm", diff, normals)          # (n, m)
    ntil = normals[None, :, :] / d[:, :, None]          # (n, m, 2)
    prev = np.roll(ntil, 1, axis=1)                     # edge i-1 at slot i
    w = prev[:, :, 0] * ntil[:, :, 1] - prev[:, :, 1] * ntil[:, :, 0]
    lam = w / w.sum(axis=1)[:, None]
    # ratio-function gradient: grad w_i / w_i = n~_{i-1} + n~_i
    r = prev + ntil
    rbar = np.einsum("nm,nmc->nc", lam, r)
    grad = lam[:, :, None] * (r - rbar[:, None, :])
    return lam, grad


# ---------------------------------------------------------------------------
# H(div) basis values phi_i(x) = c0_i (x - x*) + sum_k C[i,k] curl lam_k.
# ---------------------------------------------------------------------------

def basis_values(verts, normals, xstar, c0, cmat, pts):
    """phi (n, m, 2) for one cell at interior points pts (n, 2)."""
    _, grad = coords_grads(verts, normals, pts)
    curl = np.stack([-grad[:, :, 1], grad[:, :, 0]], axis=2)
    phi = np.einsum("ik,nkc->nic", cmat, curl)
    phi += c0[None, :, None] * (pts[:, None, :] - xstar[None, None, :])
    return phi


# ---------------------------------------------------------------------------
# Per-cell load moments  mom[c, i] = sum_q w_q f(x_q) . phi_i(x_q)
# over packed cells.  ``fw`` carries f already multiplied by the quadrature
# weight; the point block of cell c is rows ptr[c]*npc : ptr[c+1]*npc where
# npc is the number of points per sub-triangle (each cell has m sub-tris).
# ---------------------------------------------------------------------------

def cell_moments(cell_ptr, verts, normals, xstar, c0, cmat_ptr, cmat, pts, fw, npc):
    nc = cell_ptr.shape[0] - 1
    mom = np.zeros(cell_ptr[-1])
    for c in range(nc):
        lo, hi = cell_ptr[c], cell_ptr[c + 1]
        m = hi - lo
        sl = slice(lo * npc, hi * npc)
        phi = basis_values(
            verts[lo:hi], normals[lo:hi], xstar[c], c0[lo:hi],
            cmat[cmat_ptr[c]:cmat_ptr[c + 1]].reshape(m, m), pts[sl],
        )
        mom[lo:hi] = np.einsum("nic,nc->i", phi, fw[sl])
    return mom
