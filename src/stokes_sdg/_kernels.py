"""The sdg1 load moments on the centroid fan of a convex cell T.

With sub-triangles tau_k = (x*, v_k, v_k+1), edge e_k = v_k -> v_k+1, the
basis function of edge i is  phi_i = c0_i (x - x*) + sum_k C_ik curl h_k,
h_k the continuous piecewise-linear hat of vertex k on the fan with value
w_k = (|tau_k-1| + |tau_k|) / (2|T|) at x*.  c0_i = |e_i| / (2|T|) makes
div phi_i = 2 c0_i; C has zero row sums and C_ik - C_i,k+1 = b_ik =
delta_ik |e_k| - |e_i| a_k, a_k = |tau_k| / |T|, which makes the normal
trace of phi_i on edge j delta_ij.  The moments need no C: the load terms
g_k below sum to zero over T, so summation by parts turns sum_k C_ik g_k
into sum_k b_ik G_k with G_k = g_0 + ... + g_k.  C is formed only by the
tests' oracle.  The kernel sees f only through three reference sums per
sub-triangle, S (nd, 3, 2); it takes no quadrature points.
"""

import numpy as np

from .mesh import _size_groups

USE_NUMBA = False  # read by perfbench/run.py for its "# env" line


def cell_moments(cell_ptr, dual_vec, tri_area, cell_area, c0, frac, hatw, S):
    """mom[s] = int_T f . phi_i for slot s (edge i of cell T), from the
    dual-edge vectors r_k = v_k - x*, the areas |tau_k| and |T|, the
    reference sums S (nd, 3, 2) of f, l1 f and l2 f on every sub-triangle
    tau_k (spaces._tri_sums), l1 and l2 the barycentric coordinates of v_k
    and v_k+1, so that int_tau_k f = 2|tau_k| S_k0.  Since
    x - x* = l1 r_k + l2 r_k+1, int_tau_k f . (x - x*) = 2|tau_k|
    (r_k . S_k1 + r_k+1 . S_k2).  With p_k = r_k+1 . S_k0, q_k = r_k . S_k0
    and g_k = p_k - q_k-1 + w_k sum_j (q_j - p_j), the moment is
    c0_i (int_T f . (x - x*) + 2|T| (G_i - sum_k a_k G_k))."""
    mom = np.empty(cell_ptr[-1])
    for _, cells, slots in _size_groups(cell_ptr):
        r, sk = dual_vec[slots], S[slots]                        # v_k - x*
        rn = np.roll(r, -1, axis=1)                              # v_k+1 - x*
        two_tri = 2.0 * tri_area[slots]
        first = two_tri * (np.einsum("ckd,ckd->ck", r, sk[:, :, 1])
                           + np.einsum("ckd,ckd->ck", rn, sk[:, :, 2]))
        p = np.einsum("ckd,ckd->ck", rn, sk[:, :, 0])
        q = np.einsum("ckd,ckd->ck", r, sk[:, :, 0])
        g = p - np.roll(q, 1, axis=1) + hatw[slots] * (q - p).sum(axis=1, keepdims=True)
        big_g = np.cumsum(g, axis=1)  # per cell: one cumsum over all slots drifts
        two_area = 2.0 * cell_area[cells, None]
        mom[slots] = c0[slots] * (
            first.sum(axis=1, keepdims=True)
            + two_area * (big_g - (frac[slots] * big_g).sum(axis=1, keepdims=True)))
    return mom
