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
tests' oracle.
"""

import numpy as np

from .mesh import _size_groups

USE_NUMBA = False  # read by perfbench/run.py for its "# env" line


def cell_moments(cell_ptr, cvert, tri_area, xstar, c0, frac, hatw, pts, fw):
    """mom[s] = int_T f . phi_i for slot s (edge i of cell T), from the points
    pts (nd*nq, 2) of every sub-triangle's rule and fw (nd, nq, 2), f times the
    weights there.  With F_k = int_tau_k f, p_k = (v_k+1 - x*) . F_k / (2|tau_k|),
    q_k = (v_k - x*) . F_k / (2|tau_k|) and g_k = p_k - q_k-1 + w_k sum_j (q_j - p_j),
    it is  c0_i (int_T f . (x - x*) + 2|T| (G_i - sum_k a_k G_k))."""
    xs = np.repeat(xstar, np.diff(cell_ptr), axis=0)             # x* of each slot
    first = np.einsum("tqd,tqd->t", pts.reshape(fw.shape) - xs[:, None], fw)
    h = fw.sum(axis=1) / (2.0 * tri_area[:, None])               # F_k / (2|tau_k|)
    mom = np.empty(cell_ptr[-1])
    for _, _, slots in _size_groups(cell_ptr):
        a, hk = cvert[slots] - xs[slots], h[slots]               # v_k - x*
        p = np.einsum("ckd,ckd->ck", np.roll(a, -1, axis=1), hk)
        q = np.einsum("ckd,ckd->ck", a, hk)
        g = p - np.roll(q, 1, axis=1) + hatw[slots] * (q - p).sum(axis=1, keepdims=True)
        big_g = np.cumsum(g, axis=1)  # per cell: one cumsum over all slots drifts
        two_area = 2.0 * tri_area[slots].sum(axis=1, keepdims=True)
        mom[slots] = c0[slots] * (
            first[slots].sum(axis=1, keepdims=True)
            + two_area * (big_g - (frac[slots] * big_g).sum(axis=1, keepdims=True)))
    return mom
