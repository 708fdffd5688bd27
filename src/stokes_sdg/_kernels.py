"""The sdg1 load reconstruction on the centroid fan of a convex cell T.

With sub-triangles tau_k = (x*, v_k, v_k+1), edge e_k = v_k -> v_k+1, the
basis function of edge i is  phi_i = c0_i (x - x*) + sum_k C_ik curl h_k,
h_k the continuous piecewise-linear hat of vertex k on the fan with value
w_k = (|tau_k-1| + |tau_k|) / (2|T|) at x*.  These w_k give sum_k w_k v_k = x*,
so the hats reproduce linear functions, and phi_i reproduces constants.  On
tau_k, phi_i is the RT0 field  c0_i (x - x*) + [C_ik (v_k+1 - x*)
- C_i,k+1 (v_k - x*) + s_i (v_k - v_k+1)] / (2|tau_k|),  s_i = sum_j C_ij w_j.
"""

import numpy as np

from .mesh import _size_groups

USE_NUMBA = False  # read by perfbench/run.py for its "# env" line


def cell_moments(cell_ptr, cvert, tri_area, xstar, c0, cmat_ptr, cmat, pts, fw):
    """mom[s] = int_T f . phi_i for slot s (edge i of cell T), from the points
    pts (nd*nq, 2) of every sub-triangle's rule and fw (nd, nq, 2), f times the
    weights there.  With F_k = int_tau_k f, p_k = (v_k+1 - x*) . F_k / (2|tau_k|)
    and q_k = (v_k - x*) . F_k / (2|tau_k|), it is
    c0_i int_T f . (x - x*) + sum_k C_ik (p_k - q_k-1 + w_k sum_j (q_j - p_j))."""
    xs = np.repeat(xstar, np.diff(cell_ptr), axis=0)             # x* of each slot
    first = np.einsum("tqd,tqd->t", pts.reshape(fw.shape) - xs[:, None], fw)
    h = fw.sum(axis=1) / (2.0 * tri_area[:, None])               # F_k / (2|tau_k|)
    mom = np.empty(cell_ptr[-1])
    for m, cells, slots in _size_groups(cell_ptr):
        a = cvert[slots] - xs[slots]                             # v_k - x*
        hk, area = h[slots], tri_area[slots]
        p = np.einsum("ckd,ckd->ck", np.roll(a, -1, axis=1), hk)
        q = np.einsum("ckd,ckd->ck", a, hk)
        w = (area + np.roll(area, 1, axis=1)) / (2.0 * area.sum(axis=1, keepdims=True))
        g = p - np.roll(q, 1, axis=1) + w * (q - p).sum(axis=1, keepdims=True)
        cm = cmat[cmat_ptr[cells][:, None] + np.arange(m * m)].reshape(len(cells), m, m)
        mom[slots] = (c0[slots] * first[slots].sum(axis=1, keepdims=True)
                      + np.einsum("cik,ck->ci", cm, g))
    return mom
