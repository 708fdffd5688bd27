"""Interpolation operators and error functionals of the discrete fields on
the staggered mesh.

The discrete fields are arrays in the mesh's numbering, and every function
takes the mesh first.  The velocity u_h (ne, 2) is one 2-vector per primal
edge (constant on the dual region D(e); the boundary rows carry the
Dirichlet data), the velocity gradient omega_h (nd, 2) one trace q_e = psi
n_e per dual edge (gradient_tensors recovers the per-sub-triangle tensor
from the two flanking dual edges), and the pressure p_h (nc,) one value per
primal cell, with a global mean-zero constraint.  A function that indexes a
field checks its shape first, so an array a row too long is rejected.
"""

import numpy as np

from .mesh import StaggeredMesh
from .quadrature import edge_rule, map_rule, triangle_rule

__all__ = [
    "gradient_tensors", "interp_velocity", "interp_gradient", "interp_pressure",
    "error_velocity", "error_gradient", "error_pressure", "error_super",
]

# simplices mapped at a time: 2048 * 16 points * 2 doubles = 0.5 MB per
# block array, so no array of the whole mesh's quadrature points exists
_BLOCK = 2048


def _checked(values, shape, what):
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError(f"{what} values must have shape {shape}, got {values.shape}")
    return values


def _block_sums(rule, n, corners, fn, red=None, approx=None):
    """Reference sums  S_j = sum_q w_q g(x_jq)  of n simplices j, with w the
    rule's weights: int_t g = 2|t| S_t on a triangle t, and S_e is the mean
    of g on a segment e.  corners(sl) gives the corners of the simplices sl,
    one (nb, 2) array per column of rule.bary.  The integrand g is fn, which
    takes points (n, 2), or with approx (n, ...), a field constant on each
    simplex, the square (fn - approx)^2.  The rule is mapped onto _BLOCK
    simplices at a time and each block is reduced by one matrix product
    against the weights.  Returns (n, ...); with red (r, nq) in place of the
    weights, (n, r, ...)."""
    rows = rule.weights[None, :] if red is None else red
    out = None
    for lo in range(0, n, _BLOCK):
        sl = slice(lo, lo + _BLOCK)
        pts = map_rule(rule, corners(sl))                                # (nq, nb, 2)
        vals = np.asarray(fn(pts.reshape(-1, 2)))
        vals = vals.reshape(pts.shape[:2] + vals.shape[1:])              # (nq, nb, ...)
        if approx is not None:
            vals = vals - approx[sl]
            vals *= vals
        part = (rows @ vals.reshape(len(vals), -1)).reshape(len(rows), *vals.shape[1:])
        if out is None:
            out = np.empty((n, len(rows)) + vals.shape[2:])
        out[sl] = np.moveaxis(part, 0, 1)
    return out[:, 0] if red is None else out


def _tri_sums(stag, fn, moments=False, approx=None):
    """_block_sums of every sub-triangle t = (x*, v_k, v_k+1); with moments
    (nt, 3, ...), the sums of g, l1 g and l2 g, where l1, l2 are the
    barycentric coordinates of v_k and v_k+1."""
    s = stag
    rule = triangle_rule()
    w = rule.weights
    red = np.vstack([w, w * rule.bary[:, 1:].T]) if moments else None    # (3, nq)
    return _block_sums(rule, s.n_duals,
                       lambda sl: (s.xstar[s.tri_cell[sl]], s.cvert[sl], s.cvert[s.next_slot[sl]]),
                       fn, red, approx)


def _edge_means(stag, fn, edges) -> np.ndarray:
    """(1/|e|) int_e fn ds on the primal edges e (an index array), shape
    (len(edges), ...)."""
    return _block_sums(edge_rule(), len(edges), lambda sl: stag.edge_endpoints(edges[sl]), fn)


def gradient_tensors(stag: StaggeredMesh, q) -> np.ndarray:
    """Per-sub-triangle 2x2 tensors (nt, 2, 2) of the dual-edge traces q
    (nd, 2), solving psi [n1 n2] = [q1 q2] in closed form: psi = (q1 n2^perp
    - q2 n1^perp) / (n1 x n2), with n^perp = (n_y, -n_x).  assemble_mass
    rejects nearly parallel dual normals, so the cross product does not
    vanish."""
    s = stag
    q = _checked(q, (s.n_duals, 2), "gradient")
    # sub-triangle t is flanked by dual edges t and next_slot[t]
    n1, n2 = s.dual_normal, s.dual_normal[s.next_slot]
    q1, q2 = q, q[s.next_slot]
    det = n1[:, 0] * n2[:, 1] - n1[:, 1] * n2[:, 0]
    perp1 = np.stack([n1[:, 1], -n1[:, 0]], axis=1)
    perp2 = np.stack([n2[:, 1], -n2[:, 0]], axis=1)
    return (q1[:, :, None] * perp2[:, None, :]
            - q2[:, :, None] * perp1[:, None, :]) / det[:, None, None]


# ---------------------------------------------------------------------------
# Interpolation operators (edge averages / cell means)
# ---------------------------------------------------------------------------

def interp_velocity(stag: StaggeredMesh, u) -> np.ndarray:
    """Edge-average interpolant (ne, 2): dof on e = (1/|e|) int_e u ds."""
    return _edge_means(stag, u, np.arange(stag.n_edges))


def interp_gradient(stag: StaggeredMesh, omega) -> np.ndarray:
    """Dual-edge interpolant (nd, 2): q_e = (1/|e|) int_e omega(x) n_e ds."""
    s = stag
    # dual edge d runs from its cell's x* to cvert[d]; n_d is constant on it
    mean = _block_sums(edge_rule(), s.n_duals, lambda sl: (s.xstar[s.tri_cell[sl]], s.cvert[sl]),
                       omega)
    return np.einsum("dij,dj->di", mean, s.dual_normal)


def interp_pressure(stag: StaggeredMesh, p) -> np.ndarray:
    """Cell-mean interpolant (nc,) via sub-triangle quadrature."""
    per_tri = 2.0 * stag.tri_area * _tri_sums(stag, p)
    return np.add.reduceat(per_tri, stag.cell_ptr[:-1]) / stag.cell_area


# ---------------------------------------------------------------------------
# Error functionals
# ---------------------------------------------------------------------------

def _l2_error(stag, exact, approx) -> float:
    """||exact - approx||_0 for approx (nt, ...) constant on each sub-triangle."""
    sq = _tri_sums(stag, exact, approx=approx).reshape(stag.n_duals, -1).sum(axis=1)
    return float(np.sqrt(2.0 * stag.tri_area @ sq))


def error_velocity(stag: StaggeredMesh, u_h, u) -> float:
    """||u - u_h||_0 with u_h (ne, 2) and u evaluable at points."""
    u_h = _checked(u_h, (stag.n_edges, 2), "velocity")
    return _l2_error(stag, u, u_h[stag.loc_edge])


def error_gradient(stag: StaggeredMesh, omega_h, omega) -> float:
    """||omega - omega_h||_0 (Frobenius) with omega_h (nd, 2) and omega a
    tensor field."""
    return _l2_error(stag, omega, gradient_tensors(stag, omega_h))


def error_pressure(stag: StaggeredMesh, p_h, p) -> float:
    """||p - p_h||_0 with p_h (nc,)."""
    p_h = _checked(p_h, (stag.n_cells,), "pressure")
    return _l2_error(stag, p, p_h[stag.tri_cell])


def error_super(stag: StaggeredMesh, u_h, u) -> float:
    """||I_h u - u_h||_0 with u_h (ne, 2): exact sum, both fields piecewise
    constant."""
    u_h = _checked(u_h, (stag.n_edges, 2), "velocity")
    diff = (interp_velocity(stag, u) - u_h)[stag.loc_edge]
    return float(np.sqrt(np.einsum("t,tc,tc->", stag.tri_area, diff, diff)))
