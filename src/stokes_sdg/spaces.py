"""Discrete fields on the staggered mesh, interpolation operators, the jump
seminorm and error functionals.

Velocity lives as one 2-vector per primal edge (constant on the dual region
D(e)), the velocity gradient as one 2-vector trace q_e = psi n_e per dual
edge (the per-sub-triangle tensor is recovered from the two flanking dual
edges), and pressure as one value per primal cell with a global mean-zero
constraint.
"""

import numpy as np

from .mesh import StaggeredMesh
from .quadrature import edge_points, edge_rule, map_to_triangles, triangle_rule

__all__ = [
    "VelocityField", "GradientField", "PressureField",
    "interp_velocity", "interp_gradient", "interp_pressure",
    "jump_norm",
    "error_velocity", "error_gradient", "error_pressure", "error_super",
]

_TRI_DEGREE = 8
# sub-triangles mapped at a time: 2048 * 16 points * 2 doubles = 0.5 MB per
# block array, so no array of the whole mesh's quadrature points exists
_BLOCK = 2048


def _checked(values, shape, what):
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError(f"{what} values must have shape {shape}, got {values.shape}")
    return values


def _tri_sums(stag, fn, moments=False, approx=None):
    """Reference sums  S_t = sum_q w_q g(x_tq)  of every sub-triangle t =
    (x*, v_k, v_k+1), with w the _TRI_DEGREE rule's reference weights, so that
    int_t g = 2|t| S_t.  The integrand g is fn, which takes points (n, 2), or
    with approx (nt, ...), a field constant on each sub-triangle, the square
    (fn - approx)^2.  The rule is mapped onto _BLOCK sub-triangles at a time
    and each block is reduced by one matrix product against the weights.
    Returns (nt, ...); with moments (nt, 3, ...), the sums of g, l1 g and
    l2 g, where l1, l2 are the barycentric coordinates of v_k and v_k+1."""
    s = stag
    rule = triangle_rule(_TRI_DEGREE)
    w = rule.weights
    red = np.vstack([w, w * rule.points.T]) if moments else w[None, :]   # (3 or 1, nq)
    out = None
    for lo in range(0, s.n_duals, _BLOCK):
        sl = slice(lo, lo + _BLOCK)
        pts = map_to_triangles(rule, s.xstar[s.tri_cell[sl]], s.cvert[sl],
                               s.cvert[s.next_slot[sl]])                 # (nq, nb, 2)
        vals = np.asarray(fn(pts.reshape(-1, 2)))
        vals = vals.reshape(pts.shape[:2] + vals.shape[1:])              # (nq, nb, ...)
        if approx is not None:
            vals = vals - approx[sl]
            vals *= vals
        part = (red @ vals.reshape(len(vals), -1)).reshape(len(red), *vals.shape[1:])
        if out is None:
            out = np.empty((s.n_duals, len(red)) + vals.shape[2:])
        out[sl] = np.moveaxis(part, 0, 1)
    return out if moments else out[:, 0]


class VelocityField:
    """Piecewise-constant velocity: values (ne, 2) on the primal edges;
    boundary entries carry the Dirichlet data rather than unknowns."""

    def __init__(self, stag: StaggeredMesh, values):
        self.stag = stag
        self.values = _checked(values, (stag.n_edges, 2), "velocity")

    def on_tris(self) -> np.ndarray:
        """Per-sub-triangle constant value (the base edge's dof), (nt, 2)."""
        return self.values[self.stag.loc_edge]


class GradientField:
    """Velocity-gradient approximation stored through its dual-edge normal
    traces q_e = psi n_e, shape (nd, 2)."""

    def __init__(self, stag: StaggeredMesh, values):
        self.stag = stag
        self.values = _checked(values, (stag.n_duals, 2), "gradient")

    def tensors(self) -> np.ndarray:
        """Per-sub-triangle 2x2 tensors, solving psi [n1 n2] = [q1 q2] in
        closed form: psi = (q1 n2^perp - q2 n1^perp) / (n1 x n2), with
        n^perp = (n_y, -n_x).  assemble_mass rejects nearly parallel dual
        normals, so the cross product does not vanish."""
        s = self.stag
        # sub-triangle t is flanked by dual edges t and next_slot[t]
        n1, n2 = s.dual_normal, s.dual_normal[s.next_slot]
        q1, q2 = self.values, self.values[s.next_slot]
        det = n1[:, 0] * n2[:, 1] - n1[:, 1] * n2[:, 0]
        perp1 = np.stack([n1[:, 1], -n1[:, 0]], axis=1)
        perp2 = np.stack([n2[:, 1], -n2[:, 0]], axis=1)
        return (q1[:, :, None] * perp2[:, None, :]
                - q2[:, :, None] * perp1[:, None, :]) / det[:, None, None]


class PressureField:
    """Piecewise-constant pressure: one value per primal cell."""

    def __init__(self, stag: StaggeredMesh, values):
        self.stag = stag
        self.values = _checked(values, (stag.n_cells,), "pressure")

    def mean(self) -> float:
        return float(np.dot(self.stag.cell_area, self.values))


# ---------------------------------------------------------------------------
# Interpolation operators (edge averages / cell means)
# ---------------------------------------------------------------------------

def _edge_means(fn, v0, v1) -> np.ndarray:
    """(1/|e|) int_e fn ds on the segments e = v0 -> v1, shape (ne, k) for
    fn taking points (n, 2) to values (n, ...) of k entries each."""
    pts, w = edge_points(edge_rule(), v0, v1)
    vals = np.asarray(fn(pts.reshape(-1, 2))).reshape(pts.shape[:2] + (-1,))
    return np.einsum("eqc,eq->ec", vals, w) / np.linalg.norm(v1 - v0, axis=1)[:, None]


def interp_velocity(stag: StaggeredMesh, u) -> VelocityField:
    """Edge-average interpolant: dof on e = (1/|e|) int_e u ds."""
    return VelocityField(stag, _edge_means(u, *stag.edge_endpoints()))


def interp_gradient(stag: StaggeredMesh, omega) -> GradientField:
    """Dual-edge interpolant: q_e = (1/|e|) int_e omega(x) n_e ds."""
    s = stag
    # dual edge d runs from its cell's x* to cvert[d]; n_d is constant on it
    mean = _edge_means(omega, s.xstar[s.tri_cell], s.cvert).reshape(-1, 2, 2)
    return GradientField(stag, np.einsum("dij,dj->di", mean, s.dual_normal))


def interp_pressure(stag: StaggeredMesh, p) -> PressureField:
    """Cell-mean interpolant via sub-triangle quadrature."""
    per_tri = 2.0 * stag.tri_area * _tri_sums(stag, p)
    return PressureField(stag, np.add.reduceat(per_tri, stag.cell_ptr[:-1]) / stag.cell_area)


# ---------------------------------------------------------------------------
# Jump seminorm
# ---------------------------------------------------------------------------

def jump_norm(v: VelocityField) -> float:
    """Jump seminorm over dual edges: (sum h_e^-1 ||[v]||_{0,e}^2)^(1/2), h_e = |e|."""
    s = v.stag
    tv = v.on_tris()
    jump = tv[s.prev_slot] - tv
    return float(np.sqrt(np.sum(jump * jump)))


# ---------------------------------------------------------------------------
# Error functionals
# ---------------------------------------------------------------------------

def _l2_error(stag, exact, approx) -> float:
    """||exact - approx||_0 for approx (nt, ...) constant on each sub-triangle."""
    sq = _tri_sums(stag, exact, approx=approx).reshape(stag.n_duals, -1).sum(axis=1)
    return float(np.sqrt(2.0 * stag.tri_area @ sq))


def error_velocity(u_h: VelocityField, u) -> float:
    """||u - u_h||_0 with u evaluable at points."""
    return _l2_error(u_h.stag, u, u_h.on_tris())


def error_gradient(omega_h: GradientField, omega) -> float:
    """||omega - omega_h||_0 (Frobenius) with omega a tensor field."""
    return _l2_error(omega_h.stag, omega, omega_h.tensors())


def error_pressure(p_h: PressureField, p) -> float:
    """||p - p_h||_0."""
    s = p_h.stag
    return _l2_error(s, p, p_h.values[s.tri_cell])


def error_super(u_h: VelocityField, u) -> float:
    """||I_h u - u_h||_0: exact sum, both fields piecewise constant."""
    s = u_h.stag
    ih = interp_velocity(s, u)
    diff = ih.on_tris() - u_h.on_tris()
    return float(np.sqrt(np.einsum("t,tc,tc->", s.tri_area, diff, diff)))
