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


def _checked(values, shape, what):
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError(f"{what} values must have shape {shape}, got {values.shape}")
    return values


def _tri_quad(stag):
    """The _TRI_DEGREE triangle rule mapped to every sub-triangle (x*, v_k,
    v_k+1): points (nt*nq, 2) and weights (nt, nq), shared by the loads, the
    pressure interpolant and the error functionals."""
    s = stag
    pts, w = map_to_triangles(triangle_rule(_TRI_DEGREE), s.xstar[s.tri_cell],
                              s.cvert, s.cvert[s.next_slot], s.tri_area)
    return pts.reshape(-1, 2), w


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
        """Per-sub-triangle 2x2 tensors, solving psi [n1 n2] = [q1 q2]."""
        s = self.stag
        # sub-triangle t is flanked by dual edges t and next_slot[t]
        nmat = np.stack([s.dual_normal, s.dual_normal[s.next_slot]], axis=2)
        qmat = np.stack([self.values, self.values[s.next_slot]], axis=2)
        return qmat @ np.linalg.inv(nmat)


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

def interp_velocity(stag: StaggeredMesh, u) -> VelocityField:
    """Edge-average interpolant: dof on e = (1/|e|) int_e u ds."""
    rule = edge_rule()
    v0, v1 = stag.edge_endpoints()
    pts, w = edge_points(rule, v0, v1)
    vals = np.asarray(u(pts.reshape(-1, 2))).reshape(pts.shape)
    dofs = np.einsum("eqc,eq->ec", vals, w) / stag.edge_len[:, None]
    return VelocityField(stag, dofs)


def interp_gradient(stag: StaggeredMesh, omega) -> GradientField:
    """Dual-edge interpolant: q_e = (1/|e|) int_e omega(x) n_e ds."""
    rule = edge_rule()
    s = stag
    # dual edge at packed slot d runs from its cell's x* to the vertex cvert[d]
    v0 = s.xstar[s.tri_cell]
    v1 = s.cvert
    pts, w = edge_points(rule, v0, v1)
    tens = np.asarray(omega(pts.reshape(-1, 2))).reshape(pts.shape[0], pts.shape[1], 2, 2)
    qn = np.einsum("eqij,ej->eqi", tens, s.dual_normal)
    dofs = np.einsum("eqi,eq->ei", qn, w) / s.dual_len[:, None]
    return GradientField(stag, dofs)


def interp_pressure(stag: StaggeredMesh, p) -> PressureField:
    """Cell-mean interpolant via sub-triangle quadrature."""
    pts, w = _tri_quad(stag)
    vals = np.asarray(p(pts)).reshape(w.shape)
    per_tri = np.einsum("tq,tq->t", vals, w)
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

def error_velocity(u_h: VelocityField, u) -> float:
    """||u - u_h||_0 with u evaluable at points."""
    s = u_h.stag
    pts, w = _tri_quad(s)
    exact = np.asarray(u(pts)).reshape(w.shape[0], w.shape[1], 2)
    diff = exact - u_h.on_tris()[:, None, :]
    return float(np.sqrt(np.einsum("tqc,tqc,tq->", diff, diff, w)))


def error_gradient(omega_h: GradientField, omega) -> float:
    """||omega - omega_h||_0 (Frobenius) with omega a tensor field."""
    s = omega_h.stag
    pts, w = _tri_quad(s)
    exact = np.asarray(omega(pts)).reshape(w.shape[0], w.shape[1], 2, 2)
    diff = exact - omega_h.tensors()[:, None, :, :]
    return float(np.sqrt(np.einsum("tqij,tqij,tq->", diff, diff, w)))


def error_pressure(p_h: PressureField, p) -> float:
    """||p - p_h||_0."""
    s = p_h.stag
    pts, w = _tri_quad(s)
    exact = np.asarray(p(pts)).reshape(w.shape)
    diff = exact - p_h.values[s.tri_cell][:, None]
    return float(np.sqrt(np.einsum("tq,tq,tq->", diff, diff, w)))


def error_super(u_h: VelocityField, u) -> float:
    """||I_h u - u_h||_0: exact sum, both fields piecewise constant."""
    s = u_h.stag
    ih = interp_velocity(s, u)
    diff = ih.on_tris() - u_h.on_tris()
    return float(np.sqrt(np.einsum("t,tc,tc->", s.tri_area, diff, diff)))
