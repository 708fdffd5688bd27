import numpy as np
import pytest

from stokes_sdg import spaces
from stokes_sdg.cases import case_taylor
from stokes_sdg.mesh import build_staggered, generate_polygonal, generate_triangular
from stokes_sdg.quadrature import edge_points, edge_rule, map_to_triangles, triangle_rule
from stokes_sdg.spaces import (GradientField, PressureField, VelocityField,
                               error_gradient, error_pressure, error_super,
                               error_velocity, interp_gradient, interp_pressure,
                               interp_velocity, jump_norm)

from conftest import one_cell, random_convex_polygon


def constant_velocity(c):
    def u(p):
        return np.broadcast_to(np.asarray(c, dtype=float), p.shape).copy()
    return u


@pytest.mark.parametrize("field", [VelocityField, GradientField, PressureField])
def test_field_rejects_wrong_shape(field):
    stag = build_staggered(generate_triangular(2))
    with pytest.raises(ValueError, match="must have shape"):
        field(stag, np.zeros((stag.n_edges + 1, 3)))


# ------------------------------------------------------------ interpolation

def test_interp_velocity_constant():
    stag = build_staggered(generate_triangular(2))
    v = interp_velocity(stag, constant_velocity([3.0, -1.0]))
    assert np.abs(v.values - [3.0, -1.0]).max() < 1e-14


def test_interp_velocity_linear_gives_midpoints():
    stag = build_staggered(generate_triangular(2))

    def u(p):
        return p.copy()

    v = interp_velocity(stag, u)
    v0, v1 = stag.edge_endpoints()
    assert np.abs(v.values - 0.5 * (v0 + v1)).max() < 1e-13


def test_interp_velocity_error_halves():
    case = case_taylor()
    errs = []
    for n in (8, 16):
        stag = build_staggered(generate_triangular(n))
        ih = interp_velocity(stag, case.u)
        errs.append(error_velocity(ih, case.u))
    assert 1.7 < errs[0] / errs[1] < 2.3


def test_interp_gradient_constant_tensor():
    stag = build_staggered(generate_polygonal(2))
    tensor = np.array([[1.0, 2.0], [-0.5, 0.25]])

    def omega(p):
        return np.broadcast_to(tensor, p.shape[:-1] + (2, 2)).copy()

    g = interp_gradient(stag, omega)
    expected = np.einsum("ij,dj->di", tensor, stag.dual_normal)
    assert np.abs(g.values - expected).max() < 1e-13
    assert np.abs(g.tensors() - tensor).max() < 1e-12


def test_interp_pressure_constant_and_linear():
    stag = build_staggered(generate_triangular(2))
    ph = interp_pressure(stag, lambda p: np.full(p.shape[:-1], 42.0))
    assert np.abs(ph.values - 42.0).max() < 1e-12
    # mean of x over each cell = centroid x-coordinate
    ph = interp_pressure(stag, lambda p: p[..., 0])
    assert np.abs(ph.values - stag.xstar[:, 0]).max() < 1e-13
    # each cell sums its own sub-triangles in slot order, as a one-cell
    # reduction (poly L2: 4-, 5- and 6-vertex cells)
    stag = build_staggered(generate_polygonal(8))

    def p(x):
        return np.sin(3.0 * x[..., 0]) * x[..., 1]

    # one block: the rule's weights times the values at every point, (1, nq) @ (nq, nt)
    assert stag.n_duals <= spaces._BLOCK
    rule = triangle_rule(8)
    pts = map_to_triangles(rule, stag.xstar[stag.tri_cell], stag.cvert, stag.cvert[stag.next_slot])
    per_tri = 2.0 * stag.tri_area * (rule.weights[None, :] @ p(pts))[0]
    sums = [np.add.reduceat(per_tri[lo:hi], [0])[0]
            for lo, hi in zip(stag.cell_ptr[:-1], stag.cell_ptr[1:])]
    assert np.array_equal(interp_pressure(stag, p).values, np.array(sums) / stag.cell_area)


def test_interp_pressure_is_projection():
    # applying the cell-mean operator to an already cell-constant function
    # reproduces it exactly (checkerboard aligned with the 2-cell mesh)
    stag = build_staggered(generate_triangular(1))

    def pw(p):
        return np.where(p[..., 0] > p[..., 1], 2.0, -1.0)

    ph = interp_pressure(stag, pw)
    assert set(np.round(ph.values, 12)) == {2.0, -1.0}
    again = interp_pressure(stag, pw)
    assert np.array_equal(ph.values, again.values)


# ------------------------------------------------------------------- norms

def test_jump_norm_zero_for_global_constant():
    stag = build_staggered(generate_triangular(2))
    v = interp_velocity(stag, constant_velocity([3.0, -1.0]))
    assert jump_norm(v) < 1e-13


def test_jump_norm_single_interior_dof_hand_summed():
    # On the 2-triangle unit square, put (1, 0) on the diagonal edge.  Its
    # dual region has two sub-triangles, each flanked by 2 dual edges whose
    # other side carries 0, so ||v||_h^2 = sum over 4 dual edges of
    # h_e^-1 |e| |jump|^2 = 4 (h_e = |e| cancels).
    stag = build_staggered(generate_triangular(1))
    vals = np.zeros((stag.n_edges, 2))
    e = stag.interior_edges[0]
    vals[e] = (1.0, 0.0)
    v = VelocityField(stag, vals)
    # independent direct summation over dual edges
    tv = v.on_tris()
    direct = 0.0
    for d in range(stag.n_duals):
        jump = tv[stag.prev_slot[d]] - tv[d]
        direct += (1.0 / stag.dual_len[d]) * stag.dual_len[d] * jump @ jump
    assert abs(direct - 4.0) < 1e-14
    assert abs(jump_norm(v) - 2.0) < 1e-14


def test_norm_homogeneity():
    stag = build_staggered(generate_triangular(2))
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((stag.n_edges, 2))
    v = VelocityField(stag, vals)
    va = VelocityField(stag, -2.5 * vals)
    assert abs(jump_norm(va) - 2.5 * jump_norm(v)) < 1e-12


# ------------------------------------------------------------------ errors

def test_error_super_zero_for_interpolant():
    case = case_taylor()
    stag = build_staggered(generate_triangular(3))
    ih = interp_velocity(stag, case.u)
    assert error_super(ih, case.u) == 0.0


# -------------------------------------------------- interpolation identities

def test_velocity_interpolant_orthogonality():
    # B_h*(I_h u - u, psi) = 0: [psi n] is constant per primal edge and I_h
    # preserves edge means, so each edge term vanishes
    case = case_taylor()
    stag = build_staggered(generate_triangular(2))
    ih = interp_velocity(stag, case.u)
    rng = np.random.default_rng(5)
    rule = edge_rule()
    v0, v1 = stag.edge_endpoints()
    pts, w = edge_points(rule, v0, v1)
    uvals = case.u(pts.reshape(-1, 2)).reshape(pts.shape)
    scale = np.abs(ih.values).max()
    for trial in range(100):
        psi = GradientField(stag, rng.standard_normal((stag.n_duals, 2)))
        tens = psi.tensors()
        total = 0.0
        for e in stag.interior_edges:
            t1, t2 = stag.edge_slots[e]
            jump_n = (tens[t1] - tens[t2]) @ stag.cnorm[t1]
            diff = ih.values[e][None, :] - uvals[e]
            total += np.einsum("qc,c,q->", diff, jump_n, w[e])
        assert abs(total) < 1e-10 * max(scale, 1.0)


def test_gradient_interpolant_orthogonality():
    # B_h(J_h omega - omega, v) = 0: omega n_e is continuous across dual
    # edges and J_h preserves dual-edge means of the normal trace
    case = case_taylor()
    nu = 1.0
    stag = build_staggered(generate_triangular(2))
    jh = interp_gradient(stag, lambda p: case.omega(p, nu))
    rng = np.random.default_rng(6)
    rule = edge_rule()
    v0 = stag.xstar[stag.tri_cell]
    v1 = stag.cvert
    pts, w = edge_points(rule, v0, v1)
    om = case.omega(pts.reshape(-1, 2), nu).reshape(pts.shape[0], pts.shape[1], 2, 2)
    om_n = np.einsum("dqij,dj->dqi", om, stag.dual_normal)
    scale = np.abs(jh.values).max()
    for trial in range(100):
        vals = rng.standard_normal((stag.n_edges, 2))
        vals[stag.boundary_edges] = 0.0
        v = VelocityField(stag, vals)
        tv = v.on_tris()
        total = 0.0
        for d in range(stag.n_duals):
            jump = tv[stag.prev_slot[d]] - tv[d]
            diff = jh.values[d][None, :] - om_n[d]
            total -= np.einsum("qc,c,q->", diff, jump, w[d])
        assert abs(total) < 1e-10 * max(scale, 1.0)


# --------------------------------------------------------- block streaming

@pytest.mark.parametrize("name,gen", [
    ("poly-L2", lambda: build_staggered(generate_polygonal(8))),
    ("tri-L3-jitter", lambda: build_staggered(generate_triangular(8, jitter=0.2, seed=4))),
    ("one-10-gon", lambda: one_cell(random_convex_polygon(10, np.random.default_rng(10)))),
])
def test_block_size_does_not_change_results(name, gen, monkeypatch):
    from stokes_sdg.assembly import assemble_rhs

    stag = gen()
    case = case_taylor()
    rng = np.random.default_rng(3)
    u_h = VelocityField(stag, rng.standard_normal((stag.n_edges, 2)))
    omega_h = GradientField(stag, rng.standard_normal((stag.n_duals, 2)))
    p_h = PressureField(stag, rng.standard_normal(stag.n_cells))
    largest = [0]

    def spy(fn):
        def wrapped(x):
            largest[0] = max(largest[0], len(x))
            return fn(x)
        return wrapped

    def results():
        f = spy(lambda x: case.f(x, 1.0))
        return [assemble_rhs(stag, f, "sdg1"), assemble_rhs(stag, f, "sdg2"),
                interp_pressure(stag, spy(case.p)).values,
                error_velocity(u_h, spy(case.u)),
                error_gradient(omega_h, spy(lambda x: case.omega(x, 1.0))),
                error_pressure(p_h, spy(case.p))]

    nq = len(triangle_rule(spaces._TRI_DEGREE).weights)
    monkeypatch.setattr(spaces, "_BLOCK", stag.n_duals + 5)
    ref = results()
    assert largest[0] == stag.n_duals * nq
    for block in (1, 7):
        monkeypatch.setattr(spaces, "_BLOCK", block)
        largest[0] = 0
        got = results()
        assert largest[0] == min(block, stag.n_duals) * nq
        for a, b in zip(ref, got):
            assert np.abs(np.asarray(a) - b).max() <= 1e-14 * np.abs(a).max()
