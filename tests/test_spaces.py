import dataclasses

import numpy as np
import pytest

from stokes_sdg import spaces
from stokes_sdg.cases import case_taylor
from stokes_sdg.mesh import PrimalMesh, build_staggered, generate_polygonal, generate_triangular
from stokes_sdg.quadrature import edge_rule, map_rule, triangle_rule
from stokes_sdg.spaces import (error_gradient, error_pressure, error_super, error_velocity,
                               gradient_tensors, interp_gradient, interp_pressure,
                               interp_velocity)

from conftest import jump_norm, one_cell, pressure_mean, random_convex_polygon


def constant_velocity(c):
    def u(p):
        return np.broadcast_to(np.asarray(c, dtype=float), p.shape).copy()
    return u


# each error functional: the shape of the discrete field it reads, and the
# exact field it compares with
TAYLOR = case_taylor()
FIELD_SHAPES = {
    "error_velocity": (error_velocity, lambda s: (s.n_edges, 2), TAYLOR.u),
    "error_gradient": (error_gradient, lambda s: (s.n_duals, 2), lambda x: TAYLOR.omega(x, 1.0)),
    "error_pressure": (error_pressure, lambda s: (s.n_cells,), TAYLOR.p),
    "error_super": (error_super, lambda s: (s.n_edges, 2), TAYLOR.u),
}


@pytest.mark.parametrize("bad", ["wide", "long"])
@pytest.mark.parametrize("name", FIELD_SHAPES)
def test_field_rejects_wrong_shape(name, bad):
    # a field a row too long would be read silently by indexing it with
    # loc_edge, next_slot or tri_cell
    error, shape, exact = FIELD_SHAPES[name]
    stag = build_staggered(generate_triangular(2))
    n, *rest = shape(stag)
    values = np.zeros((n, 3) if bad == "wide" else (n + 1, *rest))
    with pytest.raises(ValueError, match="must have shape"):
        error(stag, values, exact)


def test_pressure_mean_divides_by_the_mesh_area():
    # one 2 x 2 square: the constant 1 has mean 1, not the integral 4
    square = one_cell(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]))
    assert pressure_mean(square, np.array([1.0])) == 1.0
    # two cells of areas 1/2 and 3/2 on [0, 2] x [0, 1]
    stag = build_staggered(PrimalMesh([[0, 0], [1, 0], [2, 0], [2, 1], [0, 1]],
                                      [[0, 1, 4], [1, 2, 3, 4]]))
    assert np.array_equal(stag.cell_area, [0.5, 1.5])
    mean = pressure_mean(stag, np.array([4.0, -2.0]))
    assert abs(mean - (0.5 * 4.0 - 1.5 * 2.0) / 2.0) < 1e-15


# ------------------------------------------------------------ interpolation

def test_interp_velocity_constant():
    stag = build_staggered(generate_triangular(2))
    v = interp_velocity(stag, constant_velocity([3.0, -1.0]))
    assert np.abs(v - [3.0, -1.0]).max() < 1e-14


def test_interp_velocity_linear_gives_midpoints():
    stag = build_staggered(generate_triangular(2))

    def u(p):
        return p.copy()

    v = interp_velocity(stag, u)
    v0, v1 = stag.edge_endpoints()
    assert np.abs(v - 0.5 * (v0 + v1)).max() < 1e-13


def test_interp_velocity_error_halves():
    case = case_taylor()
    errs = []
    for n in (8, 16):
        stag = build_staggered(generate_triangular(n))
        ih = interp_velocity(stag, case.u)
        errs.append(error_velocity(stag, ih, case.u))
    assert 1.7 < errs[0] / errs[1] < 2.3


def test_interp_gradient_constant_tensor():
    stag = build_staggered(generate_polygonal(2))
    tensor = np.array([[1.0, 2.0], [-0.5, 0.25]])

    def omega(p):
        return np.broadcast_to(tensor, p.shape[:-1] + (2, 2)).copy()

    g = interp_gradient(stag, omega)
    expected = np.einsum("ij,dj->di", tensor, stag.dual_normal)
    assert np.abs(g - expected).max() < 1e-13
    assert np.abs(gradient_tensors(stag, g) - tensor).max() < 1e-12


def test_interp_pressure_constant_and_linear():
    stag = build_staggered(generate_triangular(2))
    ph = interp_pressure(stag, lambda p: np.full(p.shape[:-1], 42.0))
    assert np.abs(ph - 42.0).max() < 1e-12
    # mean of x over each cell = centroid x-coordinate
    ph = interp_pressure(stag, lambda p: p[..., 0])
    assert np.abs(ph - stag.xstar[:, 0]).max() < 1e-13
    # each cell sums its own sub-triangles in slot order, as a one-cell
    # reduction (poly L2: 4-, 5- and 6-vertex cells)
    stag = build_staggered(generate_polygonal(8))

    def p(x):
        return np.sin(3.0 * x[..., 0]) * x[..., 1]

    # one block: the rule's weights times the values at every point, (1, nq) @ (nq, nt)
    assert stag.n_duals <= spaces._BLOCK
    rule = triangle_rule()
    pts = map_rule(rule, (stag.xstar[stag.tri_cell], stag.cvert, stag.cvert[stag.next_slot]))
    per_tri = 2.0 * stag.tri_area * (rule.weights[None, :] @ p(pts))[0]
    sums = [np.add.reduceat(per_tri[lo:hi], [0])[0]
            for lo, hi in zip(stag.cell_ptr[:-1], stag.cell_ptr[1:])]
    assert np.array_equal(interp_pressure(stag, p), np.array(sums) / stag.cell_area)


def test_interp_pressure_is_projection():
    # applying the cell-mean operator to an already cell-constant function
    # reproduces it exactly (checkerboard aligned with the 2-cell mesh)
    stag = build_staggered(generate_triangular(1))

    def pw(p):
        return np.where(p[..., 0] > p[..., 1], 2.0, -1.0)

    ph = interp_pressure(stag, pw)
    assert set(np.round(ph, 12)) == {2.0, -1.0}
    again = interp_pressure(stag, pw)
    assert np.array_equal(ph, again)


# ------------------------------------------------------------------- norms

def test_jump_norm_zero_for_global_constant():
    stag = build_staggered(generate_triangular(2))
    v = interp_velocity(stag, constant_velocity([3.0, -1.0]))
    assert jump_norm(stag, v) < 1e-13


def test_jump_norm_single_interior_dof_hand_summed():
    # On the 2-triangle unit square, put (1, 0) on the diagonal edge.  Its
    # dual region has two sub-triangles, each flanked by 2 dual edges whose
    # other side carries 0, so ||v||_h^2 = sum over 4 dual edges of
    # h_e^-1 |e| |jump|^2 = 4 (h_e = |e| cancels).
    stag = build_staggered(generate_triangular(1))
    vals = np.zeros((stag.n_edges, 2))
    e = stag.interior_edges[0]
    vals[e] = (1.0, 0.0)
    # independent direct summation over dual edges
    tv = vals[stag.loc_edge]
    direct = 0.0
    for d in range(stag.n_duals):
        jump = tv[stag.prev_slot[d]] - tv[d]
        direct += (1.0 / stag.dual_len[d]) * stag.dual_len[d] * jump @ jump
    assert abs(direct - 4.0) < 1e-14
    assert abs(jump_norm(stag, vals) - 2.0) < 1e-14


def test_norm_homogeneity():
    stag = build_staggered(generate_triangular(2))
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((stag.n_edges, 2))
    assert abs(jump_norm(stag, -2.5 * vals) - 2.5 * jump_norm(stag, vals)) < 1e-12


# ------------------------------------------------------------------ errors

def test_error_super_zero_for_interpolant():
    case = case_taylor()
    stag = build_staggered(generate_triangular(3))
    ih = interp_velocity(stag, case.u)
    assert error_super(stag, ih, case.u) == 0.0


# -------------------------------------------------- interpolation identities

def test_velocity_interpolant_orthogonality():
    # B_h*(I_h u - u, psi) = 0: [psi n] is constant per primal edge and I_h
    # preserves edge means, so each edge term vanishes
    case = case_taylor()
    stag = build_staggered(generate_triangular(2))
    ih = interp_velocity(stag, case.u)
    rng = np.random.default_rng(5)
    rule = edge_rule()
    pts = map_rule(rule, stag.edge_endpoints())                    # (nq, ne, 2)
    uvals = case.u(pts.reshape(-1, 2)).reshape(pts.shape)
    scale = np.abs(ih).max()
    for trial in range(100):
        tens = gradient_tensors(stag, rng.standard_normal((stag.n_duals, 2)))
        total = 0.0
        for e in stag.interior_edges:
            t1, t2 = stag.edge_slots[e]
            jump_n = (tens[t1] - tens[t2]) @ stag.cnorm[t1]
            diff = ih[e][None, :] - uvals[:, e]
            total += (stag.celen[stag.edge_slots[e, 0]]
                      * np.einsum("qc,c,q->", diff, jump_n, rule.weights))
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
    pts = map_rule(rule, (stag.xstar[stag.tri_cell], stag.cvert))     # (nq, nd, 2)
    om = case.omega(pts.reshape(-1, 2), nu).reshape(pts.shape[:2] + (2, 2))
    om_n = np.einsum("qdij,dj->dqi", om, stag.dual_normal)
    scale = np.abs(jh).max()
    for trial in range(100):
        vals = rng.standard_normal((stag.n_edges, 2))
        vals[stag.boundary_edges] = 0.0
        tv = vals[stag.loc_edge]
        total = 0.0
        for d in range(stag.n_duals):
            jump = tv[stag.prev_slot[d]] - tv[d]
            diff = jh[d][None, :] - om_n[d]
            total -= stag.dual_len[d] * np.einsum("qc,c,q->", diff, jump, rule.weights)
        assert abs(total) < 1e-10 * max(scale, 1.0)


# --------------------------------------------------------- block streaming

@pytest.mark.parametrize("name,gen", [
    ("poly-L2", lambda: build_staggered(generate_polygonal(8))),
    ("tri-L3-jitter", lambda: build_staggered(generate_triangular(8, jitter=0.2, seed=4))),
    ("one-10-gon", lambda: one_cell(random_convex_polygon(10, np.random.default_rng(10)))),
])
def test_block_size_does_not_change_results(name, gen, monkeypatch):
    from stokes_sdg.assembly import assemble_rhs, assemble_system

    stag = gen()
    case = case_taylor()
    rng = np.random.default_rng(3)
    u_h = rng.standard_normal((stag.n_edges, 2))
    omega_h = rng.standard_normal((stag.n_duals, 2))
    p_h = rng.standard_normal(stag.n_cells)
    largest = [0]

    def spy(fn):
        def wrapped(x):
            largest[0] = max(largest[0], len(x))
            return fn(x)
        return wrapped

    def results():
        f = spy(lambda x: case.f(x, 1.0))
        return [assemble_rhs(stag, f, "sdg1"), assemble_rhs(stag, f, "sdg2"),
                interp_pressure(stag, spy(case.p)),
                error_velocity(stag, u_h, spy(case.u)),
                error_gradient(stag, omega_h, spy(lambda x: case.omega(x, 1.0))),
                error_pressure(stag, p_h, spy(case.p)),
                interp_velocity(stag, spy(case.u)),
                interp_gradient(stag, spy(lambda x: case.omega(x, 1.0))),
                assemble_system(stag, dataclasses.replace(case, u=spy(case.u)), "sdg1", 1.0).ug]

    # the triangle rule has more nodes than the edge rule, and a mesh has
    # fewer primal edges than sub-triangles, so the sub-triangle calls are
    # the largest unless an edge array of the whole mesh is evaluated at once
    nq = len(triangle_rule().weights)
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
