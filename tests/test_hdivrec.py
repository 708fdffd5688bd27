import numpy as np
import pytest
from scipy.stats import qmc

from stokes_sdg.assembly import load_moments
from stokes_sdg.mesh import _diameter
from stokes_sdg.quadrature import edge_rule, map_rule
from stokes_sdg.spaces import interp_velocity

from conftest import (TRI_RULE_10, centroid, fan_hats, interior_points, one_cell,
                      random_convex_polygon, rt_basis, rt_cell, rt_moments)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def trace_matrix(verts):
    """(1/|e_j|) int_{e_j} phi_i . n_j ds, taken in the interior limit by
    linear extrapolation from offsets eps and 2*eps."""
    rule = edge_rule()
    m = len(verts)
    normals = rt_cell(verts)[0]
    v1 = np.roll(verts, -1, axis=0)
    eps = 1e-7 * _diameter(verts)

    def at_offset(delta):
        tr = np.empty((m, m))
        for j in range(m):
            pts = map_rule(rule, (verts[j][None], v1[j][None]))[:, 0]
            phi = rt_basis(verts, pts - delta * normals[j])
            tr[:, j] = np.einsum("nic,c,n->i", phi, normals[j], rule.weights)
        return tr

    return 2.0 * at_offset(eps) - at_offset(2.0 * eps)


def fan_edge_normal_jumps(verts, npts=5):
    """Largest jump of each phi_i . n across the fan edges x* -> v_k, from
    points at offsets eps and 2*eps on either side extrapolated to the edge,
    relative to the largest |phi|."""
    xstar = centroid(verts)
    eps = 1e-7 * _diameter(verts)
    t = (np.arange(npts) + 0.5) / npts
    worst = 0.0
    for vk in verts:
        seg = vk - xstar
        normal = np.array([-seg[1], seg[0]]) / np.linalg.norm(seg)
        on = xstar + t[:, None] * seg

        def side(delta):
            return np.einsum("nic,c->ni", rt_basis(verts, on + delta * normal), normal)

        left = 2.0 * side(-eps) - side(-2.0 * eps)
        right = 2.0 * side(eps) - side(2.0 * eps)
        scale = np.abs(rt_basis(verts, on + eps * normal)).max()
        worst = max(worst, np.abs(left - right).max() / scale)
    return worst


def hat_interpolant_curl(verts, scalar, pts):
    """curl of sum_k scalar(v_k) h_k at pts, (n, 2)."""
    return np.einsum("k,nkc->nc", scalar(verts), fan_hats(verts, pts)[1])


def edge_fluxes(verts, field):
    """r_i = (1/|e_i|) int_{e_i} field . n_i ds as the solver forms them: the
    edge-average velocity dofs dotted with the cell's outward normals."""
    stag = one_cell(verts)
    dofs = interp_velocity(stag, field)[stag.loc_edge]
    return np.einsum("sc,sc->s", dofs, stag.cnorm)


# ------------------------------------------------------------- coefficients

def test_unit_square_coefficients():
    _, edge_len, _, c0, _ = rt_cell(UNIT_SQUARE)
    sub = one_cell(UNIT_SQUARE).tri_area
    assert np.allclose(c0, 0.5, atol=1e-14)
    assert np.allclose(sub, 0.25, atol=1e-14)
    # b_{i,l} = delta_il |e_l| - |e_i| |T_l| / |T| = delta_il - 1/4
    b = np.diag(edge_len) - np.outer(edge_len, sub)
    assert np.allclose(b, np.eye(4) - 0.25, atol=1e-14)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_b_rows_sum_to_zero(m):
    rng = np.random.default_rng(m)
    verts = random_convex_polygon(m, rng)
    _, edge_len, _, c0, cmat = rt_cell(verts)
    sub = one_cell(verts).tri_area
    b = np.diag(edge_len) - np.outer(edge_len, sub / sub.sum())
    assert np.abs(b.sum(axis=1)).max() < 1e-13
    assert np.all(c0 > 0.0)
    # the coefficient solution satisfies c_{i,k} - c_{i,k+1} = b_{i,k}
    diff = cmat - np.roll(cmat, -1, axis=1)
    assert np.abs(diff - b).max() < 1e-12


# ------------------------------------------------------------------ traces

@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_kronecker_normal_traces_random_polygons(m):
    rng = np.random.default_rng(40 + m)
    for rep in range(3):
        tr = trace_matrix(random_convex_polygon(m, rng))
        assert np.abs(tr - np.eye(m)).max() < 1e-8


def test_unit_square_traces_tight():
    tr = trace_matrix(UNIT_SQUARE)
    assert np.abs(tr - np.eye(4)).max() < 1e-9


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_normal_components_continuous_across_fan_edges(m):
    rng = np.random.default_rng(60 + m)
    for rep in range(3):
        assert fan_edge_normal_jumps(random_convex_polygon(m, rng)) < 1e-8


# ----------------------------------------------------------------- fan hats

def regular_polygon(m, radius=0.4, center=(0.5, 0.5)):
    ang = 2.0 * np.pi * np.arange(m) / m
    return np.asarray(center) + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_fan_hats_partition_of_unity_nonnegativity_linear_precision(m):
    rng = np.random.default_rng(100 + m)
    for rep in range(4):
        verts = random_convex_polygon(m, rng)
        pts = interior_points(verts, rng, 250, pull=0.98)
        lam = fan_hats(verts, pts)[0]
        assert np.all(lam >= -1e-14)
        assert np.abs(lam.sum(axis=1) - 1.0).max() < 1e-13
        assert np.abs(lam @ verts - pts).max() < 1e-12 * _diameter(verts)


@pytest.mark.parametrize("m", [4, 6])
def test_fan_hats_uniform_at_regular_centers(m):
    verts = regular_polygon(m)
    assert np.allclose(fan_hats(verts, centroid(verts))[0], 1.0 / m, atol=1e-13)


def test_fan_hats_are_lagrange_at_vertices():
    verts = random_convex_polygon(5, np.random.default_rng(3))
    assert np.abs(fan_hats(verts, verts)[0] - np.eye(5)).max() < 1e-12


def test_fan_hats_match_barycentric_on_triangles():
    rng = np.random.default_rng(7)
    verts = random_convex_polygon(3, rng)
    pts = interior_points(verts, rng, 200)
    mat = np.vstack([verts.T, np.ones(3)])
    bary = np.linalg.solve(mat, np.concatenate([pts.T, np.ones((1, len(pts)))])).T
    assert np.abs(fan_hats(verts, pts)[0] - bary).max() < 1e-12


def test_fan_hat_curls_sum_to_zero_and_reproduce_identity():
    rng = np.random.default_rng(11)
    verts = random_convex_polygon(6, rng)
    curl = fan_hats(verts, interior_points(verts, rng, 100))[1]
    grad = np.stack([curl[..., 1], -curl[..., 0]], axis=-1)
    assert np.abs(grad.sum(axis=1)).max() < 1e-11 / _diameter(verts)
    # sum_k grad(h_k) outer v_k = identity (derivative of linear precision)
    assert np.abs(np.einsum("nmc,md->ncd", grad, verts) - np.eye(2)).max() < 1e-10


def test_fan_hat_curls_match_finite_differences():
    # curl h = (-d_y h, d_x h), the CCW 90-degree rotation of the gradient;
    # the points sit at the sub-triangles' centroids, away from the kinks
    rng = np.random.default_rng(13)
    for m in (4, 6):
        verts = random_convex_polygon(m, rng)
        pts = (centroid(verts) + verts + np.roll(verts, -1, axis=0)) / 3.0
        curl = fan_hats(verts, pts)[1]
        step = 1e-6 * _diameter(verts)
        fd = np.empty_like(curl)
        for c, offset in enumerate(np.eye(2)):
            fd[:, :, 1 - c] = (fan_hats(verts, pts + step * offset)[0]
                               - fan_hats(verts, pts - step * offset)[0]) / (2.0 * step)
        fd[..., 0] *= -1.0
        assert np.abs(curl - fd).max() < 1e-5 * np.abs(curl).max()


def test_fan_hat_nodal_interpolation():
    rng = np.random.default_rng(19)
    lam = fan_hats(UNIT_SQUARE, interior_points(UNIT_SQUARE, rng, 50))[0]
    assert np.abs(lam.sum(axis=1) - 1.0).max() < 1e-13
    # x^2 at the center: vertex values (0, 1, 1, 0) average to 1/2
    val = fan_hats(UNIT_SQUARE, [0.5, 0.5])[0] @ UNIT_SQUARE[:, 0] ** 2
    assert abs(val[0] - 0.5) < 1e-14


# ------------------------------------------------------------------- values

def test_rt0_reduction_on_reference_triangle():
    # closed-form lowest-order Raviart-Thomas basis with unit normal density:
    # psi_i = (|e_i| / 2|T|) (x - P_i), P_i the vertex opposite edge i
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    edge_len = rt_cell(tri)[1]
    rng = np.random.default_rng(5)
    pts = interior_points(tri, rng, 20)
    phi = rt_basis(tri, pts)
    opposite = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    for i in range(3):
        psi = edge_len[i] * (pts - opposite[i])
        assert np.abs(phi[:, i, :] - psi).max() < 1e-10


def test_divergence_constants():
    c0 = rt_cell(UNIT_SQUARE)[3]
    for i in range(4):
        assert abs(2.0 * c0[i] - 1.0) < 1e-14
    c0 = rt_cell(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))[3]
    assert abs(2.0 * c0[0] - 2.0) < 1e-14  # |e_0|=1, |T|=1/2


def test_divergence_matches_finite_differences():
    # each phi_i is linear on a sub-triangle: difference it at the
    # sub-triangles' centroids, away from the fan edges where it jumps
    rng = np.random.default_rng(6)
    verts = random_convex_polygon(5, rng)
    _, _, xstar, c0, _ = rt_cell(verts)
    step = 1e-6 * _diameter(verts)
    offsets = step * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    for x0 in (xstar + verts + np.roll(verts, -1, axis=0)) / 3.0:
        phi = rt_basis(verts, x0 + offsets)
        fd = (phi[0, :, 0] - phi[1, :, 0] + phi[2, :, 1] - phi[3, :, 1]) / (2 * step)
        assert np.abs(fd - 2.0 * c0).max() < 1e-6 * max(1.0, np.abs(2.0 * c0).max())


def test_edge_integrated_divergence_is_edge_length():
    rng = np.random.default_rng(8)
    verts = random_convex_polygon(6, rng)
    _, edge_len, _, c0, _ = rt_cell(verts)
    area = one_cell(verts).tri_area.sum()
    for i in range(6):
        assert abs(2.0 * c0[i] * area - edge_len[i]) < 1e-12


# -------------------------------------------------------------- edge fluxes

def test_constant_field_fluxes_are_normal_components():
    def field(p):
        return np.broadcast_to(np.array([1.0, 0.0]), p.shape).copy()

    r = edge_fluxes(UNIT_SQUARE, field)
    assert np.abs(r - rt_cell(UNIT_SQUARE)[0][:, 0]).max() < 1e-14


def test_curl_field_fluxes_telescope_vertex_values():
    # curl(phi) . n on edge i is the negative tangential derivative, so the
    # edge average is (phi(v_i) - phi(v_i+1)) / |e_i|
    rng = np.random.default_rng(9)
    v = random_convex_polygon(5, rng)

    def scalar(p):
        return np.sin(p[..., 0]) * p[..., 1]

    def curl_scalar(p):
        gx = np.cos(p[..., 0]) * p[..., 1]
        gy = np.sin(p[..., 0])
        return np.stack([-gy, gx], axis=-1)

    r = edge_fluxes(v, curl_scalar)
    expected = (scalar(v) - scalar(np.roll(v, -1, axis=0))) / rt_cell(v)[1]
    assert np.abs(r - expected).max() < 1e-12


# ----------------------------------------------------------- reconstruction

def test_constant_reproduction():
    rng = np.random.default_rng(10)
    for m in (3, 4, 6, 8):
        verts = random_convex_polygon(m, rng)
        c = np.array([2.0, -3.0])

        def field(p, c=c):
            return np.broadcast_to(c, p.shape).copy()

        r = edge_fluxes(verts, field)
        pts = interior_points(verts, rng, 20)
        rec = np.einsum("nic,i->nc", rt_basis(verts, pts), r)
        assert np.abs(rec - c).max() < 1e-10


def test_commuting_identity_with_nodal_interpolant():
    # reconstruct(curl phi) = curl(fan-hat interpolant of phi), phi = x^2 + x y
    rng = np.random.default_rng(12)
    for m in (4, 5, 6):
        verts = random_convex_polygon(m, rng)

        def scalar(p):
            return p[..., 0] ** 2 + p[..., 0] * p[..., 1]

        def curl_scalar(p):
            gx = 2.0 * p[..., 0] + p[..., 1]
            gy = p[..., 0]
            return np.stack([-gy, gx], axis=-1)

        r = edge_fluxes(verts, curl_scalar)
        pts = interior_points(verts, rng, 30)
        rec = np.einsum("nic,i->nc", rt_basis(verts, pts), r)
        assert np.abs(rec - hat_interpolant_curl(verts, scalar, pts)).max() < 1e-9


def test_reconstruction_divergence_accumulates_fluxes():
    # div(sum_i r_i phi_i) = sum_i 2 c0_i r_i integrates over the cell to the
    # boundary flux sum_i |e_i| r_i
    rng = np.random.default_rng(14)
    verts = random_convex_polygon(6, rng)
    _, edge_len, _, c0, _ = rt_cell(verts)
    r = rng.standard_normal(6)
    total = np.sum(2.0 * c0 * r) * one_cell(verts).tri_area.sum()
    assert abs(total - np.sum(edge_len * r)) < 1e-14


def test_basis_norm_bounded_by_edge_length():
    # finite-sample proxy of ||phi_i||_{0,T} <= C(m) |e_i| with C = 10
    rng = np.random.default_rng(15)
    for m in (3, 4, 5, 6, 7, 8):
        verts = random_convex_polygon(m, rng)
        edge_len = rt_cell(verts)[1]
        for i in range(m):
            sq = rt_moments(verts, lambda p, i=i: rt_basis(verts, p)[:, i, :])
            assert np.sqrt(sq[i]) <= 10.0 * edge_len[i]


# ----------------------------------------------------------------- moments

def test_moments_zero_forcing():
    def zero(p):
        return np.zeros_like(p)

    assert np.abs(load_moments(one_cell(UNIT_SQUARE), zero)).max() == 0.0


def test_moments_exact_on_triangles():
    # on a triangle the basis is linear, so degree-8 quadrature is exact;
    # oracle: closed-form RT0 integral of f . psi_i for linear f
    tri = np.array([[0.2, 0.1], [0.9, 0.3], [0.4, 0.8]])

    def f(p):
        return np.stack([p[..., 0], 2.0 * p[..., 1] - 1.0], axis=-1)

    got = load_moments(one_cell(tri), f)
    # brute-force oracle on a dense barycentric grid (midpoint composite)
    rng_pts = []
    k = 220
    for a in range(k):
        for b in range(k - a):
            l1 = (a + 1.0 / 3.0) / k
            l2 = (b + 1.0 / 3.0) / k
            rng_pts.append((l1, l2))
    bary = np.array(rng_pts)
    pts = (1 - bary.sum(axis=1))[:, None] * tri[0] + bary[:, 0:1] * tri[1] + bary[:, 1:2] * tri[2]
    cellw = one_cell(tri).tri_area.sum() / len(pts)
    oracle = np.einsum("nic,nc->i", rt_basis(tri, pts), f(pts)) * cellw
    assert np.abs(got - oracle).max() < 5e-3 * np.abs(oracle).max()
    # tighter: degree-8 equals degree-10 to machine precision on triangles
    assert np.abs(got - rt_moments(tri, f, TRI_RULE_10)).max() < 1e-12


def test_moments_constant_forcing_against_quasi_monte_carlo():
    # int_T phi_i dx estimated with ~1e5 scrambled Sobol points
    c = np.array([0.7, -1.3])

    def f(p):
        return np.broadcast_to(c, p.shape).copy()

    got = load_moments(one_cell(UNIT_SQUARE), f)
    sob = qmc.Sobol(d=2, scramble=True, seed=123)
    pts = sob.random_base2(m=17)  # 131072 points in the unit square
    pts = 1e-9 + (1.0 - 2e-9) * pts  # keep strictly interior
    mc = np.einsum("nic,c->i", rt_basis(UNIT_SQUARE, pts), c) / len(pts)
    assert np.abs(got - mc).max() < 1e-4 * np.abs(got).max()
