import numpy as np
import pytest

from stokes_sdg import _kernels
from stokes_sdg.mesh import _diameter

from conftest import interior_points, random_convex_polygon, rt_cell, wachspress

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def regular_polygon(m, radius=0.4, center=(0.5, 0.5)):
    ang = 2.0 * np.pi * np.arange(m) / m
    return np.asarray(center) + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def coords(verts, x):
    return wachspress(verts, x)[0]


def test_square_center_is_uniform():
    lam = coords(UNIT_SQUARE, [0.5, 0.5])
    assert np.allclose(lam, 0.25, atol=1e-14)


def test_hexagon_center_is_uniform():
    lam = coords(regular_polygon(6), [0.5, 0.5])
    assert np.allclose(lam, 1.0 / 6.0, atol=1e-13)


def test_vertex_limit_gives_lagrange_delta():
    verts = regular_polygon(5)
    cen = verts.mean(axis=0)
    for j in range(5):
        x = verts[j] + 1e-6 * (cen - verts[j])
        lam = coords(verts, x)[0]
        assert abs(lam[j] - 1.0) < 1e-4
        assert np.all(np.delete(lam, j) < 1e-4)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_partition_of_unity_nonnegativity_linear_precision(m):
    rng = np.random.default_rng(100 + m)
    for rep in range(4):
        verts = random_convex_polygon(m, rng)
        pts = interior_points(verts, rng, 250, pull=0.98)
        lam = coords(verts, pts)
        assert np.all(lam >= 0.0)
        assert np.abs(lam.sum(axis=1) - 1.0).max() < 1e-13
        recon = lam @ verts
        assert np.abs(recon - pts).max() < 1e-12 * _diameter(verts)


def test_triangle_matches_barycentric():
    rng = np.random.default_rng(7)
    verts = random_convex_polygon(3, rng)
    pts = interior_points(verts, rng, 200)
    lam = coords(verts, pts)
    # classical barycentric via the affine system
    mat = np.vstack([verts.T, np.ones(3)])
    rhs = np.concatenate([pts.T, np.ones((1, len(pts)))])
    bary = np.linalg.solve(mat, rhs).T
    assert np.abs(lam - bary).max() < 1e-12


def test_gradients_sum_to_zero_and_reproduce_identity():
    rng = np.random.default_rng(11)
    verts = random_convex_polygon(6, rng)
    pts = interior_points(verts, rng, 100)
    _, grad = wachspress(verts, pts)
    assert np.abs(grad.sum(axis=1)).max() < 1e-11 / _diameter(verts)
    # sum_i grad(lam_i) outer v_i = identity (derivative of linear precision)
    outer = np.einsum("nmc,md->ncd", grad, verts)
    assert np.abs(outer - np.eye(2)).max() < 1e-10


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(13)
    for m in (4, 6):
        verts = random_convex_polygon(m, rng)
        pts = interior_points(verts, rng, 50, pull=0.8)
        _, grad = wachspress(verts, pts)
        step = 1e-6 * _diameter(verts)
        fd = np.empty_like(grad)
        for c, offset in enumerate(np.eye(2)):
            lp = coords(verts, pts + step * offset)
            lm = coords(verts, pts - step * offset)
            fd[:, :, c] = (lp - lm) / (2.0 * step)
        scale = np.abs(grad).max()
        assert np.abs(grad - fd).max() < 1e-5 * scale


def test_square_center_gradients_match_finite_differences():
    x = np.array([0.5, 0.5])
    grad = wachspress(UNIT_SQUARE, x)[1][0]
    step = 1e-6
    fd = np.empty((4, 2))
    for c, offset in enumerate(np.eye(2)):
        fd[:, c] = (coords(UNIT_SQUARE, x + step * offset)
                    - coords(UNIT_SQUARE, x - step * offset))[0] / (2.0 * step)
    assert np.abs(grad - fd).max() < 1e-6 * max(1.0, np.abs(grad).max())


def test_curls_are_rotated_gradients():
    # basis_values takes curl lam_i = (-d_y lam_i, d_x lam_i), the CCW
    # 90-degree rotation of the gradient
    rng = np.random.default_rng(17)
    verts = random_convex_polygon(5, rng)
    pts = interior_points(verts, rng, 40)
    _, grad = wachspress(verts, pts)
    curl = np.stack([-grad[..., 1], grad[..., 0]], axis=-1)
    assert np.abs(curl.sum(axis=1)).max() < 1e-11 / _diameter(verts)
    normals, _, xstar, c0, cmat = rt_cell(verts)
    phi = _kernels.basis_values(verts, normals, xstar, c0, cmat, pts)
    curl_part = phi - c0[None, :, None] * (pts[:, None, :] - xstar)
    expected = np.einsum("ik,nkc->nic", cmat, curl)
    assert np.abs(curl_part - expected).max() < 1e-12 * np.abs(expected).max()


def test_nodal_interpolation():
    rng = np.random.default_rng(19)
    pts = interior_points(UNIT_SQUARE, rng, 50)
    lam = coords(UNIT_SQUARE, pts)
    assert np.abs(lam @ np.ones(4) - 1.0).max() < 1e-13
    assert np.abs(lam @ UNIT_SQUARE[:, 0] - pts[:, 0]).max() < 1e-12
    # x^2 at the center: vertex values (0, 1, 1, 0) average to 1/2
    val = coords(UNIT_SQUARE, [0.5, 0.5]) @ UNIT_SQUARE[:, 0] ** 2
    assert abs(val[0] - 0.5) < 1e-14
