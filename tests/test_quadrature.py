import math

import numpy as np
import pytest

from stokes_sdg.quadrature import edge_points, edge_rule, map_to_triangles, triangle_rule

TRI_DEGREES = (8, 10)


@pytest.mark.parametrize("degree", TRI_DEGREES)
def test_triangle_weights_sum_to_reference_measure(degree):
    rule = triangle_rule(degree)
    assert abs(rule.weights.sum() - 0.5) < 1e-14
    assert np.all(rule.weights > 0.0)


@pytest.mark.parametrize("degree", TRI_DEGREES)
def test_triangle_nodes_strictly_interior(degree):
    rule = triangle_rule(degree)
    x, y = rule.points[:, 0], rule.points[:, 1]
    assert np.all(x > 0.0) and np.all(y > 0.0) and np.all(x + y < 1.0)


@pytest.mark.parametrize("degree", TRI_DEGREES)
def test_triangle_monomial_exactness(degree):
    # int over reference triangle of x^a y^b = a! b! / (a + b + 2)!
    rule = triangle_rule(degree)
    x, y = rule.points[:, 0], rule.points[:, 1]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = (
                math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            )
            approx = float(np.sum(rule.weights * x**a * y**b))
            assert abs(approx - exact) < 1e-14, (a, b)


def test_triangle_constant_integral():
    rule = triangle_rule(8)
    assert abs(float(np.sum(rule.weights)) - 0.5) < 1e-15


def test_edge_rule_exactness():
    rule = edge_rule()
    assert len(rule.points) == 8
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    for k in range(16):
        exact = 1.0 / (k + 1)
        approx = float(np.sum(rule.weights * rule.points**k))
        assert abs(approx - exact) < 1e-14


def test_unsupported_degrees_rejected():
    with pytest.raises(ValueError):
        triangle_rule(5)


def test_map_to_triangles_measures():
    rule = triangle_rule(8)
    tris = np.array([
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        [[1.0, 1.0], [3.0, 1.0], [2.0, 4.0]],
    ])
    e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    pts = map_to_triangles(rule, tris[:, 0], tris[:, 1], tris[:, 2])
    assert pts.shape == (len(rule.weights), 2, 2) and pts.flags.c_contiguous
    w = 2.0 * area * rule.weights[:, None]
    assert abs(w[:, 0].sum() - 0.5) < 1e-14
    assert abs(w[:, 1].sum() - 3.0) < 1e-13
    # integrate x over the reference triangle (1/6) and over the second (2 * 3)
    assert abs(np.sum(w[:, 0] * pts[:, 0, 0]) - 1.0 / 6.0) < 1e-14
    assert abs(np.sum(w[:, 1] * pts[:, 1, 0]) - 6.0) < 1e-13


def test_edge_points_measures():
    rule = edge_rule()
    v0 = np.array([[0.0, 0.0]])
    v1 = np.array([[3.0, 4.0]])
    pts, w = edge_points(rule, v0, v1)
    assert abs(w[0].sum() - 5.0) < 1e-13
    # integrate the x coordinate along the segment: length * mean(x) = 5 * 1.5
    assert abs(np.sum(w[0] * pts[0, :, 0]) - 7.5) < 1e-13
