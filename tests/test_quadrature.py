import math

import numpy as np
import pytest

from stokes_sdg.quadrature import edge_rule, map_rule, triangle_rule

from conftest import TRI_RULE_10

# the package's degree-8 rule and the degree-10 reference it is checked against
TRI_RULES = {8: triangle_rule(), 10: TRI_RULE_10}


@pytest.mark.parametrize("degree", TRI_RULES)
def test_triangle_weights_sum_to_reference_measure(degree):
    rule = TRI_RULES[degree]
    assert abs(rule.weights.sum() - 0.5) < 1e-14
    assert np.all(rule.weights > 0.0)


@pytest.mark.parametrize("degree", TRI_RULES)
def test_triangle_nodes_strictly_interior(degree):
    bary = TRI_RULES[degree].bary
    assert bary.shape[1] == 3 and np.all(bary > 0.0)
    assert np.abs(bary.sum(axis=1) - 1.0).max() < 1e-15


@pytest.mark.parametrize("degree", TRI_RULES)
def test_triangle_monomial_exactness(degree):
    # int over reference triangle of x^a y^b = a! b! / (a + b + 2)!
    rule = TRI_RULES[degree]
    x, y = rule.bary[:, 1], rule.bary[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = (
                math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            )
            approx = float(np.sum(rule.weights * x**a * y**b))
            assert abs(approx - exact) < 1e-14, (a, b)


def test_triangle_constant_integral():
    rule = triangle_rule()
    assert abs(float(np.sum(rule.weights)) - 0.5) < 1e-15


def test_edge_rule_exactness():
    rule = edge_rule()
    assert rule.bary.shape == (8, 2)
    assert np.abs(rule.bary.sum(axis=1) - 1.0).max() < 1e-15
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    for k in range(16):
        exact = 1.0 / (k + 1)
        approx = float(np.sum(rule.weights * rule.bary[:, 1]**k))
        assert abs(approx - exact) < 1e-14


def test_map_rule_on_triangles_measures():
    rule = triangle_rule()
    tris = np.array([
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        [[1.0, 1.0], [3.0, 1.0], [2.0, 4.0]],
    ])
    e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    pts = map_rule(rule, (tris[:, 0], tris[:, 1], tris[:, 2]))
    assert pts.shape == (len(rule.weights), 2, 2) and pts.flags.c_contiguous
    w = 2.0 * area * rule.weights[:, None]
    assert abs(w[:, 0].sum() - 0.5) < 1e-14
    assert abs(w[:, 1].sum() - 3.0) < 1e-13
    # integrate x over the reference triangle (1/6) and over the second (2 * 3)
    assert abs(np.sum(w[:, 0] * pts[:, 0, 0]) - 1.0 / 6.0) < 1e-14
    assert abs(np.sum(w[:, 1] * pts[:, 1, 0]) - 6.0) < 1e-13


def test_map_rule_on_segments_gives_means():
    rule = edge_rule()
    pts = map_rule(rule, (np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])))
    assert pts.shape == (8, 1, 2)
    # the mean of the x coordinate along the segment is its midpoint's, 1.5
    assert abs(rule.weights @ pts[:, 0, 0] - 1.5) < 1e-14
    assert abs(rule.weights @ pts[:, 0, 1] - 2.0) < 1e-14
