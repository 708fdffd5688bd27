"""Fixed-degree quadrature rules on reference triangles and edges.

Triangle rules are symmetric interior rules (no node ever lies on an edge),
so mapped onto the sub-triangles of a centroid fan no node lies on a fan
edge, across which the discrete fields and the sdg1 test functions jump.
Triangle tables are the classic symmetric rules of Dunavant; the edge rule
is 8-point Gauss-Legendre.
"""

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadRule", "triangle_rule", "edge_rule", "map_to_triangles", "edge_points"]


@dataclass(frozen=True)
class QuadRule:
    """Nodes and weights on a reference element.

    For triangles, ``points`` has shape (n, 2) with coordinates on the
    reference triangle (0,0)-(1,0)-(0,1) and weights summing to 1/2.
    For edges, ``points`` has shape (n,) on [0, 1] and weights summing to 1.
    """

    points: np.ndarray
    weights: np.ndarray


# Dunavant symmetric triangle rules, stored as barycentric orbits (degree 8
# is the package's rule, degree 10 the reference it is checked against):
# ("c", w)           -> centroid
# ("s", w, a)        -> 3 permutations of (a, b, b), b = (1 - a) / 2
# ("p", w, a, b, c)  -> all 6 permutations of (a, b, c)
# Weights are normalized to sum to 1 over the orbit expansion.
_TRI_ORBITS = {
    8: [
        ("c", 0.144315607677787),
        ("s", 0.095091634267285, 0.081414823414554),
        ("s", 0.103217370534718, 0.658861384496480),
        ("s", 0.032458497623198, 0.898905543365938),
        ("p", 0.027230314174435, 0.008394777409958, 0.263112829634638, 0.728492392955404),
    ],
    10: [
        ("c", 0.090817990382754),
        ("s", 0.036725957756467, 0.028844733232685),
        ("s", 0.045321059435528, 0.781036849029926),
        ("p", 0.072757916845420, 0.141707219414880, 0.307939838764121, 0.550352941820999),
        ("p", 0.028327242531057, 0.025003534762686, 0.246672560639903, 0.728323904597411),
        ("p", 0.009421666963733, 0.009540815400299, 0.066803251012200, 0.923655933587500),
    ],
}


def _expand_orbits(orbits):
    bary = []
    weights = []
    for orbit in orbits:
        kind, w = orbit[0], orbit[1]
        if kind == "c":
            bary.append((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))
            weights.append(w)
        elif kind == "s":
            a = orbit[2]
            b = 0.5 * (1.0 - a)
            for coords in ((a, b, b), (b, a, b), (b, b, a)):
                bary.append(coords)
                weights.append(w)
        else:
            a, b, c = orbit[2:]
            for coords in (
                (a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a),
            ):
                bary.append(coords)
                weights.append(w)
    return np.asarray(bary), np.asarray(weights)


@functools.cache
def triangle_rule(degree: int) -> QuadRule:
    """Symmetric interior rule on the reference triangle, exact to ``degree``."""
    if degree not in _TRI_ORBITS:
        raise ValueError(
            f"unsupported triangle quadrature degree {degree}; "
            f"available: {sorted(_TRI_ORBITS)}"
        )
    bary, w = _expand_orbits(_TRI_ORBITS[degree])
    return QuadRule(bary[:, 1:3].copy(), 0.5 * w)  # (l1,l2,l3) -> (x,y) = (l2,l3)


@functools.cache
def edge_rule() -> QuadRule:
    """8-point Gauss-Legendre rule on [0, 1], exact to degree 15."""
    x, w = np.polynomial.legendre.leggauss(8)
    return QuadRule(0.5 * (x + 1.0), 0.5 * w)


def map_to_triangles(rule: QuadRule, x0, x1, x2):
    """Map a reference triangle rule onto physical triangles.

    x0, x1, x2 : (nt, 2) vertices.  Returns the points (nq, nt, 2),
    C-contiguous, from one matrix product of the barycentric coordinates
    with the stacked vertices.  The weights are separable: the integral over
    triangle t of f is  2 |t| sum_q rule.weights[q] * f(points[q, t]).
    """
    l2 = rule.points[:, 0]
    l3 = rule.points[:, 1]
    bary = np.stack([1.0 - l2 - l3, l2, l3], axis=1)  # (nq, 3)
    verts = np.stack([x0, x1, x2]).astype(float, copy=False)  # (3, nt, 2)
    return (bary @ verts.reshape(3, -1)).reshape(len(bary), -1, 2)


def edge_points(rule: QuadRule, v0: np.ndarray, v1: np.ndarray):
    """Map an edge rule onto segments v0 -> v1.

    v0, v1 : (ne, 2).  Returns points (ne, nq, 2) and weights (ne, nq) with
    sum_q weights[e, q] = |e|.
    """
    v0 = np.atleast_2d(np.asarray(v0, dtype=float))
    v1 = np.atleast_2d(np.asarray(v1, dtype=float))
    t = rule.points
    pts = v0[:, None, :] + t[None, :, None] * (v1 - v0)[:, None, :]
    length = np.linalg.norm(v1 - v0, axis=1)
    w = length[:, None] * rule.weights[None, :]
    return pts, w
