"""The package's quadrature rules: one on the reference triangle, one on the
reference segment, both with barycentric nodes and one mapper.

The triangle rule is a symmetric interior rule (no node ever lies on an
edge), so mapped onto the sub-triangles of a centroid fan no node lies on a
fan edge, across which the discrete fields and the sdg1 test functions jump.
It is Dunavant's symmetric degree-8 rule; the segment rule is 8-point
Gauss-Legendre.
"""

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadRule", "triangle_rule", "edge_rule", "map_rule"]


@dataclass(frozen=True)
class QuadRule:
    """Barycentric nodes and weights on a reference simplex.

    ``bary`` has one row per node and one column per corner: (l1, l2, l3) on
    the triangle (0,0)-(1,0)-(0,1), whose weights sum to its area 1/2, and
    (1 - t, t) on the segment [0, 1], whose weights sum to 1.
    """

    bary: np.ndarray
    weights: np.ndarray


# Dunavant's symmetric degree-8 rule, stored as barycentric orbits:
# ("c", w)           -> centroid
# ("s", w, a)        -> 3 permutations of (a, b, b), b = (1 - a) / 2
# ("p", w, a, b, c)  -> all 6 permutations of (a, b, c)
# Weights are normalized to sum to 1 over the orbit expansion.
_TRI_ORBITS = [
    ("c", 0.144315607677787),
    ("s", 0.095091634267285, 0.081414823414554),
    ("s", 0.103217370534718, 0.658861384496480),
    ("s", 0.032458497623198, 0.898905543365938),
    ("p", 0.027230314174435, 0.008394777409958, 0.263112829634638, 0.728492392955404),
]


def _rule_from_orbits(orbits) -> QuadRule:
    """Triangle rule of barycentric orbits as in _TRI_ORBITS; l1 is taken as
    1 - l2 - l3, so each node's coordinates sum to 1 as computed."""
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
    bary = np.asarray(bary)
    bary[:, 0] = 1.0 - bary[:, 1] - bary[:, 2]
    return QuadRule(bary, 0.5 * np.asarray(weights))


@functools.cache
def triangle_rule() -> QuadRule:
    """Symmetric interior rule on the reference triangle, exact to degree 8."""
    return _rule_from_orbits(_TRI_ORBITS)


@functools.cache
def edge_rule() -> QuadRule:
    """8-point Gauss-Legendre rule on [0, 1], exact to degree 15."""
    x, w = np.polynomial.legendre.leggauss(8)
    t = 0.5 * (x + 1.0)
    return QuadRule(np.stack([1.0 - t, t], axis=1), 0.5 * w)


def map_rule(rule: QuadRule, corners) -> np.ndarray:
    """Map a rule onto physical simplices.

    corners : one (n, 2) array per column of rule.bary, the simplices'
    corners in that order.  Returns the points (nq, n, 2), C-contiguous, from
    one matrix product of the barycentric rows with the stacked corners.  The
    weights are separable: the integral of f over triangle t is
    2 |t| sum_q w_q f(points[q, t]), and the mean of f over segment e is
    sum_q w_q f(points[q, e]).
    """
    verts = np.stack(corners).astype(float, copy=False)  # (k, n, 2)
    return (rule.bary @ verts.reshape(len(verts), -1)).reshape(len(rule.bary), -1, 2)
