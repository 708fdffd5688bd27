"""Manufactured Stokes solutions on the unit square.

Each case packages closed-form u, grad u, laplacian u and mean-zero p; the
body force is f = -nu * laplacian(u) + grad(p) and the Dirichlet trace is
u restricted to the boundary.  All callables are vectorized over point
arrays of shape (n, 2).
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["CASES", "ManufacturedCase", "case_taylor", "case_noflow", "case_trig", "get_case"]


@dataclass(frozen=True)
class ManufacturedCase:
    name: str
    u: Callable
    grad_u: Callable
    lap_u: Callable
    p: Callable
    grad_p: Callable

    def f(self, xy, nu: float):
        return -nu * self.lap_u(xy) + self.grad_p(xy)

    def omega(self, xy, nu: float):
        return nu * self.grad_u(xy)


def _split(xy):
    xy = np.asarray(xy, dtype=float)
    return xy[..., 0], xy[..., 1]


def case_taylor() -> ManufacturedCase:
    """u1 = pi x^2 (1-x)^2 sin(2 pi y) + 1, u2 = -2x(1-x)(1-2x) sin^2(pi y) + 1,
    p = sin(x) cos(y) + (cos 1 - 1) sin 1."""
    pshift = (np.cos(1.0) - 1.0) * np.sin(1.0)

    def g(x):
        return x * x * (1.0 - x) ** 2

    def dg(x):
        return 2.0 * x * (1.0 - x) * (1.0 - 2.0 * x)

    def d2g(x):
        return 2.0 - 12.0 * x + 12.0 * x * x

    def d3g(x):
        return -12.0 + 24.0 * x

    def u(xy):
        x, y = _split(xy)
        return np.stack([
            np.pi * g(x) * np.sin(2.0 * np.pi * y) + 1.0,
            -dg(x) * np.sin(np.pi * y) ** 2 + 1.0,
        ], axis=-1)

    def grad_u(xy):
        x, y = _split(xy)
        s2 = np.sin(2.0 * np.pi * y)
        out = np.empty(x.shape + (2, 2))
        out[..., 0, 0] = np.pi * dg(x) * s2
        out[..., 0, 1] = 2.0 * np.pi ** 2 * g(x) * np.cos(2.0 * np.pi * y)
        out[..., 1, 0] = -d2g(x) * np.sin(np.pi * y) ** 2
        out[..., 1, 1] = -np.pi * dg(x) * s2
        return out

    def lap_u(xy):
        x, y = _split(xy)
        s2 = np.sin(2.0 * np.pi * y)
        return np.stack([
            np.pi * (d2g(x) - 4.0 * np.pi ** 2 * g(x)) * s2,
            -d3g(x) * np.sin(np.pi * y) ** 2 - 2.0 * np.pi ** 2 * dg(x) * np.cos(2.0 * np.pi * y),
        ], axis=-1)

    def p(xy):
        x, y = _split(xy)
        return np.sin(x) * np.cos(y) + pshift

    def grad_p(xy):
        x, y = _split(xy)
        return np.stack([np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y)], axis=-1)

    return ManufacturedCase("taylor", u, grad_u, lap_u, p, grad_p)


_RA = 1000.0  # the no-flow load scale Ra


def case_noflow() -> ManufacturedCase:
    """u = 0, p = -(Ra/2) y^2 + Ra y - Ra/3: a purely irrotational load."""

    def u(xy):
        x, _ = _split(xy)
        return np.zeros(x.shape + (2,))

    def grad_u(xy):
        x, _ = _split(xy)
        return np.zeros(x.shape + (2, 2))

    def p(xy):
        _, y = _split(xy)
        return -0.5 * _RA * y * y + _RA * y - _RA / 3.0

    def grad_p(xy):
        x, y = _split(xy)
        return np.stack([np.zeros_like(x), _RA * (1.0 - y)], axis=-1)

    return ManufacturedCase("noflow", u, grad_u, u, p, grad_p)


def case_trig() -> ManufacturedCase:
    """u = (-e^x (y cos y + sin y), e^x y sin y), p = 2 e^x sin y minus its
    mean 2 (e - 1)(1 - cos 1)."""
    pshift = 2.0 * np.expm1(1.0) * (1.0 - np.cos(1.0))

    def u(xy):
        x, y = _split(xy)
        ex = np.exp(x)
        return np.stack([
            -ex * (y * np.cos(y) + np.sin(y)),
            ex * y * np.sin(y),
        ], axis=-1)

    def grad_u(xy):
        x, y = _split(xy)
        ex = np.exp(x)
        out = np.empty(x.shape + (2, 2))
        out[..., 0, 0] = -ex * (y * np.cos(y) + np.sin(y))
        out[..., 0, 1] = -ex * (2.0 * np.cos(y) - y * np.sin(y))
        out[..., 1, 0] = ex * y * np.sin(y)
        out[..., 1, 1] = ex * (np.sin(y) + y * np.cos(y))
        return out

    def lap_u(xy):
        x, y = _split(xy)
        ex = np.exp(x)
        return np.stack([2.0 * ex * np.sin(y), 2.0 * ex * np.cos(y)], axis=-1)

    def p(xy):
        x, y = _split(xy)
        return 2.0 * np.exp(x) * np.sin(y) - pshift

    def grad_p(xy):
        x, y = _split(xy)
        ex = np.exp(x)
        return np.stack([2.0 * ex * np.sin(y), 2.0 * ex * np.cos(y)], axis=-1)

    return ManufacturedCase("trig", u, grad_u, lap_u, p, grad_p)


CASES = {"taylor": case_taylor, "noflow": case_noflow, "trig": case_trig}


def get_case(name: str) -> ManufacturedCase:
    try:
        return CASES[name]()
    except KeyError:
        raise ValueError(f"unknown case {name!r}; expected one of {sorted(CASES)}")
