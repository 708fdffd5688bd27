"""Sparse direct solution of the saddle-point system with residual checks.

The solver reads the assembled blocks of `SaddleSystem` (see assembly.py for
the bordered (q, u, p, mu) system they make up) and never slices the full
matrix.  The gradient mass block M couples only the dual-edge traces of one
cell, so the gradient unknowns q are eliminated cell by cell (static
condensation): with r_q = nu Bg^T ug, q = M^-1 (r_q + nu B0^T u), and the
momentum rows become K u + D0^T p = F - B0 M^-1 r_q with K = nu B0 M^-1 B0^T.

The pressure-mean multiplier mu is eliminated exactly as well: every
velocity column of the divergence rows sums to zero, so summing those rows
gives (1^T a) mu = 1^T r_p with r_p = -Dg ug.  With a mu moved to the
right-hand side the pressure is fixed only up to a constant, so cell 0's
pressure is pinned to zero and the (u, p) system [[K, D0^T], [D0, 0]] without
that pressure is LU-factorized.  The pressure is then shifted to the mean
the multiplier row asks for.  The residual is always checked against the
full, uncondensed system, so a matrix without zero column sums fails there.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SaddleSystem
from .mesh import StaggeredMesh, _size_groups
from .spaces import GradientField, PressureField, VelocityField

__all__ = ["SolverError", "FieldSolution", "solve"]

_RESIDUAL_TOL = 1e-10


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class FieldSolution:
    omega: GradientField
    u: VelocityField
    p: PressureField
    multiplier: float
    residual: float


def _cell_block_inverse(mass: sp.csr_matrix, stag: StaggeredMesh) -> sp.csr_matrix:
    """Inverse of a matrix that is block-diagonal over the cells' gradient
    dofs (cell c owns 2*cell_ptr[c]:2*cell_ptr[c+1]), gathered and inverted
    with one batched call per block size."""
    owner = np.repeat(np.arange(stag.n_cells), 2 * stag.cell_sizes)
    if np.any(owner[mass.indices] != np.repeat(owner, np.diff(mass.indptr))):
        raise SolverError("gradient mass matrix couples two cells; cannot condense it")
    rows, cols, vals = [], [], []
    for m, _, dofs in _size_groups(2 * stag.cell_ptr):
        r = np.broadcast_to(dofs[:, :, None], (len(dofs), m, m)).ravel()
        c = np.broadcast_to(dofs[:, None, :], (len(dofs), m, m)).ravel()
        blocks = np.asarray(mass[r, c]).reshape(len(dofs), m, m)
        try:
            inv = np.linalg.inv(blocks)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular gradient mass block of size {m}: {exc}") from exc
        rows.append(r)
        cols.append(c)
        vals.append(inv.ravel())
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=mass.shape,
    )


def solve(system: SaddleSystem) -> FieldSolution:
    """Condense q out, eliminate mu, pin p_0, LU-factorize and solve for
    (u, p), restore the pressure mean and recover q; raises on singular
    blocks or factors, exhausted memory or poor full-system residuals."""
    s, b0, area = system.stag, system.B0, system.stag.cell_area
    nu_b0t = system.nu * b0.T
    minv = _cell_block_inverse(system.M, s)
    rhs = system.rhs()
    r_q, f, r_p, _ = np.split(rhs, np.cumsum([system.n_q, system.n_u, system.n_p]))
    r_u = f - b0 @ (minv @ r_q)
    mu = r_p.sum() / area.sum()
    d0 = system.D0[1:]  # pin p_0 = 0
    # K = B0 (M^-1 nu B0^T); (B0 M^-1) nu B0^T would store a larger pattern
    mat = sp.bmat([[b0 @ (minv @ nu_b0t), d0.T], [d0, None]], format="csc")
    try:
        lu = spla.splu(mat)
    except RuntimeError as exc:  # SuperLU reports the failing pivot
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    except MemoryError as exc:
        raise SolverError(
            f"out of memory in the sparse factorization of {mat.shape[0]} unknowns"
        ) from exc
    y = lu.solve(np.concatenate([r_u, (r_p - mu * area)[1:]]))
    u = y[:system.n_u]
    p = np.concatenate([[0.0], y[system.n_u:]])
    p -= (area @ p) / area.sum()
    q = minv @ (r_q + nu_b0t @ u)
    x = np.concatenate([q, u, p, [mu]])
    if not np.all(np.isfinite(x)):
        raise SolverError("factorization produced non-finite solution entries")
    scale = np.linalg.norm(rhs)
    residual = np.linalg.norm(system.matrix() @ x - rhs) / (scale if scale > 0.0 else 1.0)
    if residual > _RESIDUAL_TOL:
        raise SolverError(
            f"solve residual {residual:.3e} exceeds tolerance {_RESIDUAL_TOL:.1e}"
        )

    uvals = np.zeros((s.n_edges, 2))
    uvals[s.interior_edges] = u.reshape(-1, 2)
    uvals[s.boundary_edges] = system.ug.reshape(-1, 2)
    return FieldSolution(
        omega=GradientField(s, q.reshape(-1, 2)),
        u=VelocityField(s, uvals),
        p=PressureField(s, p),
        multiplier=float(mu),
        residual=float(residual),
    )
