"""Sparse direct solution of the saddle-point system with residual checks.

The gradient mass block M couples only the dual-edge traces of one cell, so
the gradient unknowns q are eliminated cell by cell (static condensation):
with the system split as [[M, C], [L, A]] over (q, rest), the rest
(u, p, mu) solves the Schur complement (A - L M^-1 C) y = r - L M^-1 r_q,
which is LU-factorized, and q = M^-1 (r_q - C y) is recovered afterwards.
The residual is always checked against the full, uncondensed system.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SaddleSystem
from .mesh import StaggeredMesh
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
    dofs (cell c owns 2*cell_ptr[c]:2*cell_ptr[c+1]), inverted with one
    batched call per block size."""
    sizes = 2 * stag.cell_sizes
    start = 2 * stag.cell_ptr[:-1]
    n = mass.shape[0]
    owner = np.repeat(np.arange(stag.n_cells), sizes)
    coo = mass.tocoo()
    cell = owner[coo.row]
    if np.any(owner[coo.col] != cell):
        raise SolverError("gradient mass matrix couples two cells; cannot condense it")
    rows, cols, vals = [], [], []
    for m in np.unique(sizes):
        group = np.flatnonzero(sizes == m)
        rank = np.empty(stag.n_cells, dtype=np.int64)
        rank[group] = np.arange(len(group))
        mine = sizes[cell] == m
        c = cell[mine]
        blocks = np.zeros((len(group), m, m))
        np.add.at(blocks, (rank[c], coo.row[mine] - start[c], coo.col[mine] - start[c]),
                  coo.data[mine])
        try:
            inv = np.linalg.inv(blocks)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular gradient mass block of size {m}: {exc}") from exc
        dofs = start[group][:, None] + np.arange(m)
        rows.append(np.broadcast_to(dofs[:, :, None], inv.shape).ravel())
        cols.append(np.broadcast_to(dofs[:, None, :], inv.shape).ravel())
        vals.append(inv.ravel())
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )


def solve(system: SaddleSystem, residual_tol: float = _RESIDUAL_TOL) -> FieldSolution:
    """Condense q out, LU-factorize and solve for (u, p, mu), recover q;
    raises on singular blocks or factors or poor full-system residuals."""
    mat = system.matrix().tocsr()
    rhs = system.rhs()
    nq = system.n_q
    minv = _cell_block_inverse(mat[:nq, :nq], system.stag)
    upper = mat[:nq, nq:]
    lower = mat[nq:, :nq]
    schur = (mat[nq:, nq:] - lower @ (minv @ upper)).tocsc()
    try:
        lu = spla.splu(schur)
    except RuntimeError as exc:  # SuperLU reports the failing pivot
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    y = lu.solve(rhs[nq:] - lower @ (minv @ rhs[:nq]))
    x = np.concatenate([minv @ (rhs[:nq] - upper @ y), y])
    if not np.all(np.isfinite(x)):
        raise SolverError("factorization produced non-finite solution entries")
    scale = np.linalg.norm(rhs)
    residual = np.linalg.norm(mat @ x - rhs) / (scale if scale > 0.0 else 1.0)
    if residual > residual_tol:
        raise SolverError(
            f"solve residual {residual:.3e} exceeds tolerance {residual_tol:.1e}"
        )

    s = system.stag
    nu = system.n_u
    omega = GradientField(s, x[:nq].reshape(-1, 2))
    uvals = np.zeros((s.n_edges, 2))
    uvals[s.interior_edges] = x[nq:nq + nu].reshape(-1, 2)
    gdofs = system.ug.reshape(-1, 2)
    uvals[s.boundary_edges] = gdofs
    u = VelocityField(s, uvals)
    p = PressureField(s, x[nq + nu:nq + nu + system.n_p])
    return FieldSolution(
        omega=omega, u=u, p=p,
        multiplier=float(x[-1]),
        residual=float(residual),
    )
