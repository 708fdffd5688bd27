"""Sparse direct solution of the saddle-point system with residual checks.

The gradient mass block M couples only the dual-edge traces of one cell, so
the gradient unknowns q are eliminated cell by cell (static condensation):
with the system split as [[M, C], [L, A]] over (q, rest), the rest
(u, p, mu) solves the Schur complement (A - L M^-1 C) y = r - L M^-1 r_q,
and q = M^-1 (r_q - C y) is recovered afterwards.

The pressure-mean multiplier mu is then eliminated exactly as well: every
velocity column of the divergence rows sums to zero, so summing those rows
gives (1^T a) mu = 1^T r_p.  With a mu moved to the right-hand side the
pressure is fixed only up to a constant, so cell 0's pressure row and column
are dropped and the remaining (u, p) block, free of the multiplier's dense
row and column, is LU-factorized.  The pressure is then shifted to the mean
the multiplier row asks for.  The residual is always checked against the
full, uncondensed system, so a matrix without zero column sums fails there.
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


def solve(system: SaddleSystem) -> FieldSolution:
    """Condense q out, eliminate mu, pin p_0, LU-factorize and solve for
    (u, p), restore the pressure mean and recover q; raises on singular
    blocks or factors, exhausted memory or poor full-system residuals."""
    mat = system.matrix().tocsr()
    rhs = system.rhs()
    nq = system.n_q
    minv = _cell_block_inverse(mat[:nq, :nq], system.stag)
    upper = mat[:nq, nq:]
    lower = mat[nq:, :nq]
    schur = (mat[nq:, nq:] - lower @ (minv @ upper)).tocsr()
    r = rhs[nq:] - lower @ (minv @ rhs[:nq])
    nu, n = system.n_u, schur.shape[0] - 1  # y[n] is mu
    border = schur[:, n].toarray().ravel()
    mean_row = schur[n].toarray().ravel()
    mu = r[nu:n].sum() / border[nu:n].sum()
    keep = np.r_[:nu, nu + 1:n]  # pin p_0 = 0, drop mu
    try:
        lu = spla.splu(schur[keep][:, keep].tocsc())
    except RuntimeError as exc:  # SuperLU reports the failing pivot
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    except MemoryError as exc:
        raise SolverError(
            f"out of memory in the sparse factorization of {keep.size} unknowns"
        ) from exc
    y = np.zeros(n + 1)
    y[keep] = lu.solve((r - mu * border)[keep])
    y[n] = mu
    y[nu:n] += (r[n] - mean_row @ y) / mean_row[nu:n].sum()
    x = np.concatenate([minv @ (rhs[:nq] - upper @ y), y])
    if not np.all(np.isfinite(x)):
        raise SolverError("factorization produced non-finite solution entries")
    scale = np.linalg.norm(rhs)
    residual = np.linalg.norm(mat @ x - rhs) / (scale if scale > 0.0 else 1.0)
    if residual > _RESIDUAL_TOL:
        raise SolverError(
            f"solve residual {residual:.3e} exceeds tolerance {_RESIDUAL_TOL:.1e}"
        )

    s = system.stag
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
