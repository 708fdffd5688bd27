"""Sparse direct solution of the saddle-point system with residual checks.

The solver reads the assembled blocks of `SaddleSystem` (see assembly.py for
the bordered (q, u, p, mu) system they make up); its scalar blocks act on
q and u viewed as (n, 2) arrays.  Ms couples only the dual-edge traces of
one cell, so q is eliminated cell by cell: q = M^-1 (r_q + nu B0^T u) with
r_q = nu Bg^T ug, and the momentum rows become K u + D0^T p = r_u =
F - B0 M^-1 r_q with K = Ks (x) I2, Ks = nu Bs0 Ms^-1 Bs0^T.  Only the
scalar block Ks is formed, and it acts on u viewed as an (n, 2) array, one
component per column.  The velocity columns of D0 sum to zero, so the sum
of the divergence rows gives mu = 1^T r_p / 1^T a (r_p = -Dg ug), and the
other rows D1 = D0[1:] read D1 u = g[1:] with g = r_p - mu a; p_0 is pinned
to zero.  The kernel basis Z of D0 (`_kernel_basis`) separates u from p:
with the SPD matrices A = Z^T K Z = Zx^T Ks Zx + Zy^T Ks Zy (Zx and Zy the
rows of Z of each velocity component) and L = D1 D1^T, u_p = D1^T L^-1
g[1:], u = u_p + Z A^-1 Z^T (r_u - K u_p), L p[1:] = D1 (r_u - K u), and p
is shifted to the mean the multiplier row asks for.  One refinement sweep
on the residual follows, which is always checked, block by block, against
the full system, so a matrix without zero column sums fails there.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import SaddleSystem
from .mesh import StaggeredMesh, _size_groups

__all__ = ["SolverError", "FieldSolution", "solve"]

_RESIDUAL_TOL = 1e-10


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class FieldSolution:
    """The discrete fields as arrays in the mesh's numbering: the gradient
    traces omega (nd, 2), the velocity u (ne, 2), whose boundary rows are the
    Dirichlet data, and the pressure p (nc,); the multiplier of the mean row
    and the full-system residual."""
    omega: np.ndarray
    u: np.ndarray
    p: np.ndarray
    multiplier: float
    residual: float


def _cell_block_inverse(mass: sp.csr_matrix, stag: StaggeredMesh) -> sp.csr_matrix:
    """Inverse of a scalar gradient mass that is block-diagonal over the
    cells' dual edges (cell c owns cell_ptr[c]:cell_ptr[c+1]), gathered and
    inverted with one batched call per block size."""
    owner = stag.tri_cell
    if np.any(owner[mass.indices] != np.repeat(owner, np.diff(mass.indptr))):
        raise SolverError("gradient mass matrix couples two cells; cannot condense it")
    rows, cols, vals = [], [], []
    for m, _, dofs in _size_groups(stag.cell_ptr):
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


def _kernel_basis(stag: StaggeredMesh) -> sp.csr_matrix:
    """Basis (2 n_ie, n_ie + n_iv) of the interior velocities with zero cell
    divergences: column i is interior edge i's tangent t = (-n_y, n_x), and
    the column of interior vertex v is the curl of its P1 stream function,
    (psi_b - psi_a) n / |e| on each interior edge a -> b, n = cnorm of the
    edge's first slot; psi = 0 on the boundary vertices.  The staggered
    build's check V - E + C = 1 makes these n_ie + n_iv = n_u - n_p + 1
    columns span the whole kernel."""
    s = stag
    idx, first = s.cell_idx, s.edge_slots[s.interior_edges, 0]
    n_ie = len(first)
    inner = np.ones(s.n_vertices, dtype=bool)
    inner[idx[s.edge_slots[s.boundary_edges, 0]]] = False  # boundary edges form cycles
    col = np.full(len(inner), -1)
    col[inner] = n_ie + np.arange(np.count_nonzero(inner))
    n, grad = s.cnorm[first], s.cnorm[first] / s.celen[first][:, None]
    vals = np.stack([np.stack([-n[:, 1], n[:, 0]], axis=1), -grad, grad], axis=1)
    cols = np.stack([np.arange(n_ie), col[idx[first]], col[idx[s.next_slot[first]]]], axis=1)
    rows, cols = np.broadcast_arrays(2 * np.arange(n_ie)[:, None, None] + np.arange(2),
                                     cols[:, :, None])
    keep = cols >= 0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(2 * n_ie, n_ie + np.count_nonzero(inner)))


def _factor(mat: sp.spmatrix):
    """Sparse LU of an SPD matrix with a symmetric ordering and diagonal pivots."""
    try:
        return spla.splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU reports the failing pivot
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    except MemoryError as exc:
        raise SolverError(f"out of memory in the sparse factorization of "
                          f"{mat.shape[0]} unknowns") from exc


def solve(system: SaddleSystem) -> FieldSolution:
    """Solve the system as the module docstring says; raises on singular
    blocks or factors, exhausted memory or poor full-system residuals."""
    s, bs0, area = system.stag, system.Bs0, system.stag.cell_area
    nu_bs0t = system.nu * bs0.T
    msinv = _cell_block_inverse(system.Ms, s)
    z = _kernel_basis(s)
    d1 = system.D0[1:]  # pin p_0 = 0
    k = bs0 @ msinv @ nu_bs0t  # Ks; K = Ks (x) I2 is never formed
    lu_u = _factor(sum(zc.T @ k @ zc for zc in (z[0::2], z[1::2])))
    lu_p = _factor(d1 @ d1.T)
    blocks = np.cumsum([system.n_q, system.n_u, system.n_p])

    def condensed(rhs):
        r_q, f, r_p, r_mu = np.split(rhs, blocks)
        r_u = f - (bs0 @ (msinv @ r_q.reshape(-1, 2))).ravel()
        mu = r_p.sum() / area.sum()
        u = d1.T @ lu_p.solve((r_p - mu * area)[1:])
        u += z @ lu_u.solve(z.T @ (r_u - (k @ u.reshape(-1, 2)).ravel()))
        p = np.concatenate([[0.0], lu_p.solve(d1 @ (r_u - (k @ u.reshape(-1, 2)).ravel()))])
        p += (r_mu[0] - area @ p) / area.sum()
        q = msinv @ (r_q.reshape(-1, 2) + nu_bs0t @ u.reshape(-1, 2))
        return np.concatenate([q.ravel(), u, p, [mu]])

    def times(x):  # the full (q, u, p, mu) matrix, block by block
        q, u, p, mu = np.split(x, blocks)
        q2, u2 = q.reshape(-1, 2), u.reshape(-1, 2)
        return np.concatenate([(system.Ms @ q2 - nu_bs0t @ u2).ravel(),
                               (bs0 @ q2).ravel() + system.D0.T @ p,
                               system.D0 @ u + mu * area, [area @ p]])

    rhs = system.rhs()
    x = condensed(rhs)
    x += condensed(rhs - times(x))  # the L solves' round-off grows like cond(L) ~ h^-2
    if not np.all(np.isfinite(x)):
        raise SolverError("factorization produced non-finite solution entries")
    # BLAS nrm2 scales as it sums, so no square overflows; a nan fails the gate
    scale = sla.norm(rhs, check_finite=False)
    residual = sla.norm(times(x) - rhs, check_finite=False) / (scale if scale > 0.0 else 1.0)
    if not residual <= _RESIDUAL_TOL:
        raise SolverError(f"solve residual {residual:.3e} exceeds tolerance {_RESIDUAL_TOL:.1e}")

    q, u, p, mu = np.split(x, blocks)
    uvals = np.zeros((s.n_edges, 2))
    uvals[s.interior_edges] = u.reshape(-1, 2)
    uvals[s.boundary_edges] = system.ug.reshape(-1, 2)
    return FieldSolution(omega=q.reshape(-1, 2), u=uvals, p=p, multiplier=float(mu[0]),
                         residual=float(residual))
