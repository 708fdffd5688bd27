"""Assembly of the staggered DG saddle-point system.

Unknown ordering: dual-edge gradient traces q, interior-edge velocities u,
cell pressures p, one Lagrange multiplier mu for the pressure mean.  The
gradient equation is scaled by the viscosity so no 1/nu entry appears:

    [ M   -nu*B0^T   0     0  ] [q ]   [ nu*Bg^T ug ]
    [ B0   0         D0^T  0  ] [u ] = [ F(f)       ]
    [ 0    D0        0     a  ] [p ]   [ -Dg ug     ]
    [ 0    0         a^T   0  ] [mu]   [ 0          ]

where B carries the dual-edge coupling -sum_e |e| q_e . [v], D the cell
divergence -sum_{e in dT} |e| v.n_T with n_T each cell's outward normal,
its boundary-flux columns (Dg) used for Dirichlet lifting, and a is the
cell-area vector.  The pressure coupling in the momentum rows is assembled
as D0^T (the discrete adjoint), never from cell divergences of the
reconstruction.

q, u, D0, Dg, F and ug interleave the velocity components (entry 2i + c is
component c of dof i); M = Ms (x) I2 and B = Bs (x) I2 act on each alike.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _kernels
from .mesh import StaggeredMesh
from .spaces import _edge_means, _tri_sums

__all__ = [
    "AssemblyError", "SaddleSystem",
    "assemble_Bh", "assemble_bh", "assemble_mass", "assemble_rhs",
    "assemble_system", "check_viscosities", "RTTable",
]

class AssemblyError(RuntimeError):
    pass


def _block_csr(shape, blocks) -> sp.csr_matrix:
    """CSR matrix of `shape` holding scale * (a (x) I_k) with its top-left
    entry at (row0, col0) for each (a, row0, col0, k, scale) in `blocks`.
    The arrays are counted, allocated once and filled in place; blocks that
    share rows must not overlap and come in increasing col0, so the result
    is canonical without a sort."""
    canon = []
    for a, row0, col0, k, scale in blocks:
        a = a.tocsr()
        if not a.has_canonical_format:
            a = a.copy()  # sum_duplicates works in place
            a.sum_duplicates()
        canon.append((a, row0, col0, k, scale))
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    for a, row0, _, k, _ in canon:
        indptr[row0 + 1:row0 + 1 + k * a.shape[0]] += np.repeat(np.diff(a.indptr), k)
    np.cumsum(indptr, out=indptr)
    nnz = int(indptr[-1])
    itype = np.int32 if max(nnz, *shape) < 2**31 else np.int64
    indices = np.empty(nnz, dtype=itype)
    data = np.empty(nnz)
    fill = indptr[:-1].copy()  # next free position of each row
    for a, row0, col0, k, scale in canon:
        lens = np.diff(a.indptr)
        cols, vals = k * a.indices + col0, scale * a.data
        for c in range(k):
            rows = fill[row0 + c:row0 + k * a.shape[0]:k]  # a view, so += advances fill
            pos = np.repeat(rows - a.indptr[:-1], lens)
            pos += np.arange(a.nnz)
            indices[pos] = cols + c
            data[pos] = vals
            rows += lens
    return sp.csr_matrix((data, indices, indptr.astype(itype)), shape=shape)


def _interleaved(block) -> sp.csr_matrix:
    """block (x) I2, the interleaved matrix of a scalar block."""
    return _block_csr((2 * block.shape[0], 2 * block.shape[1]), [(block, 0, 0, 2, 1.0)])


def assemble_Bh(stag: StaggeredMesh) -> sp.csr_matrix:
    """Scalar block Bs of B_h over primal edges (rows) and dual edges
    (columns): B_h = -sum_{dual e} |e| q_e . (v_first - v_second) acts on each
    velocity component alike, so the interleaved matrix is Bs (x) I2."""
    s = stag
    d = np.arange(s.n_duals)
    rows = np.concatenate([s.loc_edge[s.prev_slot], s.loc_edge])
    vals = np.concatenate([-s.dual_len, s.dual_len])
    return sp.csr_matrix((vals, (rows, np.concatenate([d, d]))),
                         shape=(s.n_edges, s.n_duals))


def assemble_bh(stag: StaggeredMesh) -> sp.csr_matrix:
    """Matrix of b_h(v, q) over cells (rows) and all primal-edge dofs
    (columns): cell T's row is -|e| n_T over T's own edges, n_T its outward
    normal.  Boundary columns carry the same natural flux, so the matrix
    also provides the Dirichlet lifting of the divergence rows."""
    s = stag
    # -|e| n_T = (-t_y, t_x) for the edge tangent t = v_k+1 - v_k; the slots
    # are packed cell by cell, so cell c's row holds 2 entries per slot
    vals = np.stack([-s.tang[:, 1], s.tang[:, 0]], axis=1).ravel()
    cols = (2 * s.loc_edge[:, None] + np.arange(2)).ravel()
    mat = sp.csr_matrix((vals, cols, 2 * s.cell_ptr), shape=(s.n_cells, 2 * s.n_edges))
    mat.eliminate_zeros()  # an axis-aligned edge has one zero normal component
    mat.sort_indices()
    return mat


def assemble_mass(stag: StaggeredMesh) -> sp.csr_matrix:
    """Scalar block Ms of the gradient mass over the dual edges: per
    sub-triangle, (omega, psi)_tau through the tensor recovery from the two
    dual-edge traces; block-diagonal per cell, SPD, and M = Ms (x) I2."""
    s = stag
    # sub-triangle t is flanked by dual edges t and next_slot[t]
    c = np.einsum("tc,tc->t", s.dual_normal, s.dual_normal[s.next_slot])
    det = 1.0 - c * c
    if np.any(det <= 1e-12):
        t = int(np.argmin(det))
        raise AssemblyError(
            f"sub-triangle {t}: dual-edge normals nearly parallel "
            f"(gram determinant {det[t]:.3e})"
        )
    fac = s.tri_area / det
    e1, e2 = np.arange(s.n_duals), s.next_slot
    mat = sp.csr_matrix(
        (np.concatenate([fac, fac, -c * fac, -c * fac]),
         (np.concatenate([e1, e2, e1, e2]), np.concatenate([e1, e2, e2, e1]))),
        shape=(s.n_duals, s.n_duals),
    )
    mat.sum_duplicates()
    return mat


class RTTable:
    """Per-slot data of the sdg1 test functions of a mesh (see _kernels):
    c0 = |e_i| / (2|T|), frac = a_k = |tau_k| / |T| and hatw = w_k, the fan
    hats' values at x*, with |T| the mesh's cell_area.  Since the load terms
    sum to zero over each cell, summation by parts gives  int_T f . phi_i =
    c0_i (int_T f . (x - x*) + 2|T| (G_i - sum_k a_k G_k)),  and the
    coefficient matrix C exists only in the tests' oracle."""

    def __init__(self, stag: StaggeredMesh):
        s = stag
        area = np.repeat(s.cell_area, s.cell_sizes)
        self.c0 = s.celen / (2.0 * area)
        self.frac = s.tri_area / area
        self.hatw = (s.tri_area + s.tri_area[s.prev_slot]) / (2.0 * area)


def load_moments(stag: StaggeredMesh, f) -> np.ndarray:
    """int_T f . phi_i for every (cell, local edge), packed like loc_edge."""
    s = stag
    rt = RTTable(s)
    return _kernels.cell_moments(s.cell_ptr, s.dual_vec, s.tri_area, s.cell_area,
                                 rt.c0, rt.frac, rt.hatw, _tri_sums(s, f, moments=True))


def assemble_rhs(stag: StaggeredMesh, f, method: str) -> np.ndarray:
    """Momentum right-hand side over all primal-edge dofs.

    sdg1 tests against the flux reconstruction: entry for edge e picks up
    (int_T f . phi_i) n_out from each adjacent cell.  sdg2 tests against the
    piecewise-constant velocity itself: entry = int_{D(e)} f, the sum of
    int_tau f over the sub-triangles on e.
    """
    s = stag
    if method == "sdg1":
        contrib = load_moments(s, f)[:, None] * s.cnorm
    elif method == "sdg2":
        contrib = 2.0 * s.tri_area[:, None] * _tri_sums(s, f)
    else:
        raise ValueError(f"unknown method {method!r}; expected 'sdg1' or 'sdg2'")
    # gather each edge's one or two slots
    rhs = contrib[s.edge_slots[:, 0]]
    inner = s.interior_edges
    rhs[inner] += contrib[s.edge_slots[inner, 1]]
    return rhs.ravel()


@dataclass
class SaddleSystem:
    """Assembled sparse saddle-point system plus the data to interpret it,
    with the scalar blocks Ms, Bs0 and Bsg (see the module docstring)."""

    stag: StaggeredMesh
    nu: float
    method: str
    Ms: sp.csr_matrix
    Bs0: sp.csr_matrix
    Bsg: sp.csr_matrix
    D0: sp.csr_matrix
    Dg: sp.csr_matrix
    F: np.ndarray          # momentum rhs restricted to interior dofs
    ug: np.ndarray         # boundary dof values (Dirichlet averages)

    # read-only interleaved views block (x) I2 in canonical CSR, built on
    # each access by the helper that fills matrix()
    M = property(lambda self: _interleaved(self.Ms))
    B0 = property(lambda self: _interleaved(self.Bs0))
    Bg = property(lambda self: _interleaved(self.Bsg))

    @property
    def n_q(self) -> int:
        return 2 * self.Ms.shape[0]

    @property
    def n_u(self) -> int:
        return 2 * self.Bs0.shape[0]

    @property
    def n_p(self) -> int:
        return self.stag.n_cells

    @property
    def size(self) -> int:
        return self.n_q + self.n_u + self.n_p + 1

    def matrix(self) -> sp.csr_matrix:
        """The bordered (q, u, p, mu) matrix, built anew from the blocks on
        every call, so it cannot go stale when a block is replaced."""
        area = sp.csr_matrix(self.stag.cell_area[:, None])
        u0, p0 = self.n_q, self.n_q + self.n_u  # first u, p and mu rows
        m0 = p0 + self.n_p
        return _block_csr((self.size, self.size), [
            (self.Ms, 0, 0, 2, 1.0), (self.Bs0.T, 0, u0, 2, -self.nu),
            (self.Bs0, u0, 0, 2, 1.0), (self.D0.T, u0, p0, 1, 1.0),
            (self.D0, p0, u0, 1, 1.0), (area, p0, m0, 1, 1.0),
            (area.T, m0, p0, 1, 1.0),
        ])

    def rhs(self) -> np.ndarray:
        r_q = self.nu * (self.Bsg.T @ self.ug.reshape(-1, 2)).ravel()
        return np.concatenate([r_q, self.F, -(self.Dg @ self.ug), [0.0]])


def check_viscosities(nus) -> None:
    """Raise ValueError unless nus is a non-empty sequence of positive, finite
    and strictly descending viscosities in [1e-100, 1e100]; omega and p scale
    with nu, and the squares in their errors overflow from about 1e154."""
    if len(nus) == 0:
        raise ValueError("the viscosity list is empty")
    for nu in nus:
        if not (math.isfinite(nu) and nu > 0.0):
            raise ValueError(f"viscosity must be positive and finite, got {nu:g}")
        if not 1e-100 <= nu <= 1e100:
            raise ValueError(f"viscosity must lie in [1e-100, 1e100], got {nu:g}")
    for a, b in zip(nus, nus[1:]):
        if not a > b:
            raise ValueError(f"viscosities must be strictly descending, got {a:g} then {b:g}")


def assemble_system(stag: StaggeredMesh, case, method: str, nu: float) -> SaddleSystem:
    """Build the full system for a manufactured case (f and Dirichlet data);
    nu must lie in [1e-100, 1e100]."""
    check_viscosities([nu])
    s = stag
    bs = assemble_Bh(s)
    dfull = assemble_bh(s)
    idof, gdof = (np.stack([2 * e, 2 * e + 1], axis=1).ravel()
                  for e in (s.interior_edges, s.boundary_edges))
    fvec = assemble_rhs(s, lambda x: case.f(x, nu), method)
    return SaddleSystem(
        stag=s, nu=nu, method=method,
        Ms=assemble_mass(s),
        Bs0=bs[s.interior_edges],
        Bsg=bs[s.boundary_edges],
        D0=dfull[:, idof].tocsr(),
        Dg=dfull[:, gdof].tocsr(),
        F=fvec[idof],
        ug=_edge_means(s, case.u, s.boundary_edges).ravel(),
    )
