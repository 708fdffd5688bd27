import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from stokes_sdg.assembly import (AssemblyError, RTTable, assemble_Bh,
                                 assemble_bh, assemble_mass, assemble_rhs,
                                 assemble_system, load_moments)
from stokes_sdg.bench import mesh_for
from stokes_sdg.cases import case_noflow, case_taylor, get_case
from stokes_sdg.mesh import (PrimalMesh, build_staggered, generate_polygonal,
                             generate_trapezoidal, generate_triangular)
from stokes_sdg.spaces import GradientField, interp_pressure

from conftest import (jump_norm, one_cell, random_convex_polygon, reconstruction_divergence,
                      rt_basis, rt_cell, rt_moments)


def bh_star_oracle(stag, vals, tens):
    """B_h*(v, psi) = sum over interior primal edges of |e| v_e . [psi n],
    n the outward normal of the edge's first cell."""
    total = 0.0
    for e in stag.interior_edges:
        t1, t2 = stag.edge_slots[e]
        jump = (tens[t1] - tens[t2]) @ stag.cnorm[t1]
        total += stag.celen[stag.edge_slots[e, 0]] * vals[e] @ jump
    return total


def bh_pressure_oracle(stag, qvals, vals):
    """b_h*(q, v) = -sum_T q_T int_T div(reconstruct(v)), through the
    divergence of the flux reconstruction."""
    return -np.sum(qvals * reconstruction_divergence(stag, vals) * stag.cell_area)


MESHES = [
    ("tri", lambda: generate_triangular(2)),
    ("trap", lambda: generate_trapezoidal(2)),
    ("poly", lambda: generate_polygonal(2)),
]


@pytest.mark.parametrize("name,gen", MESHES)
def test_gradient_adjointness_random_vectors(name, gen):
    stag = build_staggered(gen())
    mat = assemble_Bh(stag)
    rng = np.random.default_rng(1)
    for trial in range(100):
        q = rng.standard_normal((stag.n_duals, 2))
        vals = rng.standard_normal((stag.n_edges, 2))
        vals[stag.boundary_edges] = 0.0
        lhs = np.sum(vals * (mat @ q))
        tens = GradientField(stag, q).tensors()
        rhs = bh_star_oracle(stag, vals, tens)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize("name,gen", MESHES)
def test_pressure_adjointness_random_vectors(name, gen):
    stag = build_staggered(gen())
    mat = assemble_bh(stag)
    rng = np.random.default_rng(2)
    for trial in range(100):
        q = rng.standard_normal(stag.n_cells)
        vals = rng.standard_normal((stag.n_edges, 2))
        vals[stag.boundary_edges] = 0.0
        lhs = q @ (mat @ vals.ravel())
        rhs = bh_pressure_oracle(stag, q, vals)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_bh_hand_computed_on_single_triangle():
    # Manual evaluation of -sum_e |e| q_e . [v] on the 3-sub-triangle fan.
    mesh = PrimalMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [[0, 1, 2]])
    stag = build_staggered(mesh)
    mat = assemble_Bh(stag).toarray()
    rng = np.random.default_rng(3)
    q = rng.standard_normal((stag.n_duals, 2))
    vals = rng.standard_normal((stag.n_edges, 2))
    manual = 0.0
    for d in range(stag.n_duals):
        jump = vals[stag.loc_edge[stag.prev_slot[d]]] - vals[stag.loc_edge[d]]
        manual -= stag.dual_len[d] * q[d] @ jump
    assert abs(np.sum(vals * (mat @ q)) - manual) < 1e-13


def test_constant_velocity_annihilates_divergence_rows():
    # b_h(v, q) = -sum_T q_T sum_{e in dT} (v.n)|e| = 0 for constant v
    stag = build_staggered(generate_polygonal(2))
    mat = assemble_bh(stag)
    const = np.tile([2.0, -3.0], stag.n_edges)
    assert np.abs(mat @ const).max() < 1e-12


@pytest.mark.parametrize("gen", [generate_triangular, generate_trapezoidal],
                         ids=["tri", "trap"])
def test_bh_stores_no_zeros(gen):
    # axis-aligned edges have one zero normal component; a stored zero would
    # enlarge the sparsity pattern the solver factorizes
    mat = assemble_bh(build_staggered(gen(8)))
    assert mat.nnz > 0
    assert np.all(mat.data != 0.0)


def test_divergence_columns_telescope():
    # each interior edge contributes +- symmetrically, so cell-row sums vanish
    stag = build_staggered(generate_triangular(2))
    mat = assemble_bh(stag)
    colsum = np.asarray(mat.sum(axis=0)).reshape(-1, 2)
    assert np.abs(colsum[stag.interior_edges]).max() < 1e-12


def test_mass_constant_tensor_energy():
    stag = build_staggered(generate_trapezoidal(2))
    mass = assemble_mass(stag)
    tensor = np.array([[1.0, 2.0], [-0.5, 0.25]])
    q = np.einsum("ij,dj->di", tensor, stag.dual_normal)
    energy = np.sum(q * (mass @ q))
    assert abs(energy - np.sum(tensor * tensor)) < 1e-12  # |Omega| = 1


def test_mass_symmetric_positive_definite():
    stag = build_staggered(generate_triangular(1))
    mass = assemble_mass(stag).toarray()
    assert np.abs(mass - mass.T).max() == 0.0
    eigs = np.linalg.eigvalsh(mass)
    assert eigs.min() > 0.0


def test_mass_block_diagonal_per_cell():
    stag = build_staggered(generate_triangular(2))
    mass = assemble_mass(stag).tocoo()
    cell_of_dual = stag.tri_cell  # dual slots share the packed cell layout
    assert np.all(cell_of_dual[mass.row] == cell_of_dual[mass.col])


def test_rhs_zero_forcing_gives_zero_vector():
    stag = build_staggered(generate_triangular(2))

    def zero(p):
        return np.zeros_like(p)

    for method in ("sdg1", "sdg2"):
        rhs = assemble_rhs(stag, zero, method)
        assert np.abs(rhs).max() == 0.0


def test_rhs_unknown_method_rejected():
    stag = build_staggered(generate_triangular(1))
    with pytest.raises(ValueError):
        assemble_rhs(stag, lambda p: np.zeros_like(p), "sdg3")


@pytest.mark.parametrize("name,gen", MESHES)
def test_gradient_rhs_matches_pressure_lifting(name, gen):
    # (grad p, reconstruct(v)) = b_h*(pi_h p, v): the sdg1 load of an
    # irrotational force equals the pressure-gradient rows, to round-off on
    # every cell shape, since the reconstruction is piecewise RT0 on the
    # fan and the rule integrates noflow's linear load exactly
    stag = build_staggered(gen())
    case = case_noflow()
    system = assemble_system(stag, case, "sdg1", 1.0)
    lifting = system.D0.T @ interp_pressure(stag, case.p).values
    scale = np.abs(system.F).max()
    assert np.abs(system.F - lifting).max() < 1e-13 * scale


@pytest.mark.parametrize("family,levels", [("tri", 4), ("trap", 4), ("poly", 3)])
def test_discrete_inf_sup_constant_stays_bounded_below(family, levels):
    # beta_h^2 is the smallest nonzero eigenvalue of S = D0 K^-1 D0^T against
    # the pressure mass diag(area) (Brezzi, RAIRO 8, 1974); the zero one
    # belongs to the constant pressure.  poly L4 is left out: 17 s densely
    beta = []
    for level in range(1, levels + 1):
        stag = build_staggered(mesh_for(family, level))
        system = assemble_system(stag, get_case("noflow"), "sdg1", 1.0)
        bs0, d0 = system.Bs0.toarray(), system.D0.toarray()
        k = np.kron(bs0 @ np.linalg.solve(system.Ms.toarray(), bs0.T), np.eye(2))
        ev = sla.eigh(d0 @ np.linalg.solve(k, d0.T), np.diag(stag.cell_area),
                      eigvals_only=True)
        assert abs(ev[0]) <= 1e-12 * ev[-1]
        beta.append(np.sqrt(ev[1]))
    drops = -np.diff(beta)
    # measured: tri 0.781 .. 0.532, trap 0.817 .. 0.526, poly 0.646 .. 0.519
    assert min(beta) >= 0.45, beta
    assert np.all(drops[1:] < drops[:-1]), beta


def test_sdg1_and_sdg2_share_the_matrix():
    stag = build_staggered(generate_triangular(2))
    case = get_case("taylor")
    s1 = assemble_system(stag, case, "sdg1", 0.37)
    s2 = assemble_system(stag, case, "sdg2", 0.37)
    diff = (s1.matrix() - s2.matrix()).tocoo()
    assert diff.nnz == 0
    assert np.abs(s1.F - s2.F).max() > 0.0  # only the load differs


def test_system_dimension_on_two_cell_mesh():
    stag = build_staggered(generate_triangular(1))
    system = assemble_system(stag, get_case("noflow"), "sdg1", 1.0)
    # 2*6 gradient + 2*1 velocity + 2 pressure + 1 multiplier
    assert system.size == 17
    assert system.matrix().shape == (17, 17)


def test_velocity_pressure_block_scaling():
    stag = build_staggered(generate_triangular(1))
    nu = 0.01
    system = assemble_system(stag, get_case("noflow"), "sdg1", nu)
    mat = system.matrix().toarray()
    nq, nu_dofs = system.n_q, system.n_u
    upper = mat[:nq, nq:nq + nu_dofs]   # -nu * B0^T
    lower = mat[nq:nq + nu_dofs, :nq]   # B0
    assert np.abs(upper + nu * lower.T).max() < 1e-14


def bordered_oracle(system):
    """The bordered matrix through sp.bmat of the interleaved sp.kron blocks."""
    area = sp.csr_matrix(system.stag.cell_area[:, None])
    m, b0 = (sp.kron(a, sp.identity(2), format="coo") for a in (system.Ms, system.Bs0))
    return sp.bmat([[m, -system.nu * b0.T, None, None],
                    [b0, None, system.D0.T, None],
                    [None, system.D0, None, area],
                    [None, None, area.T, None]], format="csr")


@pytest.mark.parametrize("family,jitter", [("tri", 0.0), ("trap", 0.0), ("poly", 0.0),
                                           ("tri", 0.2)])
@pytest.mark.parametrize("method", ["sdg1", "sdg2"])
def test_matrix_arrays_match_the_kron_bmat_oracle(family, jitter, method):
    stag = build_staggered(mesh_for(family, 3, jitter))
    system = assemble_system(stag, get_case("taylor"), method, 0.37)
    mat, ref = system.matrix(), bordered_oracle(system)
    assert mat.indices.dtype == mat.indptr.dtype == np.int32
    assert mat.has_canonical_format
    assert np.array_equal(mat.indptr, ref.indptr)
    assert np.array_equal(mat.indices, ref.indices)
    assert np.array_equal(mat.data, ref.data)


@pytest.mark.parametrize("family", ["tri", "trap", "poly"])
@pytest.mark.parametrize("method", ["sdg1", "sdg2"])
def test_interleaved_views_match_the_kron_of_their_blocks(family, method):
    stag = build_staggered(mesh_for(family, 3, 0.0))
    system = assemble_system(stag, get_case("taylor"), method, 0.37)
    for view, block in ((system.M, system.Ms), (system.B0, system.Bs0), (system.Bg, system.Bsg)):
        ref = sp.kron(block, sp.identity(2), format="csr")
        assert view.format == "csr" and view.has_canonical_format
        assert view.shape == ref.shape
        assert np.array_equal(view.indptr, ref.indptr)
        assert np.array_equal(view.indices, ref.indices)
        assert np.array_equal(view.data, ref.data)
    assert (system.M != system.M.T).nnz == 0


def test_matrix_of_an_unsorted_block_with_duplicates():
    stag = build_staggered(generate_polygonal(2))
    system = assemble_system(stag, get_case("taylor"), "sdg1", 0.37)
    ms = system.Ms.tocoo()
    # split the first entry into two halves and reverse every row's columns
    order = np.lexsort((-ms.col, ms.row))
    row, col, val = ms.row[order], ms.col[order], ms.data[order]
    first = np.flatnonzero(order == 0)[0]
    val[first] *= 0.5
    row, col, val = (np.insert(x, first, x[first]) for x in (row, col, val))
    indptr = np.searchsorted(row, np.arange(ms.shape[0] + 1))
    system.Ms = sp.csr_matrix((val, col, indptr), shape=ms.shape)
    assert not system.Ms.has_canonical_format
    dense = bordered_oracle(system).toarray()
    mat = system.matrix()
    assert mat.has_canonical_format
    assert np.array_equal(mat.toarray(), dense)
    assert not system.Ms.has_canonical_format  # the block is left as it was


@pytest.mark.parametrize("nu", [-1.0, 0.0, float("nan"), float("inf")])
def test_assemble_system_rejects_a_viscosity_that_is_not_positive_and_finite(nu):
    # -1 was once solved (taylor tri err_u 0.065), and inf failed in the
    # factorization
    stag = build_staggered(generate_triangular(2))
    with pytest.raises(ValueError, match=f"viscosity must be positive and finite, got {nu:g}"):
        assemble_system(stag, case_taylor(), "sdg1", nu)


def test_nearly_parallel_dual_normals_detected():
    sliver = PrimalMesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-8]]), [[0, 1, 2]]
    )
    stag = build_staggered(sliver)
    with pytest.raises(AssemblyError, match="sub-triangle"):
        assemble_mass(stag)


def test_velocity_invariance_under_irrotational_shift():
    # adding lam * grad(chi) to the load leaves the sdg1 velocity unchanged
    from stokes_sdg.cases import ManufacturedCase
    from stokes_sdg.solver import solve

    base = case_taylor()
    lam = 1e6

    def shifted_grad_p(xy):
        x, y = np.asarray(xy)[..., 0], np.asarray(xy)[..., 1]
        gchi = np.stack([3 * x**2 * y**2 + y, 2 * x**3 * y + x], axis=-1)
        return base.grad_p(xy) + lam * gchi

    shifted = ManufacturedCase(base.u, base.grad_u, base.lap_u, base.p, shifted_grad_p)
    stag = build_staggered(generate_triangular(4))
    sol0 = solve(assemble_system(stag, base, "sdg1", 1.0))
    sol1 = solve(assemble_system(stag, shifted, "sdg1", 1.0))
    unorm = np.sqrt(np.einsum("t,tc,tc->", stag.tri_area,
                              sol0.u.on_tris(), sol0.u.on_tris()))
    assert np.abs(sol1.u.values - sol0.u.values).max() <= 1e-9 * unorm


def test_reconstruction_divergence_free_after_solve():
    from stokes_sdg.solver import solve

    for method in ("sdg1", "sdg2"):
        stag = build_staggered(generate_polygonal(2))
        sol = solve(assemble_system(stag, get_case("taylor"), method, 1.0))
        unorm = np.abs(sol.u.values).max()
        div = reconstruction_divergence(stag, sol.u.values)
        assert np.abs(div).max() <= 1e-11 * unorm


def test_reconstruction_proximity_constant_across_refinement():
    # ||v - reconstruct(v)||_0 <= C h ||v||_h with stable C
    from stokes_sdg.quadrature import map_rule, triangle_rule
    from stokes_sdg.spaces import interp_velocity

    case = case_taylor()
    rule = triangle_rule()
    consts = []
    for n in (4, 8, 16):
        stag = build_staggered(generate_triangular(n))
        v = interp_velocity(stag, case.u)
        tv = v.on_tris()
        flux = np.einsum("sc,sc->s", v.values[stag.loc_edge], stag.cnorm)
        err2 = 0.0
        for ci in range(stag.n_cells):
            lo, hi = stag.cell_ptr[ci], stag.cell_ptr[ci + 1]
            pts = map_rule(rule, (stag.xstar[stag.tri_cell[lo:hi]], stag.cvert[lo:hi],
                                  stag.cvert[stag.next_slot[lo:hi]]))
            w = 2.0 * stag.tri_area[lo:hi] * rule.weights[:, None]
            phi = rt_basis(stag.cvert[lo:hi], pts.reshape(-1, 2))
            vals = np.einsum("nic,i->nc", phi, flux[lo:hi]).reshape(pts.shape)
            diff = vals - tv[lo:hi]
            err2 += np.einsum("qtc,qtc,qt->", diff, diff, w)
        consts.append(np.sqrt(err2) / (stag.h * jump_norm(v)))
    assert max(consts) / min(consts) < 2.0


@pytest.mark.parametrize("name,gen", [
    ("poly", lambda: build_staggered(generate_polygonal(2))),   # 4-, 5- and 6-vertex cells
    ("tri-jitter", lambda: build_staggered(generate_triangular(4, jitter=0.2, seed=5))),
    # about a thousand hexagons, which the kernel takes in one size group
    ("poly-chunks", lambda: build_staggered(generate_polygonal(32))),
    # single cells with more vertices than any mesh family has
    *((f"one-cell-{m}", lambda m=m: one_cell(random_convex_polygon(m, np.random.default_rng(m))))
      for m in (7, 8, 10)),
])
def test_packed_moments_match_per_cell_basis(name, gen):
    stag = gen()
    rt = RTTable(stag)

    def f(x):
        return np.stack([np.sin(3 * x[:, 0]) + x[:, 1] ** 2, np.cos(2 * x[:, 1])], axis=1)

    mom = load_moments(stag, f)
    sizes = {"poly": {4, 5, 6}, "tri-jitter": {3}, "poly-chunks": {4, 5, 6},
             "one-cell-7": {7}, "one-cell-8": {8}, "one-cell-10": {10}}
    assert set(np.diff(stag.cell_ptr)) >= sizes[name]
    for ci in range(stag.n_cells):
        lo, hi = stag.cell_ptr[ci], stag.cell_ptr[ci + 1]
        ref = rt_moments(stag.cvert[lo:hi], f)
        assert np.abs(mom[lo:hi] - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(rt.c0[lo:hi], rt_cell(stag.cvert[lo:hi])[3])
