import numpy as np
import pytest
import scipy.sparse as sp

from stokes_sdg.assembly import assemble_rhs, assemble_system
from stokes_sdg.bench import mesh_for, run_case
from stokes_sdg.cases import ManufacturedCase, get_case
from stokes_sdg.mesh import (build_staggered, generate_polygonal,
                             generate_trapezoidal, generate_triangular, read_mesh,
                             write_mesh)
from stokes_sdg.solver import SolverError, solve

from conftest import pressure_mean


def case_patch(c=(3.0, -1.0)):
    """Constant velocity, zero pressure, zero forcing."""
    c = np.asarray(c, dtype=float)

    def u(xy):
        x = np.asarray(xy)[..., 0]
        return np.broadcast_to(c, x.shape + (2,)).copy()

    def zero_vec(xy):
        x = np.asarray(xy)[..., 0]
        return np.zeros(x.shape + (2,))

    def zero_tensor(xy):
        x = np.asarray(xy)[..., 0]
        return np.zeros(x.shape + (2, 2))

    def zero_scalar(xy):
        return np.zeros(np.asarray(xy)[..., 0].shape)

    return ManufacturedCase(u, zero_tensor, zero_vec, zero_scalar, zero_vec)


def test_patch_test_is_exact():
    stag = build_staggered(generate_trapezoidal(2))
    for method in ("sdg1", "sdg2"):
        sol = solve(assemble_system(stag, case_patch(), method, 1.0))
        assert np.abs(sol.u - [3.0, -1.0]).max() < 1e-11
        assert np.abs(sol.p).max() < 1e-11
        assert np.abs(sol.omega).max() < 1e-11


@pytest.mark.parametrize("family,level", [("tri", 4), ("trap", 4), ("poly", 3)])
def test_sdg1_velocity_errors_do_not_depend_on_viscosity(family, level):
    # pressure robustness: nu only scales the gradient part of f, which the
    # H(div) test functions remove, so u_h is the same at every nu
    stag = build_staggered(mesh_for(family, level))
    row1 = run_case(get_case("taylor"), stag, "sdg1", 1.0)
    row6 = run_case(get_case("taylor"), stag, "sdg1", 1e-6)
    for field in ("err_u", "err_super"):
        a, b = row1[field], row6[field]
        assert abs(a - b) <= 1e-7 * a


def test_dense_oracle_on_two_cell_system():
    stag = build_staggered(generate_triangular(1))
    system = assemble_system(stag, get_case("noflow"), "sdg1", 1.0)
    assert system.size == 17
    rhs = system.rhs()
    dense = np.linalg.solve(system.matrix().toarray(), rhs)
    sol = solve(system)
    sparse_x = np.concatenate([
        sol.omega.ravel(),
        sol.u[stag.interior_edges].ravel(),
        sol.p,
        [sol.multiplier],
    ])
    assert np.abs(sparse_x - dense).max() < 1e-12 * max(1.0, np.abs(dense).max())


def test_solutions_are_deterministic():
    stag = build_staggered(generate_triangular(2))
    system = assemble_system(stag, get_case("taylor"), "sdg1", 1.0)
    a = solve(system)
    b = solve(system)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.omega, b.omega)


def test_rhs_scaling_scales_solution():
    stag = build_staggered(generate_triangular(2))
    case = get_case("noflow")  # homogeneous boundary data, pure load
    system = assemble_system(stag, case, "sdg2", 1.0)
    sol = solve(system)
    scaled = assemble_system(stag, get_case("noflow"), "sdg2", 1.0)
    scaled.F = 2.0 * scaled.F
    sol2 = solve(scaled)
    assert np.abs(sol2.p - 2.0 * sol.p).max() \
        <= 1e-13 * max(1.0, np.abs(sol.p).max()) * 2.0
    assert np.abs(sol2.u - 2.0 * sol.u).max() \
        <= 1e-13 * max(1.0, np.abs(sol.u).max()) * 2.0


@pytest.mark.parametrize("family,gen,n", [
    ("tri", generate_triangular, 4),
    ("trap", generate_trapezoidal, 4),
    ("poly", generate_polygonal, 4),
])
def test_solvable_across_viscosities(family, gen, n):
    # indirect inf-sup check: the system stays uniquely solvable
    stag = build_staggered(gen(n))
    case = get_case("taylor")
    for nu in (1e2, 1e1, 1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        sol = solve(assemble_system(stag, case, "sdg1", nu))
        assert sol.residual <= 1e-10


def test_pressure_mean_is_zero():
    stag = build_staggered(generate_polygonal(3))
    sol = solve(assemble_system(stag, get_case("taylor"), "sdg1", 1.0))
    pnorm = np.sqrt(np.dot(stag.cell_area, sol.p**2))
    assert abs(pressure_mean(stag, sol.p)) <= 1e-11 * max(pnorm, 1.0)


def _zero_row(block, i):
    block.data[block.indptr[i]:block.indptr[i + 1]] = 0.0


def _couple_cells_0_and_1(system):
    mass = system.Ms.tolil()
    mass[0, system.stag.cell_ptr[1]] = 1e-3  # the first gradient dofs of the two cells
    system.Ms = mass.tocsr()


def _break_a_column_sum(system):
    system.D0[1, 0] += 0.3  # an entry D0 stores


def _scale_a_divergence_entry(system):
    system.D0.data[0] *= 1e200


# Each row edits the assembled taylor system (sdg1, nu = 1, generate_polygonal(4))
# and names the SolverError that solve must raise for it.
SOLVER_GATES = {
    # a zero gradient row makes its cell's mass block singular
    "singular-mass-block": (lambda s: _zero_row(s.Ms, 0),
                            "^singular gradient mass block of size 4: "),
    "mass-couples-cells": (_couple_cells_0_and_1, "^gradient mass matrix couples two cells"),
    # a zero divergence row makes L = D1 D1^T singular
    "singular-factor": (lambda s: _zero_row(s.D0, 1),
                        "^sparse factorization failed: Factor is exactly singular$"),
    # the velocity columns of D0 no longer sum to zero, as the elimination of
    # mu assumes; the module docstring says such a matrix fails at the
    # full-system residual check
    "column-sum": (_break_a_column_sum, r"^solve residual 5\.484e-01 exceeds tolerance 1\.0e-10$"),
    "nan-load": (lambda s: np.put(s.F, 0, np.nan),
                 "^factorization produced non-finite solution entries$"),
    # the residual's squares overflow: the gate raises on an inf residual
    # without a warning from the norm
    "huge-divergence-entry": (_scale_a_divergence_entry,
                              r"^solve residual inf exceeds tolerance 1\.0e-10$"),
}


@pytest.mark.parametrize("edit,message", SOLVER_GATES.values(), ids=SOLVER_GATES)
def test_solver_gate_raises(edit, message):
    stag = build_staggered(generate_polygonal(4))
    system = assemble_system(stag, get_case("taylor"), "sdg1", 1.0)
    edit(system)
    with pytest.raises(SolverError, match=message):
        solve(system)


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
def test_residual_of_a_huge_load_is_round_off(scale):
    # the squares of such a load overflow: a residual that summed them read
    # 0.0 at 1e160 and nan from 1e200, and nan passed the gate
    stag = build_staggered(generate_polygonal(4))
    system = assemble_system(stag, get_case("taylor"), "sdg1", 1.0)
    system.F = scale * system.F
    assert solve(system).residual <= 1e-10


def test_residual_reported():
    stag = build_staggered(generate_triangular(2))
    sol = solve(assemble_system(stag, get_case("taylor"), "sdg2", 1.0))
    assert 0.0 <= sol.residual <= 1e-10


@pytest.mark.parametrize("family,level,nu", [("tri", 5, 1.0), ("poly", 4, 1e-6)])
def test_residual_is_round_off_on_fine_meshes(family, level, nu):
    # the round-off of the pressure-Laplacian solves grows like h^-2 (6e-13
    # at tri L5, 6e-11 at tri L7 in one pass); the refinement sweep keeps
    # the full-system residual at machine precision instead
    stag = build_staggered(mesh_for(family, level))
    sol = solve(assemble_system(stag, get_case("taylor"), "sdg1", nu))
    assert sol.residual <= 1e-14


def _full_vector(sol, stag):
    return np.concatenate([
        sol.omega.ravel(),
        sol.u[stag.interior_edges].ravel(),
        sol.p,
        [sol.multiplier],
    ])


@pytest.mark.parametrize("nu", [1.0, 1e-6])
def test_condensed_solve_matches_dense_oracle_on_mixed_cells(nu):
    # cells of 4, 5 and 6 vertices: every block size of the batched inverse
    stag = build_staggered(generate_polygonal(2))
    assert set(stag.cell_sizes.tolist()) == {4, 5, 6}
    system = assemble_system(stag, get_case("taylor"), "sdg1", nu)
    mat, rhs = system.matrix().toarray(), system.rhs()
    dense = np.linalg.solve(mat, rhs)
    x = _full_vector(solve(system), stag)
    # backward stable on the full system, and as close to the oracle as
    # the conditioning allows (cond ~ 5e1 at nu = 1, ~ 3e6 at nu = 1e-6)
    assert np.linalg.norm(mat @ x - rhs) <= 1e-14 * np.linalg.norm(rhs)
    forward = 50.0 * np.finfo(float).eps * np.linalg.cond(mat)
    assert np.abs(x - dense).max() <= forward * np.abs(dense).max()


def test_one_factorization_per_solve(monkeypatch):
    import stokes_sdg.solver as solver
    calls = []
    splu = solver.spla.splu

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", counting)
    stag = build_staggered(generate_polygonal(2))
    system = assemble_system(stag, get_case("taylor"), "sdg1", 1.0)
    solve(system)
    solve(system)
    # per solve, one factor of the velocity operator on the divergence-free
    # basis (one column per interior edge and interior vertex) and one of the
    # pressure Laplacian D1 D1^T with cell 0's pressure pinned; neither is
    # the full system nor the coupled (u, p) system
    # the boundary of the square is one cycle: as many vertices as edges
    n_iv = stag.n_vertices - len(stag.boundary_edges)
    n, m = len(stag.interior_edges) + n_iv, system.n_p - 1
    assert calls == [(n, n), (m, m), (n, n), (m, m)]


def test_solve_forms_no_interleaved_block(monkeypatch):
    # Ks acts on each velocity component, so no block of the solve is built
    # by the assembler's block helper, which the interleaved views use
    import stokes_sdg.assembly as assembly

    def refuse(*args, **kwargs):
        raise AssertionError("the solve formed an interleaved block")

    monkeypatch.setattr(assembly, "_block_csr", refuse)
    system = assemble_system(build_staggered(mesh_for("poly", 2)), get_case("taylor"),
                             "sdg1", 1.0)
    assert solve(system).residual <= 1e-10


@pytest.mark.parametrize("nu", [1.0, 1e-6])
def test_factored_matrix_matches_dense_schur_complement(nu, monkeypatch):
    import stokes_sdg.solver as solver
    factored = []
    splu = solver.spla.splu

    def capture(mat, *args, **kwargs):
        factored.append(mat.toarray())
        return splu(mat, *args, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", capture)
    stag = build_staggered(generate_polygonal(2))
    system = assemble_system(stag, get_case("taylor"), "sdg1", nu)
    solve(system)
    full = system.matrix().toarray()
    nq, n_u = system.n_q, system.n_u
    schur = full[nq:, nq:] - full[nq:, :nq] @ np.linalg.solve(full[:nq, :nq], full[:nq, nq:])
    z = solver._kernel_basis(stag).toarray()
    d1 = system.D0[1:].toarray()  # p_0 pinned
    oracles = [z.T @ schur[:n_u, :n_u] @ z, d1 @ d1.T]
    assert len(factored) == 2
    for mat, oracle in zip(factored, oracles):
        assert np.abs(mat - oracle).max() <= 1e-13 * np.abs(oracle).max()


@pytest.mark.parametrize("label", ["tri", "trap", "poly", "tri-jitter", "file"])
def test_kernel_basis_spans_the_discrete_divergence_free_space(label):
    import stokes_sdg.solver as solver
    primal = {
        "tri-jitter": lambda: generate_triangular(6, jitter=0.2, seed=3),
        "file": lambda: read_mesh(write_mesh(generate_polygonal(4))),
    }.get(label, lambda: mesh_for(label, 2))()
    stag = build_staggered(primal)
    system = assemble_system(stag, get_case("noflow"), "sdg1", 1.0)
    z = solver._kernel_basis(stag)
    d0 = system.D0
    assert abs(d0 @ z).max() <= 1e-14 * abs(d0).max() * abs(z).max()
    assert z.shape == (system.n_u, system.n_u - system.n_p + 1)
    assert np.linalg.matrix_rank(z.toarray()) == z.shape[1]


def _grad_x3_cos_y(xy):
    x, y = xy[..., 0], xy[..., 1]
    return np.stack([3.0 * x**2 * np.cos(y), -x**3 * np.sin(y)], axis=-1)


@pytest.mark.parametrize("family,level", [("poly", 3), ("tri", 4), ("trap", 4)])
def test_gradient_load_is_orthogonal_to_the_divergence_free_space(family, level):
    # pressure robustness without a solve (Linke, CMAME 268, 2014): the sdg1
    # load of f = grad(x^3 cos y), which no quadrature integrates exactly,
    # does not reach the divergence-free velocities; the sdg2 load does.  A
    # solver without _kernel_basis would test the same property as a range
    # residual against D0^T
    import stokes_sdg.solver as solver
    stag = build_staggered(mesh_for(family, level))
    z = solver._kernel_basis(stag)
    ratio = {}
    for method in ("sdg1", "sdg2"):
        f = assemble_rhs(stag, _grad_x3_cos_y, method).reshape(-1, 2)[stag.interior_edges]
        ratio[method] = np.abs(z.T @ f.ravel()).max() / np.abs(f).max()
    # measured: sdg1 1.2e-14, 1.1e-14, 4.4e-15; sdg2 9.69, 1.14, 7.67
    assert ratio["sdg1"] <= 1e-13, ratio
    assert ratio["sdg2"] >= 0.5, ratio


@pytest.mark.parametrize("family", ["tri", "trap", "poly"])
def test_noflow_velocity_is_machine_epsilon(family):
    # u is solved in the divergence-free space, so the gradient load that
    # the reconstruction leaves as round-off cannot reach it through p; the
    # sdg1 test functions are piecewise RT0 on the fan, so the degree-8 rule
    # integrates the no-flow load exactly on pentagons and hexagons too.
    # err_u^2 sums |tau| |u_e|^2, so max |u_e| <= err_u / sqrt(min |tau|)
    for level in (2, 3, 4):
        stag = build_staggered(mesh_for(family, level))
        assert run_case(get_case("noflow"), stag, "sdg1", 1.0)["err_u"] <= 1e-14
        if (family, level) in (("tri", 4), ("poly", 3)):
            assert run_case(get_case("noflow"), stag, "sdg1", 1e-6)["err_u"] <= 2e-9


@pytest.mark.parametrize("nu", [1.0, 1e-6])
def test_condensed_solve_matches_dense_oracle_with_nonzero_multiplier(nu):
    # non-solenoidal boundary data: the net boundary flux, and so mu, is
    # nonzero, which exercises the elimination of mu from the divergence rows
    stag = build_staggered(generate_polygonal(2))
    system = assemble_system(stag, get_case("taylor"), "sdg1", nu)
    system.ug = np.random.default_rng(7).standard_normal(system.ug.shape)
    mat, rhs = system.matrix().toarray(), system.rhs()
    dense = np.linalg.solve(mat, rhs)
    assert abs(dense[-1]) > 1e-3
    sol = solve(system)
    x = _full_vector(sol, stag)
    assert np.linalg.norm(mat @ x - rhs) <= 1e-14 * np.linalg.norm(rhs)
    forward = 50.0 * np.finfo(float).eps * np.linalg.cond(mat)
    assert np.abs(x - dense).max() <= forward * np.abs(dense).max()
    pnorm = np.sqrt(np.dot(stag.cell_area, sol.p**2))
    assert abs(pressure_mean(stag, sol.p)) <= 1e-14 * max(pnorm, 1.0)


def test_out_of_memory_in_factorization_raises(monkeypatch):
    import stokes_sdg.solver as solver

    def exhausted(*args, **kwargs):
        raise MemoryError("not enough memory to factorize")

    monkeypatch.setattr(solver.spla, "splu", exhausted)
    stag = build_staggered(generate_triangular(2))
    system = assemble_system(stag, get_case("taylor"), "sdg1", 1.0)
    with pytest.raises(SolverError, match="out of memory"):
        solve(system)
