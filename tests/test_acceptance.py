"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Expensive studies are
shared through module-scoped fixtures; each criterion asserts the stated
tolerances and its runtime budget.
"""

import time

import numpy as np
import pytest

from stokes_sdg.assembly import RTTable, assemble_Bh, assemble_bh, assemble_system
from stokes_sdg.bench import convergence_study, robustness_sweep
from stokes_sdg.cases import ManufacturedCase, case_taylor, get_case
from stokes_sdg.mesh import build_staggered, generate_triangular
from stokes_sdg.solver import solve
from stokes_sdg.spaces import GradientField

from conftest import (interior_points, one_cell, random_convex_polygon,
                      reconstruction_divergence, rt_basis, rt_cell)


def _report(criterion: int, ok: bool, detail: str):
    print(f"\n[acceptance] criterion {criterion}: "
          f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def _timed_study(**study):
    t0 = time.perf_counter()
    rows = convergence_study(**study)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def noflow_sdg1():
    return _timed_study(case="noflow", method="sdg1", family="tri", levels=5, nu=1.0)


@pytest.fixture(scope="module")
def noflow_sdg2():
    return _timed_study(case="noflow", method="sdg2", family="tri", levels=5, nu=1.0)


@pytest.fixture(scope="module")
def taylor_tri():
    rec1, t1 = _timed_study(case="taylor", method="sdg1", family="tri", levels=5,
                            nu=1.0)
    rec2, t2 = _timed_study(case="taylor", method="sdg1", family="tri", levels=5,
                            nu=1e-6)
    return rec1, rec2, t1 + t2


def test_criterion_1_noflow_sdg1(noflow_sdg1):
    rows, elapsed = noflow_sdg1  # levels 1..5 are h = 1/2 .. 1/32
    max_u = max(r["err_u"] for r in rows)
    max_super = max(r["err_super"] for r in rows)
    p_orders = [r["ord_p"] for r in rows[2:]]
    ok = (
        max_u <= 1e-10
        and max_super <= 1e-10
        and all(0.9 <= o <= 1.1 for o in p_orders)
        and elapsed <= 60.0
    )
    _report(1, ok, f"max|u_err|={max_u:.2e}, max|super|={max_super:.2e}, "
                   f"p orders={['%.3f' % o for o in p_orders]}, {elapsed:.1f}s")


def test_criterion_2_noflow_sdg2(noflow_sdg2):
    rows, elapsed = noflow_sdg2
    reference = [8.75, 3.60, 1.12, 0.30, 0.08]
    errs = [r["err_u"] for r in rows]
    within = all(ref / 3.0 <= e <= ref * 3.0 for e, ref in zip(errs, reference))
    final_order = rows[-1]["ord_u"]
    p_orders = [r["ord_p"] for r in rows[1:]]
    ok = (
        all(e > 0.0 for e in errs)
        and within
        and final_order >= 1.8
        and all(0.85 <= o <= 1.15 for o in p_orders)
    )
    _report(2, ok, f"u errors={['%.3g' % e for e in errs]} vs {reference}, "
                   f"final u order={final_order:.2f}, "
                   f"p orders={['%.2f' % o for o in p_orders]}, {elapsed:.1f}s")


def test_criterion_3_taylor_convergence(taylor_tri):
    rec_nu1, rec_nu6, elapsed = taylor_tri

    def finest_orders(rows):
        last = rows[-1]
        return last["ord_omega"], last["ord_u"], last["ord_p"], last["ord_super"]

    ok = elapsed <= 300.0
    details = []
    for tag, rows in (("nu=1", rec_nu1), ("nu=1e-6", rec_nu6)):
        # criterion levels are h = 1/4 .. 1/32: drop the h = 1/2 row
        o_om, o_u, o_p, o_su = finest_orders(rows[1:])
        details.append(f"{tag}: omega={o_om:.2f} u={o_u:.2f} "
                       f"p={o_p:.2f} super={o_su:.2f}")
        ok = ok and min(o_om, o_u, o_p) >= 0.9 and o_su >= 1.8
    _report(3, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_4_robustness_sweep():
    t0 = time.perf_counter()
    nus = [1e2, 1e1, 1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    rows = robustness_sweep("taylor", "tri", 4, nus)  # level 4: h = 1/16
    elapsed = time.perf_counter() - t0
    sdg1 = [r for r in rows if r["method"] == "sdg1"]
    sdg2 = [r for r in rows if r["method"] == "sdg2"]

    u1 = [r["err_u"] for r in sdg1]
    flat = max(u1) / min(u1)

    # sdg2 velocity grows ~ 1/nu once the irrotational part dominates
    growth_ratios = [r["ratio_u"] for r in sdg2
                     if r["ratio_u"] is not None and r["nu"] <= 1e-3]
    growth_ok = all(8.0 <= g <= 12.0 for g in growth_ratios)
    total_growth = sdg2[-1]["err_u"] / sdg2[2]["err_u"]  # nu=1 -> 1e-6

    # sdg1 gradient error shrinks proportionally to nu at every decade
    shrink_ratios = [r["ratio_omega"] for r in sdg1 if r["ratio_omega"]]
    shrink_ok = all(8.0 <= s <= 12.0 for s in shrink_ratios)

    # sdg2 gradient error plateaus for small nu
    om2 = [r["err_omega"] for r in sdg2 if r["nu"] <= 1e-2]
    plateau = max(om2) / min(om2)

    ok = (
        flat <= 1.1
        and growth_ok and total_growth >= 1e2
        and shrink_ok
        and plateau <= 1.25
        and elapsed <= 120.0
    )
    _report(4, ok, f"sdg1 u max/min={flat:.3f}, sdg2 decade ratios="
                   f"{['%.1f' % g for g in growth_ratios]}, "
                   f"sdg1 omega ratios={['%.1f' % s for s in shrink_ratios]}, "
                   f"sdg2 omega plateau={plateau:.3f}, {elapsed:.1f}s")


def test_criterion_5_other_mesh_families():
    t0 = time.perf_counter()
    trap = convergence_study(case="trig", method="sdg1", family="trap", levels=4, nu=1.0)
    poly = convergence_study(case="taylor", method="sdg1", family="poly", levels=4, nu=1.0)
    elapsed = time.perf_counter() - t0
    ok = True
    details = []
    for tag, rows in (("trap/trig", trap), ("poly/taylor", poly)):
        last = rows[-1]
        details.append(f"{tag}: omega={last['ord_omega']:.2f} u={last['ord_u']:.2f} "
                       f"p={last['ord_p']:.2f} super={last['ord_super']:.2f}")
        ok = ok and min(last["ord_omega"], last["ord_u"], last["ord_p"]) >= 0.9 \
            and last["ord_super"] >= 1.8
    _report(5, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_6_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checks: list[tuple[str, bool]] = []

    # normal components continuous across the fan edges (H(div) conformity)
    from test_hdivrec import edge_fluxes, fan_edge_normal_jumps, hat_interpolant_curl, trace_matrix
    worst_jump = max(fan_edge_normal_jumps(random_convex_polygon(m, rng))
                     for m in range(3, 9))
    checks.append(("fan-edge normal continuity", worst_jump <= 1e-8))

    # Kronecker traces and constant divergence: the packed table's 2 c0, which
    # the divergences below are built from, is the per-cell one
    worst_tr = worst_div = 0.0
    for m in (3, 5, 8):
        verts = random_convex_polygon(m, rng)
        worst_tr = max(worst_tr, np.abs(trace_matrix(verts) - np.eye(m)).max())
        worst_div = max(worst_div, np.abs(
            2.0 * RTTable(one_cell(verts)).c0 - 2.0 * rt_cell(verts)[3]).max())
    checks.append(("kronecker normal traces", worst_tr <= 1e-8))
    checks.append(("divergence = 2 c0", worst_div == 0.0))

    # RT0 reduction on the reference triangle
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = interior_points(tri, rng, 20)
    phi = rt_basis(tri, pts)
    opposite = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    rt0_dev = max(
        np.abs(phi[:, i, :] - rt_cell(tri)[1][i] * (pts - opposite[i])).max()
        for i in range(3)
    )
    checks.append(("RT0 reduction", rt0_dev <= 1e-10))

    # reconstruction reproduces constants; commuting identity
    hexa = random_convex_polygon(6, rng)
    cfun = lambda p: np.broadcast_to([1.5, -0.5], p.shape).copy()
    pts = interior_points(hexa, rng, 30)
    phi = rt_basis(hexa, pts)
    rec = np.einsum("nic,i->nc", phi, edge_fluxes(hexa, cfun))
    checks.append(("constant reproduction",
                   np.abs(rec - [1.5, -0.5]).max() <= 1e-9))

    def scalar(p):
        return p[..., 0] ** 2 + p[..., 0] * p[..., 1]

    def curl_scalar(p):
        return np.stack([-p[..., 0], 2.0 * p[..., 0] + p[..., 1]], axis=-1)

    rec = np.einsum("nic,i->nc", phi, edge_fluxes(hexa, curl_scalar))
    expected = hat_interpolant_curl(hexa, scalar, pts)
    checks.append(("commuting identity", np.abs(rec - expected).max() <= 1e-9))

    # adjointness of the discrete forms on a small mesh
    stag = build_staggered(generate_triangular(2))
    bmat = assemble_Bh(stag)
    dmat = assemble_bh(stag)
    worst_adj = 0.0
    for _ in range(100):
        q = rng.standard_normal((stag.n_duals, 2))
        vals = rng.standard_normal((stag.n_edges, 2))
        vals[stag.boundary_edges] = 0.0
        lhs = np.sum(vals * (bmat @ q))
        tens = GradientField(stag, q).tensors()
        rhs = 0.0
        for e in stag.interior_edges:
            t1, t2 = stag.edge_slots[e]
            rhs += stag.celen[stag.edge_slots[e, 0]] * vals[e] @ (
                (tens[t1] - tens[t2]) @ stag.cnorm[t1]
            )
        worst_adj = max(worst_adj, abs(lhs - rhs) / max(abs(lhs), 1.0))
        qc = rng.standard_normal(stag.n_cells)
        lhs2 = qc @ (dmat @ vals.ravel())
        rhs2 = -np.sum(qc * reconstruction_divergence(stag, vals) * stag.cell_area)
        worst_adj = max(worst_adj, abs(lhs2 - rhs2) / max(abs(lhs2), 1.0))
    checks.append(("adjointness (both forms)", worst_adj <= 1e-12))

    # post-solve divergence-free reconstruction
    sol = solve(assemble_system(stag, get_case("taylor"), "sdg1", 1.0))
    unorm = np.abs(sol.u.values).max()
    worst_divfree = np.abs(reconstruction_divergence(stag, sol.u.values)).max()
    checks.append(("post-solve divergence-free", worst_divfree <= 1e-11 * unorm))

    # velocity invariance under f -> f + lam grad(chi)
    base = case_taylor()
    lam = 1e6

    def shifted_grad_p(xy):
        x, y = np.asarray(xy)[..., 0], np.asarray(xy)[..., 1]
        gchi = np.stack([3 * x**2 * y**2 + y, 2 * x**3 * y + x], axis=-1)
        return base.grad_p(xy) + lam * gchi

    shifted = ManufacturedCase(base.u, base.grad_u, base.lap_u, base.p, shifted_grad_p)
    stag4 = build_staggered(generate_triangular(4))
    sol0 = solve(assemble_system(stag4, base, "sdg1", 1.0))
    sol1 = solve(assemble_system(stag4, shifted, "sdg1", 1.0))
    unorm = np.sqrt(np.einsum("t,tc,tc->", stag4.tri_area,
                              sol0.u.on_tris(), sol0.u.on_tris()))
    checks.append(("velocity invariance",
                   np.abs(sol1.u.values - sol0.u.values).max() <= 1e-9 * unorm))

    # constant-velocity patch test
    def upatch(xy):
        x = np.asarray(xy)[..., 0]
        return np.broadcast_to([3.0, -1.0], x.shape + (2,)).copy()

    def zvec(xy):
        x = np.asarray(xy)[..., 0]
        return np.zeros(x.shape + (2,))

    def ztens(xy):
        x = np.asarray(xy)[..., 0]
        return np.zeros(x.shape + (2, 2))

    patch = ManufacturedCase(upatch, ztens, zvec,
                             lambda xy: np.zeros(np.asarray(xy)[..., 0].shape), zvec)
    solp = solve(assemble_system(stag, patch, "sdg1", 1.0))
    checks.append(("patch test",
                   np.abs(solp.u.values - [3.0, -1.0]).max() <= 1e-11
                   and np.abs(solp.p.values).max() <= 1e-11))

    # dense-oracle equivalence on the 17-unknown system
    stag1 = build_staggered(generate_triangular(1))
    system = assemble_system(stag1, get_case("noflow"), "sdg1", 1.0)
    dense = np.linalg.solve(system.matrix().toarray(), system.rhs())
    sols = solve(system)
    sparse_x = np.concatenate([
        sols.omega.values.ravel(),
        sols.u.values[stag1.interior_edges].ravel(),
        sols.p.values, [sols.multiplier],
    ])
    checks.append(("dense solve oracle (17 dof)",
                   system.size == 17
                   and np.abs(sparse_x - dense).max()
                   <= 1e-12 * max(1.0, np.abs(dense).max())))

    elapsed = time.perf_counter() - t0
    failed = [name for name, ok in checks if not ok]
    _report(6, not failed,
            f"{len(checks)} property groups, failed={failed or 'none'}, "
            f"{elapsed:.1f}s")
