import numpy as np
import pytest

import stokes_sdg.bench as bench
from stokes_sdg.bench import (CSV_COLUMNS, ErrorRecord, convergence_study,
                              emit, emit_sweep, level_to_n, mesh_for,
                              robustness_sweep, run_case)
from stokes_sdg.cases import get_case
from stokes_sdg.mesh import build_staggered


def test_level_mapping():
    assert [level_to_n("tri", k) for k in (1, 2, 3)] == [2, 4, 8]
    assert [level_to_n("poly", k) for k in (1, 2)] == [4, 8]


@pytest.mark.parametrize("family", ["trap", "poly"])
def test_jitter_on_a_non_triangular_family_is_rejected(family):
    with pytest.raises(ValueError, match=f"not {family!r}"):
        mesh_for(family, 2, jitter=0.1)
    with pytest.raises(ValueError, match=f"not {family!r}"):
        convergence_study(case="taylor", family=family, levels=2, jitter=0.1)
    assert mesh_for(family, 2, jitter=0.0).n_cells > 0


def test_convergence_study_needs_two_levels():
    with pytest.raises(ValueError, match="levels must be at least 2 to observe orders, got 1"):
        convergence_study(case="taylor", levels=1)


@pytest.mark.parametrize("family,level,message", [
    ("tri", 0, "level must be at least 1, got 0"),
    ("poly", -1, "level must be at least 1, got -1"),
    ("hex", 2, "unknown mesh family 'hex'"),
], ids=["tri-level0", "poly-level-1", "unknown-family"])
def test_mesh_for_rejects_a_level_or_family_it_cannot_take(family, level, message):
    # tri level 0 was once the single-square mesh n = 1
    with pytest.raises(ValueError, match=message):
        mesh_for(family, level)


@pytest.mark.parametrize("nu_list,message", [
    ([1e-3, 1.0], "strictly descending, got 0.001 then 1"),
    ([1.0, 1.0], "strictly descending, got 1 then 1"),
    ([], "the viscosity list is empty"),
    ([1.0, 0.0], "positive and finite, got 0"),
], ids=["ascending", "repeated", "empty", "zero"])
def test_sweep_checks_the_viscosities_before_any_solve(nu_list, message, monkeypatch):
    # an ascending list once gave sdg2 a growth factor ratio_u of 0.011
    def no_solve(system):
        raise AssertionError("solved before checking the viscosities")

    monkeypatch.setattr(bench, "solve", no_solve)
    with pytest.raises(ValueError, match=message):
        robustness_sweep("taylor", "tri", 2, nu_list)


def test_emit_header_and_digits():
    rec = ErrorRecord(level=1, h=1.0 / 3.0, dof=123, err_omega=0.123456789,
                      err_u=1e-15, err_p=2.0, err_super=0.5)
    text = emit([rec], "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "level,h,dof,err_omega,err_u,err_p,err_super," \
                       "ord_omega,ord_u,ord_p,ord_super"
    fields = lines[1].split(",")
    assert fields[0] == "1"
    assert fields[1] == "0.333333"  # six significant digits
    assert fields[3] == "0.123457"
    assert fields[7:] == ["", "", "", ""]  # no orders on the first level


def test_emit_empty_results_is_header_only():
    assert emit([], "csv") == ",".join(CSV_COLUMNS) + "\n"


def test_emit_markdown_pairs_error_and_order():
    rec1 = ErrorRecord(1, 0.5, 10, 1.0, 1.0, 1.0, 1.0)
    rec2 = ErrorRecord(2, 0.25, 40, 0.5, 0.5, 0.5, 0.5,
                       ord_omega=1.0, ord_u=1.0, ord_p=1.0, ord_super=1.0)
    text = emit([rec1, rec2], "md")
    lines = text.strip().split("\n")
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    assert header == ["level", "h", "dof", "err_omega", "ord", "err_u", "ord",
                      "err_p", "ord", "err_super", "ord"]
    assert "N/A" in lines[2]  # first level has no order


def test_emit_sweep_markdown_marks_missing_ratios():
    row = {"method": "sdg1", "nu": 1.0, "h": 0.5, "dof": 10, "err_omega": 0.25,
           "err_u": 1e-15, "err_p": 2.0, "err_super": 0.125,
           "ratio_omega": None, "ratio_u": None}
    text = emit_sweep([row, dict(row, nu=0.1, ratio_omega=10.0, ratio_u=1.0)], "md")
    assert text == (
        "| method | nu | h | dof | err_omega | err_u | err_p | err_super"
        " | ratio_omega | ratio_u |\n"
        "|---|---|---|---|---|---|---|---|---|---|\n"
        "| sdg1 | 1 | 0.5 | 10 | 0.25 | 1e-15 | 2 | 0.125 | N/A | N/A |\n"
        "| sdg1 | 0.1 | 0.5 | 10 | 0.25 | 1e-15 | 2 | 0.125 | 10 | 1 |\n"
    )


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit([], "tex")
    with pytest.raises(ValueError):
        emit_sweep([], "tex")


def test_emit_is_deterministic():
    spec = dict(case="noflow", method="sdg2", family="tri", levels=2, nu=1.0)
    a = emit(convergence_study(**spec))
    b = emit(convergence_study(**spec))
    assert a == b


def test_orders_computed_from_halving():
    records = convergence_study(case="noflow", method="sdg2", family="tri", levels=3, nu=1.0)
    assert records[0].ord_u is None
    for prev, cur in zip(records, records[1:]):
        expected = np.log2(prev.err_u / cur.err_u) / np.log2(prev.h / cur.h)
        assert abs(cur.ord_u - expected) < 1e-12


def test_an_exact_zero_error_gives_an_empty_order():
    # log2 of a ratio with a zero error has no value; the CSV leaves the cell empty
    records = bench._orders([ErrorRecord(1, 0.5, 10, 1.0, 1e-15, 1.0, 1.0),
                             ErrorRecord(2, 0.25, 40, 0.5, 0.0, 0.25, 0.25)])
    assert records[1].ord_u is None
    assert emit(records).splitlines()[2].split(",")[7:] == ["1", "", "2", "2"]


def test_errors_monotone_from_second_level():
    records = convergence_study(case="taylor", method="sdg1", family="tri", levels=4, nu=1.0)
    for prev, cur in zip(records[1:], records[2:]):
        for fieldname in ("err_omega", "err_u", "err_p", "err_super"):
            a, b = getattr(prev, fieldname), getattr(cur, fieldname)
            if a > 1e-13:
                assert b <= 1.05 * a


def test_run_case_returns_solution_and_record():
    stag = build_staggered(mesh_for("tri", 2))
    rec, sol = run_case(get_case("taylor"), stag, "sdg1", 1.0, level=2)
    assert rec.dof == sol.omega.values.size + \
        sol.u.values[stag.interior_edges].size + sol.p.values.size + 1
    assert rec.h == stag.h
    assert rec.err_u > 0.0


def test_exact_in_space_case_saturates():
    # a globally constant flow lies in the discrete space: every error sits
    # at machine precision on all levels and reported orders are meaningless
    from stokes_sdg.bench import study_on_meshes
    from stokes_sdg.cases import ManufacturedCase

    def u(xy):
        x = np.asarray(xy)[..., 0]
        return np.broadcast_to([3.0, -1.0], x.shape + (2,)).copy()

    def zvec(xy):
        x = np.asarray(xy)[..., 0]
        return np.zeros(x.shape + (2,))

    def ztens(xy):
        x = np.asarray(xy)[..., 0]
        return np.zeros(x.shape + (2, 2))

    patch = ManufacturedCase(
        u, ztens, zvec, lambda xy: np.zeros(np.asarray(xy)[..., 0].shape), zvec,
    )
    meshes = [build_staggered(mesh_for("tri", k)) for k in (1, 2)]
    records = study_on_meshes(patch, meshes, "sdg1", 1.0)
    for rec in records:
        assert max(rec.err_omega, rec.err_u, rec.err_p, rec.err_super) <= 1e-11


def test_sweep_rows_and_ratios():
    rows = robustness_sweep("taylor", "tri", 2, [1.0, 0.1])
    assert [r["method"] for r in rows] == ["sdg1", "sdg1", "sdg2", "sdg2"]
    assert rows[0]["ratio_u"] is None
    assert abs(rows[1]["ratio_omega"] - rows[0]["err_omega"] / rows[1]["err_omega"]) < 1e-12
    text = emit_sweep(rows)
    assert text.splitlines()[0] == "method,nu,h,dof,err_omega,err_u,err_p," \
                                   "err_super,ratio_omega,ratio_u"

