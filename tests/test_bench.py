import numpy as np
import pytest

from stokes_sdg.bench import (CSV_COLUMNS, CaseSpec, ErrorRecord,
                              convergence_study, emit, emit_sweep,
                              level_to_n, mesh_for, robustness_sweep,
                              run_case)
from stokes_sdg.cases import get_case
from stokes_sdg.mesh import build_staggered


def test_level_mapping():
    assert [level_to_n("tri", k) for k in (1, 2, 3)] == [2, 4, 8]
    assert [level_to_n("poly", k) for k in (1, 2)] == [4, 8]


def test_casespec_needs_two_levels():
    with pytest.raises(ValueError):
        CaseSpec("taylor", levels=1)


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
    spec = CaseSpec("noflow", "sdg2", "tri", 2, 1.0)
    a = emit(convergence_study(spec))
    b = emit(convergence_study(spec))
    assert a == b


def test_orders_computed_from_halving():
    spec = CaseSpec("noflow", "sdg2", "tri", 3, 1.0)
    records = convergence_study(spec)
    assert records[0].ord_u is None
    for prev, cur in zip(records, records[1:]):
        expected = np.log2(prev.err_u / cur.err_u) / np.log2(prev.h / cur.h)
        assert abs(cur.ord_u - expected) < 1e-12


def test_errors_monotone_from_second_level():
    records = convergence_study(CaseSpec("taylor", "sdg1", "tri", 4, 1.0))
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
        "patch", u, ztens, zvec,
        lambda xy: np.zeros(np.asarray(xy)[..., 0].shape), zvec,
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

