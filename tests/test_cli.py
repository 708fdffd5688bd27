import json

import pytest

from stokes_sdg.cli import main
from stokes_sdg.mesh import read_mesh


def test_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code = main(["run", "--case", "noflow", "--mesh", "tri", "--method", "sdg1",
                 "--levels", "2", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("level,h,dof,err_omega")
    assert len(text.strip().splitlines()) == 3
    assert capsys.readouterr().out == text


def test_run_markdown_format(tmp_path):
    out = tmp_path / "study.md"
    code = main(["run", "--case", "taylor", "--mesh", "poly", "--levels", "2",
                 "--format", "md", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("| level | h | dof |")


def test_mesh_subcommand_roundtrip(tmp_path):
    out = tmp_path / "mesh.json"
    assert main(["mesh", "--family", "trap", "--n", "4", "--out", str(out)]) == 0
    mesh = read_mesh(out.read_text())
    assert mesh.n_cells == 16
    data = json.loads(out.read_text())
    assert set(data) == {"vertices", "cells"}


@pytest.mark.parametrize("family,n", [("tri", 0), ("trap", 0), ("trap", 3), ("poly", 1)])
def test_mesh_n_the_family_cannot_take_exit_2(family, n, tmp_path, capsys):
    # below the family's minimum, or odd for trap: once exit 1 from the generator
    out = tmp_path / "mesh.json"
    assert main(["mesh", "--family", family, "--n", str(n), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "generator needs" in err and err.endswith(f", got {n}\n")
    assert not out.exists()


def test_run_on_mesh_file(tmp_path, capsys):
    mesh_path = tmp_path / "m.json"
    main(["mesh", "--family", "tri", "--n", "2", "--out", str(mesh_path)])
    # a mesh file is one level, whatever --levels says
    code = main(["run", "--case", "taylor", "--mesh", f"file:{mesh_path}",
                 "--method", "sdg2", "--levels", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # header plus a single record


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--case", "taylor", "--mesh", "tri", "--level", "2",
                 "--nu-list", "1,0.1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("method,nu")
    assert len(lines) == 5  # two methods x two viscosities


def test_bad_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--case", "unknown-case", "--mesh", "tri"])
    assert exc.value.code == 2
    assert main(["run", "--case", "taylor", "--mesh", "nosuchfamily"]) == 2
    assert main(["sweep", "--case", "taylor", "--mesh", "tri", "--level", "2",
                 "--nu-list", "abc"]) == 2
    capsys.readouterr()
    for levels in ("1", "0"):
        assert main(["run", "--case", "taylor", "--mesh", "tri", "--levels", levels]) == 2
        assert f"levels must be at least 2 to observe orders, got {levels}" \
            in capsys.readouterr().err
    for level in ("0", "-1"):
        assert main(["sweep", "--case", "taylor", "--mesh", "tri", "--level", level,
                     "--nu-list", "1"]) == 2
        assert f"level must be at least 1, got {level}" in capsys.readouterr().err


def test_invalid_mesh_file_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices":[[0,0],[1,0],[1,1],[0,1]],"cells":[[0,3,2,1]]}')
    code = main(["run", "--case", "taylor", "--mesh", f"file:{bad}"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_sliver_mesh_fails_validation(tmp_path, capsys):
    # valid format and orientation, terrible shape regularity
    eps = 1e-6
    mesh = {
        "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, eps], [0.0, eps],
                     [1.0, 1.0], [0.0, 1.0]],
        "cells": [[0, 1, 2, 3], [3, 2, 4, 5]],
    }
    path = tmp_path / "sliver.json"
    path.write_text(json.dumps(mesh))
    code = main(["run", "--case", "taylor", "--mesh", f"file:{path}"])
    assert code == 1
    assert "regularity" in capsys.readouterr().err


def test_mesh_file_off_the_unit_square_exit_1(tmp_path, capsys):
    # area 1, but a parallelogram, not the unit square
    path = tmp_path / "parallelogram.json"
    path.write_text('{"vertices":[[0,0],[1,0],[1.5,1],[0.5,1]],"cells":[[0,1,2,3]]}')
    code = main(["run", "--case", "taylor", "--mesh", f"file:{path}"])
    assert code == 1
    assert "unit square" in capsys.readouterr().err


def test_fractional_vertex_index_exit_1(tmp_path, capsys):
    # vertex index 2.7 on the unit square: once truncated to 2 and solved
    path = tmp_path / "bad.json"
    path.write_text('{"vertices":[[0,0],[1,0],[1,1],[0,1]],"cells":[[0,1,2.7,3]]}')
    code = main(["run", "--case", "taylor", "--mesh", f"file:{path}"])
    assert code == 1
    assert "not an integer" in capsys.readouterr().err


def test_string_vertex_coordinate_exit_1(tmp_path, capsys):
    # the coordinate "1" was once read as 1.0 and solved
    path = tmp_path / "bad.json"
    path.write_text('{"vertices":[[0,0],["1",0],[1,1],[0,1]],"cells":[[0,1,2,3]]}')
    code = main(["run", "--case", "taylor", "--mesh", f"file:{path}"])
    assert code == 1
    assert "is not a number" in capsys.readouterr().err


def test_huge_integer_vertex_coordinate_exit_1(tmp_path, capsys):
    # 1 followed by 400 zeros once ended the run in an OverflowError traceback
    path = tmp_path / "huge.json"
    path.write_text('{"vertices":[[0,0],[1,0],[1,1%s],[0,1]],"cells":[[0,1,2,3]]}'
                    % ("0" * 400))
    code = main(["run", "--case", "taylor", "--mesh", f"file:{path}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "vertex 2: integer coordinate beyond the float range" in err
    assert "Traceback" not in err


def test_out_of_memory_in_factorization_exit_1(monkeypatch, capsys):
    import stokes_sdg.solver as solver

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(solver.spla, "splu", exhausted)
    code = main(["run", "--case", "taylor", "--mesh", "tri", "--levels", "2"])
    assert code == 1
    assert "solver error: out of memory" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--case", "taylor", "--mesh", "tri", "--levels", "2", "--nu", nu]
    for nu in ("-1", "0", "nan", "inf")
] + [["sweep", "--case", "taylor", "--mesh", "tri", "--level", "2", "--nu-list", "1,0"]],
    ids=["nu-1", "nu0", "nu-nan", "nu-inf", "nu-list-1,0"])
def test_bad_viscosity_exit_2(argv, capsys):
    # -1 once printed a table; 0, nan and inf failed in the factorization with
    # exit 1
    assert main(argv) == 2
    value = argv[-1].split(",")[-1]
    assert f"viscosity must be positive and finite, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("nu_list,pair", [("1e-6,1", "1e-06 then 1"), ("1,1", "1 then 1"),
                                          ("1,1e-3,1e-2", "0.001 then 0.01")],
                         ids=["1e-6,1", "1,1", "1,1e-3,1e-2"])
def test_sweep_nu_list_not_descending_exit_2(nu_list, pair, capsys):
    # an ascending list once printed sdg2's growth factor ratio_u as 1e-06
    assert main(["sweep", "--case", "taylor", "--mesh", "tri", "--level", "2",
                 "--nu-list", nu_list]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"viscosities must be strictly descending, got {pair}" in captured.err


@pytest.mark.parametrize("jitter", ["5", "-0.1", "nan"])
def test_bad_jitter_exit_2(jitter, capsys):
    # 5 once failed in the mesh generator with exit 1, and nan gave an
    # unjittered mesh
    code = main(["run", "--case", "taylor", "--mesh", "tri", "--levels", "2",
                 "--jitter", jitter])
    assert code == 2
    assert f"jitter must lie in [0, 0.2], got {jitter}" in capsys.readouterr().err


@pytest.mark.parametrize("mesh", ["trap", "poly", "file:unread.json"])
def test_jitter_off_the_tri_family_exit_2(mesh, capsys):
    code = main(["run", "--case", "taylor", "--mesh", mesh, "--levels", "2",
                 "--jitter", "0.15"])
    assert code == 2
    assert f"jitter applies only to the tri family, not {mesh!r}" in capsys.readouterr().err


def test_memory_error_outside_the_factorization_exit_1(monkeypatch, capsys):
    def exhausted(stag):
        raise MemoryError("cannot allocate the gradient mass")

    monkeypatch.setattr("stokes_sdg.assembly.assemble_mass", exhausted)
    code = main(["run", "--case", "taylor", "--mesh", "tri", "--levels", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: cannot allocate the gradient mass\n"
    assert "Traceback" not in err


def test_assembly_error_exit_1(monkeypatch, capsys):
    # an AssemblyError, a RuntimeError, once escaped main with a traceback
    from stokes_sdg.assembly import AssemblyError

    def degenerate(stag):
        raise AssemblyError("singular sub-triangle 3")

    monkeypatch.setattr("stokes_sdg.assembly.assemble_mass", degenerate)
    code = main(["run", "--case", "taylor", "--mesh", "tri", "--levels", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: singular sub-triangle 3\n"
    assert "Traceback" not in err
