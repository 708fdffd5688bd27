import json
import re

import pytest

from stokes_sdg.cli import main
from stokes_sdg.mesh import generate_triangular, read_mesh, write_mesh

from conftest import MESH_FILE_REJECTIONS


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
    # a mesh file is one level: --levels is left out or 1
    code = main(["run", "--case", "taylor", "--mesh", f"file:{mesh_path}",
                 "--method", "sdg2", "--levels", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # header plus a single record


def test_levels_other_than_1_on_mesh_file_exit_2(tmp_path, capsys):
    mesh_path = tmp_path / "m.json"
    main(["mesh", "--family", "tri", "--n", "2", "--out", str(mesh_path)])
    code = main(["run", "--case", "taylor", "--mesh", f"file:{mesh_path}", "--levels", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a mesh file is one level, not --levels 3\n"


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


@pytest.mark.parametrize("text,message", MESH_FILE_REJECTIONS.values(), ids=MESH_FILE_REJECTIONS)
def test_mesh_file_rejection_exit_1(text, message, tmp_path, capsys):
    path = tmp_path / "mesh.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["run", "--case", "taylor", "--mesh", f"file:{path}"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch("error: .*\n", err) and "Traceback" not in err  # a single line
    assert re.search(message, err[len("error: "):])


def test_mesh_file_in_any_encoding_json_detects(tmp_path, capsys):
    text = write_mesh(generate_triangular(4))
    outs = []
    for encoding in ("utf-8", "utf-8-sig", "utf-16"):
        path = tmp_path / f"{encoding}.json"
        path.write_bytes(text.encode(encoding))
        assert main(["run", "--case", "taylor", "--mesh", f"file:{path}"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] and outs == [outs[0]] * 3


def test_missing_mesh_file_exit_2(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert main(["run", "--case", "taylor", "--mesh", f"file:{path}"]) == 2
    assert capsys.readouterr().err.startswith("io error: [Errno 2] No such file or directory")


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
    # each failing measure is named with its bound, not the whole report
    err = capsys.readouterr().err
    assert err.startswith("error: mesh fails regularity: sub-triangle aspect ratio ")
    assert "exceeds 20, edge/diameter ratio 1e-06 is below 0.1\n" in err
    assert len(err) <= 120


def test_out_of_memory_in_factorization_exit_1(monkeypatch, capsys):
    import stokes_sdg.solver as solver

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(solver.spla, "splu", exhausted)
    code = main(["run", "--case", "taylor", "--mesh", "tri", "--levels", "2"])
    assert code == 1
    assert "solver error: out of memory" in capsys.readouterr().err


_RUN = ["run", "--case", "taylor", "--mesh", "tri", "--levels", "2", "--nu"]
_SWEEP = ["sweep", "--case", "taylor", "--mesh", "tri", "--level", "2", "--nu-list"]


@pytest.mark.parametrize("argv,message", [
    (_RUN + [nu], f"viscosity must be positive and finite, got {nu}")
    for nu in ("-1", "0", "nan", "inf")
] + [
    (_SWEEP + ["1,0"], "viscosity must be positive and finite, got 0"),
    (_RUN + ["1e200"], "viscosity must lie in [1e-100, 1e100], got 1e+200"),
    (_SWEEP + ["1,1e-300"], "viscosity must lie in [1e-100, 1e100], got 1e-300"),
], ids=["nu-1", "nu0", "nu-nan", "nu-inf", "nu-list-1,0", "nu1e200", "nu-list-1,1e-300"])
def test_bad_viscosity_exit_2(argv, message, capsys):
    # -1 once printed a table; 0, nan and inf failed in the factorization with
    # exit 1; 1e200 printed inf errors and nan orders with exit 0, and 1e-300
    # warned of an overflow before its solver error
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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
