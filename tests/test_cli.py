import json

import numpy as np
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


def test_run_on_mesh_file(tmp_path, capsys):
    mesh_path = tmp_path / "m.json"
    main(["mesh", "--family", "tri", "--n", "2", "--out", str(mesh_path)])
    code = main(["run", "--case", "taylor", "--mesh", f"file:{mesh_path}",
                 "--method", "sdg2"])
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
