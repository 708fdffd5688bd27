"""The benchmark's workloads: their inputs, operations and property checks.

Each check tests a property of the method (an order of convergence, a
round-off velocity, an identity of the discrete operators), never a stored
copy of earlier output.  An operation fails when it raises one of the
package's errors (``MeshError``, ``AssemblyError``, ``SolverError``) or when
its check reports a problem.
"""

import contextlib
import csv
import io
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse.linalg as spla

from stokes_sdg import assembly, bench, cases, cli, mesh
from stokes_sdg.assembly import AssemblyError
from stokes_sdg.mesh import MeshError
from stokes_sdg.solver import SolverError

# Observed orders approach their limits from either side on coarse levels;
# 0.4 still separates first from second order.
ORDER_TOL = 0.4
ROUND_OFF = 1e-10
RANGE_TOL = 1e-8
TRI_JITTER = 0.2

# Area-1 parallelogram: it does not tile the unit square, so the mesh-file
# contract says read_mesh must reject it.
PARALLELOGRAM = '{"vertices":[[0,0],[1,0],[1.5,1],[0.5,1]],"cells":[[0,1,2,3]]}'


class Pass:
    """One round of a workload's operations.

    ``run`` times one operation, then checks its result outside the timed
    region.  ``wall`` is the summed time of the operations alone.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = 0.0
        self.times = []      # (operation, seconds)
        self.attempted = 0
        self.failed = 0
        self.failures = []   # (operation, problems, known)

    def run(self, name, op, check, known_failure=False):
        """Time ``op()``; return its result, or None if it raised."""
        self.attempted += 1
        result, problems = None, []
        if self.tracer is not None:
            self.tracer.begin("op")
        t0 = time.perf_counter()
        try:
            result = op()
        except (MeshError, SolverError, AssemblyError) as exc:
            problems = [f"raised {type(exc).__name__}: {exc}"]
        finally:
            elapsed = time.perf_counter() - t0
            self.wall += elapsed
            self.times.append((name, elapsed))
            if self.tracer is not None:
                self.tracer.end()
        if not problems:
            problems = check(result)
        if problems:
            self.failed += 1
            self.failures.append((name, problems, known_failure))
        return result

    def run_after(self, needed, name, op, check):
        """``run``, or count the operation as failed if ``needed`` is None
        because the operation that makes it failed."""
        if needed is not None:
            return self.run(name, op, check)
        self.attempted += 1
        self.failed += 1
        self.times.append((name, 0.0))
        self.failures.append((name, ["an operation it needs failed"], False))
        return None

    @property
    def unexpected(self):
        return [f for f in self.failures if not f[2]]


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _table(text):
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = {}
        for key, value in raw.items():
            try:
                row[key] = float(value) if value else None
            except ValueError:
                row[key] = value
        rows.append(row)
    return rows


def _near(value, target, tol):
    return value is not None and abs(value - target) <= tol


# ---------------------------------------------------------------------------
# converge: the paper's convergence table, through the CLI
# ---------------------------------------------------------------------------

def converge_inputs(seed, small):
    levels = "3" if small else "5"
    taylor = ["run", "--case", "taylor", "--mesh", "tri", "--method", "sdg1",
              "--nu", "1", "--levels", levels]
    noflow = ["run", "--case", "noflow", "--mesh", "trap", "--method", "sdg1",
              "--levels", levels]
    return int(levels), taylor, noflow


def _check_taylor(levels):
    def check(out):
        code, text = out
        rows = _table(text)
        if code != 0 or len(rows) != levels:
            return [f"exit code {code}, {len(rows)} rows for {levels} levels"]
        last = rows[-1]
        problems = [f"{key} = {last[key]} is not about 1"
                    for key in ("ord_omega", "ord_u", "ord_p")
                    if not _near(last[key], 1.0, ORDER_TOL)]
        if not _near(last["ord_super"], 2.0, ORDER_TOL):
            problems.append(f"ord_super = {last['ord_super']} is not about 2")
        return problems
    return check


def _check_noflow(levels):
    def check(out):
        code, text = out
        rows = _table(text)
        if code != 0 or len(rows) != levels:
            return [f"exit code {code}, {len(rows)} rows for {levels} levels"]
        return [f"level {row['level']:g}: {key} = {row[key]} is not round-off"
                for row in rows for key in ("err_u", "err_super")
                if not row[key] <= ROUND_OFF]
    return check


def converge_pass(p, inputs):
    levels, taylor, noflow = inputs
    p.run("taylor-tri-sdg1", lambda: _cli(taylor), _check_taylor(levels))
    p.run("noflow-trap-sdg1", lambda: _cli(noflow), _check_noflow(levels))


# ---------------------------------------------------------------------------
# assemble-fine: mesh and assembly layers at sizes the solver cannot reach
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeshInput:
    label: str
    generate: Callable
    # whether the pass runs validate on it: the jittered tri mesh fails the
    # regularity thresholds for some seeds (aspect ratio above 20), and an
    # operation whose outcome depends on the seed is left out
    validated: bool


def assemble_inputs(seed, small):
    tri_level, poly_level = (3, 2) if small else (6, 5)
    tri_n = bench.level_to_n("tri", tri_level)
    poly_n = bench.level_to_n("poly", poly_level)
    meshes = (
        MeshInput(f"tri-L{tri_level}",
                  lambda: mesh.generate_triangular(tri_n, jitter=TRI_JITTER, seed=seed),
                  validated=False),
        MeshInput(f"poly-L{poly_level}", lambda: mesh.generate_polygonal(poly_n),
                  validated=True),
    )
    return meshes, cases.get_case("noflow")


def _check_roundtrip(primal):
    return lambda back: [] if back == primal else ["read_mesh(write_mesh(m)) != m"]


def _check_staggered(primal):
    def check(stag):
        problems = []
        euler = primal.n_vertices - stag.n_edges + stag.n_cells
        if euler != 1:
            problems.append(f"V - E + C = {euler}")
        area = float(stag.cell_area.sum())
        if not abs(area - 1.0) <= 1e-12:
            problems.append(f"cell areas sum to {area!r}")
        return problems
    return check


def _check_regular(report):
    return [] if report.ok else [f"fails regularity thresholds: {report}"]


def _assemble(stag, case, method):
    system = assembly.assemble_system(stag, case, method, 1.0)
    system.matrix()
    return system


def _range_residual(d0, f):
    """Relative least-squares residual of ``f`` against the range of d0^T.

    Solved through the normal equations with the first cell's row dropped,
    since d0^T annihilates the constant pressure.  This is independent of
    ``stokes_sdg.solver``.
    """
    d = d0[1:]
    y = spla.spsolve((d @ d.T).tocsc(), d @ f)
    return float(np.linalg.norm(d.T @ y - f) / np.linalg.norm(f))


def _check_system(system):
    problems = []
    s = system.stag
    const = np.array([0.6, -0.8])
    v_in = np.tile(const, len(s.interior_edges))
    v_bd = np.tile(const, len(s.boundary_edges))
    div = system.D0 @ v_in + system.Dg @ v_bd
    jump = system.B0.T @ v_in + system.Bg.T @ v_bd
    if not np.abs(div).max() <= ROUND_OFF:
        problems.append(f"assemble_bh of a constant velocity is {np.abs(div).max():.3g}")
    if not np.abs(jump).max() <= ROUND_OFF:
        problems.append(f"assemble_Bh of a constant velocity is {np.abs(jump).max():.3g}")
    asym = abs(system.M - system.M.T).max()
    if not asym <= 1e-14 * abs(system.M).max():
        problems.append(f"M is not symmetric: |M - M^T| = {asym:.3g}")
    if system.method == "sdg1":
        res = _range_residual(system.D0, system.F)
        if not res <= RANGE_TOL:
            problems.append(f"sdg1 noflow load is not in range(D0^T): residual {res:.3g}")
    return problems


def _reject_parallelogram():
    try:
        mesh.read_mesh(PARALLELOGRAM)
    except MeshError:
        return True
    return False


def _check_rejected(rejected):
    return [] if rejected else ["read_mesh accepted a mesh that does not tile the unit square"]


def _mesh_and_assemble(p, spec, case):
    # a function of its own, so that the mesh and its systems are freed
    # before the next mesh is built
    label = spec.label
    primal = p.run(f"{label}-generate", spec.generate, lambda m: [])
    back = p.run_after(primal, f"{label}-io", lambda: mesh.read_mesh(mesh.write_mesh(primal)),
                       _check_roundtrip(primal))
    stag = p.run_after(back, f"{label}-staggered", lambda: mesh.build_staggered(back),
                       _check_staggered(back))
    if spec.validated:
        p.run_after(stag, f"{label}-validate", lambda: mesh.validate(stag), _check_regular)
    for method in ("sdg1", "sdg2"):
        p.run_after(stag, f"{label}-assemble-{method}",
                    lambda: _assemble(stag, case, method), _check_system)


def assemble_pass(p, inputs):
    meshes, case = inputs
    for spec in meshes:
        _mesh_and_assemble(p, spec, case)
    p.run("reject-parallelogram", _reject_parallelogram, _check_rejected,
          known_failure=True)


@dataclass(frozen=True)
class Workload:
    inputs: Callable      # (seed, small) -> inputs
    run_pass: Callable    # (Pass, inputs) -> None


WORKLOADS = {
    "converge": Workload(converge_inputs, converge_pass),
    "assemble-fine": Workload(assemble_inputs, assemble_pass),
}
