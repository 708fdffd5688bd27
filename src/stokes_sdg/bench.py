"""Experiment drivers: convergence studies, viscosity-robustness sweeps and
tabular output.

Refinement levels k = 1, 2, ... map to subdivision counts n = 2^k for the
triangular and trapezoidal families and n = 2^(k+1) for the hexagon-dominant
polygonal family (whose coarsest sensible resolution is n = 4).  Observed
orders are consecutive-level log2 ratios.  The drivers return their rows as
dicts keyed by the column tuples: CSV_COLUMNS for a convergence study,
SWEEP_COLUMNS for a sweep.
"""

import math
from collections.abc import Iterable

from .assembly import assemble_system, check_viscosities
from .cases import ManufacturedCase, get_case
from .mesh import (PrimalMesh, StaggeredMesh, build_staggered,
                   generate_polygonal, generate_trapezoidal, generate_triangular)
from .solver import solve
from .spaces import (error_gradient, error_pressure, error_super,
                     error_velocity)

__all__ = [
    "FAMILIES", "level_to_n", "mesh_for", "run_case", "convergence_study",
    "study_on_meshes", "robustness_sweep", "emit", "emit_sweep",
]

CSV_COLUMNS = ("level", "h", "dof", "err_omega", "err_u", "err_p", "err_super",
               "ord_omega", "ord_u", "ord_p", "ord_super")
SWEEP_COLUMNS = ("method", "nu", "h", "dof", "err_omega", "err_u", "err_p",
                 "err_super", "ratio_omega", "ratio_u")
# Table-1 style markdown layout: each error next to its order
_MD_COLUMNS = ("level", "h", "dof", "err_omega", "ord_omega", "err_u", "ord_u",
               "err_p", "ord_p", "err_super", "ord_super")


# mesh family -> generator of its mesh with n subdivisions per side
FAMILIES = {"tri": generate_triangular, "trap": generate_trapezoidal,
            "poly": generate_polygonal}


def level_to_n(family: str, level: int) -> int:
    if family not in FAMILIES:
        raise ValueError(f"unknown mesh family {family!r}; expected one of {list(FAMILIES)}")
    return 2 ** (level + 1) if family == "poly" else 2 ** level


def mesh_for(family: str, level: int, jitter: float = 0.0) -> PrimalMesh:
    """The mesh of a family at a level >= 1; a jitter is for the tri family
    only."""
    if level < 1:
        raise ValueError(f"level must be at least 1, got {level}")
    n = level_to_n(family, level)
    if jitter != 0.0 and family != "tri":
        raise ValueError(f"jitter applies only to the tri family, not {family!r}")
    generate = FAMILIES[family]
    return generate(n, jitter=jitter) if jitter else generate(n)


def run_case(case: ManufacturedCase, stag: StaggeredMesh, method: str,
             nu: float) -> dict:
    """Assemble, solve and measure all four errors on one mesh: the row of
    h, dof and the err_* columns."""
    system = assemble_system(stag, case, method, nu)
    sol = solve(system)
    return {
        "h": stag.h,
        "dof": system.size,
        "err_omega": error_gradient(stag, sol.omega, lambda x: case.omega(x, nu)),
        "err_u": error_velocity(stag, sol.u, case.u),
        "err_p": error_pressure(stag, sol.p, case.p),
        "err_super": error_super(stag, sol.u, case.u),
    }


def convergence_study(case: str, family: str = "tri", levels: int = 4,
                      method: str = "sdg1", nu: float = 1.0,
                      jitter: float = 0.0) -> list[dict]:
    """Convergence study of a named case over the levels 1..levels (at least
    2) of a mesh family; each mesh is built when its level is reached."""
    if levels < 2:
        raise ValueError(f"levels must be at least 2 to observe orders, got {levels}")
    meshes = (build_staggered(mesh_for(family, level, jitter))
              for level in range(1, levels + 1))
    return study_on_meshes(get_case(case), meshes, method, nu)


def study_on_meshes(case: ManufacturedCase, meshes: Iterable[StaggeredMesh],
                    method: str, nu: float) -> list[dict]:
    """Convergence study over meshes taken in order, one level per mesh; a
    generator of meshes builds each one only when its level is reached.
    Every row after the first carries the orders against the row before it,
    None where either error is zero."""
    rows = []
    for level, stag in enumerate(meshes, start=1):
        row = {"level": level, **run_case(case, stag, method, nu)}
        if rows:
            prev = rows[-1]
            ratio = math.log2(prev["h"] / row["h"]) if row["h"] < prev["h"] else 1.0
            for field in ("omega", "u", "p", "super"):
                a, b = prev[f"err_{field}"], row[f"err_{field}"]
                row[f"ord_{field}"] = (None if a <= 0.0 or b <= 0.0
                                       else math.log2(a / b) / ratio)
        rows.append(row)
    return rows


def robustness_sweep(case: str, family: str, level: int, nu_list) -> list[dict]:
    """Errors for both methods on one fixed mesh across viscosities.  It
    checks, before any solve, that nu_list is non-empty, strictly descending
    and in [1e-100, 1e100].  ratio_omega = previous/current error (the
    shrink factor per step) and ratio_u = current/previous (the growth
    factor), so both read ~10 in their interesting asymptotic regime."""
    check_viscosities(nu_list)
    case = get_case(case)
    stag = build_staggered(mesh_for(family, level))
    rows = []
    for method in ("sdg1", "sdg2"):
        prev = None
        for nu in nu_list:
            row = {"method": method, "nu": nu, **run_case(case, stag, method, nu)}
            row["ratio_omega"] = prev["err_omega"] / row["err_omega"] if prev else None
            row["ratio_u"] = row["err_u"] / prev["err_u"] if prev else None
            rows.append(row)
            prev = row
    return rows


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _render(columns, rows, fmt: str) -> str:
    """CSV or markdown text of the given columns of rows (dicts; a missing
    or None value is an empty cell); markdown heads an ord_* column "ord" and
    shows an empty cell as N/A."""
    cells = [[_fmt(row.get(c)) for c in columns] for row in rows]
    if fmt == "csv":
        lines = [",".join(columns)] + [",".join(row) for row in cells]
    elif fmt == "md":
        head = ["ord" if c.startswith("ord_") else c for c in columns]
        lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(columns)]
        lines += ["| " + " | ".join(c if c else "N/A" for c in row) + " |" for row in cells]
    else:
        raise ValueError(f"unknown output format {fmt!r}; expected 'csv' or 'md'")
    return "\n".join(lines) + "\n"


def emit(rows: list[dict], fmt: str = "csv") -> str:
    """Render a convergence table: CSV_COLUMNS, or in markdown each error
    next to its order."""
    return _render(_MD_COLUMNS if fmt == "md" else CSV_COLUMNS, rows, fmt)


def emit_sweep(rows: list[dict], fmt: str = "csv") -> str:
    """Render a viscosity sweep; columns are fixed (see SWEEP_COLUMNS)."""
    return _render(SWEEP_COLUMNS, rows, fmt)
