"""Experiment drivers: convergence studies, viscosity-robustness sweeps and
tabular output.

Refinement levels k = 1, 2, ... map to subdivision counts n = 2^k for the
triangular and trapezoidal families and n = 2^(k+1) for the hexagon-dominant
polygonal family (whose coarsest sensible resolution is n = 4).  Observed
orders are consecutive-level log2 ratios.
"""

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

from .assembly import assemble_system, check_viscosities
from .cases import ManufacturedCase, get_case
from .mesh import (PrimalMesh, StaggeredMesh, build_staggered,
                   generate_polygonal, generate_trapezoidal, generate_triangular)
from .solver import FieldSolution, solve
from .spaces import (error_gradient, error_pressure, error_super,
                     error_velocity)

__all__ = [
    "FAMILIES", "ErrorRecord", "level_to_n", "mesh_for", "run_case",
    "convergence_study", "study_on_meshes", "robustness_sweep", "emit", "emit_sweep",
]

CSV_COLUMNS = ("level", "h", "dof", "err_omega", "err_u", "err_p", "err_super",
               "ord_omega", "ord_u", "ord_p", "ord_super")
SWEEP_COLUMNS = ("method", "nu", "h", "dof", "err_omega", "err_u", "err_p",
                 "err_super", "ratio_omega", "ratio_u")


@dataclass(frozen=True)
class ErrorRecord:
    level: int
    h: float
    dof: int
    err_omega: float
    err_u: float
    err_p: float
    err_super: float
    ord_omega: float | None = None
    ord_u: float | None = None
    ord_p: float | None = None
    ord_super: float | None = None


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
             nu: float, level: int = 0) -> tuple[ErrorRecord, FieldSolution]:
    """Assemble, solve and measure all four errors on one mesh."""
    system = assemble_system(stag, case, method, nu)
    sol = solve(system)
    rec = ErrorRecord(
        level=level,
        h=stag.h,
        dof=system.size,
        err_omega=error_gradient(sol.omega, lambda x: case.omega(x, nu)),
        err_u=error_velocity(sol.u, case.u),
        err_p=error_pressure(sol.p, case.p),
        err_super=error_super(sol.u, case.u),
    )
    return rec, sol


def _orders(records: list[ErrorRecord]) -> list[ErrorRecord]:
    out = [records[0]]
    for prev, cur in zip(records, records[1:]):
        ratio = math.log2(prev.h / cur.h) if cur.h < prev.h else 1.0

        def order(a, b):
            if a <= 0.0 or b <= 0.0:
                return None
            return math.log2(a / b) / ratio

        out.append(replace(
            cur,
            ord_omega=order(prev.err_omega, cur.err_omega),
            ord_u=order(prev.err_u, cur.err_u),
            ord_p=order(prev.err_p, cur.err_p),
            ord_super=order(prev.err_super, cur.err_super),
        ))
    return out


def convergence_study(case: str, family: str = "tri", levels: int = 4,
                      method: str = "sdg1", nu: float = 1.0,
                      jitter: float = 0.0) -> list[ErrorRecord]:
    """Convergence study of a named case over the levels 1..levels (at least
    2) of a mesh family; each mesh is built when its level is reached."""
    if levels < 2:
        raise ValueError(f"levels must be at least 2 to observe orders, got {levels}")
    meshes = (build_staggered(mesh_for(family, level, jitter))
              for level in range(1, levels + 1))
    return study_on_meshes(get_case(case), meshes, method, nu)


def study_on_meshes(case: ManufacturedCase, meshes: Iterable[StaggeredMesh],
                    method: str, nu: float) -> list[ErrorRecord]:
    """Convergence study over meshes taken in order, one level per mesh; a
    generator of meshes builds each one only when its level is reached."""
    records = []
    for level, stag in enumerate(meshes, start=1):
        rec, _ = run_case(case, stag, method, nu, level=level)
        records.append(rec)
    return _orders(records) if len(records) > 1 else records


def robustness_sweep(case: str, family: str, level: int, nu_list) -> list[dict]:
    """Errors for both methods on one fixed mesh across viscosities.  It
    checks, before any solve, that nu_list is non-empty, positive, finite
    and strictly descending.  ratio_omega = previous/current error (the
    shrink factor per step) and ratio_u = current/previous (the growth
    factor), so both read ~10 in their interesting asymptotic regime."""
    check_viscosities(nu_list)
    case = get_case(case)
    stag = build_staggered(mesh_for(family, level))
    rows = []
    for method in ("sdg1", "sdg2"):
        prev = None
        for nu in nu_list:
            rec, _ = run_case(case, stag, method, nu)
            row = {
                "method": method, "nu": nu, "h": rec.h, "dof": rec.dof,
                "err_omega": rec.err_omega, "err_u": rec.err_u,
                "err_p": rec.err_p, "err_super": rec.err_super,
                "ratio_omega": prev["err_omega"] / rec.err_omega if prev else None,
                "ratio_u": rec.err_u / prev["err_u"] if prev else None,
            }
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
    """CSV or markdown text of a table of formatted cells; markdown shows an
    empty cell as N/A."""
    if fmt == "csv":
        lines = [",".join(columns)] + [",".join(row) for row in rows]
    elif fmt == "md":
        lines = ["| " + " | ".join(columns) + " |", "|" + "---|" * len(columns)]
        lines += ["| " + " | ".join(c if c else "N/A" for c in row) + " |" for row in rows]
    else:
        raise ValueError(f"unknown output format {fmt!r}; expected 'csv' or 'md'")
    return "\n".join(lines) + "\n"


def emit(records: list[ErrorRecord], fmt: str = "csv") -> str:
    """Render a convergence table; columns are fixed (see CSV_COLUMNS)."""
    rows = [[_fmt(getattr(r, c)) for c in CSV_COLUMNS] for r in records]
    if fmt != "md":
        return _render(CSV_COLUMNS, rows, fmt)
    # Table-1 style layout: Error | Order pairs per quantity
    head = ("level", "h", "dof", "err_omega", "ord", "err_u", "ord", "err_p", "ord",
            "err_super", "ord")
    perm = (0, 1, 2, 3, 7, 4, 8, 5, 9, 6, 10)
    return _render(head, [[row[i] for i in perm] for row in rows], fmt)


def emit_sweep(rows: list[dict], fmt: str = "csv") -> str:
    """Render a viscosity sweep; columns are fixed (see SWEEP_COLUMNS)."""
    return _render(SWEEP_COLUMNS, [[_fmt(row[c]) for c in SWEEP_COLUMNS] for row in rows], fmt)
