"""Command line interface.

    stokes-sdg run   --case taylor|noflow|trig --mesh tri|trap|poly|file:<path>
                     --method sdg1|sdg2 --nu <float> --levels <n> --out <path>
                     [--format csv|md] [--jitter <float>, tri only]
    stokes-sdg sweep --case <id> --mesh <fam> --level <k>
                     --nu-list <descending comma-floats> --out <path>
                     [--format csv|md]
    stokes-sdg mesh  --family tri|trap|poly --n <k> --out <path>

Exit codes: 0 success, 1 solver/validation failure, 2 argument errors.
"""

import argparse
import math
import sys

from .bench import (CaseSpec, convergence_study, emit, emit_sweep,
                    get_case, robustness_sweep, study_on_meshes)
from .mesh import (MAX_JITTER, MeshError, build_staggered, generate_polygonal,
                   generate_trapezoidal, generate_triangular, read_mesh,
                   write_mesh, validate)
from .solver import SolverError

_FAMILIES = ("tri", "trap", "poly")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokes-sdg",
        description="Pressure-robust staggered DG Stokes solver on polygonal meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="convergence study for a manufactured case")
    run.add_argument("--case", required=True, choices=("taylor", "noflow", "trig"))
    run.add_argument("--mesh", required=True,
                     help="tri|trap|poly or file:<path> for an imported mesh")
    run.add_argument("--method", default="sdg1", choices=("sdg1", "sdg2"))
    run.add_argument("--nu", type=float, default=1.0)
    run.add_argument("--levels", type=int, default=4,
                     help="number of refinement levels (n doubles per level)")
    run.add_argument("--out", default=None, help="write the table to this path")
    run.add_argument("--format", default="csv", choices=("csv", "md"))
    run.add_argument("--jitter", type=float, default=0.0,
                     help="interior-vertex jitter for the triangular family")

    sweep = sub.add_parser("sweep", help="viscosity robustness sweep on a fixed mesh")
    sweep.add_argument("--case", required=True, choices=("taylor", "noflow", "trig"))
    sweep.add_argument("--mesh", required=True, choices=_FAMILIES)
    sweep.add_argument("--level", type=int, required=True)
    sweep.add_argument("--nu-list", required=True,
                       help="comma-separated viscosities, strictly descending")
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--format", default="csv", choices=("csv", "md"))

    mesh = sub.add_parser("mesh", help="generate a mesh file")
    mesh.add_argument("--family", required=True, choices=_FAMILIES)
    mesh.add_argument("--n", type=int, required=True)
    mesh.add_argument("--out", required=True)
    return parser


def _emit_output(text: str, out_path):
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _bad_viscosity(nus):
    """Message naming the first viscosity that is not positive and finite."""
    for nu in nus:
        if not (math.isfinite(nu) and nu > 0.0):
            return f"viscosity must be positive and finite, got {nu:g}"
    return None


def _cmd_run(args) -> int:
    bad = _bad_viscosity([args.nu])
    if bad:
        print(f"--nu: {bad}", file=sys.stderr)
        return 2
    if not 0.0 <= args.jitter <= MAX_JITTER:
        print(f"--jitter must lie in [0, {MAX_JITTER}], got {args.jitter:g}", file=sys.stderr)
        return 2
    if args.jitter != 0.0 and args.mesh != "tri":
        print(f"--jitter applies only to --mesh tri, not {args.mesh!r}", file=sys.stderr)
        return 2
    if args.mesh.startswith("file:"):
        path = args.mesh[len("file:"):]
        with open(path, "r", encoding="utf-8") as fh:
            primal = read_mesh(fh)
        stag = build_staggered(primal)
        report = validate(stag)
        if not report.ok:
            print(f"mesh fails regularity thresholds: {report}", file=sys.stderr)
            return 1
        records = study_on_meshes(get_case(args.case), [stag], args.method, args.nu)
        _emit_output(emit(records, args.format), args.out)
        return 0
    if args.mesh not in _FAMILIES:
        print(f"unknown mesh family {args.mesh!r}", file=sys.stderr)
        return 2
    try:
        spec = CaseSpec(case=args.case, method=args.method, family=args.mesh,
                        levels=args.levels, nu=args.nu, jitter=args.jitter)
    except ValueError as exc:
        print(f"--levels: {exc}", file=sys.stderr)
        return 2
    records = convergence_study(spec)
    _emit_output(emit(records, args.format), args.out)
    return 0


def _cmd_sweep(args) -> int:
    if args.level < 1:
        print(f"--level must be at least 1, got {args.level}", file=sys.stderr)
        return 2
    try:
        nu_list = [float(v) for v in args.nu_list.split(",") if v.strip()]
    except ValueError:
        print(f"could not parse --nu-list {args.nu_list!r}", file=sys.stderr)
        return 2
    if not nu_list:
        print("--nu-list is empty", file=sys.stderr)
        return 2
    bad = _bad_viscosity(nu_list)
    if bad:
        print(f"--nu-list: {bad}", file=sys.stderr)
        return 2
    if any(a <= b for a, b in zip(nu_list, nu_list[1:])):
        print(f"--nu-list must be strictly descending, got {args.nu_list!r}", file=sys.stderr)
        return 2
    rows = robustness_sweep(args.case, args.mesh, args.level, nu_list)
    _emit_output(emit_sweep(rows, args.format), args.out)
    return 0


def _cmd_mesh(args) -> int:
    gen = {"tri": generate_triangular, "trap": generate_trapezoidal,
           "poly": generate_polygonal}[args.family]
    try:
        mesh = gen(args.n)
    except MeshError as exc:  # an --n the family cannot take
        print(f"--n: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(write_mesh(mesh))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_mesh(args)
    except (MeshError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
