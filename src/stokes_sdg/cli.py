"""Command line interface.

    stokes-sdg run   --case taylor|noflow|trig --mesh tri|trap|poly|file:<path>
                     --method sdg1|sdg2 --nu <float> --out <path>
                     [--levels <n>, 4 by default, 1 for a file] [--format csv|md]
                     [--jitter <float>, tri only]
    stokes-sdg sweep --case <id> --mesh <fam> --level <k>
                     --nu-list <descending comma-floats> --out <path>
                     [--format csv|md]
    stokes-sdg mesh  --family tri|trap|poly --n <k> --out <path>

The library checks every argument it takes; the CLI only parses them and
maps the errors to exit codes: 0 success, 1 a MeshError, AssemblyError or
SolverError or running out of memory, 2 any other ValueError (an argument
the library rejects), an unreadable file or an argument that does not parse.
"""

import argparse
import sys

from .assembly import AssemblyError
from .bench import (FAMILIES, convergence_study, emit, emit_sweep,
                    robustness_sweep, study_on_meshes)
from .cases import CASES, get_case
from .mesh import MeshError, build_staggered, read_mesh, write_mesh, validate
from .solver import SolverError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokes-sdg",
        description="Pressure-robust staggered DG Stokes solver on polygonal meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="convergence study for a manufactured case")
    run.add_argument("--case", required=True, choices=CASES)
    run.add_argument("--mesh", required=True,
                     help="tri|trap|poly or file:<path> for an imported mesh")
    run.add_argument("--method", default="sdg1", choices=("sdg1", "sdg2"))
    run.add_argument("--nu", type=float, default=1.0)
    run.add_argument("--levels", type=int, default=None,
                     help="number of refinement levels (n doubles per level), 4 by "
                          "default; a mesh file is one level")
    run.add_argument("--out", default=None, help="write the table to this path")
    run.add_argument("--format", default="csv", choices=("csv", "md"))
    run.add_argument("--jitter", type=float, default=0.0,
                     help="interior-vertex jitter for the triangular family")

    sweep = sub.add_parser("sweep", help="viscosity robustness sweep on a fixed mesh")
    sweep.add_argument("--case", required=True, choices=CASES)
    sweep.add_argument("--mesh", required=True, choices=FAMILIES)
    sweep.add_argument("--level", type=int, required=True)
    sweep.add_argument("--nu-list", required=True,
                       help="comma-separated viscosities, strictly descending")
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--format", default="csv", choices=("csv", "md"))

    mesh = sub.add_parser("mesh", help="generate a mesh file")
    mesh.add_argument("--family", required=True, choices=FAMILIES)
    mesh.add_argument("--n", type=int, required=True)
    mesh.add_argument("--out", required=True)
    return parser


def _emit_output(text: str, out_path):
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_run(args) -> int:
    if args.mesh.startswith("file:"):
        if args.jitter != 0.0:
            raise ValueError(f"jitter applies only to the tri family, not {args.mesh!r}")
        if args.levels not in (None, 1):
            raise ValueError(f"a mesh file is one level, not --levels {args.levels}")
        with open(args.mesh[len("file:"):], "rb") as fh:  # read_mesh decodes it
            stag = build_staggered(read_mesh(fh))
        report = validate(stag)
        if not report.ok:
            raise MeshError(f"mesh fails regularity: {report.breaches()}")
        rows = study_on_meshes(get_case(args.case), [stag], args.method, args.nu)
    else:
        levels = 4 if args.levels is None else args.levels
        rows = convergence_study(args.case, args.mesh, levels, args.method, args.nu, args.jitter)
    _emit_output(emit(rows, args.format), args.out)
    return 0


def _cmd_sweep(args) -> int:
    try:
        nu_list = [float(v) for v in args.nu_list.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"could not parse --nu-list {args.nu_list!r}") from None
    rows = robustness_sweep(args.case, args.mesh, args.level, nu_list)
    _emit_output(emit_sweep(rows, args.format), args.out)
    return 0


def _cmd_mesh(args) -> int:
    mesh = FAMILIES[args.family](args.n)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(write_mesh(mesh))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"run": _cmd_run, "sweep": _cmd_sweep, "mesh": _cmd_mesh}[args.command]
    try:
        return command(args)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    except (MeshError, AssemblyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # the factorization reports its own as a SolverError
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # MeshError aside, the library's argument checks
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
