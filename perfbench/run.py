"""Benchmark of the stokes-sdg pipeline on fixed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload converge --seed 1 --seconds 50 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics ``setup_s``,
``wall_s`` and ``peak_rss_mb``; with ``--trace 1`` it wraps the package's
public callables (see spans.py) and reports per-layer metrics instead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the workloads.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the keys of workloads.WORKLOADS; that module imports numpy, so it is only
# loaded once the thread cap is set
WORKLOADS = ("converge", "assemble-fine")
# setup_s is the median of this many fresh processes
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced problem sizes, for the benchmark's own test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up the workload, print 'ready' and exit")
    return parser.parse_args(argv)


def cap_threads():
    """Cap the BLAS/OpenMP pools at one thread; must run before numpy is imported.

    The load is driven from one thread of one process, so a pass does not
    wait on a second core that other tenants of a shared host may hold.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def set_up(args):
    """Import the package from this checkout and build the workload's inputs."""
    if not (SRC / "stokes_sdg" / "__init__.py").is_file():
        raise ImportError(f"no stokes_sdg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import stokes_sdg
    if Path(stokes_sdg.__file__).resolve().parent != SRC / "stokes_sdg":
        raise ImportError(f"imported stokes_sdg from {stokes_sdg.__file__}, not {SRC}")
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    return workload, workload.inputs(args.seed, args.small)


def probe_setup(args):
    """Seconds from starting a fresh process until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.small:
        cmd.append("--small")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed with exit code {code}")
    return elapsed


def median_pass(passes):
    """Each operation's median time over the passes, summed over one pass.

    On a shared machine single passes run up to twice as slow as others;
    the median of every operation keeps such passes from moving the figure.
    """
    per_op = zip(*([t for _, t in p.times] for p in passes))
    return sum(statistics.median(times) for times in per_op)


def environment(nproc):
    import numpy
    import scipy
    from stokes_sdg import _kernels
    return {
        "kernel_path": "numba" if _kernels.USE_NUMBA else "numpy",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None):
    args = _parse(argv)
    nproc = cap_threads()
    if args.setup_probe:
        set_up(args)
        print("ready", flush=True)
        return 0
    try:
        workload, inputs = set_up(args)
        setup = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    except (ImportError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(nproc)), flush=True)

    import spans
    import workloads
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        if tracer is not None:
            tracer.reset()
        p = workloads.Pass(tracer)
        workload.run_pass(p, inputs)
        layers = spans.layer_metrics(tracer, p.wall) if tracer is not None else None
        passes.append((p, layers))
        print(f"# pass {len(passes)}: wall_s={p.wall:.4f} attempted={p.attempted} "
              f"failed={p.failed} ops=" + ",".join(f"{t:.4f}" for _, t in p.times), flush=True)
        for name, problems, known in p.failures:
            tag = "known failure" if known else "FAILED"
            print(f"# {tag} {name}: {'; '.join(problems)}", flush=True)

    if tracer is not None:
        # the fastest traced pass, whose layer times add up to its own wall time
        metrics = min(passes, key=lambda pl: pl[0].wall)[1]
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (median_pass([p for p, _ in passes]), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    correct = not any(p.unexpected for p, _ in passes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p.attempted for p, _ in passes),
        "failed": sum(p.failed for p, _ in passes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
