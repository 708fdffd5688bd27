"""Span tracing for the benchmark's traced run, installed from outside the
package: each traced callable of a stokes_sdg module is replaced, in every
stokes_sdg namespace that refers to it, by a wrapper that records a span.

A span is (name, start, end, parent).  Spans are kept in memory and turned
into per-name self times (duration minus the time the span's direct children
cover) when a pass ends.  Spans are only recorded inside an open span, so a
call made by the benchmark's own checks, outside any operation, is not
counted.
"""

import functools
import sys
import time

import scipy.sparse.linalg as spla

# span name -> (module, callables).  Everything a traced callable does that
# is not itself traced counts as that callable's self time.
SPANS = {
    "mesh.generate": ("mesh", ("generate_triangular", "generate_trapezoidal",
                               "generate_polygonal")),
    "mesh.io": ("mesh", ("write_mesh", "read_mesh")),
    "mesh.staggered": ("mesh", ("build_staggered",)),
    "mesh.validate": ("mesh", ("validate",)),
    "assembly.blocks": ("assembly", ("assemble_Bh", "assemble_bh", "assemble_mass")),
    "assembly.rhs": ("assembly", ("assemble_rhs",)),
    "assembly.system": ("assembly", ("assemble_system",)),
    "kernels.cell_moments": ("_kernels", ("cell_moments",)),
    "spaces.interp": ("spaces", ("interp_velocity", "interp_gradient", "interp_pressure")),
    "spaces.errors": ("spaces", ("error_velocity", "error_gradient", "error_pressure",
                                 "error_super")),
    "solver.solve": ("solver", ("solve",)),
    "bench": ("bench", ("mesh_for", "run_case", "convergence_study", "study_on_meshes",
                        "robustness_sweep", "emit", "emit_sweep")),
    "cli": ("cli", ("main",)),
}

# span name -> (module, class, method)
METHOD_SPANS = {
    "assembly.rt_table": ("assembly", "RTTable", "__init__"),
    "assembly.matrix": ("assembly", "SaddleSystem", "matrix"),
}

# span name -> (counter, work(result, args) -> count)
COUNTERS = {
    "mesh.staggered": ("mesh.cells", lambda res, args: res.n_cells),
    "kernels.cell_moments": ("kernels.quad_points", lambda res, args: args[7].shape[0]),
    "solver.solve": ("solver.solves", lambda res, args: 1),
    "solver.factor": ("solver.lu_nnz", lambda res, args: res.L.nnz + res.U.nnz),
    "assembly.rt_table": ("assembly.rt_tables", lambda res, args: 1),
    "assembly.matrix": ("assembly.matrix_nnz", lambda res, args: res.nnz),
}

# Span that holds the tracer's own counting work (L.nnz + U.nnz builds both
# factors as matrices), so that it is charged to no layer.
COUNT_SPAN = "trace.count"


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []     # [name, start, end, parent index]
        self.counts = {}
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def end(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    def count(self, counter, n):
        self.counts[counter] = self.counts.get(counter, 0) + n

    def self_times(self):
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def wrap(self, fn, name):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if counter is not None:
                self.begin(COUNT_SPAN)
                try:
                    self.count(counter[0], counter[1](result, args))
                finally:
                    self.end()
            return result
        return traced


def _rebind(original, replacement):
    """Point every stokes_sdg namespace that holds ``original`` at ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "stokes_sdg" or modname.startswith("stokes_sdg.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer):
    """Wrap the traced callables; the package and its cli must be imported."""
    for name, (module, funcs) in SPANS.items():
        mod = sys.modules[f"stokes_sdg.{module}"]
        for func in funcs:
            original = getattr(mod, func)
            _rebind(original, tracer.wrap(original, name))
    for name, (module, cls, method) in METHOD_SPANS.items():
        klass = getattr(sys.modules[f"stokes_sdg.{module}"], cls)
        setattr(klass, method, tracer.wrap(getattr(klass, method), name))
    # solver calls scipy.sparse.linalg.splu through the module attribute
    spla.splu = tracer.wrap(spla.splu, "solver.factor")


# per-layer time metric -> span whose self time it reports
LAYER_TIMES = {
    "solver.factor_s": "solver.factor",
    "solver.solve_s": "solver.solve",
    "assembly.blocks_s": "assembly.blocks",
    "assembly.rhs_s": "assembly.rhs",
    "assembly.rt_table_s": "assembly.rt_table",
    "assembly.matrix_s": "assembly.matrix",
    "assembly.system_s": "assembly.system",
    "kernels.cell_moments_s": "kernels.cell_moments",
    "mesh.generate_s": "mesh.generate",
    "mesh.io_s": "mesh.io",
    "mesh.staggered_s": "mesh.staggered",
    "mesh.validate_s": "mesh.validate",
    "spaces.interp_s": "spaces.interp",
    "spaces.errors_s": "spaces.errors",
    "bench.self_s": "bench",
    "cli.self_s": "cli",
}


def layer_metrics(tracer, wall):
    """Per-layer figures of one traced pass whose operations took ``wall``.

    The layer self times plus ``trace.remainder_s`` (benchmark code inside
    the operations and the tracer's own counting) add up to ``wall``.
    """
    selfs = tracer.self_times()
    out = {metric: (selfs.get(span, 0.0), "s") for metric, span in LAYER_TIMES.items()}
    for counter, _ in COUNTERS.values():
        out[counter] = (tracer.counts.get(counter, 0), "count")
    layers = sum(out[metric][0] for metric in LAYER_TIMES)
    out["trace.wall_s"] = (wall, "s")
    out["trace.remainder_s"] = (wall - layers, "s")
    return out
