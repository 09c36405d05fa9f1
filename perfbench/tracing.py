"""In-memory span tracer for pdwg's layers, applied from outside the package.

Each layer function is wrapped in the module namespace its caller reads it
from (``pdwg.study`` for the study module's imports, ``pdwg.solver.splu``
for the factorization, ``pdwg.cli`` for the command line), so no file of
the package changes.  A span is ``[name, start, end, parent, job,
rss_growth_kb]``; spans are kept in memory and written out by the caller
when the run ends.  A hook whose target no longer exists is skipped, and
the metrics that depend only on it are reported as absent.

The tracer times its own bookkeeping: everything a wrapper does before
and after calling its target (span records, RSS reads, counters, the
proxy's solve count) is summed into ``overhead_s``, which is what tracing
adds to a pass.
"""

from __future__ import annotations

import importlib
import os
import resource
import time

# (span name, module, attribute).  A name that several callers import is
# hooked in each of their namespaces under one span name.
HOOKS = (
    ("cli", "pdwg.cli", "main"),
    ("study", "pdwg.cli", "run_study"),
    ("study", "pdwg.study", "run_study"),
    ("study.emit", "pdwg.cli", "emit_csv"),
    ("study.emit", "pdwg.cli", "emit_plot_data"),
    ("study.emit", "pdwg.study", "emit_csv"),
    ("study.emit", "pdwg.study", "emit_plot_data"),
    ("mesh.refine", "pdwg.study", "refine_uniform"),
    ("mesh.classify", "pdwg.study", "classify_boundary"),
    ("weakspace.dofmap", "pdwg.study", "DofMap"),
    ("assembly.tables", "pdwg.study", "build_contexts"),
    ("assembly.assemble", "pdwg.study", "assemble"),
    ("solver.solve", "pdwg.study", "solve"),
    ("solver.factor", "pdwg.solver", "splu"),
    ("analysis.errors", "pdwg.study", "error_norms"),
    ("analysis.conservation", "pdwg.study", "conservation_report"),
    ("analysis.postprocess", "pdwg.study", "postprocess_averages"),
)

# Self time of each span name, summed over the pass.
TIME_METRICS = {
    "mesh.refine_s": "mesh.refine",
    "mesh.classify_s": "mesh.classify",
    "weakspace.dofmap_s": "weakspace.dofmap",
    "assembly.tables_s": "assembly.tables",
    "assembly.assemble_s": "assembly.assemble",
    "solver.solve_s": "solver.solve",
    "solver.factor_s": "solver.factor",
    "analysis.errors_s": "analysis.errors",
    "analysis.conservation_s": "analysis.conservation",
    "analysis.postprocess_s": "analysis.postprocess",
    "study.self_s": "study",
    "study.emit_s": "study.emit",
    "cli.self_s": "cli",
}

# Growth of the process's peak RSS inside these spans (inclusive).
RSS_METRICS = {
    "assembly.rss_growth_mb": ("assembly.tables", "assembly.assemble"),
    "solver.rss_growth_mb": ("solver.solve",),
}


def _count_classify(args, result):
    return {
        "mesh.elements": args[0].num_elements,
        "mesh.inflow_edges": len(result.inflow_edges),
        "mesh.outflow_edges": len(result.outflow_edges),
    }


def _count_dofmap(args, result):
    return {"weakspace.n_lambda": result.n_lambda, "weakspace.n_u": result.n_u}


def _count_assemble(args, result):
    A = result.matrix
    nbytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    return {
        "assembly.elements": args[0].num_elements,
        "assembly.nnz": A.nnz,
        "assembly.matrix_mb_computed": nbytes / 2**20,
    }


def _count_solve(args, result):
    return {
        "solver.fallbacks": int(result.info["method"] != "splu"),
        "solver.residual_max": result.residual,
    }


def _count_factor(args, result):
    # SuperLU's own count of stored factor entries (supernodal, so a little
    # above L.nnz + U.nnz).  Reading lu.L / lu.U would copy the factors and
    # distort the time and memory being measured.
    return {"solver.factored_nnz": args[0].nnz, "solver.fill_nnz": result.nnz}


def _count_conservation(args, result):
    return {"analysis.cons_residual_max": result.max_element_residual / result.scale_f}


def _count_emit(args, result):
    return {"study.csv_bytes": os.path.getsize(args[1])}


# Counters read from a span's arguments and result, with the metrics each
# one yields.  Keys ending in "_max" keep the maximum, the others are
# summed over the pass.
COUNTERS = {
    "mesh.classify": (
        _count_classify,
        ("mesh.elements", "mesh.inflow_edges", "mesh.outflow_edges"),
    ),
    "weakspace.dofmap": (_count_dofmap, ("weakspace.n_lambda", "weakspace.n_u")),
    "assembly.assemble": (
        _count_assemble,
        ("assembly.elements", "assembly.nnz", "assembly.matrix_mb_computed"),
    ),
    "solver.solve": (_count_solve, ("solver.fallbacks", "solver.residual_max")),
    "solver.factor": (
        _count_factor,
        ("solver.factored_nnz", "solver.fill_nnz", "solver.lu_solves"),
    ),
    "analysis.conservation": (_count_conservation, ("analysis.cons_residual_max",)),
    "study.emit": (_count_emit, ("study.csv_bytes",)),
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _CountingLU:
    """Factor proxy that counts triangular solves and forwards everything
    else unchanged to the SuperLU object."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        t0 = time.perf_counter()
        self._tracer.add({"solver.lu_solves": 1})
        self._tracer.overhead_s += time.perf_counter() - t0
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Spans and counters of one traced pass.

    ``install`` wraps every hook target that exists; ``uninstall`` puts
    the original objects back.  Use one tracer per pass.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.present: set[str] = set()
        self.broken: dict[str, str] = {}
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._jobs = 0
        self._saved: list[tuple] = []

    def install(self) -> None:
        for name, module_name, attr in HOOKS:
            module = importlib.import_module(module_name)
            target = getattr(module, attr, None)
            if target is None:
                continue
            self._saved.append((module, attr, target))
            setattr(module, attr, self._wrap(name, target))
            self.present.add(name)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, target = self._saved.pop()
            setattr(module, attr, target)

    def add(self, increments: dict) -> None:
        for key, value in increments.items():
            if key.endswith("_max"):
                self.counts[key] = max(self.counts.get(key, value), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, name, target):
        counter = COUNTERS.get(name, (None,))[0]

        def traced(*args, **kwargs):
            enter = time.perf_counter()
            parent = self._stack[-1] if self._stack else -1
            if parent < 0:
                self._jobs += 1
                job = self._jobs
            else:
                job = self.spans[parent][4]
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, job, 0]
            self.spans.append(span)
            self._stack.append(index)
            rss0 = _maxrss_kb()
            span[1] = time.perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[5] = _maxrss_kb() - rss0
                self._stack.pop()
            if counter is not None and name not in self.broken:
                try:
                    self.add(counter(args, result))
                except (AttributeError, KeyError, TypeError, IndexError, OSError) as err:
                    self.broken[name] = f"{type(err).__name__}: {err}"
            if name == "solver.factor":
                result = _CountingLU(result, self)
            self.overhead_s += (span[1] - enter) + (time.perf_counter() - span[2])
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Busy time per span name minus the time covered by its children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            out[span[0]] = out.get(span[0], 0.0) + (span[2] - span[1]) - child[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass; a metric whose hook or counter
        is missing is left out."""
        selfs = self.self_times()
        m: dict[str, float] = {}
        for metric, name in TIME_METRICS.items():
            if name in self.present:
                m[metric] = selfs.get(name, 0.0)
        for metric, names in RSS_METRICS.items():
            if any(n in self.present for n in names):
                kb = sum(s[5] for s in self.spans if s[0] in names)
                m[metric] = kb / 1024.0
        for name, (_, keys) in COUNTERS.items():
            if name in self.present and name not in self.broken:
                for key in keys:
                    m[key] = self.counts.get(key, 0)
        if "assembly.elements" in m and "assembly.assemble_s" in m:
            busy = m["assembly.assemble_s"] + m.get("assembly.tables_s", 0.0)
            m["assembly.elements_per_s"] = m["assembly.elements"] / busy if busy > 0 else 0.0
        if "solver.fill_nnz" in m:
            base = m["solver.factored_nnz"]
            m["solver.fill_ratio"] = m["solver.fill_nnz"] / base if base else 0.0
        m.pop("assembly.elements", None)
        m.pop("solver.factored_nnz", None)
        m["trace.overhead_s"] = self.overhead_s
        return m
