"""Span tracing of the solver's layers from outside the library.

Each layer is traced by replacing the attribute through which its caller
looks the function up (``harness.sf_forms``, ``forms.tilde_c_k``, ...) with
a wrapper that records a span: name, parent span, start and end.  Spans stay
in memory; ``layer_metrics`` turns the spans of one round into per-layer self
times and counts.  The library source is not modified.
"""

import functools
import importlib
import time
from collections import Counter, defaultdict

import vemsupg.basis as basis
import vemsupg.forms as forms
import vemsupg.geometry as geometry
import vemsupg.harness as harness
import vemsupg.space as space

# the package re-exports the function assemble() under the module's name
assemble = importlib.import_module("vemsupg.assemble")

ROOT = "bench.round"

# (owner, attribute, span name).  The owner is the module (or class) the
# caller resolves the name through, so every call of interest is seen once.
PATCHES = [
    (harness, "solve_problem", "harness.solve"),
    (harness, "build_element", "harness.build_element"),
    (harness, "ElementGeometry", "geometry.build"),
    (geometry, "chebyshev_center", "geometry.lp"),
    (geometry, "triangle_rule", "quadrature.rule"),
    (geometry, "edge_rule", "quadrature.rule"),
    (harness, "probe_min_ell", "forms.probe"),
    (harness, "LocalSpace", "space.build"),
    (forms, "LocalSpace", "space.build"),
    (space, "build_pinabla", "space.pinabla"),
    (space, "build_pizero_grad", "space.pizero_grad"),
    (harness, "element_coefficients", "forms.coeffs"),
    (forms, "tilde_c_k", "forms.tilde_c_k"),
    (harness, "sf_forms", "forms.local"),
    (harness, "baseline_vem_forms", "forms.local"),
    (forms, "projected_gradient_gram", "forms.gram"),
    (basis, "eval_basis", "basis.eval"),
    (space, "eval_basis", "basis.eval"),
    (forms, "eval_basis", "basis.eval"),
    (assemble, "eval_basis", "basis.eval"),
    (harness, "assemble", "assemble.scatter"),
    (harness, "apply_dirichlet", "assemble.dirichlet"),
    (harness, "solve", "assemble.linsolve"),
    (harness, "energy_error", "assemble.energy_error"),
    (harness.SolveResult, "sample", "harness.sample"),
    (assemble, "export_vtk", "assemble.vtk"),
]


def _system_counts(system):
    return {"assemble.nnz": system.matrix.nnz, "assemble.dofs": system.n_dofs}


# counts read from a layer's return value
RESULT_COUNTS = {
    "assemble.scatter": _system_counts,
    "harness.sample": lambda values: {"harness.sample_points": len(values)},
}


class Tracer:
    """In-memory span recorder; spans are [name, parent index, start, end]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._saved = []

    def span(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, parent, time.perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self.stack.pop()
        counter = RESULT_COUNTS.get(name)
        if counter is not None:
            self.counts.update(counter(result))
        return result

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self):
        for owner, attr, name in PATCHES:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def reset(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()


def self_times(spans):
    """Self time and span count per (name, parent name)."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    selft = defaultdict(float)
    calls = Counter()
    for i, (name, parent, t0, t1) in enumerate(spans):
        key = (name, spans[parent][0] if parent >= 0 else None)
        selft[key] += (t1 - t0) - child[i]
        calls[key] += 1
    return selft, calls


def layer_metrics(tracer):
    """Per-layer metrics of the round recorded in ``tracer``.

    ``*_s`` are self times (span time minus child spans).  The gram built
    inside the probe is charged to the probe; ``forms.gram_s`` is the gram
    the local forms build.
    """
    selft, calls = self_times(tracer.spans)

    def s(name, parent=None):
        return sum(v for (n, p), v in selft.items() if n == name and parent in (None, p))

    def n(name, parent=None):
        return sum(v for (m, p), v in calls.items() if m == name and parent in (None, p))

    gram_in_probe = s("forms.gram", "forms.probe")
    probe_cells = n("forms.probe")
    probe_spaces = n("space.build", "forms.probe")
    sample_points = tracer.counts["harness.sample_points"]
    sample_incl = sum(t1 - t0 for name, _, t0, t1 in tracer.spans if name == "harness.sample")
    wall = sum(t1 - t0 for name, parent, t0, t1 in tracer.spans if parent < 0)
    out = {
        "geometry.build_s": s("geometry.build"),
        "geometry.builds": n("geometry.build"),
        "geometry.lp_s": s("geometry.lp"),
        "geometry.lp_calls": n("geometry.lp"),
        "quadrature.rule_s": s("quadrature.rule"),
        "quadrature.rule_calls": n("quadrature.rule"),
        "forms.probe_s": s("forms.probe") + gram_in_probe,
        "forms.probe_cells": probe_cells,
        "forms.probe_spaces": probe_spaces,
        "forms.probe_useful_ratio": probe_cells / probe_spaces if probe_spaces else 0.0,
        "space.build_s": s("space.build"),
        "space.builds": n("space.build"),
        "space.pinabla_s": s("space.pinabla"),
        "space.pinabla_calls": n("space.pinabla"),
        "space.pizero_grad_s": s("space.pizero_grad"),
        "forms.coeffs_s": s("forms.coeffs"),
        "forms.tilde_c_k_s": s("forms.tilde_c_k"),
        "forms.tilde_c_k_calls": n("forms.tilde_c_k"),
        "forms.local_s": s("forms.local"),
        "forms.gram_s": s("forms.gram") - gram_in_probe,
        "basis.eval_s": s("basis.eval"),
        "basis.eval_calls": n("basis.eval"),
        "harness.build_element_s": s("harness.build_element"),
        "harness.cells": n("harness.build_element"),
        "harness.solve_self_s": s("harness.solve"),
        "assemble.scatter_s": s("assemble.scatter"),
        "assemble.nnz": tracer.counts["assemble.nnz"],
        "assemble.dirichlet_s": s("assemble.dirichlet"),
        "assemble.linsolve_s": s("assemble.linsolve"),
        "assemble.dofs": tracer.counts["assemble.dofs"],
        "assemble.energy_error_s": s("assemble.energy_error"),
        "harness.sample_s": s("harness.sample"),
        "harness.sample_ms_per_point": (
            1e3 * sample_incl / sample_points if sample_points else 0.0
        ),
        "assemble.vtk_s": s("assemble.vtk"),
        "bench.other_s": s(ROOT),
    }
    return out, wall
