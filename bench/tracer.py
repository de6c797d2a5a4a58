"""In-memory span tracer that instruments esfem's public functions from outside.

Used only by traced benchmark runs.  ``instrument`` replaces module and
class attributes with wrappers that record one span per call (name, start,
end, parent); the spans stay in memory until ``layer_metrics`` folds them
into per-layer self times and counts at the end of the run.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

import scipy.sparse.linalg as spla

from esfem import analysis, assembly, experiments, mesh, problems, stepper

RUN = "stepper.run"
STEP = "stepper.step"
HOOK = "trace.hook"  # the tracer's own bookkeeping, kept out of every layer


class Tracer:
    """Call spans plus exact counters, all held in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = Counter()
        self.lu_nnz = 0
        self._stack = []

    def wrap(self, fn, name, after=None):
        """Wrap ``fn`` in a span; ``after(result, args, kwargs)`` runs in a
        separate ``trace.hook`` span once the call has returned."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def open_span(span_name):
            rec = [span_name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            return rec

        def close_span(rec):
            rec[2] = clock()
            stack.pop()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(rec)
            if after is not None:
                rec = open_span(HOOK)
                try:
                    after(result, args, kwargs)
                finally:
                    close_span(rec)
            return result

        return traced

    def patch(self, owner, attr, name, after=None):
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, after))

    def self_times(self):
        """Per span name: self seconds, busy (inclusive) seconds, calls, and
        calls made inside ``stepper.run``."""
        spans = self.spans
        self_s, busy_s = defaultdict(float), defaultdict(float)
        calls, calls_in_run = Counter(), Counter()
        in_run = [False] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            self_s[name] += duration
            busy_s[name] += duration
            calls[name] += 1
            if parent >= 0:
                self_s[spans[parent][0]] -= duration
                in_run[i] = in_run[parent]
            if in_run[i]:
                calls_in_run[name] += 1
            in_run[i] = in_run[i] or name == RUN
        return self_s, busy_s, calls, calls_in_run


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every esfem layer the benchmark reports.

    Lookups that need care: ``stepper`` binds ``mesh_quality`` by name, and
    both ``stepper.make_solver`` and ``problems.tumor_initial_data`` reach
    ``splu`` through the ``scipy.sparse.linalg`` module object.
    """
    counters = tracer.counters

    def count_lu_fill(lu, args, kwargs):
        tracer.lu_nnz = max(tracer.lu_nnz, lu.L.nnz + lu.U.nnz)

    tracer.patch(spla, "splu", "stepper.factor", after=count_lu_fill)

    cg = spla.cg

    def counting_cg(*args, **kwargs):
        counters["cg_calls"] += 1

        def callback(xk):
            counters["cg_iterations"] += 1

        return cg(*args, callback=callback, **kwargs)

    spla.cg = counting_cg

    make_solver = stepper.make_solver

    def traced_make_solver(*args, **kwargs):
        return tracer.wrap(make_solver(*args, **kwargs), "stepper.solve")

    stepper.make_solver = traced_make_solver

    def count_bytes(result, args, kwargs):
        counters["export_bytes"] += os.path.getsize(kwargs.get("path", args[-1]))

    for owner, attr, name, after in [
        (stepper, "run", RUN, None),
        (stepper, "step_coupled", STEP, None),
        (stepper, "step_dynamic", STEP, None),
        (stepper, "mesh_quality", "mesh.quality", None),
        (mesh, "triangle_areas_normals", "mesh.geometry", None),
        (mesh, "triangle_basis_gradients", "mesh.geometry", None),
        (mesh, "generate_icosphere", "mesh.generate", None),
        (mesh, "export_surface", "mesh.export", count_bytes),
        (mesh, "export_obj", "mesh.export", count_bytes),
        (assembly, "assemble_mass", "assembly.mass", None),
        (assembly, "assemble_stiffness", "assembly.stiffness", None),
        (assembly, "assemble_scalar_load", "assembly.load", None),
        (assembly, "assemble_normal_load", "assembly.load", None),
        (assembly, "assemble_normal_coupling", "assembly.load", None),
        (assembly, "discrete_norms", "assembly.norms", None),
        (analysis.ErrorAccumulator, "update", "analysis.error_update", None),
        (problems, "tumor_initial_data", "problems.initial_data", None),
        (experiments.FieldEnvelopeObserver, "__call__", "experiments.observer", None),
        (experiments.TumorTrace, "__call__", "experiments.observer", None),
        (experiments.SurfaceExporter, "__call__", "experiments.observer", None),
        (experiments, "run_level", "experiments.entry", None),
        (experiments, "tumor_experiment", "experiments.entry", None),
    ]:
        tracer.patch(owner, attr, name, after)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer self times (s) and exact counts of one traced run.

    ``analysis.error_update_s`` is busy time, including the reassembly the
    update triggers; every other ``_s`` entry is self time.
    """
    self_s, busy_s, calls, in_run = tracer.self_times()
    counters = tracer.counters
    steps = in_run[STEP]

    def per_step(*names):
        return sum(in_run[n] for n in names) / steps if steps else 0.0

    return {
        "stepper.factor_s": self_s["stepper.factor"],
        "stepper.factor_calls": calls["stepper.factor"],
        "stepper.factor_per_step": per_step("stepper.factor"),
        "stepper.lu_nnz": tracer.lu_nnz,
        "stepper.solve_s": self_s["stepper.solve"],
        "stepper.solve_calls": calls["stepper.solve"],
        "stepper.cg_iterations": counters["cg_iterations"],
        "stepper.cg_iters_per_solve": (counters["cg_iterations"] / counters["cg_calls"]
                                       if counters["cg_calls"] else 0.0),
        "stepper.step_self_s": self_s[STEP],
        "mesh.geometry_s": self_s["mesh.geometry"],
        "mesh.geometry_calls": calls["mesh.geometry"],
        "mesh.geometry_per_step": per_step("mesh.geometry"),
        "mesh.quality_s": self_s["mesh.quality"],
        "mesh.quality_calls": calls["mesh.quality"],
        "mesh.generate_s": self_s["mesh.generate"],
        "mesh.export_s": self_s["mesh.export"],
        "mesh.export_bytes": counters["export_bytes"],
        "assembly.mass_s": self_s["assembly.mass"],
        "assembly.stiffness_s": self_s["assembly.stiffness"],
        "assembly.matrices_per_step": per_step("assembly.mass", "assembly.stiffness"),
        "assembly.load_s": self_s["assembly.load"],
        "assembly.load_calls": calls["assembly.load"],
        "assembly.norms_s": self_s["assembly.norms"],
        "analysis.error_update_s": busy_s["analysis.error_update"],
        "analysis.error_update_calls": calls["analysis.error_update"],
        "problems.initial_data_s": self_s["problems.initial_data"],
        "experiments.observer_s": self_s["experiments.observer"],
        # Not registered metrics, but part of the layer table and its coverage.
        "analysis.error_update_self_s": self_s["analysis.error_update"],
        "stepper.run_self_s": self_s[RUN],
        "experiments.entry_s": self_s["experiments.entry"],
        "trace.hook_s": self_s[HOOK],
    }
