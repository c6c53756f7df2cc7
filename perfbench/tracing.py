"""Tracing from outside the program: spans around agmonlab's public functions.

The tracer replaces module attributes inside the benchmark process only;
nothing under ``src/`` changes.  Every public function (module-level, name
without a leading underscore, defined in that module) of each layer module
is wrapped, and every ``agmonlab`` namespace that imported the original
object gets the wrapper, so calls between modules are seen too.

A span is ``[id, parent_id, name, start, end]``.  Spans are kept in memory
and handed to the caller when the process ends.  Self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

LAYER_MODULES = (
    "models",
    "agmon",
    "halfplane",
    "solver",
    "hjphase",
    "quantize",
    "fcalc",
    "experiments",
)


def _poisson_bvp_counts(totals, span, bound, result):
    totals["solver.poisson_bvp.unknowns"] += result.values.shape[0] * (
        result.values.shape[1] - 2
    )
    if result.meta["path"] == "sparse-direct":
        totals["solver.poisson_bvp.sparse_calls"] += 1


def _hs_apply_counts(totals, span, bound, result):
    P = np.asarray(bound.arguments["P"])
    n = P.shape[0]
    # catalogue level-circle operators are periodic three-point stencils
    family = "catalogue" if np.count_nonzero(P) <= 3 * n else "dense"
    totals[f"fcalc.hs_apply.{family}.s"] += span[4] - span[3]
    totals["fcalc.hs_apply.rows"] += n


def _comparison_ode_counts(totals, span, bound, result):
    # Derived, not counted: the RK4 loop is a closure that cannot be wrapped
    # from outside, so the steps are recomputed from the arguments by the
    # integrator's documented rule (budget split over grid segments in
    # proportion to length, at least one step each).  The figure cannot
    # move if the integrator changes how it steps.
    r_grid = np.asarray(bound.arguments["r_grid"], dtype=float)
    steps = bound.arguments["steps"]
    seg = np.diff(r_grid)
    total = float(r_grid[-1] - r_grid[0])
    if total > 0.0:
        per = [max(1, int(round(steps * s / total))) for s in seg]
    else:
        per = [1] * seg.size
    totals["fcalc.integrate_comparison_ode.steps"] += sum(per)


def _run_experiment_counts(totals, span, bound, result):
    config = bound.arguments["config"]
    totals[f"experiments.run_experiment.{config.out_dir.name}.s"] += span[4] - span[3]
    paths = (result.csv_path, result.summary_path, *result.plot_paths)
    totals["experiments.artifact_bytes"] += sum(p.stat().st_size for p in paths)


# Counters recorded at a layer boundary from the call's arguments and result.
_COUNTERS = {
    "solver.poisson_bvp": (
        _poisson_bvp_counts,
        ("solver.poisson_bvp.unknowns", "solver.poisson_bvp.sparse_calls"),
    ),
    "fcalc.hs_apply": (
        _hs_apply_counts,
        ("fcalc.hs_apply.catalogue.s", "fcalc.hs_apply.dense.s", "fcalc.hs_apply.rows"),
    ),
    "fcalc.integrate_comparison_ode": (
        _comparison_ode_counts,
        ("fcalc.integrate_comparison_ode.steps",),
    ),
    "experiments.run_experiment": (
        _run_experiment_counts,
        ("experiments.artifact_bytes",),
    ),
}


class Tracer:
    """Spans and counters for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.layers: list[str] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def wrap(self, fn, name: str):
        signature = inspect.signature(fn)
        counter, keys = _COUNTERS.get(name, (None, ()))
        for key in keys:
            self.counters[key] += 0
        self.layers.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                raise RuntimeError("traced passes must run on one thread (jobs=1)")
            span = [len(self.spans), self._stack[-1] if self._stack else None, name, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counters, span, bound, result)
            return result

        return traced

    def totals(self) -> dict[str, float]:
        """Per-layer calls, inclusive seconds and self seconds, plus counters."""
        covered: defaultdict[int, float] = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Counter = Counter()
        for name in self.layers:
            for stat in ("calls", "s", "self_s"):
                out[f"{name}.{stat}"] += 0
        for span_id, _, name, start, end in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - covered[span_id]
        out.update(self.counters)
        return dict(out)


def install(tracer: Tracer, run_names=()) -> None:
    """Wrap the public functions of every layer module of agmonlab.

    ``run_names`` are the output-directory names the ``run_experiment``
    calls will use; each gets its own zero-initialised time counter.
    """
    modules = [importlib.import_module(f"agmonlab.{m}") for m in LAYER_MODULES]
    namespaces = [
        mod
        for key, mod in sys.modules.items()
        if key == "agmonlab" or key.startswith("agmonlab.")
    ]
    for short, module in zip(LAYER_MODULES, modules):
        for attr, fn in list(vars(module).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__
            ):
                continue
            traced = tracer.wrap(fn, f"{short}.{attr}")
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is fn:
                        setattr(namespace, key, traced)
    for run_name in run_names:
        tracer.counters[f"experiments.run_experiment.{run_name}.s"] += 0
