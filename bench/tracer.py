"""Spans and counters around calls into the public functions of rmnml.

The tracer wraps module attributes from outside the package: every
namespace of a loaded ``rmnml`` module that holds the original function
gets the wrapper, so calls through ``from .x import f`` are seen too.
A target the program no longer has is skipped and its metric reads 0.

Span metrics report *self* time: a span's duration minus the part of it
covered by child spans.  Counter targets are not spans, so their time
stays with the enclosing span.  Spans are kept in memory and handed back
with the per-op aggregates.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, metric): the metric is "<name>_s" self time per op.
SPANS = (
    ("rmnml.cli", "load_dataset", "cli.load_dataset"),
    ("rmnml.cli", "write_dataset", "cli.write_dataset"),
    ("rmnml.complexity", "pc_hgd", "complexity.pc_hgd"),
    ("rmnml.complexity", "hgd_sigma_integral", "complexity.hgd_sigma_integral"),
    ("rmnml.complexity", "chart_gap", "complexity.chart_gap"),
    ("rmnml.gaussian", "mle", "gaussian.mle"),
    ("rmnml.gaussian", "sample", "gaussian.sample"),
    ("rmnml.gaussian", "Dataset.__init__", "gaussian.dataset_init"),
    ("rmnml.gaussian", "frechet_mean", "gaussian.frechet_mean"),
    ("rmnml.gaussian", "log_lik", "gaussian.log_lik"),
    ("rmnml.fisher", "fisher_integral", "fisher.fisher_integral"),
    ("rmnml.fisher", "fisher_numeric", "fisher.fisher_numeric"),
    ("rmnml.coding", "cell_codelengths", "coding.cell_codelengths"),
    ("rmnml.validation", "check_xi", "validation.check_xi"),
    ("rmnml.validation", "check_fisher", "validation.check_fisher"),
    ("rmnml.validation", "check_reparameterization",
     "validation.check_reparameterization"),
    ("rmnml.validation", "check_kraft", "validation.check_kraft"),
    ("rmnml.validation", "check_mc_pipeline", "validation.check_mc_pipeline"),
)

# (module, attribute, metric): the metric counts calls per op.
COUNTERS = (
    ("rmnml.gaussian", "xi", "gaussian.xi_calls"),
    ("rmnml.gaussian", "xi_derivatives", "gaussian.xi_derivatives_calls"),
    ("rmnml.hyperbolic", "LorentzPoint.__post_init__", "hyperbolic.lorentz_points"),
    ("rmnml.hyperbolic", "sqrt_det_metric", "hyperbolic.sqrt_det_metric_calls"),
)

# Counters with extra bookkeeping, wrapped by their own methods below.
INTEGRATE = ("rmnml.quadrature", "integrate_1d")
DIST_MANY = ("rmnml.hyperbolic", "dist_many")

# A counted call made while the span is active also counts under the
# nested name: xi calls inside the MLE stand in for sigma-solve iterations.
NESTED = {("gaussian.mle", "gaussian.xi_calls"): "gaussian.mle.xi_calls"}

SPAN_METRICS = tuple(f"{metric}_s" for _, _, metric in SPANS)
COUNT_METRICS = tuple(metric for _, _, metric in COUNTERS) + (
    "gaussian.mle.xi_calls", "quadrature.integrate_1d_calls",
    "quadrature.integrand_evals", "hyperbolic.dist_many_calls",
    "hyperbolic.dist_many_rows")


class Tracer:
    """Records spans and counts for one op at a time."""

    def __init__(self):
        self._stack: list[list] = []
        self._active: dict[str, int] = defaultdict(int)
        self._self_s: dict[str, float] = defaultdict(float)
        self._counts: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        self._next_id = 0
        self._op = None
        self.spans: list[dict] = []
        self.missing: list[str] = []

    # -- installation -------------------------------------------------
    def install(self):
        for module, attr, metric in SPANS:
            self._patch(module, attr, lambda fn, m=metric: self._span(m, fn))
        for module, attr, metric in COUNTERS:
            self._patch(module, attr, lambda fn, m=metric: self._counter(m, fn))
        self._patch(*INTEGRATE, self._integrate)
        self._patch(*DIST_MANY, self._dist_many)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, module_name, attr, make_wrapper):
        module = sys.modules.get(module_name)
        owner_name, _, name = attr.rpartition(".")
        owner = module
        if owner is not None and owner_name:
            owner = getattr(owner, owner_name, None)
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = functools.wraps(original)(make_wrapper(original))
        if owner_name:  # a method: patch the class only
            self._set(owner, name, original, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "rmnml" or mod_name.startswith("rmnml.")) and \
                    getattr(mod, name, None) is original:
                self._set(mod, name, original, wrapper)

    def _set(self, owner, name, original, wrapper):
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    # -- wrappers -----------------------------------------------------
    def _span(self, metric, fn):
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][1] if self._stack else None
            frame = [metric, span_id, time.perf_counter(), 0.0]
            self._stack.append(frame)
            self._active[metric] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._active[metric] -= 1
                duration = end - frame[2]
                self._self_s[f"{metric}_s"] += duration - frame[3]
                if self._stack:
                    self._stack[-1][3] += duration
                self.spans.append({"op": self._op, "id": span_id,
                                   "parent": parent, "name": metric,
                                   "start": frame[2], "end": end})
        return wrapper

    def _count(self, metric, amount=1):
        self._counts[metric] += amount
        for (span, counted), nested in NESTED.items():
            if counted == metric and self._active[span]:
                self._counts[nested] += amount

    def _counter(self, metric, fn):
        def wrapper(*args, **kwargs):
            self._count(metric)
            return fn(*args, **kwargs)
        return wrapper

    def _integrate(self, fn):
        def wrapper(f, *args, **kwargs):
            self._count("quadrature.integrate_1d_calls")

            def counted(x):
                self._count("quadrature.integrand_evals")
                return f(x)
            return fn(counted, *args, **kwargs)
        return wrapper

    def _dist_many(self, fn):
        def wrapper(x, ys, *args, **kwargs):
            self._count("hyperbolic.dist_many_calls")
            self._count("hyperbolic.dist_many_rows", len(ys))
            return fn(x, ys, *args, **kwargs)
        return wrapper

    # -- per-op aggregation ------------------------------------------
    def run_op(self, op_id, fn):
        """Run ``fn()`` as one op under a root span; return (result, totals)."""
        self._op = op_id
        self._self_s.clear()
        self._counts.clear()
        result = self._span("op", fn)()
        totals = {name: self._self_s.get(name, 0.0) for name in SPAN_METRICS}
        totals.update({name: self._counts.get(name, 0) for name in COUNT_METRICS})
        return result, totals
