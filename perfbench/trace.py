"""Spans around the package's public functions, recorded from outside it.

A :class:`Tracer` replaces public functions in the module namespaces
where callers look them up with thin wrappers that time each call.  The
program then runs unchanged, so a traced run makes exactly the calls an
untraced run makes, in the same order and with the same arguments.
Each span records its name, the operation it belongs to, the span that
called it, and its busy time; a layer's self time is the busy time of
its spans minus the part their child spans cover.

Nothing is patched outside a ``with tracer.installed():`` block.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from randmcp import cli, contrasts, glm, inference, simulate

# Entry points: their self time is loop and I/O glue that no layer claims.
ENTRY = "entry"

# (module, function name, layer the span's self time is charged to).  A
# function appears once per namespace its callers resolve it through.
PATCHES = [
    (simulate, "run_table_block", ENTRY),
    (simulate, "run_power_study", ENTRY),
    (simulate, "simulate_from_potential_outcomes", ENTRY),
    (cli, "main", ENTRY),
    (simulate, "sample_sequence", "randomization.sample_ms"),
    (simulate, "sample_sequences", "randomization.sample_ms"),
    (inference, "sample_sequences", "randomization.sample_ms"),
    (inference, "enumerate_sequences", "randomization.enumerate_ms"),
    (simulate, "generate_binary_trial", "simulate.generate_ms"),
    (glm, "stack_designs", "glm.design_ms"),
    (glm, "design_from_assignments", "glm.design_ms"),
    (glm, "covariate_design", "glm.design_ms"),
    (glm, "fit_mle_many", "glm.batch_fit_ms.mle"),
    (glm, "fit_firth_many", "glm.batch_fit_ms.firth"),
    (glm, "fit_gaussian_many", "glm.batch_fit_ms.gaussian"),
    (glm, "fit_mle", "glm.single_fit_ms"),
    (glm, "fit_firth", "glm.single_fit_ms"),
    (glm, "population_average_batch", "glm.popavg_ms"),
    (glm, "population_average_means", "glm.popavg_ms"),
    (glm, "separation_batch", "glm.separation_ms"),
    (glm, "detect_separation", "glm.separation_ms"),
    (simulate, "separation_batch", "glm.separation_ms"),
    (contrasts, "optimal_contrast", "contrasts.optimal_ms"),
    (inference, "optimal_contrast", "contrasts.optimal_ms"),
    (inference, "contrast_matrix", "contrasts.matrix_ms"),
    (inference, "residual_design_contrasts", "contrasts.matrix_ms"),
    (inference, "max_tail_probability", "inference.reference_ms"),
    (inference, "glm_statistics_batch", "inference.refit_stat_ms"),
    (inference, "residual_statistics_batch", "inference.residual_stat_ms"),
    (inference, "exact_randomization_pvalue", "inference.exact_other_ms"),
    (inference, "fit_residual_model", "inference.test_other_ms"),
    (inference, "population_test", "inference.test_other_ms"),
    (inference, "randomization_test", "inference.test_other_ms"),
    (simulate, "population_test", "inference.test_other_ms"),
    (simulate, "randomization_test", "inference.test_other_ms"),
    (cli, "analyze", "inference.test_other_ms"),
    (cli, "read_trial_csv", "data.read_csv_ms"),
]
GENERATORS = {"enumerate_sequences"}

SELF_TIME_LAYERS = sorted({layer for _, _, layer in PATCHES if layer != ENTRY})
COUNTERS = (
    "randomization.redrawn",
    "randomization.sequences",
    "glm.design_mb",
    "glm.nonconverged_refits",
    "glm.separated_refits",
)


@dataclass
class Span:
    name: str
    layer: str
    op: int
    parent: "Span | None"
    start: float
    busy: float = 0.0
    child: float = 0.0


@dataclass
class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    op: int = 0
    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    iterations: dict = field(default_factory=lambda: defaultdict(list))
    reference_errors: list[float] = field(default_factory=list)
    nan_statistics: int = 0
    _stack: list[Span] = field(default_factory=list)

    def _open(self, name: str, layer: str) -> Span:
        span = Span(name, layer, self.op, self._stack[-1] if self._stack else None,
                    time.perf_counter())
        self.spans.append(span)
        return span

    def _close(self, span: Span, busy: float) -> None:
        span.busy = busy
        if span.parent is not None:
            span.parent.child += busy

    def _wrap(self, fn, layer: str):
        name = f"{fn.__module__}.{fn.__name__}"
        after = _AFTER.get(fn.__name__)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            span = self._open(name, layer)
            self._stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self._close(span, time.perf_counter() - span.start)
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return call

    def _wrap_generator(self, fn, layer: str):
        """Charge the time spent inside each ``next`` to one span.

        The consumer's own calls between items are siblings of this
        span, not children, so the span is never put on the stack.
        """
        name = f"{fn.__module__}.{fn.__name__}"

        @functools.wraps(fn)
        def call(*args, **kwargs):
            span = self._open(name, layer)
            busy = 0.0
            items = 0
            try:
                t0 = time.perf_counter()
                inner = fn(*args, **kwargs)
                busy += time.perf_counter() - t0
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += time.perf_counter() - t0
                        return
                    busy += time.perf_counter() - t0
                    items += 1
                    yield item
            finally:
                self._close(span, busy)
                self.counts["randomization.sequences"] += items

        return call

    @contextlib.contextmanager
    def installed(self):
        """Patch every public function in :data:`PATCHES`; restore on exit."""
        saved = []
        try:
            for module, attr, layer in PATCHES:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                wrap = self._wrap_generator if attr in GENERATORS else self._wrap
                setattr(module, attr, wrap(fn, layer))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # -- summaries ---------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Summed self time per layer in milliseconds, entry glue included."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.layer] += 1000.0 * (span.busy - span.child)
        return out

    def self_ms_by_function(self, ops: int) -> dict[str, float]:
        """Self time per operation of each wrapped function, largest first."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += 1000.0 * (span.busy - span.child) / ops
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def top_level_ms(self) -> float:
        return 1000.0 * sum(s.busy for s in self.spans if s.parent is None)


# -- counters read from return values ---------------------------------------

def _after_stack(tracer: Tracer, args, kwargs, out) -> None:
    tracer.counts["glm.design_mb"] += out.nbytes / 1e6


def _after_batch_fit(estimator: str):
    def after(tracer: Tracer, args, kwargs, out) -> None:
        tracer.iterations[estimator].append(np.asarray(out.iterations))
        tracer.counts["glm.nonconverged_refits"] += int(np.sum(~out.converged))
    return after


def _after_reference(tracer: Tracer, args, kwargs, out) -> None:
    tracer.reference_errors.append(float(out[1]))


def _after_test(tracer: Tracer, args, kwargs, out) -> None:
    d = out.diagnostics
    tracer.counts["randomization.redrawn"] += d.get("redrawn_sequences", 0)
    tracer.counts["glm.separated_refits"] += d.get("separated_refits", 0)
    if np.isnan(out.statistic):
        tracer.nan_statistics += 1


_AFTER = {
    "stack_designs": _after_stack,
    "fit_mle_many": _after_batch_fit("mle"),
    "fit_firth_many": _after_batch_fit("firth"),
    "max_tail_probability": _after_reference,
    "randomization_test": _after_test,
    "population_test": _after_test,
}


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation self times, counters and iteration statistics."""
    self_ms = tracer.self_ms()
    out = {name: self_ms.get(name, 0.0) / ops for name in SELF_TIME_LAYERS}
    for name in COUNTERS:
        out[name] = tracer.counts.get(name, 0.0) / ops
    for est in ("mle", "firth"):
        its = tracer.iterations.get(est)
        out[f"glm.batch_iters_mean.{est}"] = float(np.concatenate(its).mean()) if its else 0.0
    all_its = [a for its in tracer.iterations.values() for a in its]
    out["glm.batch_iters_max"] = float(max(a.max() for a in all_its)) if all_its else 0.0
    errs = tracer.reference_errors
    out["inference.reference_error"] = float(np.mean(errs)) if errs else 0.0
    return out
