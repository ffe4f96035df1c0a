"""Span tracing of medrule from outside the package.

While a ``Tracer`` is active it swaps medrule's module attributes at their
call sites, and the public ``fit``/``predict`` methods of the learner
classes, for timing wrappers, and it restores them on exit. Spans stay in
memory (name, start, end, parent, thread id) until the benchmark writes them
out. One open-span stack serves every thread, so the tracer is exact only
for single-threaded runs; every workload runs one fold thread.
"""
from __future__ import annotations

import functools
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


# (module, function, span name). Every medrule module attribute bound to the
# same function object is swapped, so a call is timed whichever module makes it.
FUNCTION_LAYERS = (
    ("medrule.cli", "main", "cli.main"),
    ("medrule.report", "run_pipeline", "report.run_pipeline"),
    ("medrule.report", "write_artifacts", "report.write_artifacts"),
    ("medrule.data", "read_csv", "data.read_csv"),
    ("medrule.data", "validate_dataset", "data.validate_dataset"),
    ("medrule.data", "write_csv", "data.write_csv"),
    ("medrule.crossfit", "make_plan", "crossfit.make_plan"),
    ("medrule.eif", "fit_nuisances", "eif.fit_nuisances"),
    ("medrule.eif", "pseudo_contrast", "eif.pseudo_contrast"),
    ("medrule.learners", "fit_stack", "learners.fit_stack"),
    ("medrule.learners", "fit_adaptive_lasso", "learners.fit_adaptive_lasso"),
    ("medrule.subgroup", "fit_blip", "subgroup.fit_blip"),
    ("medrule.subgroup", "assign_subgroup", "subgroup.assign_subgroup"),
    ("medrule.effects", "effect_table", "effects.effect_table"),
    ("medrule.effects", "estimate_effect", "effects.estimate_effect"),
    ("medrule.oracle", "simulate", "oracle.simulate"),
    ("medrule.oracle", "true_population_effects", "oracle.true_population_effects"),
)

# Learner classes: span "learners.<learner.name>.fit". Fitted models and the
# ensemble: span "learners.predict".
LEARNER_CLASSES = ("MeanLearner", "GLMLearner", "PenalizedLearner", "GBStumpLearner")
MODEL_CLASSES = ("FittedMean", "FittedGLM", "FittedCellMeans", "FittedPenalized",
                 "FittedBoost", "StackedEnsemble", "AdaptiveLassoModel")


def _span_name(span_name: str, args, kwargs) -> str:
    if span_name == "subgroup.fit_blip":
        return f"{span_name}.{kwargs.get('method', 'stack')}"
    if span_name == "learners.fit":
        return f"learners.{args[0].name}.fit"
    return span_name


class Tracer:
    """Records spans and counters while active (``with tracer: ...``)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               threading.get_ident()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, fn, span_name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(_span_name(span_name, args, kwargs)):
                result = fn(*args, **kwargs)
            tracer._observe(span_name, args, result)
            return result

        return wrapper

    def _observe(self, span_name: str, args, result) -> None:
        if span_name == "learners.fit_stack":
            self._count("stack.refits", len(result.models))
            self._count("stack.zero_weight_refits",
                        sum(1 for a in result.weights if a == 0.0))
            self._count("stack.dropped", len(result.dropped))
        elif span_name == "data.write_csv":
            self._count("write_csv.bytes", os.path.getsize(args[0]))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        import medrule  # noqa: F401 - imports every submodule
        from medrule import learners

        modules = [m for k, m in sys.modules.items()
                   if k == "medrule" or k.startswith("medrule.")]
        for module_name, attr, span_name in FUNCTION_LAYERS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, span_name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for cls_name in LEARNER_CLASSES:
            cls = getattr(learners, cls_name)
            self._patch(cls, "fit", self._wrap(cls.fit, "learners.fit"))
        for cls_name in MODEL_CLASSES:
            cls = getattr(learners, cls_name)
            self._patch(cls, "predict", self._wrap(cls.predict, "learners.predict"))
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus its children's durations."""
        selfs = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                selfs[s.parent] -= s.end - s.start
        return selfs

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans of that
        name only, so nesting is not counted twice) and self seconds."""
        selfs = self.self_times()
        table: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            row = table.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[i]
            if self._enclosing(i, lambda name: name == s.name) is None:
                row["s"] += s.end - s.start
        return table

    def by_caller(self) -> dict[str, dict[str, float]]:
        """Self seconds of each ``learners.*`` span name, split by the nearest
        enclosing span outside the learners layer (the calling layer)."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            if s.name.startswith("learners."):
                p = self._enclosing(i, lambda name: not name.startswith("learners."))
                caller = "(none)" if p is None else self.spans[p].name
                row = out.setdefault(s.name, {})
                row[caller] = row.get(caller, 0.0) + selfs[i]
        return out

    def _enclosing(self, i: int, match) -> int | None:
        p = self.spans[i].parent
        while p is not None and not match(self.spans[p].name):
            p = self.spans[p].parent
        return p

    def dump(self) -> list[dict]:
        return [vars(s).copy() for s in self.spans]

