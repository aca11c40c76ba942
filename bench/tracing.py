"""Spans around the calls into each ccmv layer, and exact Fraction op counts.

Nothing here is installed during a timed run.  A traced run patches, for
its own duration, the module-level names through which ccmv's layers call
one another (the names `ccmv.verify` imports, `ccmv.model.lie_checks` for
`require_lie_algebra`, and the names `ccmv.cli` imports), and restores
them afterwards.  Nothing under src/ is edited.
"""
from __future__ import annotations

import importlib
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

# (module, attribute, span name)
LAYER_CALLS = (
    ("ccmv.verify", "levi_civita", "connection.levi_civita"),
    ("ccmv.verify", "riemann", "curvature.riemann"),
    ("ccmv.verify", "ricci", "curvature.ricci"),
    ("ccmv.verify", "lie_checks", "model.lie_checks"),
    ("ccmv.model", "lie_checks", "model.lie_checks"),
    ("ccmv.verify", "structure_tensor_checks", "model.structure_tensor_checks"),
    ("ccmv.verify", "check_normality", "structures.check_normality"),
    ("ccmv.verify", "second_bianchi_failures", "curvature.second_bianchi_failures"),
    ("ccmv.verify", "Workspace", "verify.workspace"),
    ("ccmv.cli", "load_model", "model.load_model"),
    ("ccmv.cli", "run_suite", "verify.run_suite"),
    ("ccmv.cli", "suite_tsv_rows", "verify.render"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    run: int


class Tracer:
    """Records spans in memory; `spans` is written out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._run = 0

    @contextmanager
    def span(self, name: str):
        if self._stack:
            parent, run = self._stack[-1], self.spans[self._stack[-1]].run
        else:
            self._run += 1
            parent, run = None, self._run
        index = len(self.spans)
        record = Span(name, perf_counter(), None, parent, run)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Patch every layer call for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span_name in LAYER_CALLS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def duration(self, index: int) -> float:
        s = self.spans[index]
        return s.end - s.start

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [self.duration(i) for i in range(len(self.spans))]
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                own[s.parent] -= self.duration(i)
        return own

    def problems(self) -> list[str]:
        """Every way the span tree is not well formed; empty when it is."""
        out = []
        if self._stack:
            out.append(f"{len(self._stack)} spans still open")
        for i, s in enumerate(self.spans):
            if s.end is None or s.end < s.start:
                out.append(f"span {i} {s.name} not closed in order")
                continue
            if s.parent is None:
                continue
            p = self.spans[s.parent]
            if s.parent >= i or p.run != s.run:
                out.append(f"span {i} {s.name}: parent {s.parent} is not an earlier span of run {s.run}")
            elif p.end is None or not (p.start <= s.start and s.end <= p.end):
                out.append(f"span {i} {s.name} lies outside its parent {p.name}")
        return out

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run": s.run} for s in self.spans]


@contextmanager
def fraction_op_counts():
    """Count calls of Fraction.__new__, Fraction._mul and Fraction._add.

    These are the functions cProfile reports for Fraction construction,
    multiplication and addition; the counts equal cProfile's call counts at
    a fraction of its cost.  Fraction's operator methods are rebuilt with the
    class's own `_operator_fallbacks`, so dispatch is unchanged.
    """
    counts = {"new": 0, "mul": 0, "add": 0}
    names = ("__new__", "__mul__", "__rmul__", "__add__", "__radd__")
    saved = {name: Fraction.__dict__[name] for name in names}
    original_new = saved["__new__"].__func__

    def new(cls, *args, **kwargs):
        counts["new"] += 1
        return original_new(cls, *args, **kwargs)

    def counted(key, fn):
        def op(a, b):
            counts[key] += 1
            return fn(a, b)
        return op

    try:
        Fraction.__new__ = staticmethod(new)
        Fraction.__mul__, Fraction.__rmul__ = Fraction._operator_fallbacks(
            counted("mul", Fraction._mul), operator.mul)
        Fraction.__add__, Fraction.__radd__ = Fraction._operator_fallbacks(
            counted("add", Fraction._add), operator.add)
        yield counts
    finally:
        for name, value in saved.items():
            setattr(Fraction, name, value)
