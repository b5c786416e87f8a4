"""Span tracer that instruments bridgemix from outside.

Each named public function is replaced, in its defining module and in every
bridgemix module that from-imported it, by a wrapper.  A *spanned* function
records a span (name, start, end, parent span, job id) per call; a *counted*
function only bumps a counter on the innermost open span, which keeps hot
functions such as `field_hash.permute` cheap to trace.  Spans stay in memory
until `dump` writes them out.

Self time of a span is its duration minus the time its child spans cover.
Counts landing on a root span (opened by `root`, not by a layer call) are the
"unattributed" bucket.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "job", "start", "end", "child_s", "counts", "extra", "layer")

    def __init__(self, name, parent, job, layer=True):
        self.name = name
        self.parent = parent
        self.job = job
        self.layer = layer
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.counts = defaultdict(int)
        self.extra = None

    @property
    def duration(self) -> float:
        return self.end - self.start


PACKAGE = "bridgemix"


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    def __init__(self):
        self.current = Span("<outside>", None, "<outside>", layer=False)
        self.spans: list = [self.current]
        self.totals = defaultdict(int)
        self.originals: dict = {}  # qualified name -> unwrapped function

    # -- installation -------------------------------------------------------
    def _replace(self, qualname: str, make_wrapper) -> None:
        module_name, func_name = qualname.rsplit(".", 1)
        module = sys.modules[f"{PACKAGE}.{module_name}"]
        original = getattr(module, func_name)
        wrapper = make_wrapper(original)
        self.originals[qualname] = original
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def install(self, spanned: dict, counted=()) -> None:
        """`spanned` maps a qualified name ("contract.deposit") to an observer
        (args, kwargs, result) -> dict of numbers to sum, or None."""
        for qualname, observe in spanned.items():
            self._replace(qualname, lambda fn: self._span_wrapper(qualname, fn, observe))
        for qualname in counted:
            self._replace(qualname, lambda fn: self._count_wrapper(qualname, fn))

    def missed_aliases(self) -> list:
        """Module attributes still bound to an unwrapped original."""
        originals = {id(fn) for fn in self.originals.values()}  # kept alive by self.originals
        return [f"{mod.__name__}.{attr}"
                for mod in _package_modules()
                for attr, value in vars(mod).items() if id(value) in originals]

    # -- wrappers -----------------------------------------------------------
    def _span_wrapper(self, name, fn, observe):
        def traced(*args, **kwargs):
            parent = self.current
            span = Span(name, parent, parent.job)
            self.current = span
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self.current = parent
                parent.child_s += span.end - span.start
                self.spans.append(span)
            if observe is not None:
                span.extra = observe(args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        totals = self.totals

        def counted(*args, **kwargs):
            self.current.counts[name] += 1
            totals[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def root(self, job: str):
        """A job's root span; counts landing on it are unattributed."""
        span = Span("<root>", self.current, job, layer=False)
        self.current = span
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self.current = span.parent
            span.parent.child_s += span.duration
            self.spans.append(span)

    # -- results ------------------------------------------------------------
    def aggregate(self) -> dict:
        """Per (job, span name): calls, inclusive and self seconds, counts
        attributed to those spans, and summed observer values."""
        out: dict = {}
        for span in self.spans:
            key = f"{span.job}|{span.name}"
            agg = out.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                       "counts": defaultdict(int), "extra": defaultdict(float),
                                       "layer": span.layer})
            agg["calls"] += 1
            agg["incl_s"] += span.duration
            agg["self_s"] += span.duration - span.child_s
            for k, v in span.counts.items():
                agg["counts"][k] += v
            for k, v in (span.extra or {}).items():
                agg["extra"][k] += v
        return out

    def phase_seconds(self, parent_name: str, phases: dict) -> dict:
        """Inclusive seconds of the direct children of `parent_name` spans,
        grouped by the phase their span name maps to in `phases`."""
        out = defaultdict(float)
        for span in self.spans:
            if span.parent is not None and span.parent.name == parent_name:
                phase = phases.get(span.name)
                if phase is not None:
                    out[phase] += span.duration
        return dict(out)

    def dump(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "job": s.job, "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)), "counts": dict(s.counts),
                }) + "\n")
