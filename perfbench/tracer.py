"""Outside tracer: per-layer spans for stlhom, recorded without touching src/.

The tracer replaces each traced public function with a wrapper in every
``stlhom`` module namespace that binds it (``build_sl`` is bound in
``leibniz``, ``steinberg``, ``campaign`` and the package itself), records one
span per call and puts the original bindings back on exit.  Spans nest through
a stack: each has an id, its parent's id and the id of the benchmark request
that caused it.  A span's self time is its duration minus the time its child
spans cover.  Spans stay in memory; ``spans_json`` hands them out at the end.

Calls into a process pool are not seen, so traced runs use ``--jobs 1``.
"""

from __future__ import annotations

import importlib
import sys
import time

PACKAGE = "stlhom"

# (module, public function) pairs, each giving <module>.<function>.calls and
# <module>.<function>.self_s
TRACED = (
    ("cli", "main"),
    ("campaign", "run_campaign"),
    ("campaign", "declared_rows"),
    ("steinberg", "build_stl"),
    ("steinberg", "build_hat"),
    ("steinberg", "verify_cocycle"),
    ("steinberg", "verify_calculus"),
    ("steinberg", "verify_sharp_relations"),
    ("steinberg", "hl2_report"),
    ("leibniz", "build_gl"),
    ("leibniz", "build_sl"),
    ("leibniz", "uce"),
    ("leibniz", "homology_hl"),
    ("leibniz", "is_perfect"),
    ("leibniz", "structural_report"),
    ("leibniz", "make_leibniz"),
    ("linalg", "present_quotient"),
    ("linalg", "subquotient"),
    ("linalg", "smith_normal_form"),
    ("assoc", "hochschild_h1"),
    ("assoc", "quotient_Rm"),
)

# The d3 generator is consumed column by column, so it gets one span per
# stream: walk_s is the time spent inside the generator (the cube walk),
# consume_s the caller's time between columns (d2.d3 check, echelon insert).
STREAM = ("leibniz", "iter_d3_columns")
STREAM_SPAN = "leibniz.d3"
STREAM_COUNTS = ("columns", "entries", "walk_s", "consume_s")

# Work counts read from what a traced call returns: metric -> (span, reader).
RESULT_COUNTS = {
    "campaign.tasks": ("campaign.run_campaign", lambda r: len(r.entries)),
    "steinberg.cocycle.triples": ("steinberg.verify_cocycle",
                                  lambda r: r.triples_checked),
    "steinberg.calculus.instances": ("steinberg.verify_calculus",
                                     lambda r: sum(r.checks.values())),
    "steinberg.sharp.relations": ("steinberg.verify_sharp_relations",
                                  lambda r: sum(r.relations.values())),
    # rows the HL_2 echelon keeps: rank of d3
    "leibniz.d3.rank": ("leibniz.homology_hl",
                        lambda r: r.rank_in if r.degree == 2 else 0),
}


def metric_names() -> list[str]:
    """Every per-layer metric ``summary`` produces, in a fixed order."""
    names = []
    for mod, fn in TRACED:
        names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s"]
    names.append("leibniz.d3.streams")
    names += [f"{STREAM_SPAN}.{c}" for c in STREAM_COUNTS]
    names += list(RESULT_COUNTS)
    return names


class Span:
    __slots__ = ("sid", "parent", "request", "name", "start", "end",
                 "child_s", "counts")

    def __init__(self, sid, parent, request, name, start):
        self.sid = sid
        self.parent = parent
        self.request = request
        self.name = name
        self.start = start
        self.end = None
        self.child_s = 0.0
        self.counts = {}

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s

    def to_dict(self, t0: float) -> dict:
        return {"id": self.sid,
                "parent": self.parent.sid if self.parent else None,
                "request": self.request, "name": self.name,
                "start_s": self.start - t0, "end_s": self.end - t0,
                "self_s": self.self_s, "counts": self.counts}


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


class Tracer:
    """Context manager: wraps the traced functions on entry, restores on exit.

    Set ``request`` before each benchmark request; spans opened while it is
    set carry it.
    """

    def __init__(self):
        self.request = None
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []   # (module, attribute, original)
        self._t0 = time.perf_counter()

    # -- installing and restoring bindings --------------------------------

    def __enter__(self):
        targets = TRACED + (STREAM,)
        for mod, _fn in targets:
            importlib.import_module(f"{PACKAGE}.{mod}")
        originals = [getattr(sys.modules[f"{PACKAGE}.{mod}"], fn)
                     for mod, fn in targets]
        if any(map(_is_wrapper, originals)):
            raise RuntimeError("stlhom is already traced")
        modules = package_modules()
        for (mod, fn), original in zip(targets, originals):
            if (mod, fn) == STREAM:
                wrapper = self._stream_wrapper(original)
            else:
                wrapper = self._call_wrapper(f"{mod}.{fn}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._saved.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self.request, name,
                    time.perf_counter())
        self.spans.append(span)
        return span

    def _call_wrapper(self, name, original):
        readers = [(metric, read) for metric, (span_name, read)
                   in RESULT_COUNTS.items() if span_name == name]
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            tracer._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
            for metric, read in readers:
                span.counts[metric] = read(result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = original.__name__
        return traced

    def _stream_wrapper(self, original):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._stream(original(*args, **kwargs))

        traced.__wrapped__ = original
        traced.__name__ = original.__name__
        return traced

    def _stream(self, columns):
        span = self._open(STREAM_SPAN)
        clock = time.perf_counter
        ncols = entries = 0
        walk = consume = 0.0
        try:
            t = clock()
            for item in columns:
                now = clock()
                walk += now - t
                ncols += 1
                entries += len(item[1])
                yield item
                t = clock()
                consume += t - now
            walk += clock() - t
        finally:
            span.end = clock()
            # the consumer's time between columns belongs to the consumer
            span.child_s = consume
            span.counts = {"columns": ncols, "entries": entries,
                           "walk_s": walk, "consume_s": consume}
            if span.parent is not None:
                span.parent.child_s += walk

    # -- results ----------------------------------------------------------

    def summary(self, request=None) -> dict:
        """Per-layer metrics over all spans, or over one request's spans."""
        out = dict.fromkeys(metric_names(), 0)
        for span in self.spans:
            if request is not None and span.request != request:
                continue
            if span.name == STREAM_SPAN:
                out["leibniz.d3.streams"] += 1
                for c in STREAM_COUNTS:
                    out[f"{STREAM_SPAN}.{c}"] += span.counts[c]
                continue
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += span.self_s
            for metric, value in span.counts.items():
                out[metric] += value
        return out

    def spans_json(self) -> list[dict]:
        return [s.to_dict(self._t0) for s in self.spans]


def _is_wrapper(value) -> bool:
    return getattr(value, "__qualname__", "").startswith("Tracer.")


def traced_bindings() -> list[str]:
    """Names in the package that still hold a tracer wrapper."""
    return [f"{module.__name__}.{attr}" for module in package_modules()
            for attr, value in vars(module).items() if _is_wrapper(value)]
