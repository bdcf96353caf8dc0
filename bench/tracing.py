"""In-memory spans for the traced benchmark run.

A span has an id, a name, a start, an end, a parent span and the round it
belongs to (rounds are the benchmark's unit of work; set-up spans carry no
round).  Spans are kept in memory and written out once, when the run ends.
Only the benchmark's own calls are traced: public program functions that a
CLI command calls are swapped for timing wrappers while a traced round
runs, and put back afterwards.  This module uses the standard library
only, so it can time ``import voidtherm`` itself.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    """Span recorder; a disabled tracer records nothing and costs one
    attribute test per span."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self.round_id = None

    @contextlib.contextmanager
    def span(self, name, **attrs):
        if not self.enabled:
            yield attrs
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "round": self.round_id, "start": time.perf_counter(), "end": None}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def wrapping(self, targets):
        """Replace ``module.attr`` by a span-recording wrapper for each
        ``(module, attr, span_name, on_result)`` in ``targets``; restore the
        originals on exit.  ``on_result(rec, args, kwargs, result)`` may add
        counts to the span."""
        saved = []
        try:
            for module, attr, name, on_result in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, on_result))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, fn, name, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, args, kwargs, out)
                return out
        return wrapper

    # -- reduction --------------------------------------------------------

    def layer_table(self, rounds=None):
        """{name: (count, total_s, self_s)} over the spans of ``rounds``
        (all spans when None).  Self time is the span's duration minus the
        durations of its direct children; the run is single-threaded, so
        children never overlap."""
        keep = [s for s in self.spans if rounds is None or s["round"] in rounds]
        child_time = {}
        for s in keep:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _dur(s)
        table = {}
        for s in keep:
            count, total, own = table.get(s["name"], (0, 0.0, 0.0))
            table[s["name"]] = (count + 1, total + _dur(s),
                                own + _dur(s) - child_time.get(s["id"], 0.0))
        return table

    def total(self, name, rounds=None):
        return sum(_dur(s) for s in self.spans
                   if s["name"] == name and (rounds is None or s["round"] in rounds))

    def select(self, name, rounds=None):
        return [s for s in self.spans
                if s["name"] == name and (rounds is None or s["round"] in rounds)]

    def dump(self, path, extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh, indent=1)
            fh.write("\n")


def _dur(span):
    return span["end"] - span["start"]


def format_layer_table(table, n_rounds, title):
    """Human-readable layer report, divided by ``n_rounds``."""
    lines = [f"{'layer':<36} {'calls':>7} {'total_s':>10} {'self_s':>10}   ({title})"]
    for name, (count, total, own) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:<36} {count / n_rounds:>7.4g} {total / n_rounds:>10.4f} "
                     f"{own / n_rounds:>10.4f}")
    return "\n".join(lines)
