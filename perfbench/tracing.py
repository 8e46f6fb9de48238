"""Span recording around the product's public calls (traced runs only).

A span is ``(sid, name, start_ns, end_ns, parent_sid, ident, n, agg)``:
``n`` is the amount of work the call did (records, frames), ``ident``
joins spans of one batch across processes (``(exs_id, seq)``), and
``agg`` holds per-record child calls aggregated into their parent span as
``{name: [ns, calls]}`` so a per-record call costs one addition, not one
span.  Timestamps come from ``time.time_ns``, the host clock both
processes share.  Spans stay in memory and are written out when the run
ends.

Self time is a span's duration minus what its children cover: the direct
child spans (sequential on one thread, so their durations add up) plus
its aggregated per-record children.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from time import time_ns


class Tracer:
    """One process's span store; safe to record from several threads."""

    def __init__(self, side: str) -> None:
        self.side = side
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: Aggregated calls made with no span open on their thread.
        self.loose: dict[str, list[int]] = defaultdict(lambda: [0, 0])

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, ident=None) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        frame = [next(self._ids), name, time_ns(), parent, ident, None]
        stack.append(frame)
        return frame

    def close(self, frame: list, n: int = 0, ident=None) -> None:
        end = time_ns()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        self.spans.append(
            (frame[0], frame[1], frame[2], end, frame[3],
             frame[4] if ident is None else ident, n, frame[5])
        )

    def agg(self, name: str, ns: int) -> None:
        """Charge one per-record call to the innermost open span."""
        stack = self._stack()
        if stack:
            frame = stack[-1]
            if frame[5] is None:
                frame[5] = {}
            slot = frame[5].get(name)
            if slot is None:
                frame[5][name] = [ns, 1]
            else:
                slot[0] += ns
                slot[1] += 1
        else:
            slot = self.loose[name]
            slot[0] += ns
            slot[1] += 1


def wrap_span(tracer: Tracer, obj, attr: str, name: str, n_of=None, ident_of=None):
    """Replace ``obj.attr`` with a wrapper recording one span per call.

    ``n_of(args, result)`` and ``ident_of(args, result)`` read the work
    count and the join id off the call.  Returns the original callable.
    """
    real = getattr(obj, attr)

    def wrapped(*args, **kwargs):
        frame = tracer.open(name)
        out = None
        try:
            out = real(*args, **kwargs)
            return out
        finally:
            tracer.close(
                frame,
                n_of(args, out) if n_of is not None else 0,
                ident_of(args, out) if ident_of is not None else None,
            )

    setattr(obj, attr, wrapped)
    return real


def wrap_agg(tracer: Tracer, obj, attr: str, name: str, on_result=None):
    """Replace a per-record ``obj.attr`` with an aggregating timer."""
    real = getattr(obj, attr)

    def wrapped(*args, **kwargs):
        t0 = time_ns()
        out = real(*args, **kwargs)
        tracer.agg(name, time_ns() - t0)
        if on_result is not None:
            on_result(out)
        return out

    setattr(obj, attr, wrapped)
    return real


def analyze(spans: list[tuple], loose: dict | None = None) -> dict:
    """Per-name totals: spans, summed duration, summed self time, summed
    work ``n``, and aggregated per-record children ``{ns, calls}``."""
    child_ns: dict[int, int] = defaultdict(int)
    for sid, _name, start, end, parent, _ident, _n, _agg in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    names: dict[str, dict] = defaultdict(lambda: {"spans": 0, "dur_ns": 0, "self_ns": 0, "n": 0})
    aggs: dict[str, dict] = defaultdict(lambda: {"ns": 0, "calls": 0})
    for sid, name, start, end, _parent, _ident, n, agg in spans:
        dur = end - start
        agg_ns = 0
        if agg:
            for child, (ns, calls) in agg.items():
                aggs[child]["ns"] += ns
                aggs[child]["calls"] += calls
                agg_ns += ns
        entry = names[name]
        entry["spans"] += 1
        entry["dur_ns"] += dur
        entry["self_ns"] += dur - child_ns.get(sid, 0) - agg_ns
        entry["n"] += n
    for child, (ns, calls) in (loose or {}).items():
        aggs[child]["ns"] += ns
        aggs[child]["calls"] += calls
    return {"names": dict(names), "aggs": dict(aggs)}


def spans_as_rows(tracer: Tracer) -> list[dict]:
    """Spans as JSON-ready rows for the run's span file."""
    return [
        {
            "side": tracer.side, "sid": sid, "name": name, "start": start, "end": end,
            "parent": parent, "id": list(ident) if isinstance(ident, tuple) else ident,
            "n": n, "agg": agg,
        }
        for sid, name, start, end, parent, ident, n, agg in tracer.spans
    ]
