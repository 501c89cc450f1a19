"""In-memory spans recorded from the benchmark's own files.

A span is (name, start, end, parent, job).  The layer of a span is the part
of its name before the first dot (``decoder.batch`` belongs to ``decoder``),
so the layer names are the convqec module names.  Spans are kept in a list
and written out once, when the run ends.

Spans are recorded only while ``Tracer.active`` is true; otherwise
``Tracer.span`` yields None and records nothing, so untraced jobs run the
same code without collecting anything.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, active: bool = False):
        self.active = active
        self.job: int | None = None
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, memory: bool = False, **attrs):
        """Record one span around the body.

        With ``memory``, tracemalloc runs for the span's duration only and
        the span records ``peak_bytes``: the peak of memory allocated inside
        it (a measured value).  Elsewhere tracemalloc stays off, because it
        slows allocation-heavy Python code many times over.
        """
        if not self.active:
            yield None
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None, "job": self.job, **attrs}
        self._stack.append(rec["id"])
        self.spans.append(rec)
        if memory:
            tracemalloc.start()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if memory:
                rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    def named(self, name: str, job: int | None = None) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and (job is None or s["job"] == job)]

    def total(self, name: str, job: int | None = None) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name, job))

    def self_time(self, span: dict) -> float:
        """Duration minus the time covered by the span's direct children
        (children never overlap: the benchmark is single-threaded)."""
        children = sum(s["end"] - s["start"] for s in self.spans if s["parent"] == span["id"])
        return span["end"] - span["start"] - children

    def self_time_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span["name"].split(".", 1)[0]] += self.self_time(span)
        return dict(out)


@contextmanager
def patched(module, name: str, wrap):
    """Replace ``module.name`` by ``wrap(original)`` for the body's duration.

    convqec.sim looks its helpers up as module globals at call time, so a
    patched name is what ``run_trials`` calls.
    """
    original = getattr(module, name)
    setattr(module, name, wrap(original))
    try:
        yield
    finally:
        setattr(module, name, original)
