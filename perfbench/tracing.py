"""In-memory spans and counts for the traced benchmark run.

A span is opened around each call the benchmark makes into a layer of
the program.  Spans nest on a stack; every span records its parent and
the id of the top-level span it belongs to (its run id), so the spans
of one operation share an identifier.  Nothing is written until
``dump`` is called at the end of the run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": sid, "name": name, "tag": tag, "parent": parent,
            "run": self._stack[0] if self._stack else sid,
            "start": perf_counter(), "end": None,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def self_times(self) -> dict[str, float]:
        """Self time per span name and per ``name.tag``.

        A span's self time is its duration minus the durations of its
        direct children; children of one span never overlap because
        the benchmark is single-threaded.
        """
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            own = (s["end"] - s["start"]) - child[s["id"]]
            out[s["name"]] += own
            if s["tag"] is not None:
                out[f"{s['name']}.{s['tag']}"] += own
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


class NullTracer:
    """Stand-in for untraced runs: records nothing."""

    _ctx = nullcontext()

    def span(self, name: str, tag: str | None = None):
        return self._ctx

    def count(self, name: str, n: float = 1) -> None:
        pass


NULL = NullTracer()
