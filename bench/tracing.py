"""In-memory spans recorded around calls into the program's public API.

A span is (name, start, end, parent, item).  Spans are kept in a list and
written out once the run ends.  Where a public function calls into another
layer, the traced run calls the inner function again on the same inputs and
records it as a child of the outer span; a layer's self time is its span
duration minus the durations of its children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.item = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        """Time the block; the parent defaults to the innermost open span."""
        if parent is None and self._open:
            parent = self._open[-1]
        sid = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.item]
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield sid
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def duration(self, sid: int) -> float:
        _, start, end, _, _ = self.spans[sid]
        return end - start

    def layer_table(self, items=None) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and the seconds of its children.

        ``items`` restricts the table to spans of those item ids.
        """
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for sid, (name, start, end, _, item) in enumerate(self.spans):
            if items is not None and item not in items:
                continue
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "child_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["child_s"] += child_time[sid]
        return table

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "item": i}
            for n, s, e, p, i in self.spans
        ]
