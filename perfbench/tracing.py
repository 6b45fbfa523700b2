"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (id, name, parent id, query id, start, end, busy, calls).  A plain
span covers one call, so busy == end - start and calls == 1.  Inside a
search the per-model calls are too many to keep one by one, so each search
keeps one span per layer that sums them: busy is the summed time and calls
the number of calls merged.  A span's self time is its busy time minus the
busy time of its children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, qid=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if qid is None and parent is not None:
            qid = self.spans[parent][3]
        record = [sid, name, parent, qid, clock(), None, 0.0, 1]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield record
        finally:
            self._stack.pop()
            record[5] = clock()
            record[6] = record[5] - record[4]

    def merged(self, name: str, start: float, end: float, busy: float,
               calls: int) -> None:
        """Record many calls of one layer under the current span as one span."""
        parent = self._stack[-1]
        self.spans.append([len(self.spans), name, parent, self.spans[parent][3],
                           start, end, busy, calls])

    def self_times(self) -> dict[str, float]:
        child_busy = defaultdict(float)
        for s in self.spans:
            if s[2] is not None:
                child_busy[s[2]] += s[6]
        out = defaultdict(float)
        for s in self.spans:
            out[s[1]] += s[6] - child_busy[s[0]]
        return dict(out)

    def busy(self, name: str) -> float:
        return sum(s[6] for s in self.spans if s[1] == name)
