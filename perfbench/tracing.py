"""In-memory spans and counters recorded around calls into cberlab.

A span is (id, name, start, end, parent id, item id, attributes); spans are
kept in a list and written out only when the benchmark ends.  With tracing
off every method is a thin pass-through, so the untraced measurement pays
one extra Python call per layer call and nothing else.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

clock = time.perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._stack: list[tuple[int, int | None, dict]] = []  # (span id, item id, attrs)

    def call(self, name: str, fn, *args):
        """fn(*args), recorded as a span named after the layer function."""
        if not self.enabled:
            return fn(*args)
        with self.span(name):
            return fn(*args)

    @contextmanager
    def span(self, name: str, item: int | None = None, **attrs):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent, parent_item, _ = self._stack[-1] if self._stack else (None, None, None)
        if item is None:
            item = parent_item
        self.spans.append(None)  # reserve the id; filled in when the span ends
        self._stack.append((sid, item, attrs))
        start = clock()
        try:
            yield
        finally:
            end = clock()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, item, attrs)

    def annotate(self, **attrs) -> None:
        """Add attributes, such as a size known only after a call, to the open span."""
        if self.enabled and self._stack:
            self._stack[-1][2].update(attrs)

    def count(self, name: str, value: int = 1) -> None:
        if self.enabled:
            self.counters[name] += value

    def busy(self) -> tuple[Counter, Counter]:
        """Per-name call counts and summed durations (seconds)."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        for _sid, name, start, end, *_ in self.spans:
            calls[name] += 1
            busy[name] += end - start
        return calls, busy

    def top_level_seconds(self) -> float:
        return sum(end - start for _s, _n, start, end, parent, *_ in self.spans if parent is None)

    def dump(self, path: str, phase: str, mode: str) -> None:
        """Write one JSON object per span; span ids are unique within a phase."""
        with open(path, mode) as fh:
            for sid, name, start, end, parent, item, attrs in self.spans:
                fh.write(json.dumps({
                    "phase": phase, "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "item": item, **attrs,
                }, sort_keys=True) + "\n")
