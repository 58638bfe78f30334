"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around the calls into each
layer's public functions — nothing inside ``src/`` is instrumented.  A
span is ``(id, name, start, end, parent, request)``: ``start``/``end``
are ``time.perf_counter`` seconds, ``parent`` is the id of the span that
caused it (``None`` for a root) and ``request`` ties the spans of one
served request together.  Spans stay in memory and are written once,
when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """In-memory span list with a parent stack for nested ``with`` use."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self._stack: list[int] = []

    @property
    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        request: int | None = None,
    ) -> int:
        """Record one finished span; returns its id."""
        span_id = len(self.spans)
        self.spans.append((span_id, name, start, end, parent, request))
        return span_id

    @contextmanager
    def span(self, name: str, request: int | None = None):
        """Time the body as a child of the enclosing ``span`` block."""
        span_id = len(self.spans)
        self.spans.append((span_id, name, 0.0, 0.0, self.current, request))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._stack.pop()
            _, _, _, _, parent, _ = self.spans[span_id]
            self.spans[span_id] = (span_id, name, start, end, parent, request)

    def durations(self, name: str) -> list[float]:
        """Seconds of every span called ``name``, in recording order."""
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def unresolved_parents(self) -> int:
        """Spans whose parent id names no recorded span (must be 0)."""
        known = len(self.spans)
        return sum(
            1 for *_, parent, _ in self.spans
            if parent is not None and not (0 <= parent < known)
        )

    def write(self, path: Path) -> None:
        fields = ("id", "name", "start", "end", "parent", "request")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"fields": fields, "spans": self.spans}, separators=(",", ":")
        ))
