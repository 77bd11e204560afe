"""In-memory span recorder for the pipeline benchmark.

A span is one timed call into a layer: its name, the request it belongs
to, the span that caused it, and its start and end (``perf_counter``
seconds).  Spans are kept in memory and written out once, when the run
ends.  A disabled recorder hands out one shared no-op context, so the
untraced runs that give the end-to-end numbers pay one attribute test per
layer boundary.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext
from typing import Dict, List, Optional

_NULL = nullcontext()


class _Span:
    """Context manager recording one span into its :class:`Tracer`."""

    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        tracer = self._tracer
        self._index = len(tracer.spans)
        parent = tracer._stack[-1] if tracer._stack else None
        tracer.spans.append([tracer.request, parent, self._name, time.perf_counter(), 0.0])
        tracer._stack.append(self._index)

    def __exit__(self, *exc_info) -> None:
        tracer = self._tracer
        tracer.spans[self._index][4] = time.perf_counter()
        tracer._stack.pop()


class Tracer:
    """Collects spans ``[request, parent, name, start, end]`` in memory."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        #: Identifier stamped on the spans recorded from now on.
        self.request: Optional[int] = None
        self._stack: List[int] = []

    def span(self, name: str):
        """A context manager timing one call into layer *name*."""
        if not self.enabled:
            return _NULL
        return _Span(self, name)

    def self_times(self, request: int) -> Dict[str, float]:
        """Seconds of self time per layer in one request.

        A span's self time is its duration minus the time its child spans
        cover; a layer called several times in the request sums its spans.
        """
        times: Dict[str, float] = defaultdict(float)
        for owner, parent, name, start, end in self.spans:
            if owner != request:
                continue
            times[name] += end - start
            if parent is not None:
                times[self.spans[parent][2]] -= end - start
        return dict(times)

    def write(self, path: str) -> None:
        """Write every recorded span as JSON (one object per span)."""
        rows = [
            {"id": index, "request": request, "parent": parent, "name": name,
             "start": start, "end": end}
            for index, (request, parent, name, start, end) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)
