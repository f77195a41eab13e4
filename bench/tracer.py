"""In-memory spans around calls into iwnet's layers.

Spans are recorded from the benchmark's side: ``patched`` swaps a
module attribute for a timing wrapper, so a span covers exactly the call
the caller made through that name (for example ``iwnet.louvain.aggregate_sum``,
the name the Louvain driver looks up), and puts the original back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index of the enclosing span

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)
    returned: dict[str, Any] = field(default_factory=dict)  # last result per span name
    _open: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if any(self.spans[i].name == name for i in self._open):
                # a recursive call (read_flow_csv opens its path and calls
                # itself) belongs to the span already open
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(
                Span(name, time.perf_counter(), parent=self._open[-1] if self._open else None)
            )
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx].end = time.perf_counter()
                self._open.pop()
            self.calls[name] += 1
            self.returned[name] = result
            return result

        return traced

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Time in ``name`` spans not covered by their child spans."""
        own = {i for i, s in enumerate(self.spans) if s.name == name}
        child = sum(s.seconds for s in self.spans if s.parent in own)
        return self.total(name) - child

    def as_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]


@contextlib.contextmanager
def patched(tracer: Tracer, targets: list[tuple[Any, str, str]]) -> Iterator[None]:
    """Wrap ``module.attr`` in a span named ``span`` for each target."""
    saved = []
    try:
        for module, attr, span in targets:
            if not hasattr(module, attr):
                # the layer was renamed or folded away; its span reads zero
                print(f"note: {module.__name__}.{attr} not found, not traced", file=sys.stderr)
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
