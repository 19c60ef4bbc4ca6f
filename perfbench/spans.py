"""In-memory spans for the traced run.

Spans are recorded from the benchmark's side of each layer boundary: the
benchmark wraps the public functions that unimat's modules call on each
other (cli -> normal_forms -> matrix, cli -> density -> zeta, ...) for the
length of each traced request, and restores the originals afterwards. The
program itself is not edited and untraced runs never see a wrapper.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Any, Callable, Iterator

# counter(counts, args, kwargs, result) adds work counts for one call
CountFn = Callable[[Counter, tuple, dict, Any], None]


@dataclass(slots=True)
class Span:
    name: str
    case: str
    parent: int | None
    request: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans (name, case, start, end, parent, request id) and work counts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.request: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, case: str = "") -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        s = Span(name, case, parent, self.request, perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def timed(self, name: str, case: str, fn: Callable, *args) -> tuple[Any, float]:
        """Call fn(*args) inside a span; return its result and duration."""
        with self.span(name, case) as s:
            result = fn(*args)
        return result, s.seconds

    def wrap(self, name: str, fn: Callable, count: CountFn | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self, targets: list[tuple[Any, str, str, CountFn | None]]) -> Iterator[None]:
        """Replace module attributes by traced wrappers for the block's length.

        targets: (module, attribute, span name, work counter or None).
        """
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
        try:
            for (mod, attr, name, count), (_, _, fn) in zip(targets, saved):
                setattr(mod, attr, self.wrap(name, fn, count))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def write(self, path, meta: dict) -> None:
        """Write every span, with its self time, as one JSON document."""
        rows = []
        for i, (s, own) in enumerate(zip(self.spans, self.self_seconds())):
            rows.append({"id": i, **asdict(s), "self": own})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "counts": dict(self.counts), "spans": rows}, fh)
            fh.write("\n")
