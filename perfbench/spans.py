"""In-memory spans for the traced run.

A span records one call into eppsim (or one benchmark step around such
calls): its name, the layer it is charged to, start and end, the span
that was open when it began, and the pass it belongs to. Spans are kept in
a list and written out once the run is over.
"""

import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    id: int
    name: str
    layer: str | None  # None for benchmark structure (pass, figure)
    parent: int | None
    pass_id: int
    start: float
    end: float = 0.0
    error: type | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "layer": self.layer,
            "parent": self.parent,
            "pass": self.pass_id,
            "start": self.start,
            "end": self.end,
            "error": self.error.__name__ if self.error else None,
            **self.attrs,
        }


class _Open:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer, span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.tracer._stack.append(self.span.id)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.end = time.perf_counter()
        self.span.error = exc_type
        self.tracer._stack.pop()
        return False


class Tracer:
    """Collects nested spans of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []

    def span(self, name: str, layer: str | None = None, **attrs) -> _Open:
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, layer, parent, self.pass_id, 0.0, attrs=attrs)
        self.spans.append(rec)
        return _Open(self, rec)

    def call(self, name: str, layer: str, fn, *args, count=None, **attrs):
        """fn(*args) inside a span; count(result) is stored as the span's n."""
        with self.span(name, layer, **attrs) as rec:
            out = fn(*args)
        if count is not None:
            rec.attrs["n"] = count(out)
        return out


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out
