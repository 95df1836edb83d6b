"""In-memory spans recorded around the benchmark's calls into each layer.

A span is one public call into a layer of ``repro`` (``problems``,
``runtime``, ``verify``, ``fuzz``, ``farm``) or a stretch of the
benchmark's own code (``bench``).  Spans nest: the span open when
another starts is its parent.  Spans of one operation (one verify
instance, one walk, one fuzz target, one farm) share an operation id.
Nothing is written until :meth:`Tracer.dump` runs at the end of the
benchmark, so recording a span costs two clock reads and one list
append.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: str
    layer: str
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """The tracer of untraced runs: every span is a no-op."""

    def span(self, layer: str, name: str, op: str):
        return nullcontext()


class Tracer:
    """Records one :class:`Span` per ``with tracer.span(...)`` block."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, layer: str, name: str, op: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(len(self.spans), parent, op, layer, name, time.perf_counter(), 0.0)
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def total(self, layer: str, name: Optional[str] = None, op_prefix: str = "") -> float:
        """Summed duration of the spans of ``layer`` (and ``name``) whose
        operation id starts with ``op_prefix``."""
        return sum(
            span.seconds
            for span in self.spans
            if span.layer == layer
            and (name is None or span.name == name)
            and span.op.startswith(op_prefix)
        )

    def self_seconds(self, within: Span) -> Dict[str, float]:
        """Self time per layer over ``within`` and its descendants: each
        span's duration minus the part its child spans cover."""
        inside = {within.id}
        for span in self.spans[within.id + 1:]:
            if span.parent in inside:
                inside.add(span.id)
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span.id in inside:
                totals[span.layer] = totals.get(span.layer, 0.0) + span.seconds
                if span.parent in inside:
                    parent = self.spans[span.parent]
                    totals[parent.layer] = totals.get(parent.layer, 0.0) - span.seconds
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(span) for span in self.spans]) + "\n")
