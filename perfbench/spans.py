"""In-memory spans around the calls `run_pipeline` makes into each layer.

The spans are placed from outside the library: for a traced op, the layer
functions `misr.cli` imported are swapped for wrappers that open a span,
and swapped back afterwards.  `geom_core` has no entry point on these
paths, so its cost falls inside the partition and dp_solver spans.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: Optional[int]  # index into the tracer's span list
    op: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(name, time.perf_counter_ns(), 0, parent, self.op)
        self._open.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter_ns()
            self._open.pop()


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


# misr.cli name -> span name; recursive_partition is named per regime.
LAYER_SPANS = {
    "exact_mis": "instance.exact_mis",
    "maximal_extension": "structure.maximal_extension",
    "classify_nesting": "structure.classify",
    "classify_nice": "structure.classify",
    "recursive_partition": None,
    "validate_partition": "partition.validate",
    "charge_six": "charging.charge",
    "charge_three": "charging.charge",
    "charge_two_eps": "charging.charge",
    "verify_ratios": "charging.verify",
    "dp_solve": "dp_solver.dp_solve",
}


def _wrap(tracer: Tracer, attr: str, fn, stats_cls):
    name = LAYER_SPANS[attr]

    if attr == "recursive_partition":
        def wrapper(m, regime, *a, **kw):
            with tracer.span(f"partition.{regime}"):
                return fn(m, regime, *a, **kw)
    elif attr == "dp_solve":
        def wrapper(*a, **kw):
            stats = stats_cls()
            with tracer.span(name):
                sol = fn(*a, stats=stats, **kw)
            tracer.counts["dp_solver.cells"] += stats.cells
            tracer.counts["dp_solver.cuts_tried"] += stats.cuts_tried
            return sol
    else:
        def wrapper(*a, **kw):
            with tracer.span(name):
                return fn(*a, **kw)
    return wrapper


@contextmanager
def traced_layers(cli, tracer: Tracer):
    """Swap the layer functions `cli` calls for span-opening wrappers."""
    from misr.dp_solver import DpStats

    saved = {attr: getattr(cli, attr) for attr in LAYER_SPANS}
    try:
        for attr, fn in saved.items():
            setattr(cli, attr, _wrap(tracer, attr, fn, DpStats))
        yield tracer
    finally:
        for attr, fn in saved.items():
            setattr(cli, attr, fn)
