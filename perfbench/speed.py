"""Host-speed correction for measured times.

On a shared host the CPU itself runs faster or slower from one second to
the next (another tenant on the sibling hyperthread, shared caches), and
process CPU time drifts with wall time, so neither repeating an op nor
timing its CPU alone removes the drift.  What does: timing a fixed piece
of pure-Python work, independent of `misr`, right before and right after
each measured interval, and scaling the interval by how fast that work
ran.  A time reported at reference speed is the time the interval would
have taken on a host where `reference()` takes exactly REFERENCE_NS.

A change to `misr` cannot move the reference, so a slower `misr` still
reads slower; only the host's drift cancels.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# About what `reference()` takes on a busy shared 2 GHz vCPU.
REFERENCE_NS = 5_000_000


def reference() -> int:
    """Fixed work of the kinds `misr` spends its time on: integer loops,
    Fraction arithmetic, sorting tuples, dict and set traffic."""
    s = 0
    for i in range(20_000):
        s += i * i % 7
    pts = [(Fraction(1 + i * 37 % 59, 1 + i % 8), i * 53 % 100) for i in range(150)]
    pts.sort()
    groups: dict[int, list[Fraction]] = {}
    for a, b in pts:
        groups.setdefault(b % 17, []).append(a)
    total = Fraction(0)
    for k, v in groups.items():
        total += sum(v) / (k + 1)
    seen = set()
    for _a, b in pts:
        for _c, e in pts[:20]:
            seen.add((b + e) % 97)
    return s + len(seen) + total.denominator


def reference_ns() -> int:
    """Wall time of one `reference()` call, with the collector off (the
    work makes no cycles, so a collection would only add noise)."""
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        reference()
        return time.perf_counter_ns() - t0
    finally:
        gc.enable()


class Pacer:
    """Scales a chain of measured intervals to reference speed.  Call
    `scale` right after each interval: it times the reference once, and
    that time also serves as the "before" of the next interval."""

    def __init__(self) -> None:
        self.last = reference_ns()
        self.samples = [self.last]

    def scale(self, ns: float) -> float:
        after = reference_ns()
        self.samples.append(after)
        factor = 2 * REFERENCE_NS / (self.last + after)
        self.last = after
        return ns * factor

    def at_reference(self, wall: float) -> float:
        """A stretch of wall time at reference speed, on the median of the
        reference times so far."""
        return wall * REFERENCE_NS / statistics.median(self.samples)
