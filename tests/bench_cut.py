"""Time the cut machinery on the certify workloads' construction walks.

    PYTHONPATH=src python tests/bench_cut.py > cut.json

Runs outside pytest, seeded, with no network.  The suite is the certify
workloads' instances: uniform_random and nested_grid at n = 3..10 (seeds
0-3) and n = 14..16 (seeds 0-2), and windmill at n = 3..10 and 14..16;
each maximal set is made once (exact_mis, maximal_extension) and then
partitioned under six, three and two_eps (eps 1/2) with check=True, as
``misr certify`` partitions it.  The suite runs five times.

Four functions of ``misr.partition`` are timed: ``_split_walks`` (a
construction's walks merged and split), ``_finalize`` (a split's repair,
checks and assignment of rects to parts), ``line_partition_cut`` (six's
cut) and ``is_horizontally_convex`` (six's entry and part checks).  Each
is wrapped by a timer that counts and times its outermost calls only, so
a mirrored line cut, which calls itself, counts once.  The output is one
JSON object: per regime and function, the calls of one pass and the
median over the five passes of the microseconds per call.
"""

from __future__ import annotations

import gc
import json
import platform
import statistics
import sys
import time
from fractions import Fraction

from misr import partition
from misr.instance import exact_mis, generate
from misr.structure import maximal_extension

TIMED = ("_split_walks", "_finalize", "line_partition_cut", "is_horizontally_convex")
REGIMES = (("six", None), ("three", None), ("two_eps", Fraction(1, 2)))
PASSES = 5


def suite() -> list[tuple[str, int, int]]:
    specs = [
        (family, n, seed)
        for family in ("uniform_random", "nested_grid")
        for ns, seeds in ((range(3, 11), range(4)), (range(14, 17), range(3)))
        for n in ns
        for seed in seeds
    ]
    specs += [("windmill", n, 0) for n in (*range(3, 11), *range(14, 17))]
    return specs


class Timer:
    """Counts and times the outermost calls of one function; ``wrapper``
    is the function to install, which binds as a method where the
    original does."""

    def __init__(self, fn):
        self.fn = fn
        self.depth = 0
        self.calls = 0
        self.seconds = 0.0

        def wrapper(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            self.depth = 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0
                self.calls += 1
                self.depth = 0

        self.wrapper = wrapper


def one_pass(sets: list) -> dict:
    """Every (maximal set, regime) partitioned once under fresh timers:
    per regime and timed function, (calls, seconds)."""
    out = {}
    real = {name: getattr(partition, name) for name in TIMED}
    try:
        for regime, eps in REGIMES:
            timers = {name: Timer(fn) for name, fn in real.items()}
            for name, t in timers.items():
                setattr(partition, name, t.wrapper)
            for m in sets:
                partition.recursive_partition(m, regime, eps=eps)
            out[regime] = {name: (t.calls, t.seconds) for name, t in timers.items()}
    finally:
        for name, fn in real.items():
            setattr(partition, name, fn)
    return out


def main() -> None:
    sets = []
    for family, n, seed in suite():
        inst = generate(family, n, seed)
        sets.append(maximal_extension(exact_mis(inst), inst))
    passes = []
    for _ in range(PASSES):
        gc.collect()
        passes.append(one_pass(sets))
    result = {
        "suite": "uniform_random, nested_grid n=3..10 seeds 0-3 and n=14..16 seeds 0-2; "
        "windmill n=3..10, 14..16; six, three, two_eps (eps 1/2); check=True",
        "python": platform.python_version(),
        "passes": PASSES,
        "regimes": {},
    }
    for regime, _eps in REGIMES:
        row = {}
        for name in TIMED:
            calls = {p[regime][name][0] for p in passes}
            if len(calls) != 1:
                sys.exit(f"{regime} {name}: call counts differ between passes: {calls}")
            n = calls.pop()
            us = [1e6 * p[regime][name][1] / n for p in passes] if n else [0.0]
            row[name] = {"calls": n, "us_per_call": round(statistics.median(us), 2)}
        result["regimes"][regime] = row
    json.dump(result, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
