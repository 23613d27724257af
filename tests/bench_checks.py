"""Time the certification checks on the certify workloads' instances.

    PYTHONPATH=src python tests/bench_checks.py > checks.json

Runs outside pytest, seeded, with no network.  The suite is bench_cut's:
uniform_random and nested_grid at n = 3..10 (seeds 0-3) and n = 14..16
(seeds 0-2), and windmill at n = 3..10 and 14..16; each maximal set is
made once (exact_mis, maximal_extension).  The suite runs five times.

Four functions are timed, each by a timer that counts and times its
outermost calls only:

  * ``LineFences._holds`` (a witness re-check) and
    ``RectPolygon.contains_walk`` (walk containment, most of it asked by
    ``_holds``), as ``recursive_partition`` calls them when it partitions
    every maximal set under six, three and two_eps (eps 1/2) with
    check=True, as ``misr certify`` does;
  * ``validate_partition``, on each of those runs, made once;
  * ``assert_maximal``, on each maximal set.

Beside them, ``recursive_partition(m, "three")`` with check=True on
packed n = 120, seed 0 (the exact oracle capped at n) is timed once a
pass.  The output is one JSON object: per function, the calls of one
pass and the median over the five passes of the microseconds per call,
and the median seconds of the packed partition.
"""

from __future__ import annotations

import gc
import json
import platform
import statistics
import sys
import time
from fractions import Fraction

from misr import partition, structure
from misr.geom_core import RectPolygon
from misr.instance import exact_mis, generate
from misr.partition import recursive_partition
from misr.structure import LineFences, maximal_extension

from bench_cut import Timer, suite

REGIMES = (("six", None), ("three", None), ("two_eps", Fraction(1, 2)))
PASSES = 5
# (owner, attribute) of each timed function, in output order
TIMED = (
    ("_holds", LineFences),
    ("contains_walk", RectPolygon),
    ("validate_partition", partition),
    ("assert_maximal", structure),
)


def one_pass(sets: list, runs: list, packed) -> dict:
    """Every check timed once over the suite under fresh timers: per
    timed function (calls, seconds), and the packed partition's seconds."""
    timers = {name: Timer(getattr(owner, name)) for name, owner in TIMED}
    try:
        for name, owner in TIMED:
            setattr(owner, name, timers[name].wrapper)
        for m in sets:
            for regime, eps in REGIMES:
                recursive_partition(m, regime, eps=eps)
        for run in runs:
            partition.validate_partition(run)
        for m in sets:
            structure.assert_maximal(m)
    finally:
        for name, owner in TIMED:
            setattr(owner, name, timers[name].fn)
    t0 = time.perf_counter()
    recursive_partition(packed, "three")
    packed_s = time.perf_counter() - t0
    return {name: (t.calls, t.seconds) for name, t in timers.items()} | {"packed": packed_s}


def main() -> None:
    sets = []
    for family, n, seed in suite():
        inst = generate(family, n, seed)
        sets.append(maximal_extension(exact_mis(inst), inst))
    runs = [recursive_partition(m, regime, eps=eps) for m in sets for regime, eps in REGIMES]
    inst = generate("packed", 120, 0)
    packed = maximal_extension(exact_mis(inst, cap=inst.n), inst)
    passes = []
    for _ in range(PASSES):
        gc.collect()
        passes.append(one_pass(sets, runs, packed))
    result = {
        "suite": "uniform_random, nested_grid n=3..10 seeds 0-3 and n=14..16 seeds 0-2; "
        "windmill n=3..10, 14..16; six, three, two_eps (eps 1/2); check=True",
        "python": platform.python_version(),
        "passes": PASSES,
        "functions": {},
    }
    for name, _owner in TIMED:
        calls = {p[name][0] for p in passes}
        if len(calls) != 1:
            sys.exit(f"{name}: call counts differ between passes: {calls}")
        n = calls.pop()
        us = [1e6 * p[name][1] / n for p in passes] if n else [0.0]
        result["functions"][name] = {"calls": n, "us_per_call": round(statistics.median(us), 2)}
    result["three_packed120_s0_s"] = round(statistics.median(p["packed"] for p in passes), 3)
    json.dump(result, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
