"""Time stage 0, the oracle and the maximal extension with their checks.

    PYTHONPATH=src python tests/bench_structure.py > structure.json

Runs outside pytest, seeded, with no network.  Four suites:

  * ``certify_small``: uniform_random and nested_grid at n = 3..10 (seeds
    0-3) and windmill at n = 3..10, the certify_small workload's families;
  * ``certify_cap``: uniform_random and nested_grid at n = 14..16 (seeds
    0-2) and windmill at n = 14..16, the certify_cap workload's families;
  * ``pinwheel10``, ``pinwheel18``: the 10 x 10 and 18 x 18 pinwheels
    without hubs (n = 400 and 1,296), every arm chosen.

Each instance goes through stage 0 as ``misr certify`` runs it:
``exact_mis`` (capped at n), ``maximal_extension`` of its answer and
``classify_nesting`` of the maximal set.  Six functions are timed, each
by a timer that counts and times its outermost calls:
``neighbour_masks``, ``exact_mis`` and ``validate_solution`` of
``misr.instance``, ``maximal_extension``, ``assert_maximal`` and
``classify_nesting`` of ``misr.structure``; a call made inside another
timed function counts for both (``exact_mis`` and ``maximal_extension``
call ``validate_solution``, ``maximal_extension`` calls
``assert_maximal``).  Each suite runs five times.  The output is one
JSON object: per suite and function, the calls of one pass and the
median over the five passes of the microseconds per call.
"""

from __future__ import annotations

import gc
import json
import platform
import statistics
import sys

from misr import instance, structure
from misr.instance import generate

from bench_cut import Timer

PASSES = 5
# (owners, name) of each timed function, in output order; a function one
# module imports from another is timed in both namespaces
TIMED = (
    ((instance,), "neighbour_masks"),
    ((instance,), "exact_mis"),
    ((instance, structure), "validate_solution"),
    ((structure,), "maximal_extension"),
    ((structure,), "assert_maximal"),
    ((structure,), "classify_nesting"),
)


def suites() -> dict[str, list[tuple[str, int, int]]]:
    def families(ns, seeds):
        specs = [(f, n, s) for f in ("uniform_random", "nested_grid") for n in ns for s in seeds]
        return specs + [("windmill", n, 0) for n in ns]

    return {
        "certify_small": families(range(3, 11), range(4)),
        "certify_cap": families(range(14, 17), range(3)),
        "pinwheel10": [("pinwheel", 400, 0)],
        "pinwheel18": [("pinwheel", 1296, 0)],
    }


def one_pass(insts: list) -> dict:
    """Stage 0 once on every instance under fresh timers: per timed
    function, (calls, seconds)."""
    timers = {name: Timer(getattr(owners[0], name)) for owners, name in TIMED}
    try:
        for owners, name in TIMED:
            for owner in owners:
                setattr(owner, name, timers[name].wrapper)
        for inst in insts:
            m = structure.maximal_extension(instance.exact_mis(inst, cap=inst.n), inst)
            structure.classify_nesting(m)
    finally:
        for owners, name in TIMED:
            for owner in owners:
                setattr(owner, name, timers[name].fn)
    return {name: (t.calls, t.seconds) for name, t in timers.items()}


def main() -> None:
    result = {
        "suites": "certify_small: uniform_random, nested_grid n=3..10 seeds 0-3, windmill "
        "n=3..10; certify_cap: uniform_random, nested_grid n=14..16 seeds 0-2, windmill "
        "n=14..16; pinwheel10, pinwheel18: pinwheel n=400 and 1296, seed 0 (no hubs)",
        "python": platform.python_version(),
        "passes": PASSES,
        "suite": {},
    }
    for suite, specs in suites().items():
        insts = [generate(family, n, seed) for family, n, seed in specs]
        passes = []
        for _ in range(PASSES):
            gc.collect()
            passes.append(one_pass(insts))
        row = {}
        for _owners, name in TIMED:
            calls = {p[name][0] for p in passes}
            if len(calls) != 1:
                sys.exit(f"{suite} {name}: call counts differ between passes: {calls}")
            n = calls.pop()
            us = [1e6 * p[name][1] / n for p in passes] if n else [0.0]
            row[name] = {"calls": n, "us_per_call": round(statistics.median(us), 2)}
        result["suite"][suite] = row
    json.dump(result, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
