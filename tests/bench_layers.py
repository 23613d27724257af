"""Time one layer of the library on its seeded suite.

    PYTHONPATH=src python tests/bench_layers.py LAYER > LAYER.json

Runs outside pytest, seeded, with no network.  certify_small is
uniform_random and nested_grid at n = 3..10 (seeds 0-3) and windmill at
n = 3..10, certify_cap the same at n = 14..16 (seeds 0-2): the certify
workloads' families.  A maximal set is an instance's exact_mis (capped
at n) grown by maximal_extension, made once.  The regimes are six, three
and two_eps (eps 1/2), with check=True.  Each LAYER is a list of groups:

  cut        per regime, every certify maximal set partitioned: "regimes";
  checks     every certify set partitioned under each regime, each such
             run (made once) validated and each set asserted maximal;
             then, untimed, three on packed n = 120, seed 0:
             "functions" and "three_packed120_s0_s";
  structure  stage 0 as ``misr certify`` runs it (exact_mis, its
             maximal_extension, classify_nesting) on certify_small,
             certify_cap and the pinwheels 10 x 10 and 18 x 18 (n = 400
             and 1,296, no hubs): "suite";
  dp         sweep_digests.py's 75 dp_runs, one dp_solve call each, as
             one group: per run its cells, cuts tried and microseconds per
             cell of the call's time, and the same for the whole suite:
             "total" and "runs";
  cases      three on the pinwheels where the paper's general cases run:
             6 x 6 and 7 x 7 at tau = 1 with check=True and 10 x 10 at
             tau = 2 unchecked: per run its case histogram, wall seconds
             (timers installed) and timed functions: "runs".

Each group runs once a pass, PASSES passes, after a garbage collection
and under fresh timers on the layer's functions (TIMED), each counting
and timing the outermost calls of its function only: a mirrored line
cut counts once, a call inside another timed function counts for both.
The output is one JSON object: per group and function, the calls of one
pass (which must agree between passes) and the median over the passes
of the microseconds per call.
"""

from __future__ import annotations

import gc
import json
import platform
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction

from misr import dp_solver, instance, partition, structure
from misr.dp_solver import DpStats
from misr.geom_core import RectPolygon
from misr.instance import exact_mis, generate
from misr.structure import FenceEngine, LineFences, maximal_extension
from sweep_digests import dp_runs

PASSES = 5
REGIMES = (("six", None), ("three", None), ("two_eps", Fraction(1, 2)))
CERTIFY_SMALL = (range(3, 11), range(4))
CERTIFY_CAP = (range(14, 17), range(3))
# (n, tau, check) of the cases layer's pinwheel runs, seed 0
CASES_RUNS = ((144, 1, True), (196, 1, True), (400, 2, False))
# per layer, the (owners, name) of each timed function, in output order;
# a function one module imports from another is timed in both namespaces
TIMED = {
    "cut": tuple(
        ((partition,), name)
        for name in ("_split_walks", "_finalize", "line_partition_cut", "is_horizontally_convex")
    ),
    "checks": (
        ((LineFences,), "_holds"),
        ((RectPolygon,), "contains_walk"),
        ((partition,), "validate_partition"),
        ((structure,), "assert_maximal"),
    ),
    "structure": (
        ((instance,), "neighbour_masks"),
        ((instance,), "exact_mis"),
        ((instance, structure), "validate_solution"),
        ((structure,), "maximal_extension"),
        ((structure,), "assert_maximal"),
        ((structure,), "classify_nesting"),
    ),
    "dp": (((dp_solver,), "dp_solve"),),
    "cases": (
        ((LineFences,), "tau_protected"),
        ((FenceEngine,), "_bfs"),
        ((partition,), "_general_case2"),
        ((partition,), "_check_visibility_guarantee"),
        ((partition,), "_finalize"),
    ),
}


def certify_specs(ns: range, seeds: range) -> list[tuple[str, int, int]]:
    specs = [(f, n, s) for f in ("uniform_random", "nested_grid") for n in ns for s in seeds]
    return specs + [("windmill", n, 0) for n in ns]


STRUCTURE_SUITES = {
    "certify_small": certify_specs(*CERTIFY_SMALL),
    "certify_cap": certify_specs(*CERTIFY_CAP),
    "pinwheel10": [("pinwheel", 400, 0)],
    "pinwheel18": [("pinwheel", 1296, 0)],
}


def maximal(family: str, n: int, seed: int):
    inst = generate(family, n, seed)
    return maximal_extension(exact_mis(inst, cap=inst.n), inst)


def certify_sets() -> list:
    specs = STRUCTURE_SUITES["certify_small"] + STRUCTURE_SUITES["certify_cap"]
    return [maximal(*spec) for spec in specs]


class Timer:
    """Times each outermost call of one function, in call order;
    ``wrapper`` is the function to install, which binds as a method
    where the original does."""

    def __init__(self, fn):
        self.fn = fn
        self.depth = 0
        self.seconds: list[float] = []

        def wrapper(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            self.depth = 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds.append(time.perf_counter() - t0)
                self.depth = 0

        self.wrapper = wrapper


def measure(groups: list) -> list[dict]:
    """Each (label, timed, body, args) group's body(*args) run once a pass
    for PASSES passes, after a garbage collection and under fresh timers
    on its timed (owners, name) pairs.  Per group: "functions", per timed
    name the calls of one pass and the median microseconds per call;
    "seconds", per pass and timed name the seconds of each call; "s", the
    body's wall seconds in each pass; "counts", what the body returns.
    Exits if the calls or the counts differ between passes."""
    passes = []
    for _ in range(PASSES):
        row = []
        for _label, timed, body, args in groups:
            gc.collect()
            timers = [Timer(getattr(owners[0], name)) for owners, name in timed]
            for (owners, name), t in zip(timed, timers):
                for owner in owners:
                    setattr(owner, name, t.wrapper)
            t0 = time.perf_counter()
            try:
                counts = body(*args)
            finally:
                wall = time.perf_counter() - t0
                for (owners, name), t in zip(timed, timers):
                    for owner in owners:
                        setattr(owner, name, t.fn)
            seconds = [t.seconds for t in timers]
            row.append(([len(s) for s in seconds], counts, seconds, wall))
        passes.append(row)
    out = []
    for g, (label, timed, _body, _args) in enumerate(groups):
        runs = [p[g] for p in passes]
        seen = [r[:2] for r in runs]
        if any(x != seen[0] for x in seen):
            sys.exit(f"{label}: call counts differ between passes: {seen}")
        calls, counts = seen[0]
        functions = {}
        for f, (_owners, name) in enumerate(timed):
            us = [1e6 * sum(r[2][f]) / calls[f] for r in runs] if calls[f] else [0.0]
            functions[name] = {"calls": calls[f], "us_per_call": round(statistics.median(us), 2)}
        seconds, walls = [r[2] for r in runs], [r[3] for r in runs]
        out.append({"functions": functions, "counts": counts, "seconds": seconds, "s": walls})
    return out


def partition_all(sets: list, regime: str, eps) -> None:
    for m in sets:
        partition.recursive_partition(m, regime, eps=eps)


def check_all(sets: list, runs: list) -> None:
    for m in sets:
        for regime, eps in REGIMES:
            partition.recursive_partition(m, regime, eps=eps)
    for run in runs:
        partition.validate_partition(run)
    for m in sets:
        structure.assert_maximal(m)


def stage_0(insts: list) -> None:
    for inst in insts:
        m = structure.maximal_extension(instance.exact_mis(inst, cap=inst.n), inst)
        structure.classify_nesting(m)


def solve_all(runs: list) -> list[tuple[int, int]]:
    counts = []
    for _name, inst, k, b, shapes in runs:
        stats = DpStats()
        dp_solver.dp_solve(inst, k, b, shapes, stats=stats)
        counts.append((stats.cells, stats.cuts_tried))
    return counts


def three_cases(m, tau: int, check: bool) -> dict[str, int]:
    run = partition.recursive_partition(m, "three", tau=tau, check=check)
    return dict(sorted(Counter(node.case for node in run.nodes if node.case).items()))


def run_cut() -> dict:
    sets = certify_sets()
    res = measure([(r, TIMED["cut"], partition_all, (sets, r, eps)) for r, eps in REGIMES])
    return {"regimes": {r: g["functions"] for (r, _eps), g in zip(REGIMES, res)}}


def run_checks() -> dict:
    sets = certify_sets()
    runs = [partition.recursive_partition(m, r, eps=eps) for m in sets for r, eps in REGIMES]
    packed = [maximal("packed", 120, 0)]
    checks, three = measure(
        [
            ("checks", TIMED["checks"], check_all, (sets, runs)),
            ("packed", (), partition_all, (packed, "three", None)),
        ]
    )
    s = statistics.median(three["s"])
    return {"functions": checks["functions"], "three_packed120_s0_s": round(s, 3)}


def run_structure() -> dict:
    groups = [
        (name, TIMED["structure"], stage_0, ([generate(*spec) for spec in specs],))
        for name, specs in STRUCTURE_SUITES.items()
    ]
    return {"suite": {g[0]: r["functions"] for g, r in zip(groups, measure(groups))}}


def run_dp() -> dict:
    runs = dp_runs()
    (res,) = measure([("dp", TIMED["dp"], solve_all, (runs,))])
    rows = []
    for i, ((name, _inst, k, b, shapes), (cells, cuts)) in enumerate(zip(runs, res["counts"])):
        us = statistics.median(1e6 * p[0][i] / cells for p in res["seconds"])
        run = f"{name} k={k} b={b} {'+'.join(shapes)}"
        rows.append({"run": run, "cells": cells, "cuts_tried": cuts, "us_per_cell": round(us, 2)})
    cells = sum(row["cells"] for row in rows)
    seconds = statistics.median(sum(p[0]) for p in res["seconds"])
    total = {"cells": cells, "cuts_tried": sum(row["cuts_tried"] for row in rows)}
    total |= {"ms": round(1e3 * seconds, 1), "us_per_cell": round(1e6 * seconds / cells, 2)}
    return {"total": total, "runs": rows}


def run_cases() -> dict:
    groups = [
        (f"pinwheel {n} 0 tau={tau} check={check}", TIMED["cases"], three_cases, args)
        for n, tau, check in CASES_RUNS
        for args in [(maximal("pinwheel", n, 0), tau, check)]
    ]
    runs = {}
    for (label, *_), r in zip(groups, measure(groups)):
        s = round(statistics.median(r["s"]), 3)
        runs[label] = {"cases": r["counts"], "s": s, "functions": r["functions"]}
    return {"runs": runs}


LAYERS = dict(cut=run_cut, checks=run_checks, structure=run_structure, dp=run_dp, cases=run_cases)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in LAYERS:
        print(f"usage: bench_layers.py {{{','.join(LAYERS)}}}", file=sys.stderr)
        return 2
    result = {"layer": argv[0], "python": platform.python_version(), "passes": PASSES}
    json.dump(result | LAYERS[argv[0]](), sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
