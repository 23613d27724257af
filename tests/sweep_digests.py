"""Digest every run of the identity sweep, one line per run.

    PYTHONPATH=src python tests/sweep_digests.py [partition|dp] > digests.txt

A refactor that must not change any output runs this on both checkouts
and diffs the two files.  Without an argument both sections run, the
partitions first.

The partition section: uniform_random and nested_grid at n = 3..16 with
seeds 0-2, windmill at n = 3..16, and packed at n in {12, 16, 24, 32}
with seeds 0-14; each under six, three and two_eps at eps 1 and 1/2,
with the exact oracle capped at n.  A line holds the spec, the regime
and either the first 16 hex digits of the sha256 of the sorted-key JSON
of [run_to_json, ledger_to_json, validate_partition, verify_ratios], or
the type and message of the error the run raised.

The DP section: the runs whose counts tests/test_dp_kernel.py pins
(KERNEL_RUNS); k = 4 on uniform_random and nested_grid at n = 5..12 with
seeds 0-2; k = 6 with two-segment path and tree cuts on both families at
n = 3 and on uniform_random at n = 4, with seeds 0-2 (nested_grid at
n = 4 takes 7-19 s a run, more than the rest of the section together);
and windmill n = 5 at k = 4 with walk budgets 1 and 3.  A line holds the
run and dp_solve's (size, chosen, cells, cuts tried).

The file name keeps it out of pytest's collection.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction

from misr.charging import (
    charge_six,
    charge_three,
    charge_two_eps,
    ledger_to_json,
    verify_ratios,
)
from misr.dp_solver import DpStats, dp_solve
from misr.geom_core import Rect
from misr.instance import exact_mis, generate, preprocess
from misr.partition import recursive_partition, run_to_json, validate_partition
from misr.structure import maximal_extension

REGIMES = (
    ("six", None),
    ("three", None),
    ("two_eps", Fraction(1)),
    ("two_eps", Fraction(1, 2)),
)


FAMILIES = ("uniform_random", "nested_grid")


def specs() -> list[tuple[str, int, int]]:
    out = [
        (family, n, seed)
        for family in FAMILIES
        for n in range(3, 17)
        for seed in range(3)
    ]
    out += [("windmill", n, 0) for n in range(3, 17)]
    out += [("packed", n, seed) for n in (12, 16, 24, 32) for seed in range(15)]
    return out


def digest(m, opt: int, regime: str, eps) -> str:
    run = recursive_partition(m, regime, eps=eps)
    if regime == "six":
        ledger, forest = charge_six(run), None
    elif regime == "three":
        ledger, forest = charge_three(run), None
    else:
        ledger, forest = charge_two_eps(run, eps)
    doc = [
        run_to_json(run),
        ledger_to_json(ledger),
        validate_partition(run),
        verify_ratios(run, ledger, opt, forest),
    ]
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def partition_section() -> None:
    for family, n, seed in specs():
        inst = generate(family, n, seed)
        opt = exact_mis(inst, cap=inst.n)
        m = maximal_extension(opt, inst)
        for regime, eps in REGIMES:
            name = regime if eps is None else f"{regime}@{eps}"
            try:
                result = digest(m, opt.size, regime, eps)
            except Exception as exc:  # every outcome is part of the digest
                result = f"{type(exc).__name__}: {exc}"
            print(f"{family} {n} {seed} {name} {result}")


# (instance, k, cut budget, shapes) of the DP runs whose counts
# tests/test_dp_kernel.py pins; kept here so that this script imports
# nothing but the library, and runs against an older checkout's src.
T_SHAPE = preprocess([Rect(0, 0, 2, 4), Rect(2, 0, 4, 2), Rect(2, 2, 4, 4)])
KERNEL_RUNS = [
    (generate("uniform_random", 6, 0), 4, 1, ("path", "tree")),
    (generate("nested_grid", 6, 1), 4, 1, ("path", "tree")),
    (generate("windmill", 5, 0), 4, 3, ("path", "tree")),
    (generate("uniform_random", 5, 2), 4, 3, ("path", "tree")),
    (generate("nested_grid", 3, 0), 6, 2, ("path",)),
    (generate("nested_grid", 3, 1), 6, 2, ("path",)),
    (T_SHAPE, 6, 2, ("path", "tree")),
    (generate("uniform_random", 3, 2), 6, 2, ("path", "tree")),
]


def dp_runs() -> list:
    """(name, instance, k, cut budget, shapes) of the DP section."""
    both = ("path", "tree")
    out = [(f"RUNS[{i}]", *run) for i, run in enumerate(KERNEL_RUNS)]
    specs = [(4, 1, family, n) for family in FAMILIES for n in range(5, 13)]
    specs += [(6, 2, family, 3) for family in FAMILIES] + [(6, 2, "uniform_random", 4)]
    for k, b, family, n in specs:
        for seed in range(3):
            out.append((f"{family} {n} {seed}", generate(family, n, seed), k, b, both))
    for b in (1, 3):
        out.append(("windmill 5 0", generate("windmill", 5, 0), 4, b, both))
    return out


def dp_section() -> None:
    for name, inst, k, b, shapes in dp_runs():
        stats = DpStats()
        sol = dp_solve(inst, k, b, shapes, stats=stats)
        print(
            f"dp {name} k={k} b={b} {'+'.join(shapes)} "
            f"{sol.size} {list(sol.chosen)} {stats.cells} {stats.cuts_tried}"
        )


def main(argv: list[str]) -> int:
    sections = {"partition": partition_section, "dp": dp_section}
    for name in argv or list(sections):
        sections[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
