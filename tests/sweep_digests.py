"""Digest every run of the identity sweep, one line per run.

    PYTHONPATH=src python tests/sweep_digests.py > digests.txt

A refactor that must not change any output runs this on both checkouts
and diffs the two files.  The corpus: uniform_random and nested_grid at
n = 3..16 with seeds 0-2, windmill at n = 3..16, and packed at
n in {12, 16, 24, 32} with seeds 0-14; each under six, three and two_eps
at eps 1 and 1/2, with the exact oracle capped at n.  A line holds the
spec, the regime and either the first 16 hex digits of the sha256 of the
sorted-key JSON of [run_to_json, ledger_to_json, validate_partition,
verify_ratios], or the type and message of the error the run raised.

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
from misr.instance import exact_mis, generate
from misr.partition import recursive_partition, run_to_json, validate_partition
from misr.structure import maximal_extension

REGIMES = (
    ("six", None),
    ("three", None),
    ("two_eps", Fraction(1)),
    ("two_eps", Fraction(1, 2)),
)


def specs() -> list[tuple[str, int, int]]:
    out = [
        (family, n, seed)
        for family in ("uniform_random", "nested_grid")
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


def main() -> int:
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
