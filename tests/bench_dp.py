"""Time the polygon DP on the identity sweep's DP runs.

    PYTHONPATH=src python tests/bench_dp.py > dp.json

Runs outside pytest, seeded, with no network.  The suite is the DP
section of tests/sweep_digests.py (``dp_runs``): 70 runs at k = 4 and
k = 6, each an instance, k, walk budget and cut shapes.  The suite runs
five times.

Each run is one ``dp_solve`` call with a fresh ``DpStats``.  The output
is one JSON object: per run, its cells and cuts tried (the same in every
pass) and the median over the five passes of the microseconds per cell,
the call's wall time over its cells; then the same for the whole suite,
its wall time over its cells.
"""

from __future__ import annotations

import gc
import json
import platform
import statistics
import sys
import time

from misr.dp_solver import DpStats, dp_solve
from sweep_digests import dp_runs

PASSES = 5


def one_pass(runs: list) -> list[tuple[int, int, float]]:
    """(cells, cuts tried, seconds) of each run, solved once."""
    out = []
    for _name, inst, k, b, shapes in runs:
        stats = DpStats()
        t0 = time.perf_counter()
        dp_solve(inst, k, b, shapes, stats=stats)
        out.append((stats.cells, stats.cuts_tried, time.perf_counter() - t0))
    return out


def main() -> None:
    runs = dp_runs()
    passes = []
    for _ in range(PASSES):
        gc.collect()
        passes.append(one_pass(runs))
    rows = []
    for i, (name, _inst, k, b, shapes) in enumerate(runs):
        counts = {p[i][:2] for p in passes}
        if len(counts) != 1:
            sys.exit(f"{name} k={k} b={b}: counts differ between passes: {counts}")
        cells, cuts = counts.pop()
        us = statistics.median(1e6 * p[i][2] / cells for p in passes)
        rows.append(
            {
                "run": f"{name} k={k} b={b} {'+'.join(shapes)}",
                "cells": cells,
                "cuts_tried": cuts,
                "us_per_cell": round(us, 2),
            }
        )
    cells = sum(r["cells"] for r in rows)
    seconds = statistics.median(sum(s for _c, _t, s in p) for p in passes)
    result = {
        "suite": "tests/sweep_digests.py dp_runs(): 70 DP runs at k = 4 and 6",
        "python": platform.python_version(),
        "passes": PASSES,
        "total": {
            "cells": cells,
            "cuts_tried": sum(r["cuts_tried"] for r in rows),
            "ms": round(1e3 * seconds, 1),
            "us_per_cell": round(1e6 * seconds / cells, 2),
        },
        "runs": rows,
    }
    json.dump(result, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
