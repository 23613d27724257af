"""Worker for the traced run: times `recursive_partition(..., check=False)`
on the maximal sets of the certify ops it reads as JSON on stdin, and
prints {regime: [total_ns, calls]} as its last stdout line, with the
times at reference speed (see speed.py).

It runs in its own process so that no fence-engine table built by the
checked runs is reused here.
"""

from __future__ import annotations

import json
import sys
import time

from speed import Pacer
from workload import TWO_EPS, Op, fresh_start, load_misr


def main() -> int:
    cli = load_misr()
    from misr.partition import recursive_partition

    totals: dict[str, list[float]] = {}
    pacer = Pacer()
    for doc in json.load(sys.stdin):
        op = Op.from_json(doc)
        inst = cli.generate(*op.instance_key)
        m = cli.maximal_extension(cli.exact_mis(inst), inst)
        eps = TWO_EPS if op.algo == "two_eps" else None
        fresh_start()
        t0 = time.perf_counter_ns()
        recursive_partition(m, op.algo, eps=eps, check=False)
        dt = pacer.scale(time.perf_counter_ns() - t0)
        tot = totals.setdefault(op.algo, [0, 0])
        tot[0] += dt
        tot[1] += 1
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
