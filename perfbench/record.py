"""Record the result of every op the workloads can make into expected.json.

    python3 perfbench/record.py

Run it only at a commit whose outputs are known good: the DP results
recorded here become the values later runs must reproduce, and the
artifact digests the baseline for `cli.outputs_changed`.  Every op of
every workload is run, and every op must pass the correctness gate
before anything is written; the file is then written afresh.  Each op's
wall time goes to stderr.
"""

from __future__ import annotations

import json
import sys
import time

from gate import Outcome, failures, max_independent_size
from run import EXPECTED
from workload import WORKLOADS, fresh_start, load_misr


def main() -> int:
    cli = load_misr()
    ops: dict = {}
    bad = 0
    for name in sorted(WORKLOADS):
        for op in WORKLOADS[name].universe():
            inst = cli.generate(*op.instance_key)
            fresh_start()
            t0 = time.perf_counter()
            out = Outcome.of(op.run(cli, inst))
            ms = (time.perf_counter() - t0) * 1e3
            print(f"{name} {op.key} {ms:.3f}", file=sys.stderr)
            entry = {"digest": out.digest}
            if op.algo == "dp":
                entry.update(size=out.size, chosen=list(out.chosen))
            why = failures(op, inst.rects, out, max_independent_size(inst.rects), entry)
            if why:
                bad += 1
                print(f"FAILED {op.key}: {'; '.join(why)}", file=sys.stderr)
            ops[op.key] = entry
    if bad:
        print(f"{bad} ops failed the gate; nothing written", file=sys.stderr)
        return 1
    write_expected(ops)
    return 0


def write_expected(ops: dict) -> None:
    """One op per line, so a re-recording diffs op by op."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(ops.items())]
    EXPECTED.write_text('{"ops": {\n' + ",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    sys.exit(main())
