"""The misr benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, closed loop: each op (a `misr.cli.run_pipeline`
call, the path behind `misr certify` and `misr solve`) starts when the
previous one has returned.  With `--trace 0` ops are timed whole and the
end-to-end metrics are printed, at reference speed (see speed.py).  With
`--trace 1` every op runs twice, untimed by spans and then inside spans
around each call into a layer; the spans give the per-layer metrics and
their cost `trace.overhead_ratio`.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  See README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

from gate import Outcome, changed, failures, max_independent_size
from spans import Tracer, self_times, traced_layers
from speed import REFERENCE_NS, Pacer
from workload import REGIMES, WORKLOADS, fresh_start, load_misr

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 11
# A run stops early, on a round boundary, once it nears this many times
# --seconds of wall time, however slow the host.
WALL_CAP = 1.2
# Traced op time not covered by its spans: entering and leaving the op
# span.  Allowed per op on top of 1 % of the op time.
SPAN_SLACK_NS = 200_000

CASES = (
    "line", "guillotine", "line-degenerate", "general-0", "general-1a",
    "general-1b", "general-2a", "general-2a'", "general-2bi", "general-2bi'",
    "general-2biiA", "general-2biiB",
)


def case_metric(case: str) -> str:
    base = case.split("+")[0]
    name = base.replace("'", "_prime") if base in CASES else "other"
    return f"partition.case.{name}"


def tail_percentile(samples) -> tuple[int, float, int]:
    """(p, value, beyond): the highest whole percentile p <= 99, by nearest
    rank, with at least ten samples ranked above it; the median (p = 50)
    when fewer than twenty samples exist."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1], n - rank
    rank = max(1, math.ceil(n / 2))
    return 50, xs[rank - 1], n - rank


class Run(NamedTuple):
    """One timed execution of an op: wall ns, the same at reference speed,
    and what the gate needs."""

    ns: int
    scaled_ns: float
    outcome: Outcome


def _betai(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by its continued
    fraction (modified Lentz)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betai(b, a, 1.0 - x)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    ) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 10_000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-12:
            break
    return front * f


def hd_quantile(samples, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all
    order statistics, with Beta((n+1)q, (n+1)(1-q)) weights.  One noisy
    sample in the middle moves it far less than it moves the sample
    quantile."""
    xs = sorted(samples)
    n = len(xs)
    if n == 1:
        return float(xs[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [_betai(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def setup_child(workload) -> float:
    """Seconds from spawning a fresh `python3` to the point where it has
    imported misr and generated every instance the workload can use: the
    set-up this process did before its first op, timed from process start."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "from workload import WORKLOADS, load_misr\n"
        f"WORKLOADS[{workload.name!r}].instances(load_misr())\n"
        "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
    )
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    return float(proc.stdout.splitlines()[-1]) - t0


def timed(op, cli, inst, pacer, tracer=None) -> tuple[Run, dict]:
    """One op: (run, artifacts).  With a tracer, the op runs inside its
    `cli.run_pipeline` span, whose self time is the glue."""
    fresh_start()
    span = tracer.span("cli.run_pipeline") if tracer is not None else nullcontext()
    t0 = time.perf_counter_ns()
    try:
        with span:
            result = op.run(cli, inst)
    except Exception as exc:  # the run goes on; the op counts as failed
        dt = time.perf_counter_ns() - t0
        return Run(dt, pacer.scale(dt), Outcome(error=repr(exc))), {}
    dt = time.perf_counter_ns() - t0
    return Run(dt, pacer.scale(dt), Outcome.of(result)), result[2]


def coverage(artifacts: dict, counts: Counter) -> None:
    """Construction coverage of one certify op, from its artifacts."""
    part = artifacts.get("partition")
    if part is None:
        return
    counts["partition.ops"] += 1
    for node in part["nodes"]:
        counts["partition.nodes"] += 1
        counts["partition.intersected"] += len(node["intersected"])
        if node["cut"] is None:
            continue
        counts["partition.cuts"] += 1
        counts[case_metric(node["case"])] += 1
        counts["partition.repairs"] += "+repair" in node["case"]
        counts["partition.mirrored"] += "+mirrored" in node["case"]
    counts["charging.ledger_entries"] += len(artifacts["ledger"]["entries"])


def run_loop(cli, workload, seed, seconds, instances, tracer=None, setup_times=None):
    """Whole rounds of ops, ending at the round boundary nearest to
    `seconds` at reference speed (at least one round), so every run holds
    the same mix of strata, and as many rounds on a slow host as on a
    fast one.  Each record is (op, [Run, ...]); traced mode runs every op
    untraced and then traced, and the traced run's artifacts feed the
    coverage counts.  Every op and set-up is bracketed by reference
    timings (speed.Pacer), which the returned pacer holds.

    With `setup_times`, set-up is timed in child processes between ops,
    evenly over the run, until it holds SETUP_REPEATS samples: a slow
    stretch of the machine then touches few of them, and their median
    stays steady."""
    records = []
    counts: Counter = Counter()
    pacer = Pacer()
    start = time.perf_counter()

    def setup_due(at_end: bool = False) -> bool:
        if setup_times is None or len(setup_times) >= SETUP_REPEATS:
            return False
        elapsed = pacer.at_reference(time.perf_counter() - start)
        return at_end or elapsed >= seconds * len(setup_times) / SETUP_REPEATS

    for done, ops in enumerate(workload.rounds(seed)):
        wall = time.perf_counter() - start
        elapsed = pacer.at_reference(wall)
        # One more round would overshoot the deadline by more than half
        # of a round, on the mean round time so far.
        if done and (
            elapsed + elapsed / done / 2 > seconds or wall + wall / done / 2 > WALL_CAP * seconds
        ):
            break
        for op in ops:
            if setup_due():
                setup_times.append(pacer.scale(setup_child(workload)))
            inst = instances[op.instance_key]
            runs = [timed(op, cli, inst, pacer)]
            if tracer is not None:
                tracer.op = len(records)
                with traced_layers(cli, tracer):
                    runs.append(timed(op, cli, inst, pacer, tracer))
                coverage(runs[-1][1], counts)
            records.append((op, [run for run, _art in runs]))
    while setup_due(at_end=True):
        setup_times.append(pacer.scale(setup_child(workload)))
    return records, counts, pacer


def gate(records, instances, expected) -> tuple[int, int]:
    """(failed ops, ops whose artifacts changed); reasons go to stderr."""
    opts: dict = {}
    failed = outputs_changed = 0
    for op, runs in records:
        rects = instances[op.instance_key].rects
        if op.instance_key not in opts:
            opts[op.instance_key] = max_independent_size(rects)
        rec = expected.get(op.key)
        why = [w for run in runs for w in failures(op, rects, run.outcome, opts[op.instance_key], rec)]
        if why:
            failed += 1
            if failed <= 5:
                print(f"FAILED {op.key}: {'; '.join(why)}", file=sys.stderr)
        outputs_changed += any(changed(run.outcome, rec) for run in runs)
    return failed, outputs_changed


def end_to_end(records, setup_times) -> dict:
    """Op times at reference speed; the wall-clock figures are printed."""
    lat = [runs[0].scaled_ns / 1e6 for _op, runs in records]
    ok = sum(runs[0].outcome.error is None for _op, runs in records)
    p, tail, beyond = tail_percentile(lat)
    print(f"latency_ms.tail is p{p}: {beyond} of {len(lat)} samples beyond it; "
          f"sample p50 {statistics.median(lat)} ms, p{p} {tail} ms")
    wall = [runs[0].ns / 1e6 for _op, runs in records]
    print(f"wall clock: throughput {ok / (sum(wall) / 1e3)} 1/s, "
          f"p50 {statistics.median(wall)} ms, p{p} {tail_percentile(wall)[1]} ms")
    return {
        "throughput_ops_s": (ok / (sum(lat) / 1e3), "1/s"),
        "latency_ms.p50": (hd_quantile(lat, 0.5), "ms"),
        "latency_ms.tail": (hd_quantile(lat, p / 100), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def unchecked_partitions(records) -> dict:
    """Partition time with check=False for the traced run's certify ops,
    taken in a separate process so the module-global engine cache does
    not carry tables between the checked and unchecked runs."""
    ops = [op.to_json() for op, _runs in records if op.algo in REGIMES]
    if not ops:
        return {}
    proc = subprocess.run(
        [sys.executable, str(HERE / "unchecked.py")],
        input=json.dumps(ops),
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def per_layer(records, tracer, counts, outputs_changed) -> tuple[dict, bool]:
    """Per-layer metrics, and whether every op's layer self times plus
    its glue add up to its traced op time, as `timed` measured it outside
    the spans, within the cost of opening and closing the op span.  Span
    times are reported at reference speed, scaled as their op was."""
    selfs = self_times(tracer.spans)
    total: Counter = Counter()
    calls: Counter = Counter()
    per_op: Counter = Counter()
    factor = [runs[1].scaled_ns / runs[1].ns if runs[1].ns else 1.0 for _op, runs in records]
    for s, st in zip(tracer.spans, selfs):
        total[s.name] += st * factor[s.op]
        calls[s.name] += 1
        per_op[s.op] += st
    additive = all(
        0 <= runs[1].ns - per_op[i] <= SPAN_SLACK_NS + runs[1].ns // 100
        for i, (_op, runs) in enumerate(records)
    )

    def mean_ms(name: str) -> float:
        return total[name] / calls[name] / 1e6 if calls[name] else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    n_ops = len(records)
    n_part = counts["partition.ops"]
    unchecked = unchecked_partitions(records)
    checked_ns = sum(total[f"partition.{r}"] for r in REGIMES)
    unchecked_ns = sum(unchecked.get(r, [0, 0])[0] for r in REGIMES)
    cells, cuts = tracer.counts["dp_solver.cells"], tracer.counts["dp_solver.cuts_tried"]
    dp_calls = calls["dp_solver.dp_solve"]
    out = {}
    for r in REGIMES:
        out[f"partition.ms.{r}"] = (mean_ms(f"partition.{r}"), "ms")
        ns, k = unchecked.get(r, [0, 0])
        out[f"partition.unchecked_ms.{r}"] = (ratio(ns, k) / 1e6, "ms")
    out.update({
        "partition.check_share": (ratio(checked_ns - unchecked_ns, checked_ns), "ratio"),
        "partition.validate_ms": (mean_ms("partition.validate"), "ms"),
        "structure.maximal_extension_ms": (mean_ms("structure.maximal_extension"), "ms"),
        "structure.classify_ms": (mean_ms("structure.classify"), "ms"),
        "charging.charge_ms": (mean_ms("charging.charge"), "ms"),
        "charging.verify_ms": (mean_ms("charging.verify"), "ms"),
        "cli.glue_ms": (mean_ms("cli.run_pipeline"), "ms"),
        "instance.exact_mis_ms": (mean_ms("instance.exact_mis"), "ms"),
        "instance.exact_mis_calls": (ratio(calls["instance.exact_mis"], n_ops), "count"),
        "dp_solver.dp_solve_ms": (mean_ms("dp_solver.dp_solve"), "ms"),
        "dp_solver.cells": (ratio(cells, dp_calls), "count"),
        "dp_solver.cuts_tried": (ratio(cuts, dp_calls), "count"),
        "dp_solver.cuts_per_cell": (ratio(cuts, cells), "ratio"),
        "dp_solver.us_per_cut": (ratio(total["dp_solver.dp_solve"], cuts) / 1e3, "us"),
    })
    for name in ("partition.nodes", "partition.cuts", "partition.intersected",
                 "partition.repairs", "partition.mirrored", "charging.ledger_entries"):
        out[name] = (ratio(counts[name], n_part), "count")
    for case in CASES + ("other",):
        name = case_metric(case)
        out[name] = (ratio(counts[name], n_part), "count")
    plain = sum(runs[0].scaled_ns for _op, runs in records)
    traced = sum(runs[1].scaled_ns for _op, runs in records)
    out["trace.overhead_ratio"] = (ratio(traced, plain), "ratio")
    out["cli.outputs_changed"] = (outputs_changed, "count")
    return out, additive


def write_spans(tracer, workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-{seed}.json"
    rows = [[s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans]
    path.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                                "spans": rows}))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text())["ops"]
    cli = load_misr()
    instances = workload.instances(cli)
    setup_times: list[float] = []
    tracer = Tracer() if args.trace else None
    records, counts, pacer = run_loop(
        cli, workload, args.seed, args.seconds, instances, tracer,
        None if tracer else setup_times,
    )
    failed, outputs_changed = gate(records, instances, expected)
    correct = failed == 0
    print(f"fail_ratio {failed}/{len(records)}; cli.outputs_changed {outputs_changed}")
    print(f"reference took {statistics.median(pacer.samples) / 1e6} ms (median of "
          f"{len(pacer.samples)}); times are scaled to {REFERENCE_NS / 1e6} ms")
    if tracer is None:
        metrics = end_to_end(records, setup_times)
    else:
        metrics, additive = per_layer(records, tracer, counts, outputs_changed)
        print(f"spans written to {write_spans(tracer, args.workload, args.seed)}")
        if not additive:
            print("layer self times do not add up to the op time", file=sys.stderr)
            correct = False
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
