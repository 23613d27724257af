"""Tests of the benchmark's own rules: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

import pytest

from gate import Outcome, max_independent_size
import speed
from run import (
    Run,
    _betai,
    end_to_end,
    gate,
    hd_quantile,
    per_layer,
    run_loop,
    setup_child,
    tail_percentile,
)
from spans import Span, Tracer, self_times
from workload import WORKLOADS, Cycle, Op, Workload, load_misr

cli = load_misr()
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(range(1, 101)) == (90, 90, 10)
    assert tail_percentile(range(1, 1001)) == (99, 990, 10)
    assert tail_percentile(range(1, 22)) == (52, 11, 10)
    assert tail_percentile(range(1, 21)) == (50, 10, 10)
    # Too few samples for any tail: fall back to the median.
    assert tail_percentile([5, 1, 3]) == (50, 3, 1)


def test_harrell_davis_quantile():
    # I_x(a, b) against closed forms: I_x(1, 1) = x, I_x(2, 1) = x^2.
    assert _betai(1, 1, 0.3) == pytest.approx(0.3)
    assert _betai(2, 1, 0.3) == pytest.approx(0.09)
    assert _betai(50.5, 50.5, 0.5) == pytest.approx(0.5)
    assert _betai(400, 30, 0.9) + _betai(30, 400, 0.1) == pytest.approx(1.0)
    # Symmetric samples: the median estimate is the centre.
    assert hd_quantile(range(1, 102), 0.5) == pytest.approx(51)
    assert hd_quantile([7], 0.9) == 7
    # It stays within the samples and follows the quantile.
    xs = [x * x for x in range(200)]
    assert xs[150] < hd_quantile(xs, 0.8) < xs[170]
    # One wild sample next to the middle barely moves it.
    calm = list(range(1, 102))
    wild = calm[:50] + [51 * 1.5] + calm[51:]
    assert abs(hd_quantile(wild, 0.5) - 51) < 2


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("op", 0, 100, None, 0),
        Span("a", 10, 30, 0, 0),
        Span("b", 40, 70, 0, 0),
        Span("b.inner", 45, 55, 2, 0),
        Span("c", 20, 35, 0, 0),  # overlaps a: [20, 30] is counted once
    ]
    assert self_times(spans) == [100 - 55, 20, 20, 10, 15]


def test_nested_tracer_spans_add_up():
    tr = Tracer()
    with tr.span("op"):
        with tr.span("a"):
            with tr.span("a.inner"):
                pass
        with tr.span("b"):
            pass
    op = tr.spans[0]
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    assert sum(self_times(tr.spans)) == op.end - op.start


def test_seed_gives_identical_rounds():
    w = WORKLOADS["certify_small"]
    first = list(islice(w.rounds(7), 5))
    assert first == list(islice(w.rounds(7), 5))
    assert first != list(islice(w.rounds(8), 5))
    assert {op for rnd in first for op in rnd} <= set(w.universe())
    # Every round holds every stratum once.
    stratum_of = {op: i for i, st in enumerate(w.strata) for op in st}
    for rnd in first:
        assert sorted(stratum_of[op] for op in rnd) == list(range(len(w.strata)))
    # A Cycle stratum hands out the same ops in the same order for any seed.
    cap = WORKLOADS["certify_cap"]
    cycle = cap.strata[-1]
    assert isinstance(cycle, Cycle) and len(set(cycle)) == 9
    for seed in (7, 8):
        drawn = [op for rnd in islice(cap.rounds(seed), 9) for op in rnd if op in cycle]
        assert drawn == list(cycle)


def test_run_ends_on_a_round_boundary():
    w = Workload("two", ((Op("windmill", 3, 0, "six"),), (Op("windmill", 4, 0, "six"),)))
    inst = w.instances(cli)
    records, _counts, _pacer = run_loop(cli, w, 0, 0.3, inst)
    assert len(records) % 2 == 0 and len(records) >= 2


def test_own_optimum_matches_library_oracle():
    for kind, n, seed in [("uniform_random", 9, 3), ("nested_grid", 12, 1), ("windmill", 15, 0)]:
        inst = cli.generate(kind, n, seed)
        assert max_independent_size(inst.rects) == cli.exact_mis(inst).size


def test_gate_counts_forced_bad_ops():
    dp_op = Op("windmill", 5, 0, "dp", 4, 1)
    six_op = Op("uniform_random", 6, 2, "six")
    instances = {o.instance_key: cli.generate(*o.instance_key) for o in (dp_op, six_op)}
    good_dp = Outcome.of(dp_op.run(cli, instances[dp_op.instance_key]))
    good_six = Outcome.of(six_op.run(cli, instances[six_op.instance_key]))
    expected = {
        dp_op.key: {"digest": good_dp.digest, "size": 3, "chosen": list(good_dp.chosen)},
        six_op.key: {"digest": good_six.digest},
    }
    good = [(dp_op, [Run(1, 1, good_dp)]), (six_op, [Run(1, 1, good_six)])]
    assert gate(good, instances, expected) == (0, 0)

    raised = Outcome(error="RuntimeError('boom')")
    short_dp = Outcome(size=2, chosen=good_dp.chosen[:2], digest="x")
    # Checks all "pass", but 6 x achieved < opt: report.ok() would accept it.
    lost = Outcome(size=0, chosen=(), opt=good_six.opt, bound="6/1", digest=good_six.digest)
    # The report claims a looser bound than the regime's, which would let
    # 100 x achieved >= opt pass; the gate uses its own bound and fails it.
    loose = Outcome(**{**good_six.__dict__, "bound": "100/1"})
    records = [
        (dp_op, [Run(1, 1, good_dp), Run(1, 1, raised)]),
        (dp_op, [Run(1, 1, short_dp)]),
        (six_op, [Run(1, 1, lost)]),
        (six_op, [Run(1, 1, loose)]),
        (six_op, [Run(1, 1, good_six)]),
    ]
    assert gate(records, instances, expected) == (4, 1)


@pytest.mark.parametrize("algo", ["three", "dp"])
def test_traced_run_is_additive_and_restores_cli(algo):
    before = cli.recursive_partition, cli.dp_solve
    w = Workload("tiny", ((Op("windmill", 4, 0, algo),),))
    inst = {("windmill", 4, 0): cli.generate("windmill", 4, 0)}
    tracer = Tracer()
    records, counts, _pacer = run_loop(cli, w, 0, 0.05, inst, tracer)
    assert (cli.recursive_partition, cli.dp_solve) == before
    metrics, additive = per_layer(records, tracer, counts, 0)
    assert additive
    # Op time outside every span (here 10 ms) breaks the sum.
    op, runs = records[0]
    slow = [(op, [runs[0], runs[1]._replace(ns=runs[1].ns + 10**7)])] + records[1:]
    assert not per_layer(slow, tracer, counts, 0)[1]
    assert {k: unit for k, (_v, unit) in metrics.items()} == declared("per_layer")
    plain = end_to_end([(op, runs[:1]) for op, runs in records], [0.1])
    assert {k: unit for k, (_v, unit) in plain.items()} == declared("end_to_end")
    if algo == "dp":
        assert metrics["dp_solver.cells"][0] > 0
        assert metrics["partition.nodes"][0] == 0
    else:
        assert metrics["partition.ms.three"][0] > 0
        assert metrics["partition.unchecked_ms.three"][0] > 0
        assert metrics["partition.nodes"][0] > 0


def test_setup_is_timed_in_a_child_process():
    assert 0 < setup_child(WORKLOADS["dp_solve"]) < 60


def test_pacer_scales_by_the_bracketing_reference_times(monkeypatch):
    times = iter([speed.REFERENCE_NS, 3 * speed.REFERENCE_NS, speed.REFERENCE_NS])
    monkeypatch.setattr(speed, "reference_ns", lambda: next(times))
    pacer = speed.Pacer()
    # The host ran at half the reference speed, on average, around this
    # interval: its time at reference speed is half the wall time.
    assert pacer.scale(1000) == 500
    # The "after" of one interval is the "before" of the next.
    assert pacer.scale(1000) == 500
    assert pacer.samples == [speed.REFERENCE_NS, 3 * speed.REFERENCE_NS, speed.REFERENCE_NS]
    # On the median reference time so far, the host runs at reference speed.
    assert pacer.at_reference(2.0) == 2.0
