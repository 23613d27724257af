"""Digest every run of the identity sweep, one line per run.

    PYTHONPATH=src python tests/sweep_digests.py [partition|dp|units|protection|oracle|see|pinwheel] > digests.txt

A refactor that must not change any output runs this on both checkouts
and diffs the two files.  Without an argument all seven sections run,
in that order.

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
n = 4 is left out: an older checkout, whose cells do not stop at their
optimum, takes 7-19 s a run on it); windmill n = 5 at k = 4 with walk
budgets 1 and 3; and WINDMILL_RUNS, on which the cut language falls
short of the optimum in many cells, so that a cell's early exit at its
optimum seldom fires.  A line holds the run and dp_solve's (size,
chosen, cells, cuts tried).

The units section: the single cuts of acceptance criteria 6 and 7, which
reach construction cases the recursive runs never do (general-1b,
general-2a, the k/3 chord search).  One line per unit: each line unit of
criterion 6 under line_partition_cut and each general unit under
general_partition_cut, with the case and the first 16 hex digits of the
sha256 of the cut, ell, intersected rects, parts and assignment; and
each criterion-7 polygon with its spanning chord and the chord's
endpoint-edge distance d, so a diff shows whether d grew.  A unit that
raises shows the type and message of the error instead.  This section
builds its units with tests/oracles.py; run against an older checkout's
src, it still takes oracles.py from the script's own directory, and so
does the protection section.

The protection section: the partition section's runs again, with one
line per node that holds a rect: the run, the node id and the first 16
hex digits of the sha256 of the node's facts that line and chain
protection read from one LineFences record of the node, namely every
rect's line fences (anchor, far end and side of each, in order; built
by oracles.protecting_fences from the record's anchors of the rect),
the move table of a second, fresh record (LineFences(poly,
rects_in).moves, or on an older src the table of its engine(1), which
older checkouts that build the engine from the polygon and the rects
answer as well), the line cut's reads (furthest at every integral
point of every vertical edge, and crossing_anchor on every row of the
bbox at every vertex x and at the integral x midway between
neighbouring vertex x's) and, under three and two_eps, every rect's
tau_protected verdict at the run's tau.  Against an older src without
tau_protected, the verdicts come from is_tau_protected.  A run that
raises shows the type and message of the error instead, once.

The oracle section: the partition section's instances, then packed at
n in {48, 60, 120} with seeds 0-2, windmill at n = 60 and nested_grid at
n = 48; one line per instance with the index set exact_mis chooses with
its cap at n.  It needs nothing but exact_mis and the generators, so it
runs against an older checkout's src too.

The see section: the partition section's instances, one line per
instance with the first 16 hex digits of the sha256 of corridor
visibility on its maximal set, one 0/1 digit of sees(rects, i, j, corner,
side) for every ordered pair i != j and every valid (side, corner) pair.
It asks only sees, so it runs against an older checkout's src too.

The pinwheel section: the recursive runs on which the paper's general
cases run (PINWHEEL_RUNS), on pinwheels without hubs (seed 0): three at
tau = 1 on 6 x 6 and 7 x 7 (n = 144, 196), two_eps at eps 1/2 and
tau = 1 on 6 x 6, and six on 2 x 2 and 3 x 2 (n = 16, 24), which lose
rects.  A line holds the run, the partition section's digest, then in
clear text the histogram of the cut nodes' cases and the ids of the
maximal set's rects the run lost, or the error the run raised.

The file name keeps it out of pytest's collection.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from fractions import Fraction

from misr.charging import (
    charge_six,
    charge_three,
    charge_two_eps,
    ledger_to_json,
    verify_ratios,
)
from misr.dp_solver import DpStats, dp_solve
from misr.geom_core import Point, Rect
from misr.instance import exact_mis, generate, preprocess
from misr.partition import recursive_partition, run_to_json, validate_partition
from misr.structure import LineFences, maximal_extension, sees

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
    return run_digest(recursive_partition(m, regime, eps=eps), opt, eps)


def run_digest(run, opt: int, eps) -> str:
    regime = run.regime
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


# (n, regime, eps, tau) of the pinwheel section's runs, seed 0
PINWHEEL_RUNS = (
    (144, "three", None, 1),
    (144, "two_eps", Fraction(1, 2), 1),
    (196, "three", None, 1),
    (16, "six", None, None),
    (24, "six", None, None),
)


def pinwheel_section() -> None:
    for n, regime, eps, tau in PINWHEEL_RUNS:
        inst = generate("pinwheel", n, 0)
        opt = exact_mis(inst, cap=inst.n)
        m = maximal_extension(opt, inst)
        name = regime if eps is None else f"{regime}@{eps}"
        try:
            run = recursive_partition(m, regime, eps=eps, tau=tau)
            cases = dict(sorted(Counter(node.case for node in run.nodes if node.case).items()))
            lost = sorted(set(range(len(m.rects))) - run.tracked)
            result = f"{run_digest(run, opt.size, eps)} {cases} lost={lost}"
        except Exception as exc:  # every outcome is part of the listing
            result = f"{type(exc).__name__}: {exc}"
        print(f"pinwheel {n} 0 {name} tau={tau} {result}")


# (instance, k, cut budget, shapes) of the DP runs whose counts
# tests/test_dp_kernel.py pins; kept here so that the DP section imports
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
# windmill runs whose cells often fall short of their optimum: n = 8 and
# 12 at k = 4, and n = 6 at k = 6 with two-segment paths
WINDMILL_RUNS = [
    (generate("windmill", 8, 0), 4, 1, ("path", "tree")),
    (generate("windmill", 12, 0), 4, 1, ("path", "tree")),
    (generate("windmill", 6, 0), 6, 2, ("path",)),
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
    for inst, k, b, shapes in WINDMILL_RUNS:
        out.append((f"windmill {inst.n} 0", inst, k, b, shapes))
    return out


def dp_section() -> None:
    for name, inst, k, b, shapes in dp_runs():
        stats = DpStats()
        sol = dp_solve(inst, k, b, shapes, stats=stats)
        print(
            f"dp {name} k={k} b={b} {'+'.join(shapes)} "
            f"{sol.size} {list(sol.chosen)} {stats.cells} {stats.cuts_tried}"
        )


def _cut_digest(res) -> str:
    def seg(s):
        return None if s is None else [[s.a.x, s.a.y], [s.b.x, s.b.y]]

    doc = [
        res.cut.shape,
        [seg(s) for s in res.cut.segments],
        seg(res.ell),
        list(res.intersected),
        [[[p.x, p.y] for p in c.vertices] for c in res.components],
        sorted(res.assignment.items()),
    ]
    blob = json.dumps(doc).encode()
    return f"{res.case} {hashlib.sha256(blob).hexdigest()[:16]}"


def _outcome(fn, *args) -> str:
    try:
        return fn(*args)
    except Exception as exc:  # every outcome is part of the digest
        return f"{type(exc).__name__}: {exc}"


def units_section() -> None:
    import random

    from misr.partition import (
        chord_distance,
        general_partition_cut,
        line_partition_cut,
        vertical_spanning_segment,
    )
    from oracles import blob_polygon, criterion_6_units

    def line(poly, rects):
        return _cut_digest(line_partition_cut(poly, rects))

    def general(poly, rects, tau):
        return _cut_digest(general_partition_cut(poly, rects, tau))

    def chord(poly):
        c = vertical_spanning_segment(poly)[1]
        d = chord_distance(poly, c)
        return f"x={c.x} y={c.ylo}..{c.yhi} edges={c.e_bottom},{c.e_top} d={d}"

    line_units, general_units = criterion_6_units()
    for i, (k, poly, rects) in enumerate(line_units):
        print(f"line {i} k={k} {_outcome(line, poly, rects)}")
    for i, (tau, k, poly, rects) in enumerate(general_units):
        print(f"general {i} tau={tau} k={k} {_outcome(general, poly, rects, tau)}")
    # criterion 7's polygons, drawn as test_criterion_7_spanning_chord does
    rng = random.Random(7)
    i = 0
    while i < 200:
        poly = blob_polygon(rng, grid=7, cells=rng.randrange(5, 26))
        if 4 <= poly.num_edges <= 24:
            print(f"chord {i} k={poly.num_edges} {_outcome(chord, poly)}")
            i += 1


def _tau_verdicts(record, rects_in, tau) -> list[bool]:
    """Every rect's tau-protection verdict, read from the node's record
    where the src has tau_protected, else from is_tau_protected, the
    function an older src asks."""
    if hasattr(record, "tau_protected"):
        return [record.tau_protected(r, tau) for _rid, r in rects_in]
    from misr.structure import is_tau_protected

    memo: dict = {}
    return [is_tau_protected(r, record.poly, rects_in, tau, memo) for _rid, r in rects_in]


def _line_cut_reads(record) -> list:
    """The line cut's two reads of a node's record: furthest at every
    integral point of every vertical edge, in edge order, and
    crossing_anchor on every row of the bbox at every vertex x and at the
    integral x midway (rounded down) between neighbouring vertex x's."""
    poly = record.poly
    edges = poly.edges()
    furthest = []
    for idx, side in sorted(poly.vertical_edge_sides().items()):
        e = edges[idx]
        y1, y2 = sorted((e.a.y, e.b.y))
        furthest.append(
            [record.furthest(Point(e.a.x, y), side == "left") for y in range(y1, y2 + 1)]
        )
    vxs = sorted({p.x for p in poly.vertices})
    xs = sorted(set(vxs).union((a + b) // 2 for a, b in zip(vxs, vxs[1:])))
    _x0, y0, _x1, y1 = poly.bbox()
    crossing = [[record.crossing_anchor(y, x) for x in xs] for y in range(y0, y1 + 1)]
    return [furthest, crossing]


def _node_facts(run, node) -> str:
    from oracles import protecting_fences

    rects_in = [(i, run.work_rects[i]) for i in node.rects]
    poly = node.polygon
    record = LineFences(poly, rects_in)
    fences = [
        [rid, [[f.anchor.x, f.anchor.y, f.endpoint.x, f.endpoint.y, f.side]
               for f in protecting_fences(record, r)]]
        for rid, r in rects_in
    ]
    # the move table does not depend on the budget
    fresh = LineFences(poly, rects_in)
    moves = fresh.moves if hasattr(LineFences, "moves") else fresh.engine(1)._steps()
    facts = [fences, bytes(moves).hex(), _line_cut_reads(record)]
    if run.regime != "six":
        facts.append(_tau_verdicts(record, rects_in, run.tau))
    blob = json.dumps(facts).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def protection_section() -> None:
    for family, n, seed in specs():
        inst = generate(family, n, seed)
        m = maximal_extension(exact_mis(inst, cap=inst.n), inst)
        for regime, eps in REGIMES:
            name = regime if eps is None else f"{regime}@{eps}"
            try:
                run = recursive_partition(m, regime, eps=eps)
            except Exception as exc:  # every outcome is part of the digest
                print(f"{family} {n} {seed} {name} {type(exc).__name__}: {exc}")
                continue
            for node in run.nodes:
                if node.rects:
                    facts = _node_facts(run, node)
                    print(f"{family} {n} {seed} {name} node={node.id} {facts}")


def oracle_section() -> None:
    extra = [("packed", n, seed) for n in (48, 60, 120) for seed in range(3)]
    extra += [("windmill", 60, 0), ("nested_grid", 48, 0)]
    for family, n, seed in specs() + extra:
        inst = generate(family, n, seed)
        chosen = exact_mis(inst, cap=inst.n).chosen
        print(f"oracle {family} {n} {seed} {list(chosen)}")


SEE_PAIRS = (("right", "TL"), ("right", "BL"), ("left", "TR"), ("left", "BR"), ("bottom", "TR"))


def see_section() -> None:
    for family, n, seed in specs():
        inst = generate(family, n, seed)
        rects = maximal_extension(exact_mis(inst, cap=inst.n), inst).rects
        bits = "".join(
            "1" if sees(rects, i, j, corner, side) else "0"
            for i in range(len(rects))
            for j in range(len(rects))
            if i != j
            for side, corner in SEE_PAIRS
        )
        print(f"see {family} {n} {seed} {hashlib.sha256(bits.encode()).hexdigest()[:16]}")


def main(argv: list[str]) -> int:
    sections = {
        "partition": partition_section,
        "dp": dp_section,
        "units": units_section,
        "protection": protection_section,
        "oracle": oracle_section,
        "see": see_section,
        "pinwheel": pinwheel_section,
    }
    for name in argv or list(sections):
        sections[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
