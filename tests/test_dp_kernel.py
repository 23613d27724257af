"""The polygon DP and RectPolygon on the integer loop kernel in geom_core,
against the DP's loop kernel as first written (oracles.py): canonical
forms of random loops with spikes, repeated points and collinear runs,
touch tables, corridors and position tables at every grid point of the
DP's cells, the enumerated walks, surgery on every walk and on
hand-built splices, the part sizes counted before surgery, the chords of
rectangle cells, and dp_solve's value and choice.

The first-written enumeration also tries walks whose first segment runs
along the cell boundary, and emits every walk from both ends.  The
library drops those walks and emits each walk once; the tests check that
every dropped walk is degenerate or cuts the parts of a kept one."""

import random
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest

from misr import dp_solver
from misr.dp_solver import (
    DpError,
    DpStats,
    _CellGeometry,
    _chords,
    _enumerate_walks,
    canon_loop,
    containment_prune,
    dp_solve,
    surgery,
)
from misr.geom_core import (
    GeometryError,
    Point,
    RectPolygon,
    _loop_locate,
    edge_tables,
    loop_positions,
    merge_loop,
    splice_plan,
    touch_intervals,
)
from misr.instance import generate
from oracles import (
    RefCellGeometry,
    ref_canon_loop,
    ref_dp_solve,
    ref_enumerate_walks,
    ref_loop_area2,
    ref_side_doubled,
    ref_surgery,
)
from sweep_digests import KERNEL_RUNS, WINDMILL_RUNS

# (instance, k, cut_budget, shapes); the DP section of sweep_digests.py
# lists these runs too
RUNS = KERNEL_RUNS
# dp_solve's (cells, cuts tried) on each of RUNS.  The first-written DP
# tries (205, 1358), (1006, 7758), (236, 1572), (111, 571), (418, 5004),
# (1088, 9523), (7, 7) and (206, 12575): it stops a cell only at the
# cell's rect count, dp_solve at the cell's optimum, and their
# enumeration orders differ.  The last run keeps two rects after
# containment pruning, and they meet, so its root stops at its first rect.
RUN_COUNTS = [
    (14, 6),
    (64, 32),
    (78, 50),
    (10, 4),
    (3, 1),
    (85, 48),
    (26, 18),
    (1, 0),
]
# The T shape's rects are pairwise disjoint, so its optimum is its rect
# count.  The first-written order meets it with its second walk at the
# root, the chord x = 1 entered along the bottom edge from the corner
# (0, 0).  The library starts at (0, 1) and meets it only with its sixth
# walk at the root, the chord y = 2, after the parts of the five walks
# before it, so it tries more cuts.
MORE_CUTS_THAN_FIRST_WRITTEN = {6}
# Runs whose cells are checked one by one: RUNS stop most cells early, so
# the windmill runs whose cells often fall short of their optimum (n = 12
# at k = 4, n = 6 at k = 6) supply most cells, the non-rectangle ones too.
# At k = 4 a cell whose corners are not its rects' bounding box takes the
# box's value and is cut no further, which leaves those runs fewer cells;
# windmill n = 16 and nested_grid n = 10 (seeds 0 and 1) at k = 4 bring
# the rectangle cells back up.
CELL_RUNS = RUNS + WINDMILL_RUNS[1:] + [
    (generate(family, n, seed), 4, 1, ("path", "tree"))
    for family, n, seed in (("windmill", 16, 0), ("nested_grid", 10, 0), ("nested_grid", 10, 1))
]


def random_loop(rng: random.Random) -> list[tuple[int, int]]:
    """A closed rectilinear vertex loop on a small grid, full of zero-length
    steps, straight continuations and reversals (spikes)."""
    x, y = rng.randrange(5), rng.randrange(5)
    pts = [(x, y)]
    for _ in range(rng.randrange(1, 12)):
        if rng.random() < 0.5:
            x = rng.randrange(5)
        else:
            y = rng.randrange(5)
        pts.append((x, y))
    pts.append((pts[0][0], y))  # close with a horizontal then a vertical step
    if rng.random() < 0.3:
        k = rng.randrange(len(pts))
        pts.insert(k, pts[k])
    return pts


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DpError, GeometryError) as e:
        return type(e)


def test_canonical_forms_match_repeated_deletion():
    rng = random.Random(11)
    kept = 0
    for _ in range(20000):
        pts = random_loop(rng)
        got = outcome(canon_loop, pts)
        want = outcome(ref_canon_loop, pts)
        if isinstance(want, tuple):
            assert got == (want, ref_loop_area2(want)), pts
            kept += 1
        else:
            assert got is DpError, pts
        verts = [Point(x, y) for x, y in pts]
        want = outcome(lambda: ref_canon_loop(verts, simple=False))
        if isinstance(want, tuple):
            poly = RectPolygon(verts)
            assert poly.vertices == want, pts
            assert poly.area2() == ref_loop_area2([(p.x, p.y) for p in want])
            assert hash(poly) == hash(want)
        else:
            assert outcome(RectPolygon, verts) is GeometryError, pts
    assert kept > 2000


def test_merge_handles_diagonals_and_wraparound():
    # a diagonal edge survives the merge, and RectPolygon rejects it
    assert merge_loop([(0, 0), (0, 2), (1, 3), (2, 3), (2, 0)]) == [
        (0, 0), (0, 2), (1, 3), (2, 3), (2, 0)
    ]
    with pytest.raises(GeometryError):
        RectPolygon([Point(0, 0), Point(0, 2), Point(1, 3), Point(2, 3), Point(2, 0)])
    # collinear runs and a spike across the wrap-around point
    loop = [(0, 1), (0, 2), (2, 2), (2, 0), (0, 0), (0, -1), (0, 0)]
    assert merge_loop(loop) == [(0, 2), (2, 2), (2, 0), (0, 0)]


@contextmanager
def recorded_cells():
    """Every cell a dp_solve run splits, and every part it gets back, from
    surgery or from the chords of a rectangle cell."""
    cells = {}
    real_surgery = dp_solver.surgery
    real_chords = dp_solver._chords

    def surgery(loop, walk, area2, plan=None):
        cells[loop] = area2
        parts = real_surgery(loop, walk, area2, plan)
        cells.update(parts)
        return parts

    def chords(loop, area2, gxs, gys):
        for walk, parts in real_chords(loop, area2, gxs, gys):
            cells[loop] = area2
            cells.update(parts)
            yield walk, parts

    with mock.patch.object(dp_solver, "surgery", surgery), mock.patch.object(
        dp_solver, "_chords", chords
    ):
        yield cells


@pytest.fixture(scope="module")
def dp_cells():
    """(loop, doubled area, xs, ys, walk budget) of the DP's cells on
    CELL_RUNS."""
    out = {}
    for inst, k, b, shapes in CELL_RUNS:
        with recorded_cells() as cells:
            dp_solve(inst, k, b, shapes)
        kept = [inst.rects[i] for i in containment_prune(inst.rects)]
        gxs = sorted({c for r in kept for c in (r.xl, r.xr)} | {0, inst.side})
        gys = sorted({c for r in kept for c in (r.yb, r.yt)} | {0, inst.side})
        for loop, area2 in cells.items():
            xs = [x for x in gxs if min(p[0] for p in loop) <= x <= max(p[0] for p in loop)]
            ys = [y for y in gys if min(p[1] for p in loop) <= y <= max(p[1] for p in loop)]
            out[loop] = (area2, xs, ys, 1 if k == 4 else b)
    assert len(out) > 1000
    assert len(out) == 2692 and sum(len(loop) == 4 for loop in out) == 2045
    return out


def test_corridor_at_every_grid_point(dp_cells):
    """The first-written corridor, except that a segment running along the
    boundary from p (its midpoint is on the boundary) is no corridor.  From
    a point strictly inside, as a walk's bend points are, the corridor
    without the parity test is the first-written one too."""
    calls = along = bends = 0
    for loop, (area2, xs, ys, _b) in dp_cells.items():
        assert area2 == ref_loop_area2(loop)
        geom = _CellGeometry(loop, xs, ys)
        ref = RefCellGeometry(loop, xs, ys)
        for x in xs:
            for y in ys:
                assert geom.on_boundary((x, y)) == ref.on_boundary((x, y))
                interior = ref_side_doubled(loop, 2 * x, 2 * y) > 0
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    got = geom.corridor((x, y), dx, dy)
                    want = ref.corridor((x, y), dx, dy)
                    if interior:
                        assert geom.corridor((x, y), dx, dy, True) == want, (loop, (x, y))
                        bends += 1
                    t = want[0]
                    if t is not None and ref_side_doubled(
                        loop, *((x + t, 2 * y) if dx else (2 * x, y + t))
                    ) == 0:
                        assert got == (None, []), (loop, (x, y), dx, dy)
                        along += 1
                    else:
                        assert got == want, (loop, (x, y), dx, dy)
                    calls += 1
    assert calls > 100000 and along > 10000 and bends > 10000


def test_position_table_is_loop_locate(dp_cells):
    """A cell's position table holds exactly the grid points on its loop,
    each with ``_loop_locate``'s answer, and splice_plan reads the same
    plan from it as from its own scans on every enumerated walk."""
    points = walks = 0
    for loop, (area2, xs, ys, b) in dp_cells.items():
        geom = _CellGeometry(loop, xs, ys)
        table = geom.positions
        assert table == loop_positions(loop, xs, ys)
        on_loop = [(x, y) for x in xs for y in ys if ref_side_doubled(loop, 2 * x, 2 * y) == 0]
        assert sorted(table) == on_loop, loop
        for p in on_loop:
            assert table[p] == _loop_locate(loop, p, 0), (loop, p)
            points += 1
        for walk in _enumerate_walks(geom, b):
            assert outcome(splice_plan, loop, walk, table) == outcome(splice_plan, loop, walk)
            walks += 1
    assert points > 10000 and walks > 10000


def segments(walk) -> frozenset:
    """A walk as its set of undirected segments."""
    return frozenset((a, b) if a < b else (b, a) for a, b in zip(walk, walk[1:]))


def test_surgery_on_every_enumerated_walk(dp_cells):
    """The walks are first-written walks, each emitted once from its
    smaller end; surgery agrees with the first-written one on every
    first-written walk; and each such walk left out is degenerate or cuts
    the same two parts as a kept walk."""
    splits = rejected = dropped = 0
    for loop, (area2, xs, ys, b) in dp_cells.items():
        walks = list(_enumerate_walks(_CellGeometry(loop, xs, ys), b))
        kept = {segments(w) for w in walks}
        assert len(kept) == len(walks) and all(w[0] < w[-1] for w in walks)
        ref_walks = list(ref_enumerate_walks(RefCellGeometry(loop, xs, ys), b))
        assert kept <= {segments(w) for w in ref_walks}
        kept_parts = set()
        dropped_parts = []
        for walk in ref_walks:
            got = outcome(surgery, loop, walk, area2)
            want = outcome(ref_surgery, loop, walk)
            if isinstance(want, tuple):
                assert got == tuple((p, ref_loop_area2(p)) for p in want), (loop, walk)
                splits += 1
            else:
                assert got is DpError, (loop, walk)
                rejected += 1
            if segments(walk) in kept:
                assert isinstance(want, tuple), (loop, walk)
                kept_parts.add(frozenset(want))
            else:
                dropped += 1
                if isinstance(want, tuple):
                    dropped_parts.append((walk, frozenset(want)))
        for walk, parts in dropped_parts:
            assert parts in kept_parts, (loop, walk)
    assert splits > 10000 and rejected > 1000 and dropped > 50000


def test_counted_part_sizes_are_exact(dp_cells):
    """splice_plan's part sizes, which decide whether a cut can fit before
    the surgery runs, are the canonical parts' sizes on every walk."""
    walks = 0
    for loop, (area2, xs, ys, b) in dp_cells.items():
        for walk in _enumerate_walks(_CellGeometry(loop, xs, ys), b):
            plan = splice_plan(loop, walk)
            (p1, _a1), (p2, _a2) = surgery(loop, walk, area2, plan)
            assert plan[4:] == (len(p1), len(p2)), (loop, walk)
            walks += 1
    assert walks > 10000


def test_chords_are_the_kernel_cuts_at_budget_one(dp_cells):
    """On every rectangle cell, the chords read off the corners are the
    walks _enumerate_walks yields at walk budget 1, in its order, each
    with the parts surgery cuts and splice_plan counted as (4, 4); grid
    lines beyond the cell change nothing."""
    rectangles = chords = 0
    for loop, (area2, xs, ys, _b) in dp_cells.items():
        if len(loop) != 4:
            continue
        want = []
        for walk in _enumerate_walks(_CellGeometry(loop, xs, ys), 1):
            plan = splice_plan(loop, walk)
            assert plan[4:] == (4, 4), (loop, walk)
            want.append((walk, surgery(loop, walk, area2, plan)))
        assert list(_chords(loop, area2, xs, ys)) == want, loop
        wide = lambda cs: [cs[0] - 1, *cs, cs[-1] + 1]
        assert list(_chords(loop, area2, wide(xs), wide(ys))) == want, loop
        rectangles += 1
        chords += len(want)
    assert rectangles == 2045 and chords > 5000


def test_touch_tables_match_touch_intervals(dp_cells):
    """The one-sweep touch tables equal touch_intervals line for line: on
    the grid lines through each cell, lines beyond it, and the
    branch-point lines of the tree cuts, which RUNS' tree runs at k > 4
    stop early and the windmill at k = 6 reaches often."""
    built = []
    real = dp_solver._CellGeometry

    class Recorded(real):
        def __init__(self, loop, xs, ys, tables=None):
            built.append((loop, xs, ys))
            super().__init__(loop, xs, ys, tables)

    with mock.patch.object(dp_solver, "_CellGeometry", Recorded):
        for inst, k, b, shapes in RUNS + [(generate("windmill", 6, 0), 6, 2, ("path", "tree"))]:
            if "tree" in shapes and k > 4:
                dp_solve(inst, k, b, shapes)
    branch = len(built)
    wide = lambda cs: [cs[0] - 1, *cs, cs[-1] + 1]
    for loop, (_area2, xs, ys, _b) in dp_cells.items():
        built.append((loop, wide(xs), wide(ys)))
    assert branch > 100 and len(built) > branch + 1000
    for loop, xs, ys in built:
        geom = _CellGeometry(loop, xs, ys)
        vtab, htab = edge_tables(loop)
        assert geom.vtouch == {x: touch_intervals(2 * x, vtab, htab) for x in xs}
        assert geom.htouch == {y: touch_intervals(2 * y, htab, vtab) for y in ys}


# Hand-built splices the DP's own walks on the benchmark instances do not
# reach: (cell loop, walks); every walk is also tried reversed.
L_CELL = [(0, 0), (0, 4), (2, 4), (2, 2), (4, 2), (4, 0)]
SPLICES = [
    # an end on the reflex vertex (2, 2), the walk going on along an edge's
    # line, so the vertex merges away in one part
    (L_CELL, [[(2, 2), (2, 0)], [(2, 2), (0, 2)], [(2, 2), (2, 1), (4, 1)],
              [(2, 2), (1, 2), (1, 4)], [(0, 3), (1, 3), (1, 2), (2, 2)]]),
    # both ends on vertices: the chord between the two reflex corners of a
    # step merges away at both ends of both parts
    ([(0, 0), (0, 2), (2, 2), (2, 4), (6, 4), (6, 2), (4, 2), (4, 0)],
     [[(2, 2), (4, 2)], [(2, 2), (2, 1), (4, 1), (4, 2)]]),
    # both ends inside one edge, in both orders
    ([(0, 0), (0, 4), (6, 4), (6, 0)],
     [[(1, 0), (1, 2), (3, 2), (3, 0)], [(1, 4), (1, 1), (5, 1), (5, 4)],
      [(0, 1), (2, 1), (2, 3), (0, 3)]]),
    # four and more segments, a crossing one among them
    ([(0, 0), (0, 6), (6, 6), (6, 0)],
     [[(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (6, 5)],
      [(0, 1), (3, 1), (3, 4), (5, 4), (5, 6)],
      [(0, 1), (5, 1), (5, 5), (1, 5), (1, 3), (3, 3), (3, 6)],
      [(0, 3), (4, 3), (4, 1), (2, 1), (2, 5), (6, 5)]]),
    # walks outside the cell, through the notch of the L
    (L_CELL, [[(2, 3), (3, 3), (3, 2)], [(4, 1), (5, 1), (5, 3), (3, 3), (3, 2)],
              [(1, 4), (1, 5), (3, 5), (3, 2)]]),
    # walks running along the boundary, which the DP never tries
    (L_CELL, [[(0, 1), (0, 3), (1, 3), (1, 0)], [(2, 3), (2, 2), (1, 2), (1, 0)],
              [(4, 1), (4, 2), (3, 2), (3, 0)], [(1, 0), (3, 0)]]),
]


@pytest.mark.parametrize("case", range(len(SPLICES)))
def test_hand_built_splices_match_first_written(case):
    """Surgery agrees with the first-written one, crossing walks apart;
    where the walk's inner points are corners off the loop, the counted
    part sizes are the parts' sizes."""
    pts, walks = SPLICES[case]
    loop, area2 = canon_loop(pts)
    poly = RectPolygon([Point(*p) for p in loop])
    for walk in walks + [w[::-1] for w in walks]:
        got = outcome(surgery, loop, walk, area2)
        if not lattice_simple(walk):
            assert got is DpError, walk
            continue
        want = outcome(ref_surgery, loop, walk)
        if isinstance(want, tuple):
            assert got == tuple((p, ref_loop_area2(p)) for p in want), walk
            inner = walk[1:-1]
            if all(poly.side_doubled(2 * x, 2 * y) for x, y in inner):
                assert splice_plan(loop, walk)[4:] == tuple(len(p) for p in want), walk
        else:
            assert got is DpError, walk


def test_hand_built_splices_reach_every_case():
    """The cases above reach what they are meant to: splits with merged
    ends, rejected crossings and walks outside the cell."""
    outcomes = Counter()
    for pts, walks in SPLICES:
        loop, area2 = canon_loop(pts)
        for walk in walks + [w[::-1] for w in walks]:
            try:
                plan = splice_plan(loop, walk)
                (p1, _a), (p2, _b) = surgery(loop, walk, area2, plan)
            except (DpError, GeometryError) as e:
                outcomes[str(e).split()[-1]] += 1
                continue
            raw = 4 + plan[1] + plan[3] + 2 * (len(walk) - 2)
            outcomes["merged"] += len(p1) + len(p2) < raw
            outcomes["split"] += 1
    assert outcomes["merged"] and outcomes["split"] >= 20
    assert outcomes["area"] >= 4 and outcomes["itself"] >= 2, outcomes


@pytest.mark.parametrize("run", range(len(RUNS)))
def test_dp_solve_matches_first_written(run):
    inst, k, b, shapes = RUNS[run]
    stats = DpStats()
    sol = dp_solve(inst, k, b, shapes, stats=stats)
    size, chosen, _cells, ref_cuts = ref_dp_solve(inst, k, b, shapes)
    assert (sol.size, sol.chosen) == (size, chosen)
    assert (stats.cells, stats.cuts_tried) == RUN_COUNTS[run]
    assert (stats.cuts_tried < ref_cuts) == (run not in MORE_CUTS_THAN_FIRST_WRITTEN)


def test_dp_solve_matches_first_written_on_a_battery():
    """Cells that stop at their optimum, and at k = 4 cells that take the
    value of their rects' bounding box, keep the first-written DP's value
    and choice: every generator family but pinwheel at n = 3..10 at k = 4
    with path and tree cuts, and at n = 3 at k = 6 with two-segment paths
    (the first-written tree cuts take seconds a run there), one seeded
    seed each."""
    rng = random.Random(8)
    families = ("uniform_random", "nested_grid", "windmill", "stacked_strips", "packed")
    runs = [(f, n, 4, 1, ("path", "tree")) for f in families for n in range(3, 9)]
    runs += [(f, 3, 6, 2, ("path",)) for f in families]
    runs += [(f, n, 4, 1, ("path", "tree")) for f in families for n in (9, 10)]
    for family, n, k, b, shapes in runs:
        inst = generate(family, n, rng.randrange(10))
        sol = dp_solve(inst, k, b, shapes)
        size, chosen, _cells, _cuts = ref_dp_solve(inst, k, b, shapes)
        assert (sol.size, sol.chosen) == (size, chosen), (family, n, k)


# k > 4 at walk budget 1, where rectangle cells are cut by their chords
# and every other cell by the general kernel: (instance, dp_solve's
# (cells, cuts tried) at k = 6 with path and tree cuts).  The windmills
# keep tree cuts under the reference: cells stop at their optimum, so the
# random runs stop after a few cells, and windmill 7 and 8 make 105 and
# 161 ``_tree_cuts`` calls.
BUDGET_ONE_RUNS = [
    (("uniform_random", 6, 0), (16, 8)),
    (("nested_grid", 5, 1), (11, 5)),
    (("windmill", 5, 0), (274, 477)),
    (("windmill", 7, 0), (719, 1572)),
    (("windmill", 8, 0), (1093, 2502)),
]


@pytest.mark.parametrize(
    "spec, counts", BUDGET_ONE_RUNS, ids=["-".join(map(str, spec)) for spec, _c in BUDGET_ONE_RUNS]
)
def test_budget_one_above_k4_matches_first_written(spec, counts):
    inst = generate(*spec)
    stats = DpStats()
    sol = dp_solve(inst, 6, 1, ("path", "tree"), stats=stats)
    size, chosen, _cells, _cuts = ref_dp_solve(inst, 6, 1, ("path", "tree"))
    assert (sol.size, sol.chosen) == (size, chosen)
    assert (stats.cells, stats.cuts_tried) == counts


def lattice_simple(walk) -> bool:
    """No lattice point is visited twice, stepping one unit at a time."""
    seen = {walk[0]}
    for a, b in zip(walk, walk[1:]):
        dx = (b[0] > a[0]) - (b[0] < a[0])
        dy = (b[1] > a[1]) - (b[1] < a[1])
        p = a
        while p != b:
            p = (p[0] + dx, p[1] + dy)
            if p in seen:
                return False
            seen.add(p)
    return True


def test_self_crossing_walks_rejected():
    """With four or more segments a walk can cross itself, and the parts
    it would cut are not simple; surgery rejects exactly those walks, so
    every cell the DP memoizes is a simple polygon."""
    inst = generate("nested_grid", 3, 0)
    with recorded_cells() as cells:
        dp_solve(inst, 8, 4, ("path",))
    assert cells and all(RectPolygon([Point(*p) for p in loop]).is_simple for loop in cells)

    loop, area2 = canon_loop([(0, 1), (0, 5), (3, 5), (3, 1)])
    crossing = [(0, 3), (2, 3), (2, 2), (1, 2), (1, 5)]
    assert not lattice_simple(crossing)
    with pytest.raises(DpError, match="crosses itself"):
        surgery(loop, crossing, area2)
    # the first-written surgery accepts it, with a part that is not simple
    parts = ref_surgery(loop, crossing)
    assert not all(RectPolygon([Point(*p) for p in part]).is_simple for part in parts)

    # six segments, of which only the first and the last cross
    square, square_area2 = canon_loop([(0, 0), (0, 6), (6, 6), (6, 0)])
    spiral = [(0, 3), (4, 3), (4, 1), (2, 1), (2, 2), (1, 2), (1, 6)]
    assert not lattice_simple(spiral)
    with pytest.raises(DpError, match="crosses itself"):
        surgery(square, spiral, square_area2)

    crossed = 0
    geom = _CellGeometry(loop, [0, 1, 2, 3], [1, 2, 3, 4, 5])
    for walk in _enumerate_walks(geom, 5):
        try:
            surgery(loop, walk, area2)
            rejected = False
        except DpError as e:
            rejected = "crosses itself" in str(e)
        assert rejected == (not lattice_simple(walk)), walk
        crossed += rejected
    assert crossed > 0


def test_area_check_catches_a_walk_outside_the_cell():
    """A walk through the notch of an L-shaped cell cuts a part outside the
    cell; both parts are simple loops, and only the area check sees it."""
    loop, area2 = canon_loop([(0, 0), (0, 4), (2, 4), (2, 2), (4, 2), (4, 0)])
    walk = [(2, 3), (3, 3), (3, 2)]
    with pytest.raises(DpError, match="lost area"):
        surgery(loop, walk, area2)
    with pytest.raises(DpError, match="lost area"):
        ref_surgery(loop, walk)
    parts = surgery(loop, [(2, 3), (0, 3)], area2)
    assert sorted(a for _p, a in parts) == [4, 20]
