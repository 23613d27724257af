"""The fence engine against the nested-table reference engine in
oracles.py: the move table byte for byte, protection verdicts, the
edges anchoring each run, covered points, the rightmost one, interior
coverage and chain walks must agree exactly, on partition nodes (packed
ones included), on the notched units of acceptance criterion 6 and at
budgets beyond a byte.  A node's LineFences record decides tau-protection by its line
fences when one edge anchors fences holding both of a rect's edges, else
by the record's engine: both paths must agree with the engine and the
reference.  Line protection: the
fence lists, in order, against the per-rect scan as first written."""

from collections import Counter
from fractions import Fraction

from misr.geom_core import Point, Rect, RectPolygon
from misr.instance import exact_mis, generate
from misr.partition import recursive_partition
from misr.structure import LineFences, maximal_extension
from oracles import (
    NestedFenceEngine,
    _nested_edges_reaching_run,
    anchoring_edges,
    criterion_6_units,
    nested_is_tau_protected,
    protecting_fences,
    ref_moves,
    ref_protecting_fences,
)

TAUS = (1, 3, 7, 11)
# the move bit of each unit step (dx, dy) in ref_moves's table
STEP_BITS = {(1, 0): 1, (-1, 0): 2, (0, 1): 4, (0, -1): 8}


def partition_cells(family, n, seed, tau, regime="three", eps=None):
    """(polygon, rects inside) of every node of the regime's partition
    that holds a rect."""
    inst = generate(family, n, seed)
    m = maximal_extension(exact_mis(inst), inst)
    run = recursive_partition(m, regime, eps=eps, tau=tau if eps is None else None)
    assert run.tau == tau
    for node in run.nodes:
        rin = [
            (i, r) for i, r in enumerate(run.work_rects)
            if node.polygon.contains_rect(r)
        ]
        if rin:
            yield node.polygon, rin


def assert_anchors_agree(eng, ref, rin, runs, seen=None):
    """The edges anchoring each run (y, x1, x2) agree with the reference's
    reversed searches; rin, the rects inside the engine's polygon, names
    the node on failure; seen, if given, counts the runs by whether they
    are walkable and whether some edge anchors them."""
    for y, x1, x2 in runs:
        got = anchoring_edges(eng, y, x1, x2)
        assert got == _nested_edges_reaching_run(ref, y, x1, x2), (
            eng.poly, rin, eng.tau, (y, x1, x2)
        )
        if seen is not None:
            walkable = ref.reach_run(y, x1, x2, rightward=True) is not None
            seen["walkable" if walkable else "blocked"] += 1
            seen["anchored" if got else "unanchored"] += 1


def assert_chain(walk, sources, p, d, moves, poly):
    """walk starts at one of the sources and ends at p, takes one free
    unit step of the move table at a time, and runs straight d times:
    its maximal straight runs are its segments."""
    x0, y0, _x1, y1 = poly.bbox()
    ny = y1 - y0 + 1
    assert walk[0] in sources and walk[-1] == p, (walk, p)
    steps = [(b.x - a.x, b.y - a.y) for a, b in zip(walk, walk[1:])]
    for a, step in zip(walk, steps):
        assert moves[(a.x - x0) * ny + a.y - y0] & STEP_BITS.get(step, 0), (walk, a, step)
    assert sum(step != prev for step, prev in zip(steps, [None] + steps)) == d, (walk, d)


def assert_engines_agree(poly, rin, tau, verdicts=None):
    """Every tau-protection verdict and the edges anchoring the top and
    bottom runs of every rect, and for the chains from the left and from
    the right vertical edges every grid point's distance, interior
    coverage and chain walk, and the rightmost covered point (the lowest
    of its column), agree with the reference engine; each walk is also a
    chain of its point's distance in segments (assert_chain).  A rect the
    line fences certify (one edge anchors fences holding both its edges)
    is protected by the engine and the reference alike.  verdicts, if
    given, counts the verdicts by (deciding path, verdict), the path
    "line" or "engine"."""
    ref = NestedFenceEngine(poly, rin, tau)
    record = LineFences(poly, rin, tau)
    eng = record.engine
    moves = ref_moves(poly, [r for _rid, r in rin])
    assert record.moves == moves, (poly, rin)
    fences = LineFences(poly, rin, tau)
    for _rid, r in rin:
        verdict = fences.tau_protected(r)
        expected = nested_is_tau_protected(r, poly, rin, tau, ref)
        assert verdict == expected == (eng.proof(r) is not None), (poly, rin, tau, r)
        certified = tau >= 1 and fences.one_edge_anchors_both(r)
        assert expected or not certified, (poly, rin, tau, r)
        if verdicts is not None:
            verdicts["line" if certified else "engine", verdict] += 1
    assert_anchors_agree(
        eng, ref, rin, [(y, r.xl, r.xr) for _rid, r in rin for y in (r.yt, r.yb)]
    )
    sides = poly.vertical_edge_sides()
    edges = poly.edges()
    for side in ("left", "right"):
        sources = [
            p for idx, s in sides.items() if s == side
            for p in eng.edge_points(edges[idx])
        ]
        table, ref_table = eng.reach(sources), ref.reach(sources)
        starts = set(sources)
        x0, y0, x1, y1 = poly.bbox()
        covered = []
        for x in range(x0 - 1, x1 + 2):
            for y in range(y0 - 1, y1 + 2):
                p = Point(x, y)
                d = eng.best_dist(table, p)
                assert d == ref.best_dist(ref_table, p)
                assert eng.covers_interior(table, p) == ref.covers_interior(ref_table, p)
                if d <= tau:
                    covered.append(p)
                    walk = eng.chain_to(table, p)
                    assert walk == ref.chain_to(ref_table, p)
                    assert_chain(walk, starts, p, d, moves, poly)
        rightmost = max(covered, key=lambda q: (q.x, -q.y), default=None)
        assert eng.rightmost(table) == rightmost, (poly, rin, tau, side)


def test_partition_nodes_match_reference():
    cells = 0
    verdicts = Counter()
    for family in ("windmill", "uniform_random", "nested_grid"):
        for n in range(3, 11):
            for seed in ((0,) if family == "windmill" else (0, 1)):
                for tau in TAUS:
                    for poly, rin in partition_cells(family, n, seed, tau):
                        assert_engines_agree(poly, rin, tau, verdicts)
                        cells += 1
    assert cells > 500
    assert verdicts["line", True] and verdicts["engine", True], verdicts
    assert verdicts["engine", False], verdicts


def test_packed_nodes_match_reference():
    # the dense nodes: many rects per polygon, under three and two_eps
    verdicts = Counter()
    cells = 0
    for n in (12, 16):
        for seed in range(3):
            for tau, regime, eps in ((7, "three", None), (11, "two_eps", Fraction(1, 2))):
                for poly, rin in partition_cells("packed", n, seed, tau, regime, eps):
                    assert_engines_agree(poly, rin, tau, verdicts)
                    cells += 1
    # every rect of these nodes is protected at tau 7 and 11; the engine
    # decides those its line fences leave open
    assert cells > 300, cells
    assert verdicts["line", True] and verdicts["engine", True], verdicts


def grid_runs(poly, longest=3):
    """Every run [x, x+length]x{y} of length at most longest on every
    grid row of the polygon's bounding box."""
    x0, y0, x1, y1 = poly.bbox()
    return [
        (y, x, x + length)
        for y in range(y0, y1 + 1)
        for x in range(x0, x1 + 1)
        for length in range(longest + 1)
        if x + length <= x1
    ]


def test_anchor_sets_of_short_runs_match_reference():
    # Protection verdicts are mostly True, so their anchor sets are rarely
    # empty; the short runs of every grid row are often blocked or out of
    # reach.  Small cells at every budget keep the reference affordable.
    seen = Counter()
    for tau in TAUS:
        for family, n in (("windmill", 4), ("uniform_random", 5), ("nested_grid", 5)):
            for poly, rin in partition_cells(family, n, 0, tau):
                eng = LineFences(poly, rin, tau).engine
                ref = NestedFenceEngine(poly, rin, tau)
                assert_anchors_agree(eng, ref, rin, grid_runs(poly), seen)
    assert all(seen[k] for k in ("walkable", "blocked", "anchored", "unanchored")), seen


def assert_line_protection_agrees(poly, rin, count) -> None:
    """Every rect's protecting fences, in order, from a fresh record and
    from one record of the node that answers every rect, against the
    per-rect scan; count counts the verdicts."""
    shared = LineFences(poly, rin)
    for _rid, r in rin:
        ref = ref_protecting_fences(poly, rin, r)
        assert protecting_fences(LineFences(poly, rin), r) == ref, (poly, rin, r)
        assert protecting_fences(shared, r) == ref, (poly, rin, r)
        assert shared.protected(r) == bool(ref)
        count[bool(ref)] += 1


def test_line_protection_matches_reference():
    count = Counter()
    units = criterion_6_units()
    for _k, poly, rects in units[0]:
        assert_line_protection_agrees(poly, rects, count)
    for _tau, _k, poly, rects in units[1]:
        assert_line_protection_agrees(poly, rects, count)
    # every rect of these is protected; packed nodes hold unprotected ones
    specs = [
        (family, n, 0)
        for family in ("windmill", "uniform_random", "nested_grid")
        for n in range(3, 11)
    ]
    specs += [("packed", 16, seed) for seed in range(3)]
    for family, n, seed in specs:
        for tau, regime in ((None, "six"), (7, "three")):
            for poly, rin in partition_cells(family, n, seed, tau, regime):
                assert_line_protection_agrees(poly, rin, count)
    assert sum(count.values()) > 1000 and count[False] > 20, count


def test_criterion_6_units_match_reference():
    # the general units of acceptance criterion 6
    units = 0
    for tau, _k, poly, rects in criterion_6_units()[1]:
        assert_engines_agree(poly, rects, tau)
        units += 1
    assert units == 214


def test_tau_beyond_a_byte_on_walls():
    poly = RectPolygon.from_rect(Rect(0, 0, 20, 20))
    mid = Rect(8, 8, 12, 11)
    rects = [(0, mid), (1, Rect(2, 6, 5, 13)), (2, Rect(15, 6, 18, 13))]
    for _rid, r in rects:
        assert LineFences(poly, rects, 300).tau_protected(r) == nested_is_tau_protected(
            r, poly, rects, 300
        )
    assert LineFences(poly, rects, 300).tau_protected(mid)
    assert_engines_agree(poly, rects, 300)


def test_two_eps_at_eps_one_64th():
    # tau = 4 * 64 + 3 = 259: unreached states hold 260
    cells = list(
        partition_cells("uniform_random", 5, 0, 259, "two_eps", Fraction(1, 64))
    )
    assert len(cells) > 1
    for poly, rin in cells:
        assert_engines_agree(poly, rin, 259)


def test_fences_from_two_edges_leave_the_rect_to_the_engine():
    # The left boundary steps from x = 0 (y <= 5) to x = 2 (y >= 5): the
    # fence holding mid's top edge anchors on the upper edge and the one
    # holding its bottom edge on the lower, and the wall blocks every
    # fence from the right edge.  One segment down from (2, 5) bends onto
    # the bottom edge, so the upper edge anchors both at tau = 2.
    corners = ((0, 0), (10, 0), (10, 10), (2, 10), (2, 5), (0, 5))
    poly = RectPolygon([Point(x, y) for x, y in corners])
    mid = Rect(4, 3, 6, 7)
    rects = [(0, mid), (1, Rect(7, 1, 9, 9))]
    fences = LineFences(poly, rects)
    assert fences.anchors(mid) == ((2,), (), (0,), ())
    assert fences.protected(mid) and not fences.one_edge_anchors_both(mid)
    for tau, want in ((1, False), (2, True), (3, True)):
        assert LineFences(poly, rects, tau).tau_protected(mid) is want
        assert (LineFences(poly, rects, tau).engine.proof(mid) is not None) is want
        assert nested_is_tau_protected(mid, poly, rects, tau) is want


def test_no_certificate_at_tau_zero():
    # Line fences from the left edge hold both edges of the rect, but a
    # budget of no segment holds no edge: the engine alone decides.
    poly = RectPolygon.from_rect(Rect(0, 0, 9, 9))
    r = Rect(3, 3, 6, 6)
    rects = [(0, r)]
    fences = LineFences(poly, rects, 0)
    assert fences.one_edge_anchors_both(r)
    assert LineFences(poly, rects, 0).engine.proof(r) is None
    assert LineFences(poly, rects, 0).tau_protected(r) is False
    assert fences.tau_protected(r) is False
    assert LineFences(poly, rects, 1).tau_protected(r) is True
