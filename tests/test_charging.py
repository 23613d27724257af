import random
from fractions import Fraction

import pytest

from misr.geom_core import Point, Rect, RectPolygon, Segment
from misr.instance import exact_mis, generate
from misr.charging import (
    _MIRROR_Y_CORNER,
    ChargingError,
    build_see_forest,
    charge_six,
    charge_three,
    charge_two_eps,
    ledger_from_json,
    ledger_to_json,
    verify_ratios,
)
from misr.partition import PartitionNode, PartitionRun, recursive_partition
from misr.structure import (
    MaximalSet,
    assert_maximal,
    classify_nesting,
    classify_nice,
    maximal_extension,
)
from test_instance import random_instance


def synthetic_run(
    rects: list[Rect],
    side: int,
    intersected: tuple[int, ...],
    ell: Segment,
    regime: str = "six",
    eps=None,
    polygon: RectPolygon | None = None,
    rect_ids: tuple[int, ...] | None = None,
    tau=None,
) -> PartitionRun:
    """A one-cut partition run declared by hand: the charging schemes only
    consume the trace, its nodes' rects and intersected ids, the work
    rects, their labels, and the tracked set."""
    m = MaximalSet(tuple(rects), tuple(range(len(rects))), side)
    assert_maximal(m)
    poly = polygon or RectPolygon.from_rect(Rect(0, 0, side, side))
    ids = rect_ids if rect_ids is not None else tuple(range(len(rects)))
    root = PartitionNode(0, poly, None, ids)
    root.ell = ell
    root.intersected = intersected
    tracked = frozenset(range(len(rects))) - set(intersected)
    return PartitionRun(
        regime,
        tau,
        Fraction(eps) if eps is not None else None,
        False,
        side,
        tuple(rects),
        tuple(range(len(rects))),
        [root],
        [0],
        tracked,
        classify_nesting(m),
        classify_nice(m) if regime == "two_eps" else None,
    )


# Three side-by-side slabs tiling S (n = 3, side 5); the middle one is cut.
SLABS = [Rect(0, 0, 2, 5), Rect(2, 0, 4, 5), Rect(4, 0, 5, 5)]

# The single-seen-corner configuration (n = 7, side 13): rect 1 sees only
# the top-left corner of rect 2 on its right (aligned tops), two corners of
# rect 0 on its left.  Rect 2's right edge is nested inside rect 3's left
# edge, so the rightward second token lands on rect 2 again (the doubling
# case) -- or, in the unnested variant, on rect 3's bottom-left corner.
CASE2A = [
    Rect(0, 4, 2, 8),     # 0: left column
    Rect(2, 4, 4, 8),     # 1: the intersected payer
    Rect(4, 2, 7, 8),     # 2: aligned-top neighbour, horizontally nested
    Rect(7, 0, 13, 13),   # 3: right wall
    Rect(0, 8, 7, 13),    # 4: top slab
    Rect(0, 0, 4, 4),     # 5
    Rect(4, 0, 7, 2),     # 6
]
CASE2B = [
    Rect(0, 4, 2, 8),
    Rect(2, 4, 4, 8),
    Rect(4, 2, 7, 8),     # 2: not nested here
    Rect(7, 2, 13, 13),   # 3: right wall with a shorter left edge
    Rect(0, 8, 7, 13),
    Rect(0, 0, 4, 4),
    Rect(4, 0, 13, 2),    # 6: widened floor
]


class TestChargeSix:
    def test_middle_slab_two_halves(self):
        run = synthetic_run(SLABS, 5, (1,), Segment(Point(3, 1), Point(3, 4)))
        ledger = charge_six(run)
        got = sorted((e.payee, e.corner, e.amount, e.side) for e in ledger.entries)
        assert got == [
            (0, "TR", Fraction(1, 2), "left"),
            (2, "TL", Fraction(1, 2), "right"),
        ]
        report = verify_ratios(run, ledger, 3)
        assert all(c["ok"] for c in report), report

    def test_empty_trace_empty_ledger(self):
        inst = generate("stacked_strips", 4, 0)
        m = maximal_extension(exact_mis(inst), inst)
        run = recursive_partition(m, "six")
        assert charge_six(run).entries == []

    def test_nested_payers_skipped(self):
        # the middle slab's left edge sits strictly inside the interior of
        # S's left edge: horizontally nested, so it never pays
        rects = [Rect(0, 0, 5, 2), Rect(0, 2, 5, 3), Rect(0, 3, 5, 5)]
        run = synthetic_run(rects, 5, (1,), Segment(Point(2, 2), Point(2, 3)))
        assert charge_six(run).entries == []

    def test_sweep_corner_charged_once(self):
        rng = random.Random(0)
        for _ in range(25):
            inst = random_instance(rng, rng.randrange(3, 10))
            opt = exact_mis(inst)
            m = maximal_extension(opt, inst)
            run = recursive_partition(m, "six")
            ledger = charge_six(run)
            report = verify_ratios(run, ledger, opt.size)
            assert all(c["ok"] for c in report), report


class TestChargeThree:
    def test_slab_case1_both_sides(self):
        run = synthetic_run(SLABS, 5, (1,), Segment(Point(3, 1), Point(3, 4)))
        ledger = charge_three(run)
        got = sorted((e.payee, e.corner, e.amount, e.kind) for e in ledger.entries)
        assert got == [
            (0, "BR", Fraction(1, 4), "direct"),
            (0, "TR", Fraction(1, 4), "direct"),
            (2, "BL", Fraction(1, 4), "direct"),
            (2, "TL", Fraction(1, 4), "direct"),
        ]
        assert all(c["ok"] for c in verify_ratios(run, ledger, 3))

    def test_case2a_doubling(self):
        run = synthetic_run(CASE2A, 13, (1,), Segment(Point(3, 4), Point(3, 8)))
        ledger = charge_three(run)
        right = sorted(
            (e.payee, e.corner, e.kind) for e in ledger.entries if e.side == "right"
        )
        assert right == [(2, "TL", "direct"), (2, "TL", "indirect_a")]
        left = sorted(
            (e.payee, e.corner, e.kind) for e in ledger.entries if e.side == "left"
        )
        assert left == [(0, "BR", "direct"), (0, "TR", "direct")]
        report = verify_ratios(run, ledger, 7)
        assert all(c["ok"] for c in report), report

    def test_case2b_blocker_corner(self):
        run = synthetic_run(CASE2B, 13, (1,), Segment(Point(3, 4), Point(3, 8)))
        ledger = charge_three(run)
        right = sorted(
            (e.payee, e.corner, e.kind, e.seen)
            for e in ledger.entries
            if e.side == "right"
        )
        assert right == [
            (2, "TL", "direct", True),
            (3, "BL", "indirect_b", False),
        ]
        report = verify_ratios(run, ledger, 7)
        assert all(c["ok"] for c in report), report

    @pytest.mark.parametrize("rects", [CASE2A, CASE2B], ids=["case2a", "case2b"])
    def test_aligned_bottom_mirrors_aligned_top(self, rects):
        # Reflected in y, rect 1's one seen corner on its right is rect 2's
        # bottom-left (aligned bottoms): every token is the aligned-top
        # token with its corner reflected (the two corners seen on the
        # left swap their scan order, so the tokens are compared sorted).
        top = charge_three(synthetic_run(rects, 13, (1,), Segment(Point(3, 4), Point(3, 8))))
        flipped = [Rect(r.xl, 13 - r.yt, r.xr, 13 - r.yb) for r in rects]
        run = synthetic_run(flipped, 13, (1,), Segment(Point(3, 5), Point(3, 9)))
        bottom = charge_three(run)
        assert sorted(
            (e.side, e.payee, _MIRROR_Y_CORNER[e.corner], e.kind, e.seen)
            for e in top.entries
        ) == sorted((e.side, e.payee, e.corner, e.kind, e.seen) for e in bottom.entries)
        if rects is CASE2B:
            right = [(e.payee, e.corner, e.kind, e.seen) for e in bottom.entries if e.side == "right"]
            assert right == [(2, "BL", "direct", True), (3, "TL", "indirect_b", False)]
        report = verify_ratios(run, bottom, 7)
        assert all(c["ok"] for c in report), report

    def test_round_trip_json(self):
        run = synthetic_run(CASE2A, 13, (1,), Segment(Point(3, 4), Point(3, 8)))
        ledger = charge_three(run)
        again = ledger_from_json(ledger_to_json(ledger))
        assert again.entries == ledger.entries


def staircase(n_cols: int = 5):
    """Column tiling of S with descending split heights: the lower bricks
    chain left to right in the see-forest."""
    n = 2 * n_cols
    side = 2 * n - 1
    xs = [round(i * side / n_cols) for i in range(n_cols + 1)]
    rects = []
    for i in range(n_cols):
        y = side - 4 - 2 * i
        rects.append(Rect(xs[i], 0, xs[i + 1], y))      # lower brick 2i
        rects.append(Rect(xs[i], y, xs[i + 1], side))   # upper brick 2i+1
    return rects, side


class TestChargeTwoEps:
    def test_forest_structure(self):
        rects, side = staircase()
        m = MaximalSet(tuple(rects), tuple(range(len(rects))), side)
        assert_maximal(m)
        forest = build_see_forest(rects)
        lows = list(range(0, len(rects), 2))
        for a, b in zip(lows, lows[1:]):
            assert forest.next[a] == b
        assert forest.next[lows[-1]] is None
        assert all(d <= 1 for d in forest.in_degrees())

    def test_in_degree_on_random_maximal_sets(self):
        rng = random.Random(1)
        for _ in range(25):
            inst = random_instance(rng, rng.randrange(3, 10))
            m = maximal_extension(exact_mis(inst), inst)
            forest = build_see_forest(m.rects)
            assert all(d <= 1 for d in forest.in_degrees())

    def test_long_path_distributes_quota(self):
        rects, side = staircase()
        ell = Segment(Point(2, 1), Point(2, 2))
        run = synthetic_run(rects, side, (0,), ell, regime="two_eps", eps=Fraction(1, 2))
        ledger, forest = charge_two_eps(run, Fraction(1, 2))
        got = sorted((e.payee, e.amount, e.kind) for e in ledger.entries)
        assert got == [
            (2, Fraction(1, 4), "path_unit"),
            (4, Fraction(1, 4), "path_unit"),
            (6, Fraction(1, 4), "path_unit"),
            (8, Fraction(1, 4), "path_unit"),
        ]
        assert not ledger.flags
        report = verify_ratios(run, ledger, len(rects), forest)
        assert all(c["ok"] for c in report), report

    def test_eps_one_distributes_two(self):
        rects, side = staircase()
        ell = Segment(Point(2, 1), Point(2, 2))
        run = synthetic_run(rects, side, (0,), ell, regime="two_eps", eps=Fraction(1))
        ledger, _ = charge_two_eps(run, Fraction(1))
        assert sorted(e.payee for e in ledger.entries) == [2, 4]
        assert all(e.amount == Fraction(1, 2) for e in ledger.entries)

    def test_short_path_boundary_nice_flagged(self):
        rects, side = staircase()
        lows = list(range(0, len(rects), 2))
        payer = lows[-2]
        r = rects[payer]
        ell = Segment(Point(r.xl + 1, 1), Point(r.xl + 1, 2))
        run = synthetic_run(rects, side, (payer,), ell, regime="two_eps", eps=Fraction(1, 2))
        ledger, _ = charge_two_eps(run, Fraction(1, 2))
        assert len(ledger.entries) == 1  # only one hop available
        assert ledger.flags and "boundary-nice" in ledger.flags[0]

    def test_case_2b_leaving_polygon_raises(self):
        rects, side = staircase()
        col0 = RectPolygon.from_rect(Rect(0, 0, rects[0].xr, side))
        ell = Segment(Point(2, 1), Point(2, 2))
        run = synthetic_run(
            rects, side, (0,), ell, regime="two_eps", eps=Fraction(1, 2),
            polygon=col0, rect_ids=(0, 1),
        )
        with pytest.raises(ChargingError):
            charge_two_eps(run, Fraction(1, 2))

    def test_red_leaf_receives_unit_only(self):
        # the payer's unique out-edge leads to a rect with no further
        # out-edge whose bottom is interior: the whole unit lands there and
        # no epsilon/2 charges are placed on the way
        rects = [
            Rect(0, 4, 2, 10),    # 0
            Rect(2, 4, 4, 10),    # 1: the intersected payer
            Rect(4, 4, 7, 10),    # 2: red terminal (not horizontally nice)
            Rect(7, 0, 13, 13),   # 3: right wall
            Rect(0, 10, 7, 13),   # 4: top slab
            Rect(0, 0, 4, 4),     # 5
            Rect(4, 0, 7, 4),     # 6
        ]
        run = synthetic_run(
            rects, 13, (1,), Segment(Point(3, 5), Point(3, 9)),
            regime="two_eps", eps=Fraction(1, 2),
        )
        from misr.structure import classify_nice

        nice = classify_nice(MaximalSet(tuple(rects), tuple(range(7)), 13))
        assert 2 not in nice.horizontally_nice
        assert 1 in nice.horizontally_nice
        ledger, forest = charge_two_eps(run, Fraction(1, 2))
        assert [(e.payee, e.amount, e.kind) for e in ledger.entries] == [
            (2, Fraction(1), "leaf_full")
        ]
        assert not ledger.flags
        report = verify_ratios(run, ledger, 7, forest)
        assert all(c["ok"] for c in report), report

    def test_distance_fence_chain_verified(self):
        from misr.charging import _distance_fence_chain

        rects, side = staircase()
        lows = [0, 2, 4, 6, 8]
        segs = _distance_fence_chain(rects, lows)
        assert len(segs) == 2 * 4 + 1


class TestVerifyRegression:
    def test_unsaved_payee_detected(self):
        run = synthetic_run(SLABS, 5, (1,), Segment(Point(3, 1), Point(3, 4)))
        ledger = charge_six(run)
        # corrupt: pretend rect 0 was lost
        object.__setattr__(run, "tracked", frozenset({2}))
        report = verify_ratios(run, ledger, 3)
        named = {c["name"]: c["ok"] for c in report}
        assert not named["charged_implies_saved"]
