import random
from fractions import Fraction

import pytest

from misr.geom_core import Point, Rect, RectPolygon
from misr.instance import Solution, exact_mis, generate, preprocess
from misr.structure import (
    LineFences,
    MaximalSet,
    StructureError,
    assert_maximal,
    classify_nesting,
    classify_nice,
    maximal_extension,
    sees,
    seen_corners_on_side,
)
from misr.partition import recursive_partition
from oracles import (
    check_niceness_observation,
    fill_with_maximal_rects,
    notched_polygon,
    ref_assert_maximal,
    ref_classify_nesting,
    ref_maximal_extension,
    ref_sees,
    ref_seen_corners_on_side,
)
from sweep_digests import specs as sweep_specs
from test_instance import random_instance


def mset(rects, side):
    m = MaximalSet(tuple(rects), tuple(range(len(rects))), side)
    assert_maximal(m)
    return m


class TestMaximalExtension:
    def test_single_rect_fills_square(self):
        inst = preprocess([Rect(2, 3, 5, 9)])
        m = maximal_extension(Solution((0,)), inst)
        assert m.rects == (Rect(0, 0, inst.side, inst.side),)

    def test_two_side_by_side_tile_between(self):
        inst = preprocess([Rect(0, 0, 2, 4), Rect(5, 1, 7, 3)])
        m = maximal_extension(Solution((0, 1)), inst)
        a, b = m.rects
        assert a.xr == b.xl  # shared vertical boundary
        assert (a.yb, a.yt) == (0, inst.side) and (b.yb, b.yt) == (0, inst.side)
        assert a.xl == 0 and b.xr == inst.side

    def test_idempotent_on_maximal_set(self):
        rng = random.Random(0)
        for _ in range(20):
            inst = random_instance(rng, rng.randrange(2, 9))
            opt = exact_mis(inst)
            m = maximal_extension(opt, inst)
            grown_inst = preprocess(list(m.rects))
            # re-extending already-maximal rects changes nothing (the
            # preprocessing is identity here: coordinates already compact)
            if grown_inst.rects == m.rects and grown_inst.side == m.side:
                m2 = maximal_extension(
                    Solution(tuple(range(len(m.rects)))), grown_inst
                )
                assert m2.rects == m.rects

    def test_every_direction_blocked(self):
        rng = random.Random(1)
        for _ in range(30):
            inst = random_instance(rng, rng.randrange(1, 9))
            m = maximal_extension(exact_mis(inst), inst)
            assert_maximal(m)  # raises on any growable direction

    def test_one_cycle_matches_fixpoint(self):
        # one growth cycle per rect reaches the fixpoint the reference
        # repeats cycles to
        cases = 0
        families = ("uniform_random", "nested_grid", "windmill", "stacked_strips", "packed")
        for family in families:
            for n in range(1, 31):
                for seed in range(3):
                    inst = generate(family, n, seed)
                    opt = exact_mis(inst, cap=n)
                    assert maximal_extension(opt, inst) == ref_maximal_extension(opt, inst)
                    cases += 1
        rng = random.Random(5)
        for _ in range(100):
            inst = random_instance(rng, rng.randrange(1, 12))
            opt = exact_mis(inst)
            assert maximal_extension(opt, inst) == ref_maximal_extension(opt, inst)
            cases += 1
        assert cases == 550

    def test_matches_reference_at_scale(self):
        # packed n = 120: rects facing one another in both orders; a 10 x 10
        # pinwheel without hubs, every arm chosen: each facing coordinate
        # is shared by a whole row or column of arms
        for seed in range(3):
            inst = generate("packed", 120, seed)
            opt = exact_mis(inst, cap=120)
            assert maximal_extension(opt, inst) == ref_maximal_extension(opt, inst)
        inst = generate("pinwheel", 400, 0)
        opt = Solution(tuple(range(inst.n)))
        assert maximal_extension(opt, inst) == ref_maximal_extension(opt, inst)

    def test_rejects_dependent_input(self):
        inst = preprocess([Rect(0, 0, 4, 4), Rect(1, 1, 5, 5)])
        with pytest.raises(Exception):
            maximal_extension(Solution((0, 1)), inst)


class TestAssertMaximalMessages:
    """The first failure is reported, as the reference reports it: the
    least overlapping pair, else the least rect and its first growable
    direction in the order left, right, bottom, top."""

    def outcome(self, check, rects, side):
        try:
            check(MaximalSet(tuple(rects), tuple(range(len(rects))), side))
        except StructureError as exc:
            return str(exc)
        return None

    def test_two_overlapping_pairs(self):
        # the pair (1, 2) lies left of the pair (0, 3)
        rects = [Rect(6, 0, 8, 2), Rect(0, 0, 2, 2), Rect(1, 1, 3, 3), Rect(7, 1, 9, 3)]
        for check in (assert_maximal, ref_assert_maximal):
            assert self.outcome(check, rects, 9) == "extended rects 0,3 overlap"

    def test_two_growable_directions(self):
        # rect 0 could grow top; rect 1 could grow right and top
        rects = [Rect(0, 0, 4, 5), Rect(4, 0, 6, 3), Rect(7, 0, 8, 8), Rect(0, 6, 4, 8)]
        for check in (assert_maximal, ref_assert_maximal):
            assert self.outcome(check, rects, 8) == "rect 0 could still grow top"
        rects[0] = Rect(0, 0, 4, 6)  # rect 0 now meets rect 3
        for check in (assert_maximal, ref_assert_maximal):
            assert self.outcome(check, rects, 8) == "rect 1 could still grow right"

    def test_left_before_bottom(self):
        # rect 1 could grow left and bottom, rect 2 right
        rects = [Rect(0, 0, 2, 4), Rect(3, 2, 4, 4), Rect(2, 0, 3, 1)]
        for check in (assert_maximal, ref_assert_maximal):
            assert self.outcome(check, rects, 4) == "rect 1 could still grow left"


class TestNesting:
    def test_grid_tiling_all_neither(self):
        side = 7
        rects = [
            Rect(0, 0, 3, 3), Rect(3, 0, 7, 3), Rect(0, 3, 3, 7), Rect(3, 3, 7, 7)
        ]
        lab = classify_nesting(mset(rects, side))
        assert not lab.horizontally_nested and not lab.vertically_nested

    def test_hand_config(self):
        # middle rect's top edge inside the interior of the slab's bottom edge
        side = 9
        rects = [
            Rect(0, 5, 9, 9),   # top slab
            Rect(2, 0, 5, 5),   # vertically nested under it
            Rect(5, 0, 9, 5),   # flush to the right corner: not nested
            Rect(0, 0, 2, 5),   # flush to the left corner: not nested
        ]
        lab = classify_nesting(mset(rects, side))
        assert 1 in lab.vertically_nested
        assert 1 not in lab.horizontally_nested
        assert 2 not in lab.vertically_nested
        assert 3 not in lab.vertically_nested

    def test_never_both_on_random(self):
        rng = random.Random(2)
        for _ in range(40):
            inst = random_instance(rng, rng.randrange(2, 10))
            m = maximal_extension(exact_mis(inst), inst)
            classify_nesting(m)  # raises if some rect carries both labels

    @staticmethod
    def outcome(classify, m):
        try:
            return classify(m)
        except StructureError as exc:
            return str(exc)

    def test_matches_reference_on_maximal_sets(self):
        """The edge-bucket pass equals the double loop on the sweep's maximal
        sets, pinwheels with and without hubs and packed sets."""
        specs = sweep_specs() + [("pinwheel", n, s) for n in (16, 36, 64, 100) for s in (0, 1)]
        specs += [("pinwheel", 400, 0)] + [("packed", n, s) for n in (48, 60) for s in range(3)]
        nested = 0
        for family, n, seed in specs:
            inst = generate(family, n, seed)
            m = maximal_extension(exact_mis(inst, cap=n), inst)
            lab = classify_nesting(m)
            assert lab == ref_classify_nesting(m), (family, n, seed)
            nested += bool(lab.horizontally_nested) + bool(lab.vertically_nested)
        assert nested > len(specs)

    def test_matches_reference_on_overlapping_sets(self):
        """Also on sets that are neither disjoint nor maximal, where a rect
        may carry both labels and the least such rect is reported."""
        rng = random.Random(5)
        raised = 0
        for _ in range(400):
            side = rng.randrange(3, 8)
            rects = []
            for _ in range(rng.randrange(1, 9)):
                xl, xr = sorted(rng.sample(range(side + 1), 2))
                yb, yt = sorted(rng.sample(range(side + 1), 2))
                rects.append(Rect(xl, yb, xr, yt))
            m = MaximalSet(tuple(rects), tuple(range(len(rects))), side)
            got = self.outcome(classify_nesting, m)
            assert got == self.outcome(ref_classify_nesting, m), rects
            raised += isinstance(got, str)
        assert raised > 0

    def test_both_nested_reports_the_least_rect(self):
        # rect 1 meets a taller rect on its left edge and a wider one on
        # its top edge; rect 3 is a copy of it
        left, inner, above = Rect(0, 1, 2, 5), Rect(2, 2, 4, 4), Rect(1, 4, 6, 6)
        m = MaximalSet((left, inner, above, inner), (0, 1, 2, 3), 9)
        for classify in (classify_nesting, ref_classify_nesting):
            expected = "rect 1 is both horizontally and vertically nested"
            assert self.outcome(classify, m) == expected


BASE = [
    Rect(0, 3, 4, 6),   # 0: the seer
    Rect(6, 4, 9, 7),   # 1: to the right, TL corner at (6,7) above the seer
    Rect(6, 0, 9, 3),   # 2: to the right, below
    Rect(4, 6, 8, 9),   # 3
]


class TestSees:
    def test_simple_corridor(self):
        rects = [Rect(0, 2, 3, 6), Rect(5, 2, 8, 6)]
        assert sees(rects, 0, 1, "TL", "right")
        assert sees(rects, 0, 1, "BL", "right")  # p = BR of 0 is allowed here
        assert sees(rects, 1, 0, "TR", "left")
        assert sees(rects, 1, 0, "BR", "left")  # p = BL of 1 is allowed here

    def test_excluded_p_top_right_for_bl(self):
        # seeing a BL corner whose corridor starts at the seer's top-right
        # corner is excluded: the target would be entirely above the seer;
        # likewise a BR corner on the left from the seer's top-left corner,
        # and a TR corner below from the seer's bottom-left corner
        for rects, corner, side in (
            ([Rect(0, 2, 3, 6), Rect(5, 6, 8, 9)], "BL", "right"),
            ([Rect(5, 2, 8, 6), Rect(0, 6, 3, 9)], "BR", "left"),
            ([Rect(2, 5, 6, 9), Rect(0, 0, 2, 4)], "TR", "bottom"),
        ):
            assert not sees(rects, 0, 1, corner, side), (corner, side)
        # the other end of the bottom edge is allowed
        assert sees([Rect(2, 5, 6, 9), Rect(0, 0, 6, 4)], 0, 1, "TR", "bottom")

    def test_blocked_corridor(self):
        # the last rect crosses the corridor; without it the corner is seen
        for rects, corner, side in (
            ([Rect(0, 2, 3, 6), Rect(5, 2, 8, 6), Rect(4, 0, 5, 8)], "TL", "right"),
            ([Rect(5, 2, 8, 6), Rect(0, 2, 3, 6), Rect(3, 0, 4, 8)], "TR", "left"),
            ([Rect(5, 2, 8, 6), Rect(0, 2, 3, 6), Rect(3, 0, 4, 8)], "BR", "left"),
            ([Rect(2, 5, 6, 9), Rect(2, 0, 6, 3), Rect(5, 3, 8, 4)], "TR", "bottom"),
        ):
            assert not sees(rects, 0, 1, corner, side), (corner, side)
            assert sees(rects[:2], 0, 1, corner, side), (corner, side)

    def test_top_edge_containment_excluded(self):
        # corridor passes exactly along the top edge of a middle rect:
        # seeing TL of rect 1 at height 6 would contain rect 2's top edge;
        # the same for the bottom edge under BL and BR and for the right
        # edge below.  Without the middle rect the corner is seen.
        for rects, corner, side in (
            ([Rect(0, 2, 3, 6), Rect(8, 2, 11, 6), Rect(4, 0, 7, 6)], "TL", "right"),
            ([Rect(0, 2, 3, 6), Rect(8, 2, 11, 6), Rect(4, 2, 7, 8)], "BL", "right"),
            ([Rect(8, 2, 11, 6), Rect(0, 2, 3, 6), Rect(4, 0, 7, 6)], "TR", "left"),
            ([Rect(8, 2, 11, 6), Rect(0, 2, 3, 6), Rect(4, 2, 7, 8)], "BR", "left"),
            ([Rect(2, 8, 6, 11), Rect(2, 0, 6, 3), Rect(4, 4, 6, 7)], "TR", "bottom"),
        ):
            assert not sees(rects, 0, 1, corner, side), (corner, side)
            assert sees(rects[:2], 0, 1, corner, side), (corner, side)

    def test_degenerate_touching_corridor(self):
        # the corner lies on the seer's facing edge: a corridor of length 0
        for rects, corner, side in (
            ([Rect(0, 2, 4, 6), Rect(4, 0, 8, 4)], "TL", "right"),
            ([Rect(4, 2, 8, 6), Rect(0, 0, 4, 4)], "TR", "left"),
            ([Rect(4, 2, 8, 6), Rect(0, 4, 4, 8)], "BR", "left"),
            ([Rect(2, 4, 6, 8), Rect(0, 0, 4, 4)], "TR", "bottom"),
        ):
            assert sees(rects, 0, 1, corner, side), (corner, side)

    def test_excluded_p_bottom_right(self):
        # the corridor would start at the seer's bottom-right corner, or on
        # the left at its bottom-left corner
        for rects, corner, side in (
            ([Rect(0, 2, 4, 6), Rect(6, 0, 9, 2)], "TL", "right"),
            ([Rect(5, 2, 9, 6), Rect(0, 0, 3, 2)], "TR", "left"),
        ):
            assert not sees(rects, 0, 1, corner, side), (corner, side)

    def test_vertical_direction(self):
        rects = [Rect(2, 5, 6, 9), Rect(2, 0, 6, 4)]
        assert sees(rects, 0, 1, "TR", "bottom")
        with pytest.raises(StructureError):
            sees(rects, 1, 0, "BL", "top")

    def test_corner_seen_at_most_once_per_direction(self):
        rng = random.Random(3)
        for _ in range(30):
            inst = random_instance(rng, rng.randrange(2, 10))
            m = maximal_extension(exact_mis(inst), inst)
            n = len(m.rects)
            for j in range(n):
                for corner, side in (
                    ("TL", "right"), ("BL", "right"), ("TR", "left"), ("BR", "left")
                ):
                    seers = [
                        i for i in range(n)
                        if i != j and sees(m.rects, i, j, corner, side)
                    ]
                    assert len(seers) <= 1, (j, corner, side, seers)

    def test_invalid_combo(self):
        with pytest.raises(StructureError):
            sees(BASE, 0, 1, "TL", "left")
        # a bad pair is reported before self-sight
        with pytest.raises(StructureError, match="invalid corner/side"):
            sees(BASE, 0, 0, "TL", "left")
        with pytest.raises(StructureError, match="does not see itself"):
            sees(BASE, 0, 0, "TL", "right")

    def test_frames_match_per_query_reflection(self):
        # the rect lists the visibility guarantee scans: every node of a
        # partition, every (side, corner) pair, against ref_sees, which
        # reflects the rects so that each corridor runs rightward
        combos = (
            ("right", "TL"), ("right", "BL"), ("left", "TR"), ("left", "BR"),
            ("bottom", "TR"),
        )
        seen = 0
        for family, n, regime in (
            ("uniform_random", 8, "three"), ("nested_grid", 8, "six"),
            ("windmill", 6, "two_eps"), ("packed", 12, "three"),
            # a rect crosses a rightward corridor only from n = 6 on here
            ("packed", 6, "six"),
        ):
            inst = generate(family, n, 1)
            m = maximal_extension(exact_mis(inst), inst)
            nice = classify_nice(m)
            for i in range(len(m.rects)):
                right = any(ref_sees(m.rects, i, j, "BL", "right")
                            for j in range(len(m.rects)) if j != i)
                below = any(ref_sees(m.rects, i, j, "TR", "bottom")
                            for j in range(len(m.rects)) if j != i)
                assert (i in nice.horizontally_nice) == (right or m.rects[i].yb == 0)
                assert (i in nice.vertically_nice) == (below or m.rects[i].xr == m.side)
            run = recursive_partition(
                m, regime, eps=Fraction(1, 2) if regime == "two_eps" else None
            )
            work = run.work_rects
            for node in run.nodes:
                ids = [i for i, r in enumerate(work) if node.polygon.contains_rect(r)]
                for i in ids:
                    for side in ("left", "right"):
                        got = seen_corners_on_side(work, i, side, ids)
                        assert got == ref_seen_corners_on_side(work, i, side, ids)
                        seen += len(got)
                    for j in ids:
                        if j != i:
                            for side, corner in combos:
                                assert sees(work, i, j, corner, side) == ref_sees(
                                    work, i, j, corner, side
                                ), (family, i, j, corner, side)
        assert seen > 100


class TestNice:
    def test_bottom_on_boundary_is_horizontally_nice(self):
        side = 5
        rects = [Rect(0, 0, 2, 5), Rect(2, 0, 5, 5)]
        nice = classify_nice(mset(rects, side))
        assert 0 in nice.horizontally_nice and 1 in nice.horizontally_nice

    def test_every_rect_gets_a_flag(self):
        rng = random.Random(4)
        for _ in range(40):
            inst = random_instance(rng, rng.randrange(2, 10))
            m = maximal_extension(exact_mis(inst), inst)
            classify_nice(m)  # raises when some rect has no flag

    def test_observation_holds(self):
        rng = random.Random(5)
        for _ in range(40):
            inst = random_instance(rng, rng.randrange(2, 10))
            m = maximal_extension(exact_mis(inst), inst)
            check_niceness_observation(m)


def anchors(poly):
    """(anchor point, left edge?) of every integral point of every
    vertical edge."""
    sides = poly.vertical_edge_sides()
    edges = poly.edges()
    for idx, side in sorted(sides.items()):
        e = edges[idx]
        y1, y2 = sorted((e.a.y, e.b.y))
        for y in range(y1, y2 + 1):
            yield Point(e.a.x, y), side == "left"


class TestLineFences:
    def poly(self):
        return RectPolygon.from_rect(Rect(0, 0, 9, 9))

    def test_empty_set_no_fences(self):
        fences = LineFences(self.poly(), [])
        assert all(fences.furthest(p, left) is None for p, left in anchors(self.poly()))

    def test_single_point_fence_on_shared_edge(self):
        # a rect whose left edge lies on the polygon's left boundary: the
        # anchors inside that edge hold point fences, and nothing more
        rects = [(0, Rect(0, 3, 4, 6))]
        fences = LineFences(self.poly(), rects)
        points = {
            p for p, left in anchors(self.poly()) if fences.furthest(p, left) == p.x
        }
        assert points == {Point(0, 4), Point(0, 5)}

    def test_fence_ends_at_features(self):
        rects = [(0, Rect(2, 3, 5, 6)), (1, Rect(7, 2, 9, 7))]
        fences = LineFences(self.poly(), rects)
        # from the left edge at the height of rect 0's top edge: the ray
        # passes its TR corner then stops inside rect 1's left edge
        assert fences.furthest(Point(0, 6), left=True) == 7
        # rect 1's left edge blocks the ray strictly inside its rows only
        assert fences.furthest(Point(0, 7), left=True) == 9
        # from the right edge at that height, rect 1's right edge lies
        # on the polygon's: a point fence
        assert fences.furthest(Point(9, 6), left=False) == 9
        # the least anchor crossing x = 6 at row 6 is on the left edge,
        # and at row 4 (through rect 0's interior) there is none
        assert fences.crossing_anchor(6, 6) == 0
        assert fences.crossing_anchor(4, 6) is None

    def test_fences_do_not_cross_rects(self):
        from misr.geom_core import Segment, segment_intersects_rect

        rng = random.Random(6)
        for _ in range(15):
            poly = notched_polygon(rng, rng.choice((8, 12, 16)), width=12, height=10)
            rects = list(enumerate(fill_with_maximal_rects(rng, poly, 3)))
            fences = LineFences(poly, rects)
            for p, left in anchors(poly):
                end = fences.furthest(p, left)
                if end is None:
                    continue
                seg = Segment(p, Point(end, p.y))
                assert poly.contains_walk((seg.a, seg.b))
                for _rid, r in rects:
                    assert not segment_intersects_rect(seg, r)


class TestProtection:
    def test_fence_covering_top_edge_protects(self):
        poly = RectPolygon.from_rect(Rect(0, 0, 9, 9))
        rects = [(0, Rect(3, 3, 6, 6))]
        assert LineFences(poly, rects).protected(Rect(3, 3, 6, 6))

    def test_blocked_rect_unprotected(self):
        poly = RectPolygon.from_rect(Rect(0, 0, 20, 20))
        mid = Rect(8, 8, 12, 11)
        rects = [
            (0, mid),
            (1, Rect(2, 6, 5, 13)),    # tall wall left of mid
            (2, Rect(15, 6, 18, 13)),  # tall wall right of mid
        ]
        assert not LineFences(poly, rects).protected(mid)
        assert LineFences(poly, rects).protected(Rect(2, 6, 5, 13))

    def test_tau_protection_monotone(self):
        rng = random.Random(7)
        for _ in range(10):
            poly = notched_polygon(rng, rng.choice((8, 12)), width=10, height=8)
            rects = fill_with_maximal_rects(rng, poly, 3)
            rin = list(enumerate(rects))
            for r in rects:
                flags = [
                    LineFences(poly, rin, tau).tau_protected(r) for tau in (1, 2, 3, 5)
                ]
                for a, b in zip(flags, flags[1:]):
                    assert not a or b, "tau-protection must be monotone in tau"

    def test_obs_two_extra_segments(self):
        # top edge covered by a 1-fence makes the rect 3-protected via the
        # chain around its left side
        poly = RectPolygon.from_rect(Rect(0, 0, 12, 12))
        mid = Rect(4, 4, 8, 8)
        walls = Rect(2, 7, 3, 12)
        rects = [(0, mid), (1, walls)]
        assert LineFences(poly, rects).protected(mid)
        assert LineFences(poly, rects, 3).tau_protected(mid)

    def test_unprotected_between_walls_for_small_tau(self):
        poly = RectPolygon.from_rect(Rect(0, 0, 20, 20))
        mid = Rect(8, 8, 12, 11)
        rects = [
            (0, mid),
            (1, Rect(2, 6, 5, 13)),
            (2, Rect(15, 6, 18, 13)),
        ]
        assert not LineFences(poly, rects, 1).tau_protected(mid)
        # with a big enough budget the chain can wind over the walls
        assert LineFences(poly, rects, 5).tau_protected(mid)
