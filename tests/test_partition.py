import dataclasses
import random
from fractions import Fraction
from unittest import mock

import pytest

from misr.geom_core import Point, Rect, RectPolygon, Segment, segment_intersects_rect
from misr import partition
from misr.instance import exact_mis, generate, preprocess
from misr.partition import (
    ConstructionError,
    chord_distance,
    general_partition_cut,
    line_partition_cut,
    recursive_partition,
    validate_partition,
    vertical_spanning_segment,
    _make_chord,
)
from misr.structure import is_protected, is_tau_protected, maximal_extension
from oracles import (
    all_chords,
    blob_polygon,
    cells_to_polygon,
    criterion_6_units,
    fill_with_maximal_rects,
    notched_polygon,
)


def ceil_div(a, b):
    return -(-a // b)


class TestVerticalSpanningSegment:
    def test_rectangle(self):
        poly = RectPolygon.from_rect(Rect(0, 0, 5, 3))
        seg, chord = vertical_spanning_segment(poly)
        assert chord_distance(poly, chord) == 2
        assert seg.vertical and seg.length == 3

    def test_meets_k_over_3_with_oracle(self):
        rng = random.Random(0)
        for trial in range(60):
            poly = blob_polygon(rng, grid=7, cells=rng.randrange(6, 24))
            k = poly.num_edges
            if k < 4 or k > 24:
                continue
            seg, chord = vertical_spanning_segment(poly)
            # the first chord of greatest distance, in the oracle's order
            best = max(all_chords(poly), key=lambda c: chord_distance(poly, c))
            assert chord == best, (poly, chord, best)
            assert seg == Segment(Point(chord.x, chord.ylo), Point(chord.x, chord.yhi))
            assert 3 * chord_distance(poly, chord) >= k

    def test_chord_inside_polygon(self):
        rng = random.Random(1)
        for _ in range(20):
            poly = blob_polygon(rng, grid=6, cells=12)
            seg, _ = vertical_spanning_segment(poly)
            assert poly.contains_segment(seg)


def check_line_cut_postconditions(poly, rects, res):
    assert len(res.cut.segments) <= 8
    assert 2 <= len(res.components) <= 3
    from misr.geom_core import is_horizontally_convex

    for comp in res.components:
        assert comp.is_simple
        assert comp.num_edges <= 26
        assert is_horizontally_convex(comp)
    nonell = [s for s in res.cut.segments if s != res.ell]
    for _rid, r in rects:
        for s in nonell:
            assert not segment_intersects_rect(s, r)
    for rid in res.intersected:
        assert not is_protected(dict(rects)[rid], poly, rects)
    assert sum(c.area2() for c in res.components) == poly.area2()


class TestLinePartitionCut:
    def test_two_stacked_slabs(self):
        side = 9
        poly = RectPolygon.from_rect(Rect(0, 0, side, side))
        rects = [(0, Rect(0, 0, side, 4)), (1, Rect(0, 4, side, side))]
        res = line_partition_cut(poly, rects)
        assert res.intersected == ()
        assert len(res.components) >= 2
        check_line_cut_postconditions(poly, rects, res)

    def test_random_hconvex_suite(self):
        rng = random.Random(2)
        done = 0
        cases = set()
        while done < 40:
            k = rng.choice((8, 12, 16, 20, 26))
            try:
                poly = notched_polygon(
                    rng, k, width=rng.randrange(10, 18),
                    height=rng.randrange(8, 14), h_convex_only=True,
                )
            except ValueError:
                continue
            rects = list(enumerate(fill_with_maximal_rects(rng, poly, rng.randrange(2, 6))))
            if len(rects) < 2:
                continue
            res = line_partition_cut(poly, rects)
            check_line_cut_postconditions(poly, rects, res)
            cases.add(res.case.split("+")[0])
            done += 1
        assert "line" in cases or "line-degenerate" in cases

    def test_separating_cut_splits_once(self):
        """A line cut that separates without repair is split once: its
        separation test and the finisher share one split."""
        line_units, _ = criterion_6_units()
        real = partition.split_components
        calls = []

        def counted(poly, cut):
            calls.append(cut)
            return real(poly, cut)

        checked = 0
        with mock.patch.object(partition, "split_components", counted):
            for _k, poly, rects in line_units:
                calls.clear()
                res = line_partition_cut(poly, rects)
                if res.case in ("line", "line+mirrored"):
                    assert len(calls) == 1, (poly, rects, res.case, calls)
                    checked += 1
        assert checked > 100, checked

    def test_needs_two_rects(self):
        poly = RectPolygon.from_rect(Rect(0, 0, 4, 4))
        with pytest.raises(ConstructionError):
            line_partition_cut(poly, [(0, Rect(0, 0, 4, 2))])

    def test_rejects_nonconvex(self):
        poly = RectPolygon(
            [Point(0, 0), Point(0, 4), Point(6, 4), Point(6, 0), Point(4, 0),
             Point(4, 2), Point(2, 2), Point(2, 0)]
        )
        with pytest.raises(ConstructionError):
            line_partition_cut(
                poly, [(0, Rect(0, 2, 1, 4)), (1, Rect(5, 2, 6, 4))]
            )


def check_general_postconditions(poly, rects, res, tau):
    assert len(res.cut.segments) <= 2 * tau + 1
    assert len(res.components) == 2
    for comp in res.components:
        assert comp.is_simple
        assert comp.num_edges <= 30 * tau + 18
    nonell = [s for s in res.cut.segments if s != res.ell]
    for _rid, r in rects:
        for s in nonell:
            assert not segment_intersects_rect(s, r)
    for rid in res.intersected:
        assert not is_tau_protected(dict(rects)[rid], poly, rects, tau)
    assert sum(c.area2() for c in res.components) == poly.area2()


# A 46-edge unit of the tau = 1 general cut (notched_polygon with 13
# maximal rects), cut around the chord x = 1, y = 0..20 (d = 16).  Its
# best chord, x = 7 (d = 22), gives a clean cut, so the failure shows
# only with the old chord passed in.
CASE_2B_POLY = [
    (0, 1), (0, 6), (1, 6), (1, 7), (0, 7), (0, 12), (1, 12), (1, 13), (0, 13),
    (0, 15), (1, 15), (1, 16), (0, 16), (0, 20), (4, 20), (4, 19), (5, 19),
    (5, 20), (11, 20), (11, 19), (12, 19), (12, 20), (26, 20), (26, 14),
    (25, 14), (25, 13), (26, 13), (26, 8), (25, 8), (25, 7), (26, 7), (26, 0),
    (18, 0), (18, 1), (17, 1), (17, 0), (12, 0), (12, 1), (11, 1), (11, 0),
    (8, 0), (8, 1), (7, 1), (7, 0), (1, 0), (1, 1),
]
CASE_2B_RECTS = [
    (5, 1, 11, 20), (1, 0, 5, 19), (11, 8, 26, 13), (0, 19, 4, 20),
    (11, 14, 26, 19), (11, 1, 26, 7), (12, 19, 26, 20), (11, 7, 25, 8),
    (11, 13, 25, 14), (0, 7, 1, 12), (5, 0, 7, 1), (18, 0, 26, 1), (8, 0, 11, 1),
]


def case_2b_unit():
    poly = RectPolygon([Point(x, y) for x, y in CASE_2B_POLY])
    return poly, [(i, Rect(*r)) for i, r in enumerate(CASE_2B_RECTS)]


def case1_fixture():
    """48-edge polygon with fence-blocking walls: the spanning chord's
    middle is uncovered, forcing the bottom-to-top transition cut, whose
    vertical segment pierces the unprotected middle rect."""
    W, H = 22, 40
    blob = {(x, y) for x in range(W) for y in range(H)}
    for y in (3, 7, 11, 26, 30, 34):
        blob.discard((0, y))
    for y in (4, 9, 14, 27, 33):
        blob.discard((W - 1, y))
    poly = cells_to_polygon(blob)
    rects = [Rect(2, 8, 9, 32), Rect(13, 8, 20, 32), Rect(9, 18, 13, 22)]
    chord = _make_chord(poly, 11, 0, H)
    return poly, rects, chord


class TestGeneralPartitionCut:
    def test_case0_no_intersections(self):
        rng = random.Random(3)
        for tau in (1, 3, 7):
            done = 0
            while done < 8:
                k = rng.choice((8, 12, 16, 20))
                try:
                    poly = notched_polygon(rng, k, width=14, height=10)
                except ValueError:
                    continue
                rects = list(
                    enumerate(fill_with_maximal_rects(rng, poly, rng.randrange(2, 5)))
                )
                if len(rects) < 2:
                    continue
                res = general_partition_cut(poly, rects, tau)
                assert res.case.startswith("general-0")
                assert res.intersected == ()
                check_general_postconditions(poly, rects, res, tau)
                done += 1

    def test_main_case_tau1(self):
        rng = random.Random(4)
        done = 0
        cases = set()
        while done < 15:
            k = rng.choice((46, 48))
            try:
                poly = notched_polygon(rng, k, width=26, height=20)
            except ValueError:
                continue
            rects = list(
                enumerate(fill_with_maximal_rects(rng, poly, rng.randrange(2, 6)))
            )
            if len(rects) < 2:
                continue
            res = general_partition_cut(poly, rects, tau=1)
            check_general_postconditions(poly, rects, res, 1)
            cases.add(res.case.split("+")[0])
            done += 1
        assert cases & {"general-1a", "general-1b", "general-2a", "general-2a'",
                        "general-2bi", "general-2bi'", "general-2biiA",
                        "general-2biiB"}

    def test_case1b_pierces_unprotected_middle(self):
        poly, rects, chord = case1_fixture()
        rin = list(enumerate(rects))
        assert not is_tau_protected(rects[2], poly, rin, 1)
        res = general_partition_cut(poly, rin, tau=1, ell0=chord)
        assert res.case.startswith("general-1b")
        assert res.intersected == (2,)
        assert res.ell is not None and res.ell.vertical
        check_general_postconditions(poly, rin, res, 1)

    def test_protected_middle_is_spared(self):
        # removing the left wall exposes the middle rect to covering
        # fences from the left boundary; the cut must then avoid it
        poly, rects, chord = case1_fixture()
        rects = [Rect(13, 8, 20, 32), Rect(9, 18, 13, 22)]
        rin = list(enumerate(rects))
        assert is_tau_protected(rects[1], poly, rin, 1)
        res = general_partition_cut(poly, rin, tau=1, ell0=chord)
        assert 1 not in res.intersected
        check_general_postconditions(poly, rin, res, 1)

    @pytest.mark.xfail(
        strict=True, raises=ConstructionError,
        reason="case 2b: stop anchored on LM contradicts f's choice",
    )
    def test_case2b_reproducer(self):
        poly, rin = case_2b_unit()
        res = general_partition_cut(poly, rin, 1, ell0=_make_chord(poly, 1, 0, 20))
        check_general_postconditions(poly, rin, res, 1)

    def test_case2b_unit_under_best_chord(self):
        poly, rin = case_2b_unit()
        _seg, chord = vertical_spanning_segment(poly)
        assert (chord.x, chord.ylo, chord.yhi) == (7, 1, 20)
        assert chord_distance(poly, chord) == 22
        assert chord_distance(poly, _make_chord(poly, 1, 0, 20)) == 16
        res = general_partition_cut(poly, rin, 1)
        assert res.case == "general-2a+repair+mirrored"
        check_general_postconditions(poly, rin, res, 1)

    def test_main_case_tau3(self):
        rng = random.Random(5)
        done = 0
        while done < 3:
            try:
                poly = notched_polygon(rng, 106, width=60, height=40)
            except ValueError:
                continue
            rects = list(
                enumerate(fill_with_maximal_rects(rng, poly, rng.randrange(2, 6)))
            )
            if len(rects) < 2:
                continue
            res = general_partition_cut(poly, rects, tau=3)
            check_general_postconditions(poly, rects, res, 3)
            done += 1

    def test_edge_budget_guard(self):
        rng = random.Random(6)
        poly = notched_polygon(rng, 52, width=26, height=20)
        rects = list(enumerate(fill_with_maximal_rects(rng, poly, 3)))
        with pytest.raises(ConstructionError):
            general_partition_cut(poly, rects, tau=1)  # 52 > 30*1+18


class TestRecursivePartition:
    def test_disjoint_rects_all_tracked(self):
        inst = generate("stacked_strips", 6, 0)
        m = maximal_extension(exact_mis(inst), inst)
        for regime, kw in (("six", {}), ("three", {}), ("two_eps", {"eps": Fraction(1)})):
            run = recursive_partition(m, regime, **kw)
            assert run.tracked == frozenset(range(6))
            assert all(run.nodes[v].intersected == () for v in run.trace)

    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize("regime", ["six", "three"])
    def test_driver_rejects_intersected_protected_rect(self, regime, check):
        # a cut that reports a rect protected at its node as intersected
        if regime == "six":
            cutter = "line_partition_cut"
            protected = is_protected
        else:
            cutter = "general_partition_cut"
            protected = lambda r, poly, rin: is_tau_protected(r, poly, rin, 7)
        real = getattr(partition, cutter)

        def faulty(poly, rects, *args, **kwargs):
            res = real(poly, rects, *args, **kwargs)
            for rid, r in rects:
                if rid not in res.intersected and protected(r, poly, rects):
                    extra = tuple(sorted(res.intersected + (rid,)))
                    return dataclasses.replace(res, intersected=extra)
            return res

        inst = generate("uniform_random", 8, 0)
        m = maximal_extension(exact_mis(inst), inst)
        with mock.patch.object(partition, cutter, faulty):
            with pytest.raises(ConstructionError, match="protected rectangle"):
                recursive_partition(m, regime, check=check)

    def test_windmill_bounds(self):
        inst = generate("windmill", 5, 0)
        opt = exact_mis(inst)
        m = maximal_extension(opt, inst)
        run6 = recursive_partition(m, "six")
        assert 6 * len(run6.tracked) >= opt.size
        run3 = recursive_partition(m, "three")
        assert 3 * len(run3.tracked) >= opt.size

    def test_tree_validates(self):
        rng = random.Random(7)
        for seed in range(6):
            inst = generate("uniform_random", rng.randrange(3, 9), seed)
            m = maximal_extension(exact_mis(inst), inst)
            run = recursive_partition(m, "six")
            report = validate_partition(run)
            assert all(c["ok"] for c in report), report

    def test_validtrain_catches_bad_tree(self):
        inst = generate("stacked_strips", 3, 0)
        m = maximal_extension(exact_mis(inst), inst)
        run = recursive_partition(m, "six")
        # corrupt: pretend a leaf holds two tracked rects by shrinking the
        # tree to the root only
        run.nodes = [run.nodes[0]]
        run.nodes[0].children = []
        report = validate_partition(run)
        assert any(not c["ok"] for c in report)

    def test_two_eps_requires_unit_fraction(self):
        inst = generate("stacked_strips", 3, 0)
        m = maximal_extension(exact_mis(inst), inst)
        with pytest.raises(ConstructionError):
            recursive_partition(m, "two_eps", eps=Fraction(2, 3))

    def test_transpose_normalization(self):
        # a column of wide slabs is rich in vertical nesting; the transpose
        # flag must keep horizontally nested rects at most half
        from misr.structure import classify_nesting, MaximalSet

        inst = preprocess(
            [Rect(0, 0, 20, 2), Rect(2, 2, 18, 4), Rect(4, 4, 16, 6),
             Rect(2, 6, 18, 8), Rect(0, 8, 20, 10)]
        )
        m = maximal_extension(exact_mis(inst), inst)
        run = recursive_partition(m, "six")
        wm = MaximalSet(run.work_rects, run.origin, run.side)
        lab = classify_nesting(wm)
        assert 2 * len(lab.horizontally_nested) <= len(run.work_rects)
