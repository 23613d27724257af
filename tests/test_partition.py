import dataclasses
import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest

from misr.charging import charge_six, charge_three, charge_two_eps, verify_ratios
from misr.geom_core import Point, Rect, RectPolygon, Segment, segment_intersects_rect
from misr import partition, structure
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
from misr.structure import FenceEngine, LineFences, maximal_extension
from oracles import (
    NestedFenceEngine,
    all_chords,
    blob_polygon,
    cells_to_polygon,
    criterion_6_units,
    fill_with_maximal_rects,
    nested_is_tau_protected,
    notched_polygon,
    ref_line_anchor,
    ref_one_edge_anchors_both,
    ref_protecting_fences,
    ref_ray_crossing,
    ref_split_components,
)


def ceil_div(a, b):
    return -(-a // b)


class TestVerticalSpanningSegment:
    def test_rectangle(self):
        poly = RectPolygon.from_rect(Rect(0, 0, 5, 3))
        seg, chord = vertical_spanning_segment(poly)
        assert chord_distance(poly, chord) == 2
        assert (seg.a, seg.b) == (Point(0, 0), Point(0, 3))

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
            assert poly.contains_walk((seg.a, seg.b))


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
        assert not LineFences(poly, rects).protected(dict(rects)[rid])
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

    def test_degenerate_cut_splits_once(self, monkeypatch):
        """A line cut whose arms lie wholly on the boundary goes to the
        degenerate cut unsplit, so a line-degenerate node is split once,
        by the degenerate cut: every such node of six on uniform_random
        and nested_grid (seeds 0-1) and windmill at n = 3..10."""
        real_cut, real_split = partition.line_partition_cut, partition.split_components
        calls = []
        depth = [0]  # a mirrored cut calls itself
        cases = Counter()

        def counted(poly, cut):
            calls.append(cut)
            return real_split(poly, cut)

        def cut(poly, rects, fences=None):
            if depth[0] == 0:
                calls.clear()
            depth[0] += 1
            try:
                res = real_cut(poly, rects, fences)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                cases[res.case] += 1
                if res.case.startswith("line-degenerate"):
                    assert len(calls) == 1, (poly, rects, res.case, calls)
            return res

        monkeypatch.setattr(partition, "split_components", counted)
        monkeypatch.setattr(partition, "line_partition_cut", cut)
        specs = [(f, n, s) for f in ("uniform_random", "nested_grid") for n in range(3, 11) for s in range(2)]
        specs += [("windmill", n, 0) for n in range(3, 11)]
        for family, n, seed in specs:
            inst = generate(family, n, seed)
            recursive_partition(maximal_extension(exact_mis(inst), inst), "six")
        degenerate = cases["line-degenerate"] + cases["line-degenerate+mirrored"]
        assert degenerate > 100, cases

    def test_degenerate_units_cut_alone(self, monkeypatch):
        """The line-degenerate nodes of six on uniform_random and
        nested_grid (n = 6..10, seeds 0-3), cut alone as units, with a
        fresh record: each gives the degenerate cut again, split once,
        into the parts the refined-grid split finds.  criterion 6's line
        units never reach the degenerate cut."""
        units = []
        for family in ("uniform_random", "nested_grid"):
            for n in range(6, 11):
                for seed in range(4):
                    inst = generate(family, n, seed)
                    run = recursive_partition(maximal_extension(exact_mis(inst), inst), "six")
                    units += [
                        (node.polygon, [(i, run.work_rects[i]) for i in node.rects])
                        for node in run.nodes
                        if node.case == "line-degenerate"
                    ]
        real = partition.split_components
        calls = []

        def counted(poly, cut):
            calls.append(cut)
            return real(poly, cut)

        monkeypatch.setattr(partition, "split_components", counted)
        for poly, rects in units:
            calls.clear()
            res = line_partition_cut(poly, rects)
            assert res.case == "line-degenerate", (poly, rects, res.case)
            assert len(calls) == 1, (poly, rects, calls)
            assert res.components == ref_split_components(poly, res.cut), (poly, rects)
        assert len(units) > 100, len(units)

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
        assert not LineFences(poly, rects).tau_protected(dict(rects)[rid], tau)
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
        assert not LineFences(poly, rin).tau_protected(rects[2], 1)
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
        assert LineFences(poly, rin).tau_protected(rects[1], 1)
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
            protected = lambda fences, r: fences.protected(r)
        else:
            cutter = "general_partition_cut"
            protected = lambda fences, r: fences.tau_protected(r, 7)
        real = getattr(partition, cutter)

        def faulty(poly, rects, *args, **kwargs):
            res = real(poly, rects, *args, **kwargs)
            fences = LineFences(poly, rects)
            for rid, r in rects:
                if rid not in res.intersected and protected(fences, r):
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

    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize(
        "regime, family, n, seed, node_id, case, seg",
        [
            ("three", "uniform_random", 10, 1, 2, "general-0+repair", (9, 7, 19, 7)),
            ("six", "packed", 12, 4, 5, "line+repair+mirrored", (9, 4, 13, 4)),
        ],
        ids=["three", "six"],
    )
    def test_repaired_cut_pinned(self, regime, family, n, seed, node_id, case, seg, check):
        """The one repaired node of a run: the subpath repair_nonsimple
        chose fixes its case, its cut and its ell."""
        inst = generate(family, n, seed)
        m = maximal_extension(exact_mis(inst), inst)
        run = recursive_partition(m, regime, check=check)
        repaired = [node for node in run.nodes if "repair" in node.case]
        assert [node.id for node in repaired] == [node_id]
        node = repaired[0]
        assert node.case == case
        assert node.cut.segments == (Segment(Point(*seg[:2]), Point(*seg[2:])),)
        assert node.cut.shape == "path"
        assert node.ell is None and node.intersected == ()


def count_builds(monkeypatch, *classes) -> Counter:
    """Count the instances of each class built while the patch holds."""
    built: Counter = Counter()
    for cls in classes:
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__):
            built[_name] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


# Fence engines each checked run builds: (n, seed) -> engines under three
# and under two_eps at eps 1/2.  A child re-checks its parent's chains, so
# only a node where some chain fails builds one.
PACKED_ENGINES = {
    (24, 0): (1, 1), (24, 1): (2, 2), (40, 0): (2, 2), (40, 1): (1, 1),
    (64, 0): (2, 1), (64, 1): (2, 2),
}


@pytest.mark.parametrize("regime, eps", [("three", None), ("two_eps", Fraction(1, 2))])
@pytest.mark.parametrize("n, seed", sorted(PACKED_ENGINES))
def test_packed_checked_records_per_node(n, seed, regime, eps, monkeypatch):
    """check=True on dense instances, whose case-0 trees are deep
    caterpillars: every check passes, each node holding a rect gets one
    protection record, made from its parent's witnesses when the parent is
    cut, and no record or engine is built twice."""
    inst = generate("packed", n, seed)
    m = maximal_extension(exact_mis(inst, cap=n), inst)
    built = count_builds(monkeypatch, LineFences, FenceEngine)
    run = recursive_partition(m, regime, eps=eps, check=True)
    assert all(c["ok"] for c in validate_partition(run))
    assert built["LineFences"] == sum(1 for node in run.nodes if node.rects) == 2 * n - 1
    assert built["FenceEngine"] == PACKED_ENGINES[n, seed][regime == "two_eps"]


@pytest.mark.parametrize("regime, eps", [("three", None), ("two_eps", Fraction(1, 2))])
def test_windmill_checked_builds_one_engine(regime, eps, monkeypatch):
    """check=True on windmill n = 16: the root's engine proves every rect
    its line fences leave open, with chains from the right edge, which
    case 0's leftward peels leave in every child; the children re-check
    those chains and build no engine."""
    inst = generate("windmill", 16, 0)
    m = maximal_extension(exact_mis(inst, cap=16), inst)
    built = count_builds(monkeypatch, LineFences, FenceEngine)
    run = recursive_partition(m, regime, eps=eps, check=True)
    assert all(c["ok"] for c in validate_partition(run))
    assert built["FenceEngine"] == 1


@pytest.mark.parametrize("family, n", [("windmill", 10), ("packed", 24), ("pinwheel", 16)])
def test_engines_are_freed_with_their_nodes(family, n, monkeypatch):
    """With the cyclic collector off, every engine a checked run at tau = 1
    builds is freed once the run is done: an engine keeps nothing of the
    node's record that holds it, so reference counting frees both."""
    inst = generate(family, n, 0)
    m = maximal_extension(exact_mis(inst, cap=n), inst)
    refs = []

    def engine(self, tau, _real=LineFences.engine):
        eng = _real(self, tau)
        refs.append(weakref.ref(eng))
        return eng

    monkeypatch.setattr(LineFences, "engine", engine)
    gc.disable()
    try:
        recursive_partition(m, "three", tau=1, check=True)
        alive = [ref for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert refs and not alive, (len(refs), len(alive))


def count_calls(monkeypatch, owner, *names) -> Counter:
    """Count the calls of each named function of owner (a module or a
    class) made while the patch holds."""
    calls: Counter = Counter()
    for name in names:
        def counted(*args, _real=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


CHECKED_SWEEP = [
    (family, n, seed)
    for family in ("uniform_random", "nested_grid")
    for n in (24, 32, 40, 48, 56, 64)
    for seed in range(3)
]


def checked_runs(specs, regimes):
    """The check=True run of each regime (regime, eps) on each instance
    spec (family, n, seed), as (spec, opt, eps, run), and every verdict that a
    record answered from an inherited witness during them, as (polygon,
    rects inside, rect, what the witness proves: "line", "pair" or a
    tau)."""
    runs, inherited = [], []
    real = LineFences._proved

    def proved(self, r, proves):
        was_inherited = (r, proves) in self._inherited
        ok = real(self, r, proves)
        if was_inherited and ok:
            inherited.append((self.poly, tuple(self.rects_in), r, proves))
        return ok

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LineFences, "_proved", proved)
        for family, n, seed in specs:
            inst = generate(family, n, seed)
            opt = exact_mis(inst, cap=n)
            m = maximal_extension(opt, inst)
            for regime, eps in regimes:
                run = recursive_partition(m, regime, eps=eps, check=True)
                runs.append(((family, n, seed), opt, eps, run))
    return runs, inherited


ALL_REGIMES = (("six", None), ("three", None), ("two_eps", Fraction(1, 2)))
TAU_REGIMES = ALL_REGIMES[1:]


@pytest.fixture(scope="module")
def checked_sweep():
    return checked_runs(CHECKED_SWEEP, ALL_REGIMES)


def test_line_cut_band_reads_match_row_reads(monkeypatch):
    """The line cut reads rows once per band: its (p', anchor) and the
    fence stop of each ray equal the row-by-row reads they replace
    (oracles.ref_line_anchor, ref_ray_crossing), on every line unit of
    criterion 6 and in the six runs of CHECKED_SWEEP.  The rest of a ray
    stop does not read rows, so both stops are unchanged."""
    real_anchor, real_crossing = partition._line_anchor, partition._ray_crossing
    seen = Counter()

    def anchor(fences, em):
        got = real_anchor(fences, em)
        assert got == ref_line_anchor(fences, em), (fences.poly, fences.rects_in, em)
        seen["anchor"] += 1
        return got

    def crossing(fences, x, y0, y1):
        got = real_crossing(fences, x, y0, y1)
        assert got == ref_ray_crossing(fences, x, y0, y1), (fences.poly, x, y0, y1)
        seen["fence stop" if got else "no fence stop"] += 1
        return got

    monkeypatch.setattr(partition, "_line_anchor", anchor)
    monkeypatch.setattr(partition, "_ray_crossing", crossing)
    for _k, poly, rects in criterion_6_units()[0]:
        line_partition_cut(poly, rects)
    for family, n, seed in CHECKED_SWEEP:
        inst = generate(family, n, seed)
        m = maximal_extension(exact_mis(inst, cap=n), inst)
        recursive_partition(m, "six", check=True)
    assert min(seen.values()) > 40, seen


def test_checked_sweep_passes_every_check(checked_sweep):
    """check=True on uniform_random and nested_grid at n = 24..64, beyond
    the acceptance sweep's n <= 10: every regime's run passes every
    validate_partition and verify_ratios check."""
    failed = []
    runs, _inherited = checked_sweep
    for spec, opt, eps, run in runs:
        if run.regime == "six":
            ledger, forest = charge_six(run), None
        elif run.regime == "three":
            ledger, forest = charge_three(run), None
        else:
            ledger, forest = charge_two_eps(run, eps)
        checks = validate_partition(run) + verify_ratios(run, ledger, opt.size, forest)
        failed += [(*spec, run.regime, c["name"]) for c in checks if not c["ok"]]
    assert not failed, failed


def assert_inherited_verdicts_hold(inherited, reference_every) -> Counter:
    """Every inherited verdict (see checked_runs) is a fresh record's of
    its node, LineFences(polygon, rects inside), and the reference's:
    ref_protecting_fences for a line fence, ref_one_edge_anchors_both for the
    fences from one edge, nested_is_tau_protected for chains.  The nested
    reference searches a node's grid anew, so it judges every
    reference_every-th chain verdict.  Returns the verdicts by kind."""
    fresh: dict = {}
    engines: dict = {}
    kinds: Counter = Counter()
    for poly, rin, r, proves in inherited:
        if (poly, rin) not in fresh:
            fresh[poly, rin] = LineFences(poly, list(rin))
        record = fresh[poly, rin]
        where = (poly, rin, r, proves)
        if proves == "line":
            assert record.protected(r) and ref_protecting_fences(poly, rin, r), where
        elif proves == "pair":
            assert record.one_edge_anchors_both(r), where
            assert ref_one_edge_anchors_both(r, poly, rin), where
        else:
            assert record.tau_protected(r, proves) and record.engine(proves).proof(r) is not None, where
            if kinds["chain"] % reference_every == 0:
                key = (poly, rin, proves)
                if key not in engines:
                    engines[key] = NestedFenceEngine(poly, rin, proves)
                assert nested_is_tau_protected(r, poly, rin, proves, engines[key]), where
        kinds["chain" if isinstance(proves, int) else proves] += 1
    return kinds


def test_inherited_verdicts_match_fresh_records(checked_sweep):
    """On the checked sweep, every verdict a child answered from its
    parent's witness is the one a fresh record of the child gives, and the
    reference's: all three kinds of witness are inherited."""
    kinds = assert_inherited_verdicts_hold(checked_sweep[1], reference_every=40)
    assert all(kinds[k] for k in ("line", "pair", "chain")), kinds


@pytest.mark.parametrize(
    "specs, regimes, reference_every",
    [
        ([("packed", 24, 0), ("packed", 40, 0)], TAU_REGIMES, 10),
        ([("packed", 64, 0)], TAU_REGIMES[:1], 200),
        ([("windmill", n, 0) for n in (14, 15, 16)], TAU_REGIMES, 1),
    ],
    ids=["packed24-40", "packed64-three", "windmill14-16"],
)
def test_inherited_verdicts_on_engine_heavy_runs(specs, regimes, reference_every):
    """The same on runs whose tau verdicts come mostly from engines:
    packed n = 24..64 and windmill n = 14..16, where every chain verdict
    meets the nested reference.  The nested reference is slowest on the
    largest grids, so packed n = 64 runs under three alone."""
    _runs, inherited = checked_runs(specs, regimes)
    kinds = assert_inherited_verdicts_hold(inherited, reference_every)
    assert kinds["chain"] > kinds["pair"], kinds


def test_unchecked_case0_reads_nothing(monkeypatch):
    """Without checks a case-0 cut asks no protection question: no row
    record and no column record (which only a move table reads) are
    built, and no engine is built."""
    inst = generate("packed", 24, 0)
    m = maximal_extension(exact_mis(inst, cap=24), inst)
    rows = count_calls(monkeypatch, LineFences, "_build_row", "_build_column")
    built = count_builds(monkeypatch, FenceEngine)
    for regime, eps in (("three", None), ("two_eps", Fraction(1, 2))):
        run = recursive_partition(m, regime, eps=eps, check=False)
        assert {run.nodes[v].case for v in run.trace} == {"general-0"}
    assert sum(rows.values()) == 0 and built["FenceEngine"] == 0


def test_unchecked_six_asks_protection_only_of_pierced_rects(monkeypatch):
    """Without checks, six's line cut asks a record whether a rect is
    protected only when one of its rays pierces the rect: the rect's open
    x-range holds an x that the cut passes to _ray_crossing on the same
    record (a mirrored cut asks its own record).  The driver's own
    question, about the rects a cut intersected, is asked after the cut."""
    held: dict = {}  # every record asked, alive so that ids stay distinct
    asked = []  # (record id, rect) of each protection question of a cut
    rays = set()  # (record id, x) of each ray's fence-stop read
    depth = []  # one entry per line cut running
    real_protected = LineFences.protected
    real_crossing = partition._ray_crossing
    real_cut = partition.line_partition_cut

    def cut(poly, rects, fences=None):
        depth.append(poly)
        try:
            return real_cut(poly, rects, fences)
        finally:
            depth.pop()

    def protected(self, r):
        if depth:
            held[id(self)] = self
            asked.append((id(self), r))
        return real_protected(self, r)

    def ray_crossing(fences, x, y0, y1):
        held[id(fences)] = fences
        rays.add((id(fences), x))
        return real_crossing(fences, x, y0, y1)

    monkeypatch.setattr(LineFences, "protected", protected)
    monkeypatch.setattr(partition, "_ray_crossing", ray_crossing)
    monkeypatch.setattr(partition, "line_partition_cut", cut)
    # the rays of uniform_random and nested_grid cuts pierce no rect;
    # six fails on packed n = 24 seed 4 (ROADMAP item 1)
    specs = [("windmill", n, 0) for n in range(3, 17)]
    specs += [("packed", n, seed) for n in (12, 16, 24) for seed in range(4)]
    for family, n, seed in specs:
        inst = generate(family, n, seed)
        m = maximal_extension(exact_mis(inst, cap=n), inst)
        recursive_partition(m, "six", check=False)
    assert len(asked) > 100, len(asked)
    for rec, r in asked:
        assert any(key == rec and r.xl < x < r.xr for key, x in rays), r


def test_six_builds_one_row_record_per_band(monkeypatch):
    """six reads its rows by band: a checked run on windmill n = 16 builds
    one row record per distinct (node, band) it asks, 68 of them (one per
    distinct (node, row), 394, before rows were shared by band, and 80
    while furthest still read a row); the other protection questions are
    answered by the parents' fences."""
    inst = generate("windmill", 16, 0)
    m = maximal_extension(exact_mis(inst, cap=16), inst)
    held: dict = {}  # every record asked, alive so that ids stay distinct
    asked = set()
    real_row = LineFences.row

    def row(self, y):
        held[id(self)] = self
        asked.add((id(self), structure._band(self._row_lines.events, y)))
        return real_row(self, y)

    monkeypatch.setattr(LineFences, "row", row)
    built = count_calls(monkeypatch, LineFences, "_build_row")
    recursive_partition(m, "six", check=True)
    assert built["_build_row"] == len(asked) == 68
