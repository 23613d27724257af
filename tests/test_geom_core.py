import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from misr.geom_core import (
    Cut,
    CutError,
    Point,
    Rect,
    RectPolygon,
    Segment,
    edge_distance,
    is_horizontally_convex,
    merge_loop,
    orient_loop,
    rects_intersect,
    segment_intersects_rect,
    split_components,
)
from oracles import (
    blob_polygon,
    brute_force_hconvex,
    classify_vertical_edges,
    is_vertically_convex,
    split_polygon,
)

SQUARE = RectPolygon.from_rect(Rect(0, 0, 4, 4))
L_SHAPE = RectPolygon(
    [Point(0, 0), Point(0, 4), Point(2, 4), Point(2, 2), Point(4, 2), Point(4, 0)]
)
# U opening downward: horizontally non-convex, vertically convex.
U_SHAPE = RectPolygon(
    [Point(0, 0), Point(0, 4), Point(6, 4), Point(6, 0), Point(4, 0),
     Point(4, 2), Point(2, 2), Point(2, 0)]
)


class TestRectsIntersect:
    def test_boundary_touch_is_disjoint(self):
        assert not rects_intersect(Rect(0, 0, 2, 2), Rect(2, 0, 4, 2))

    def test_overlapping_interiors(self):
        assert rects_intersect(Rect(0, 0, 2, 2), Rect(1, 1, 3, 3))

    def test_identity(self):
        r = Rect(1, 1, 5, 3)
        assert rects_intersect(r, r)

    @given(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 6), st.integers(1, 6)),
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 6), st.integers(1, 6)),
    )
    def test_symmetric(self, a, b):
        ra = Rect(a[0], a[1], a[0] + a[2], a[1] + a[3])
        rb = Rect(b[0], b[1], b[0] + b[2], b[1] + b[3])
        assert rects_intersect(ra, rb) == rects_intersect(rb, ra)


class TestSegmentIntersectsRect:
    def test_crossing_interior(self):
        s = Segment(Point(0, 1), Point(4, 1))
        assert segment_intersects_rect(s, Rect(1, 0, 3, 2))

    def test_along_top_edge_misses_open_set(self):
        s = Segment(Point(0, 2), Point(4, 2))
        assert not segment_intersects_rect(s, Rect(1, 0, 3, 2))

    def test_degenerate_point_inside(self):
        s = Segment(Point(2, 1), Point(2, 1))
        assert segment_intersects_rect(s, Rect(1, 0, 3, 2))

    def test_vertical_outside(self):
        s = Segment(Point(3, 0), Point(3, 5))
        assert not segment_intersects_rect(s, Rect(1, 0, 3, 2))


class TestEdgeDistance:
    def test_direct(self):
        assert edge_distance(8, 1, 4) == 3

    def test_wraparound(self):
        assert edge_distance(8, 1, 7) == 2

    def test_identity(self):
        assert edge_distance(8, 3, 3) == 0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            edge_distance(8, 0, 8)


class TestClassifyVerticalEdges:
    def test_unit_square(self):
        sides = classify_vertical_edges(RectPolygon.from_rect(Rect(0, 0, 1, 1)))
        by_x = {seg.a.x: side for seg, side in sides.items()}
        assert by_x == {0: "left", 1: "right"}

    def test_partition_is_exhaustive(self):
        rng = random.Random(3)
        for _ in range(20):
            poly = blob_polygon(rng)
            sides = poly.vertical_edge_sides()
            vertical = [i for i, e in enumerate(poly.edges()) if e.vertical]
            assert sorted(sides) == sorted(vertical)

    def test_mirror_swaps_sides(self):
        rng = random.Random(4)
        for _ in range(10):
            poly = blob_polygon(rng)
            mirrored = poly.mirror_x()
            a = sorted(
                (min(s.a.y, s.b.y), s.a.x, side)
                for s, side in classify_vertical_edges(poly).items()
            )
            b = sorted(
                (min(s.a.y, s.b.y), -s.a.x, {"left": "right", "right": "left"}[side])
                for s, side in classify_vertical_edges(mirrored).items()
            )
            assert a == b

    def test_staircase(self):
        stair = RectPolygon(
            [Point(0, 0), Point(0, 2), Point(2, 2), Point(2, 4),
             Point(4, 4), Point(4, 0)]
        )
        by_x = {}
        edges = stair.edges()
        for i, side in stair.vertical_edge_sides().items():
            by_x.setdefault(edges[i].a.x, side)
        assert by_x == {0: "left", 2: "left", 4: "right"}


class TestConvexity:
    def test_rectangle_both(self):
        assert is_horizontally_convex(SQUARE)
        assert is_vertically_convex(SQUARE)

    def test_l_shape_both(self):
        assert is_horizontally_convex(L_SHAPE)
        assert is_vertically_convex(L_SHAPE)

    def test_u_shape(self):
        assert not is_horizontally_convex(U_SHAPE)
        assert is_vertically_convex(U_SHAPE)

    def test_agrees_with_brute_force(self):
        rng = random.Random(11)
        for _ in range(40):
            poly = blob_polygon(rng, grid=6, cells=rng.randrange(4, 20))
            assert is_horizontally_convex(poly) == brute_force_hconvex(poly)


class TestPoint:
    def test_point_is_its_tuple(self):
        p = Point(3, 4)
        assert p == (3, 4) and (3, 4) == p
        assert hash(p) == hash((3, 4))
        assert {(3, 4): "t"}[p] == "t" and {p: "p"}[(3, 4)] == "p"
        assert (p.x, p.y) == tuple(p) == (3, 4)

    def test_points_sort_as_tuples(self):
        rng = random.Random(3)
        pairs = [(rng.randrange(-3, 4), rng.randrange(-3, 4)) for _ in range(40)]
        assert sorted(Point(*t) for t in pairs) == sorted(pairs)
        assert min(Point(1, 0), (0, 5)) == (0, 5)

    def test_vertices_are_the_kernels_loop(self):
        vs = [Point(4, 0), Point(4, 2), Point(2, 2), Point(2, 4), Point(0, 4),
              Point(0, 2), Point(0, 0)]
        loop, area2 = orient_loop(merge_loop(vs))
        poly = RectPolygon(vs)
        assert type(poly.vertices) is tuple and poly.vertices == loop
        assert poly.area2() == area2 and hash(poly) == hash(loop)
        # the caller's own Points, not copies
        assert all(any(v is p for p in vs) for v in poly.vertices)


class TestCanonicalization:
    def test_rotation_invariant(self):
        vs = [Point(0, 0), Point(0, 4), Point(2, 4), Point(2, 2), Point(4, 2), Point(4, 0)]
        for shift in range(len(vs)):
            assert RectPolygon(vs[shift:] + vs[:shift]) == L_SHAPE

    def test_orientation_invariant(self):
        assert RectPolygon(list(reversed(L_SHAPE.vertices))) == L_SHAPE

    def test_collinear_merged(self):
        vs = [Point(0, 0), Point(0, 2), Point(0, 4), Point(4, 4), Point(4, 0), Point(2, 0)]
        assert RectPolygon(vs) == SQUARE

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(20):
            poly = blob_polygon(rng)
            assert RectPolygon(poly.vertices) == poly


class TestSplitPolygon:
    def test_square_by_chord(self):
        cut = Cut((Segment(Point(2, 0), Point(2, 4)),))
        parts = split_polygon(SQUARE, cut)
        assert sorted(p.num_edges for p in parts) == [4, 4]
        assert sum(p.area2() for p in parts) == SQUARE.area2()

    def test_boundary_cut_does_not_separate(self):
        cut = Cut((Segment(Point(0, 0), Point(0, 4)),))
        with pytest.raises(CutError):
            split_polygon(SQUARE, cut)

    def test_cut_leaving_polygon(self):
        cut = Cut((Segment(Point(2, 0), Point(2, 9)),))
        with pytest.raises(CutError):
            split_polygon(SQUARE, cut)

    def test_crossing_cut_segments_error(self):
        cut = Cut(
            (Segment(Point(1, 2), Point(3, 2)), Segment(Point(2, 1), Point(2, 3)))
        )
        with pytest.raises(CutError):
            split_polygon(SQUARE, cut)

    def test_tree_cut_three_parts(self):
        cut = Cut(
            (
                Segment(Point(0, 2), Point(2, 2)),
                Segment(Point(2, 0), Point(2, 4)),
            ),
            shape="tree",
        )
        parts = split_polygon(SQUARE, cut)
        assert len(parts) == 3
        assert sum(p.area2() for p in parts) == SQUARE.area2()
        assert all(p.is_simple for p in parts)

    def test_area_conserved_on_random_blobs(self):
        rng = random.Random(9)
        for _ in range(20):
            poly = blob_polygon(rng, grid=7, cells=16)
            x0, y0, x1, y1 = poly.bbox()
            x = (x0 + x1) // 2
            section = poly.vertical_section(x)
            if not section:
                continue
            lo, hi = section[0]
            if lo == hi:
                continue
            cut = Cut((Segment(Point(x, lo), Point(x, hi)),))
            try:
                parts = split_polygon(poly, cut)
            except CutError:
                continue
            assert sum(p.area2() for p in parts) == poly.area2()

    def test_t_cut_three_simple_parts(self):
        poly = RectPolygon.from_rect(Rect(0, 0, 4, 2))
        cut = Cut(
            (
                Segment(Point(0, 1), Point(2, 1)),
                Segment(Point(2, 1), Point(2, 2)),
                Segment(Point(2, 0), Point(2, 1)),
            )
        )
        comps = split_components(poly, cut)
        assert len(comps) == 3
        assert all(c.is_simple for c in comps)

    def test_pocket_cut_u_frame(self):
        poly = RectPolygon([Point(0, 0), Point(0, 3), Point(4, 3), Point(4, 0)])
        cut = Cut(
            (
                Segment(Point(1, 0), Point(1, 2)),
                Segment(Point(1, 2), Point(3, 2)),
                Segment(Point(3, 0), Point(3, 2)),
            )
        )
        comps = split_components(poly, cut)
        shapes = sorted(c.num_edges for c in comps)
        assert shapes == [4, 8]
        assert all(c.is_simple for c in comps)

    def test_dangling_slit_normalizes_away(self):
        # a cut ending in the interior separates nothing
        sq = RectPolygon.from_rect(Rect(0, 0, 4, 4))
        cut = Cut((Segment(Point(2, 2), Point(2, 4)),))
        with pytest.raises(CutError):
            split_polygon(sq, cut)
