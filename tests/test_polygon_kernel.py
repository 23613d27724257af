"""RectPolygon's edge tables against the per-call predicates in
oracles.py: point membership, boundary, rect containment, line
sections, segment containment, horizontal convexity, edge sides, the
edges holding a point (edges_at), simplicity and the line cut's two
line-fence reads must agree exactly, on blob polygons, on partition nodes and on random
self-touching vertex loops.  The loop surgery split must agree with the
refined-grid split in oracles.py on every split the constructions make
and on random cuts, and its list of a cut's pieces (inside_pieces) with
the first-written one."""

import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest

from misr import geom_core, partition, structure
from misr.geom_core import (
    Cut,
    CutError,
    GeometryError,
    Point,
    Rect,
    RectPolygon,
    Segment,
    is_horizontally_convex,
    split_components,
)
from misr.instance import exact_mis, generate
from misr.partition import (
    ConstructionError,
    general_partition_cut,
    line_partition_cut,
    recursive_partition,
    vertical_spanning_segment,
)
from misr.structure import LineFences, maximal_extension
from oracles import (
    blob_polygon,
    brute_force_hconvex,
    criterion_6_units,
    horizontal_edge_sides,
    protecting_fences,
    ref_contains_rect,
    ref_crossing_anchor,
    ref_cut_pieces,
    ref_edge_sides,
    ref_enumerate_line_fences,
    ref_furthest,
    ref_is_simple,
    ref_line_anchor,
    ref_protecting_fences,
    ref_ray_crossing,
    ref_side_doubled,
    ref_split_components,
    segment_contains_point,
)

FAMILIES = ("windmill", "uniform_random", "nested_grid")


@pytest.fixture(scope="module")
def node_cells():
    """(polygon, rects inside) of every partition node, all regimes, on
    windmill/uniform_random/nested_grid at n=3..10."""
    cells = {}
    for family in FAMILIES:
        for n in range(3, 11):
            inst = generate(family, n, 0)
            m = maximal_extension(exact_mis(inst), inst)
            for regime, eps in (("six", None), ("three", None), ("two_eps", Fraction(1, 2))):
                run = recursive_partition(m, regime, eps=eps)
                for node in run.nodes:
                    rin = tuple(
                        (i, r) for i, r in enumerate(run.work_rects)
                        if node.polygon.contains_rect(r)
                    )
                    cells[(node.polygon, rin)] = None
    return list(cells)


def blobs(count=60):
    rng = random.Random(4)
    out = []
    while len(out) < count:
        grid = rng.randint(3, 9)
        try:
            out.append(blob_polygon(rng, grid, rng.randint(2, min(30, grid * grid))))
        except ValueError:  # a pinched cell set traces into two loops
            continue
    return out


def test_point_predicates_agree(node_cells):
    """side_doubled against the scan of the vertex loop, all three values,
    at every doubled lattice point of the bounding box and one unit beyond
    it."""
    polys = {p for p, _ in node_cells} | set(blobs())
    for poly in polys:
        x0, y0, x1, y1 = poly.bbox()
        for X in range(2 * x0 - 2, 2 * x1 + 3):
            for Y in range(2 * y0 - 2, 2 * y1 + 3):
                want = ref_side_doubled(poly.vertices, X, Y)
                assert poly.side_doubled(X, Y) == want, (poly, X, Y)


def test_edges_at_agrees_with_edge_scan(node_cells):
    """edges_at against the scan of edges() at every integral point of the
    bounding box and one unit beyond it, on every node cell and blob (all
    simple)."""
    on_boundary = 0
    for poly in {p for p, _ in node_cells} | set(blobs()):
        assert poly.is_simple, poly
        edges = poly.edges()
        x0, y0, x1, y1 = poly.bbox()
        for x in range(x0 - 1, x1 + 2):
            for y in range(y0 - 1, y1 + 2):
                p = Point(x, y)
                want = tuple(
                    i for i, e in enumerate(edges) if segment_contains_point(e, p)
                )
                assert poly.edges_at(p) == want, (poly, p)
                on_boundary += bool(want)
    assert on_boundary > 1000, on_boundary


def test_sections_and_rect_containment_agree(node_cells):
    """Sections against the doubled-grid membership scan; contains_rect
    against the scan of the vertex loop on every rect of the bbox."""
    for poly in {p for p, _ in node_cells} | set(blobs(30)):
        vs = poly.vertices
        x0, y0, x1, y1 = poly.bbox()
        for y in range(y0 - 1, y1 + 2):
            row = [X for X in range(2 * x0, 2 * x1 + 1) if ref_side_doubled(vs, X, 2 * y) >= 0]
            assert poly.horizontal_section(y) == _runs(row), (poly, y)
        for x in range(x0 - 1, x1 + 2):
            col = [Y for Y in range(2 * y0, 2 * y1 + 1) if ref_side_doubled(vs, 2 * x, Y) >= 0]
            assert poly.vertical_section(x) == _runs(col), (poly, x)
        if (x1 - x0) * (y1 - y0) > 40:
            continue
        for xl in range(x0 - 1, x1 + 1):
            for xr in range(xl + 1, x1 + 2):
                for yb in range(y0 - 1, y1 + 1):
                    for yt in range(yb + 1, y1 + 2):
                        r = Rect(xl, yb, xr, yt)
                        assert poly.contains_rect(r) == ref_contains_rect(vs, r), (poly, r)


def test_contains_segment_agrees(node_cells):
    """Segment containment (contains_walk of the segment's two ends)
    against membership of every doubled lattice point along the segment,
    on random horizontal and vertical segments."""
    rng = random.Random(6)
    for poly in {p for p, _ in node_cells} | set(blobs(30)):
        x0, y0, x1, y1 = poly.bbox()
        for _ in range(60):
            xa, xb = sorted((rng.randint(x0 - 1, x1 + 1), rng.randint(x0 - 1, x1 + 1)))
            ya, yb = sorted((rng.randint(y0 - 1, y1 + 1), rng.randint(y0 - 1, y1 + 1)))
            xc, yc = rng.randint(x0 - 1, x1 + 1), rng.randint(y0 - 1, y1 + 1)
            horizontal = [(X, 2 * yc) for X in range(2 * xa, 2 * xb + 1)]
            vertical = [(2 * xc, Y) for Y in range(2 * ya, 2 * yb + 1)]
            for s, probes in (
                (Segment(Point(xa, yc), Point(xb, yc)), horizontal),
                (Segment(Point(xc, ya), Point(xc, yb)), vertical),
            ):
                want = all(ref_side_doubled(poly.vertices, X, Y) >= 0 for X, Y in probes)
                assert poly.contains_walk((s.a, s.b)) == want, (poly, s)


def test_edge_sides_agree(node_cells):
    """Sides read off the clockwise loop against the half-unit probe, on
    every simple polygon."""
    labels = set()
    for poly in {p for p, _ in node_cells} | set(blobs()):
        if not poly.is_simple:
            continue
        vsides, hsides = ref_edge_sides(poly)
        assert poly.vertical_edge_sides() == vsides, poly
        assert horizontal_edge_sides(poly) == hsides, poly
        labels.update(vsides.values(), hsides.values())
    assert labels == {"left", "right", "bottom", "top"}, labels


def test_horizontal_convexity_agrees(node_cells):
    """is_horizontally_convex against the doubled-grid chord scan."""
    verdicts = {True: 0, False: 0}
    for poly in {p for p, _ in node_cells} | set(blobs()):
        got = is_horizontally_convex(poly)
        assert got == brute_force_hconvex(poly), poly
        verdicts[got] += 1
    assert min(verdicts.values()) > 10, verdicts


def _runs(doubled: list[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive doubled coordinates, halved."""
    out: list[tuple[int, int]] = []
    for X in doubled:
        if out and out[-1][1] + 1 == X:
            out[-1] = (out[-1][0], X)
        else:
            out.append((X, X))
    return [(a // 2, b // 2) for a, b in out]


def random_cuts(rng: random.Random, poly: RectPolygon, count: int):
    """Cuts of one to three chords and boundary slits."""
    xs = sorted({p.x for p in poly.vertices})
    ys = sorted({p.y for p in poly.vertices})
    for _ in range(count):
        segs = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                y = rng.randint(ys[0], ys[-1])
                ivals = poly.horizontal_section(y)
                if not ivals:
                    continue
                lo, hi = rng.choice(ivals)
                a, b = sorted((rng.randint(lo, hi), rng.choice((lo, hi))))
                if a < b:
                    segs.append(Segment(Point(a, y), Point(b, y)))
            else:
                x = rng.randint(xs[0], xs[-1])
                ivals = poly.vertical_section(x)
                if not ivals:
                    continue
                lo, hi = rng.choice(ivals)
                a, b = sorted((rng.randint(lo, hi), rng.choice((lo, hi))))
                if a < b:
                    segs.append(Segment(Point(x, a), Point(x, b)))
        if segs:
            yield Cut(tuple(segs))


def reflex_cycle_cuts(poly: RectPolygon):
    """At each reflex vertex, square cycles of side 1 and 2 in the quadrant
    opposite the exterior one.  Where a cycle touches the boundary only at
    the vertex, the component around it is pinched there."""
    for p in poly.vertices:
        outside = [
            (dx, dy) for dx in (-1, 1) for dy in (-1, 1)
            if poly.side_doubled(2 * p.x + dx, 2 * p.y + dy) < 0
        ]
        if len(outside) != 1:
            continue
        dx, dy = outside[0]
        for s in (1, 2):
            q = Point(p.x - s * dx, p.y - s * dy)
            corners = [p, Point(q.x, p.y), q, Point(p.x, q.y)]
            yield Cut(tuple(Segment(corners[i], corners[(i + 1) % 4]) for i in range(4)))


@pytest.fixture(scope="module")
def construction_splits():
    """Every (polygon, cut) that the constructions split, all three
    regimes, on the acceptance-sweep families at n=3..12 and on packed
    at n=12, 16 and 24."""
    specs = [(f, n, s) for f in ("uniform_random", "nested_grid") for n in range(3, 13) for s in range(4)]
    specs += [("windmill", n, 0) for n in range(3, 13)]
    specs += [("packed", n, s) for n in (12, 16, 24) for s in range(5)]
    splits = {}
    real = partition.split_components

    def record(poly, cut):
        splits[(poly, cut)] = None
        return real(poly, cut)

    with mock.patch.object(partition, "split_components", record):
        for family, n, seed in specs:
            inst = generate(family, n, seed)
            m = maximal_extension(exact_mis(inst, cap=inst.n), inst)
            for regime, eps in (("six", None), ("three", None), ("two_eps", Fraction(1, 2))):
                try:
                    recursive_partition(m, regime, eps=eps)
                except ConstructionError:
                    # six fails on some packed inputs (ROADMAP item 1); the
                    # splits made before the failure still count
                    assert family == "packed" and regime == "six"
    return list(splits)


def _split_outcome(split, poly, cut):
    try:
        return split(poly, cut)
    except GeometryError as e:
        return type(e)


def assert_canonical(poly: RectPolygon) -> None:
    """A polygon built from a loop taken as merged (split parts, mirror
    images) equals, field by field, the one RectPolygon canonicalizes from
    its vertices."""
    want = RectPolygon(list(poly.vertices))
    assert poly.vertices == want.vertices, poly
    assert poly.area2() == want.area2(), poly
    assert (poly._vtab, poly._htab) == (want._vtab, want._htab), poly
    assert poly.is_simple == want.is_simple and hash(poly) == hash(want), poly


# a cut running straight through a T-junction: the part left of x = 5 has
# (5, 4) on its boundary and must not keep it as a vertex
T_JUNCTION = (
    RectPolygon.from_rect(Rect(0, 0, 10, 10)),
    Cut((Segment(Point(5, 0), Point(5, 10)), Segment(Point(5, 4), Point(10, 4)))),
)


def test_split_components_agrees_with_reference(construction_splits, node_cells):
    """The loop-surgery split against the refined-grid flood fill: the
    same parts, in the same order, or the same exception, on every
    construction split, a cut through a T-junction and random cuts, each
    part canonical; every cut holding a cycle raises CutError."""
    sizes = set()
    for poly, cut in [*construction_splits, T_JUNCTION]:
        got = _split_outcome(split_components, poly, cut)
        assert got == _split_outcome(ref_split_components, poly, cut), (poly, cut)
        for part in got:
            assert_canonical(part)
        sizes.add(len(got))
    assert len(construction_splits) > 1000 and {1, 2, 3} <= sizes, sizes
    assert [q.vertices for q in split_components(*T_JUNCTION)] == [
        (Point(0, 0), Point(0, 10), Point(5, 10), Point(5, 0)),
        (Point(5, 0), Point(5, 4), Point(10, 4), Point(10, 0)),
        (Point(5, 4), Point(5, 10), Point(10, 10), Point(10, 4)),
    ]

    rng = random.Random(11)
    polys = [p for p, _ in node_cells] + blobs(40)
    outcomes = {"parts": 0, "error": 0, "cycle": 0}
    for poly in polys:
        for cut in random_cuts(rng, poly, 6):
            got = _split_outcome(split_components, poly, cut)
            assert got == _split_outcome(ref_split_components, poly, cut), (poly, cut)
            if isinstance(got, list):
                assert all(q.is_simple for q in got), (poly, cut)
                for part in got:
                    assert_canonical(part)
                outcomes["parts"] += 1
            else:
                outcomes["error"] += 1
        for cut in reflex_cycle_cuts(poly):
            want = _split_outcome(ref_split_components, poly, cut)
            if not _closes_a_cycle(poly, cut):
                got = _split_outcome(split_components, poly, cut)
                assert got == want, (poly, cut)
                for part in got if isinstance(got, list) else ():
                    assert_canonical(part)
                continue
            with pytest.raises(CutError):
                split_components(poly, cut)
            outcomes["cycle"] += isinstance(want, list)
    assert min(outcomes.values()) > 50, outcomes


def test_mirror_x_is_canonical(construction_splits, node_cells):
    """mirror_x of every partition node and every polygon the
    constructions split equals the reflection canonicalized by
    RectPolygon, field by field, and mirroring twice gives the polygon
    back."""
    polys = {p for p, _ in node_cells} | {p for p, _ in construction_splits}
    for poly in polys:
        m = poly.mirror_x()
        assert_canonical(m)
        assert m == RectPolygon([Point(-q.x, q.y) for q in poly.vertices]), poly
        twice = m.mirror_x()
        assert twice.vertices == poly.vertices and hash(twice) == hash(poly), poly


def _pieces_outcome(poly: RectPolygon, segs) -> object:
    """What inside_pieces must answer, read off ref_cut_pieces: each piece
    off the boundary with its segment's index, segment by segment, in
    order; or CutError when one of them lies outside."""
    refined = ref_cut_pieces(poly, segs)
    pieces = [(si, p.a, p.b) for si, sp in enumerate(refined) for p in sp]
    if any(ref_side_doubled(poly.vertices, a.x + b.x, a.y + b.y) < 0 for _si, a, b in pieces):
        return CutError
    return pieces


def test_inside_pieces_agree_with_reference(monkeypatch):
    """inside_pieces against the first-written piece list: the same
    pieces, the same owning segments and the same order (repair_nonsimple's
    candidate order reads piece indices), or CutError on a piece outside.
    Every call is checked that the cuts of acceptance criterion 6's units
    make (splits and repairs), on each chord of criterion 7's polygons,
    every call of repair_nonsimple on the identity sweep's partition runs
    (tests/sweep_digests.py), and random segments on blobs, some of them
    leaving the polygon."""
    from sweep_digests import REGIMES, specs

    real = geom_core.inside_pieces
    calls: Counter = Counter()

    def checked(poly, segs, _kind):
        want = _pieces_outcome(poly, segs)
        calls[_kind, want is CutError] += 1
        try:
            got = real(poly, segs)
        except CutError:
            assert want is CutError, (poly, segs)
            raise
        assert got == want, (poly, segs)
        return got

    monkeypatch.setattr(geom_core, "inside_pieces", lambda p, s: checked(p, s, "split"))
    monkeypatch.setattr(partition, "inside_pieces", lambda p, s: checked(p, s, "repair"))
    line_units, general_units = criterion_6_units()
    for _k, poly, rects in line_units:
        line_partition_cut(poly, rects)
    for tau, _k, poly, rects in general_units:
        general_partition_cut(poly, rects, tau)
    rng = random.Random(7)  # criterion 7's polygons, as its test draws them
    chords = 0
    while chords < 200:
        poly = blob_polygon(rng, grid=7, cells=rng.randrange(5, 26))
        if 4 <= poly.num_edges <= 24:
            seg, _chord = vertical_spanning_segment(poly)
            geom_core.inside_pieces(poly, [seg])
            chords += 1
    for poly in blobs(40):
        x0, y0, x1, y1 = poly.bbox()
        for _ in range(10):
            segs = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    x = rng.randint(x0, x1)
                    ya, yb = sorted(rng.sample(range(y0 - 1, y1 + 2), 2))
                    segs.append(Segment(Point(x, ya), Point(x, yb)))
                else:
                    y = rng.randint(y0, y1)
                    xa, xb = sorted(rng.sample(range(x0 - 1, x1 + 2), 2))
                    segs.append(Segment(Point(xa, y), Point(xb, y)))
            try:
                checked(poly, segs, "random")
            except CutError:
                pass
    unit_repairs = calls["repair", False]
    assert calls["split", False] > 800 and unit_repairs > 100, calls
    assert calls["random", False] > 50 and calls["random", True] > 50, calls

    monkeypatch.setattr(geom_core, "inside_pieces", real)
    repaired = 0
    for family, n, seed in specs():
        inst = generate(family, n, seed)
        m = maximal_extension(exact_mis(inst, cap=inst.n), inst)
        for regime, eps in REGIMES:
            try:
                run = recursive_partition(m, regime, eps=eps)
            except ConstructionError:
                continue
            repaired += sum("repair" in node.case for node in run.nodes)
    sweep_repairs = calls["repair", False] - unit_repairs
    assert sweep_repairs >= repaired > 100, (calls, repaired)


def _closes_a_cycle(poly: RectPolygon, cut: Cut) -> bool:
    """Does no unit step of the cut run along the boundary?  For the
    squares of reflex_cycle_cuts this means the cut's pieces close a
    cycle; otherwise a side on the boundary leaves a path."""
    for s in cut.segments:
        lo, hi = sorted((s.a, s.b))
        if s.vertical:
            probes = [(2 * lo.x, 2 * y + 1) for y in range(lo.y, hi.y)]
        else:
            probes = [(2 * x + 1, 2 * lo.y) for x in range(lo.x, hi.x)]
        if any(ref_side_doubled(poly.vertices, X, Y) == 0 for X, Y in probes):
            return False
    return True


def random_loop(rng: random.Random, span: int) -> list[Point]:
    """A closed alternating vertical/horizontal vertex loop on a small
    grid, so edges often overlap, cross or share endpoints."""
    half = rng.randint(2, 6)
    xs = [rng.randint(0, span) for _ in range(half)]
    ys = [rng.randint(0, span) for _ in range(half)]
    out = []
    for i in range(half):
        out.append(Point(xs[i], ys[i]))
        out.append(Point(xs[i], ys[(i + 1) % half]))
    return out


def test_is_simple_agrees_on_random_loops():
    rng = random.Random(5)
    verdicts = {True: 0, False: 0}
    distinct_nonsimple = 0
    for _ in range(4000):
        try:
            poly = RectPolygon(random_loop(rng, rng.randint(2, 6)))
        except GeometryError:
            continue
        assert poly.is_simple == ref_is_simple(poly), poly
        verdicts[poly.is_simple] += 1
        if not poly.is_simple and len(set(poly.vertices)) == len(poly.vertices):
            distinct_nonsimple += 1
    assert verdicts[True] > 100 and distinct_nonsimple > 100, verdicts


def assert_line_reads_agree(poly, rin) -> int:
    """The line cut's two reads of a node's line fences, from its row
    records, against the fences enumerated anchor by anchor: the furthest
    fence of every anchor on every vertical edge, and on every row of the
    bounding box, for every x across it, the least anchor whose fence
    strictly crosses x.  furthest builds no row record.  Then the line
    cut's band reads against the row-by-row reads they replace: p' and
    its anchor from each left edge and from all of them, and the fence
    stop of the rays up and down the bounding box at every x.  Returns the
    number of crossings found."""
    ref = ref_enumerate_line_fences(poly, rin)
    fences = LineFences(poly, rin)
    furthest = ref_furthest(ref)
    edges = poly.edges()
    with mock.patch.object(
        LineFences, "_build_row", autospec=True, side_effect=LineFences._build_row
    ) as build_row:
        for idx, side in poly.vertical_edge_sides().items():
            e = edges[idx]
            y1, y2 = sorted((e.a.y, e.b.y))
            for y in range(y1, y2 + 1):
                p = Point(e.a.x, y)
                assert fences.furthest(p, side == "left") == furthest.get(p), (poly, rin, p)
    assert build_row.call_count == 0, (poly, rin)
    crossings = 0
    x0, y0, x1, y1 = poly.bbox()
    for y in range(y0, y1 + 1):
        for x in range(x0, x1 + 1):
            got = fences.crossing_anchor(y, x)
            assert got == ref_crossing_anchor(ref, y, x), (poly, rin, y, x)
            crossings += got is not None
    lefts = [edges[i] for i, side in poly.vertical_edge_sides().items() if side == "left"]
    for em in [[e] for e in lefts] + [lefts]:
        assert partition._line_anchor(fences, em) == ref_line_anchor(fences, em), (poly, rin, em)
    for x in range(x0, x1 + 1):
        for ya, yb in ((y0, y1), (y1, y0)):
            got = partition._ray_crossing(fences, x, ya, yb)
            assert got == ref_ray_crossing(fences, x, ya, yb), (poly, rin, x, ya, yb)
    return crossings


def test_line_fences_agree(node_cells):
    """On every node cell and every line unit of acceptance criterion 6."""
    crossings = 0
    for poly, rin in node_cells:
        if rin:
            crossings += assert_line_reads_agree(poly, rin)
    for _k, poly, rects in criterion_6_units()[0]:
        crossings += assert_line_reads_agree(poly, rects)
    assert crossings > 1000, crossings


def stray_rect_sets():
    """(blob, rects) pairs: each blob with five sets of random rects
    around it, overlapping each other and the boundary."""
    rng = random.Random(8)
    for poly in blobs():
        x0, y0, x1, y1 = poly.bbox()
        for _ in range(5):
            rin = []
            for rid in range(rng.randint(1, 6)):
                xl, yb = rng.randint(x0 - 2, x1), rng.randint(y0 - 2, y1)
                r = Rect(xl, yb, xl + rng.randint(1, 4), yb + rng.randint(1, 4))
                rin.append((rid, r))
            yield poly, rin


def test_line_fences_agree_on_stray_rects():
    """The row records make no use of the rects lying inside the polygon
    or apart: on blobs with random rects around them the line cut's reads
    and every rect's protecting fences still agree with the references."""
    crossings = 0
    for poly, rin in stray_rect_sets():
        crossings += assert_line_reads_agree(poly, rin)
        for _rid, r in rin:
            assert protecting_fences(
                LineFences(poly, rin), r
            ) == ref_protecting_fences(poly, rin, r)
    assert crossings > 1000, crossings


def assert_rows_by_band(poly, rin) -> int:
    """Every row of the bounding box, built afresh on a fresh record,
    equals what one record, asked bottom-up, holds for the row's band: its
    anchor facts; and every column, built
    afresh, equals what the record, asked left to right, holds for the
    column's band: its free pieces.  Returns the number of rows and
    columns that read a record built at a lower line of their band."""
    shared = LineFences(poly, rin)
    x0, y0, x1, y1 = poly.bbox()
    for y in range(y0, y1 + 1):
        fresh = LineFences(poly, rin)
        assert fresh._build_row(y) == shared.row(y), (poly, rin, y)
    for x in range(x0, x1 + 1):
        fresh = LineFences(poly, rin)
        assert fresh._build_column(x) == shared.column(x), (poly, rin, x)
    lines = y1 - y0 + 1 + x1 - x0 + 1
    return lines - len(shared._rows) - len(shared._columns)


def band_walk(events, lo: int, hi: int, up: bool) -> list[int]:
    """The rows from lo up to hi (up) or from hi down to lo at which the
    row's band (_band) changes, read row by row: the first row of each
    band met."""
    rows = range(lo, hi + 1) if up else range(hi, lo - 1, -1)
    out, last = [], None
    for y in rows:
        key = structure._band(events, y)
        if key != last:
            out.append(y)
            last = key
    return out


def test_band_rows_match_row_walk(node_cells):
    """band_rows against a row-by-row band walk, in both directions: on
    3,000 random event lists and row ranges, and over the bounding box of
    every node cell's record."""
    rng = random.Random(12)
    for _ in range(3000):
        events = sorted(rng.sample(range(-6, 26), rng.randint(0, 12)))
        lo = rng.randint(-8, 26)
        hi = rng.randint(lo, 28)
        for up in (True, False):
            got = structure._band_rows(events, lo, hi, up)
            assert got == band_walk(events, lo, hi, up), (events, lo, hi, up)
    for poly, rin in node_cells:
        fences = LineFences(poly, rin)
        _x0, y0, _x1, y1 = poly.bbox()
        for up in (True, False):
            want = band_walk(fences._row_lines.events, y0, y1, up)
            assert fences.band_rows(y0, y1, up) == want, (poly, rin, up)


def test_rows_of_a_band_read_alike(node_cells):
    """One record per band is exact, for rows and for columns: on every
    node cell, every line unit of acceptance criterion 6 and every blob
    with stray rects."""
    shared = 0
    for poly, rin in node_cells:
        shared += assert_rows_by_band(poly, rin)
    for _k, poly, rects in criterion_6_units()[0]:
        shared += assert_rows_by_band(poly, rects)
    for poly, rin in stray_rect_sets():
        shared += assert_rows_by_band(poly, rin)
    assert shared > 1000, shared
