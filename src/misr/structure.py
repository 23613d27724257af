"""Structure on an optimal solution: maximal extension, nesting and
niceness labels, corridor visibility ("sees"), and fence/protection
machinery for single-segment fences and for chains of up to tau segments.

Conventions for fences (all exact, all integral):
  * a line fence is one horizontal segment from an integral point on a
    vertical polygon edge to a rectangle feature (left-edge interior or a
    far corner), crossing no rectangle contained in the polygon;
  * a tau-fence is an x-monotone chain of at most tau axis-parallel
    segments anchored anywhere on a vertical polygon edge, crossing no
    rectangle contained in the polygon; no feature endpoint is required.
Anchors and bends are restricted to integral points; every obstacle has
integral coordinates, so chains can always be deformed onto the integer
grid without increasing their segment count.

Protection belongs to a node of a partition, a polygon and the rects
inside it, and lives in one LineFences record per node, the one place
that computes a line's free pieces (its section minus the rects crossing
it), for rows and columns alike, one record per band of lines (see
LineFences).  Building a record reads nothing; each fact is built on
first use and kept in the record:
  rows      per band of rows, the anchors on the row and its free pieces
            (_Row); the end of an anchor's furthest fence is read for the
            one anchor asked (_end), by furthest and by the line cut's
            crossing_anchor alike, and kept nowhere; furthest finds its
            anchor's edge among the polygon's vertical edges and reads no
            row;
  columns   per band of columns, the free pieces (_Pieces), built only
            for the move table;
  anchors   per rect, the anchors of the line fences holding its top and
            bottom edges, which answer line protection (protected), give
            the line cut the fence of a rect its ray hits and certify
            tau-protection;
  moves     the engines' move table, for every tau, from rows and columns;
  engine    per tau, one FenceEngine, holding its search tables only, built
            only when a tau query is left open by the line fences.
A line fence is a tau-fence of one segment, so for tau >= 1 a rect whose
top and bottom edges are held by line fences from one vertical edge is
tau-protected; tau_protected asks the engine only about the others.
A True verdict keeps its witness (_Witness), the fences or chains that
prove it, and recursive_partition makes each child's record from its
parent's witnesses for the child's rects, so a child re-checks its
parent's fences before it builds a row or an engine.  A record is made
when its node's parent is cut (the root's at the start) and freed when
the node is done: no record outlives its node, and none outlives the run.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .geom_core import (
    Point,
    Rect,
    RectPolygon,
    Segment,
)
from .instance import Instance, Solution, _boxes, _overlapping_pairs, validate_solution

class StructureError(ValueError):
    pass


@dataclass(frozen=True)
class MaximalSet:
    """Pairwise-disjoint rectangles, each grown to a fixpoint in all four
    directions; origin maps each grown rect back to its input index."""

    rects: tuple[Rect, ...]
    origin: tuple[int, ...]
    side: int


def maximal_extension(opt: Solution, inst: Instance) -> MaximalSet:
    """Grow each chosen rectangle until every coordinate is blocked by
    another rectangle of the set or by the bounding square.

    Rectangles are processed in ascending index order; each grows once
    left, right, bottom and top, against the others as grown so far (left
    and right read only the y-range, which they leave as is, so they grow
    independently; so do bottom and top).  Any processing order yields a
    valid maximal set; fixing one keeps fixtures reproducible.  One cycle
    reaches the fixpoint: a second left step would take the maximum over a
    superset of the rects that set xl, still holding the one that set it,
    capped at xl, so it stays at xl, and right is the mirror image; bottom
    and top see the x-range of the first cycle, so their limits stay.

    Each step reads the others sorted by the coordinate it faces: a left
    step, the right edges.  The new xl is the greatest right edge at or
    left of xl among the rects that overlap it on y (a rect's own right
    edge lies right of its xl, so it is never a candidate), so a bisect to
    xl and a scan down to the first rect overlapping it on y finds it, and
    0 if none does; the other three steps are its mirror images.  A rect
    that grows moves its edges to their new places in the four orders, so
    every step reads the others as grown so far, as the one-cycle growth
    does, and returns what it returns.  A step costs a bisect and the
    rects it passes, those nearer than its blocker that miss its extent;
    on a tiling, the few whose facing edges share the blocker's line.
    """
    order = sorted(opt.chosen)
    validate_solution(inst, Solution(tuple(order)))
    side, n = inst.side, len(order)
    boxes = _boxes(inst.rects[i] for i in order)
    # by_edge[e]: (coordinate e of each box, its index), sorted, for
    # e = 0..3, the xl, yb, xr and yt edges
    by_edge = [sorted((box[e], k) for k, box in enumerate(boxes)) for e in range(4)]
    lefts, bottoms, rights, tops = by_edge

    def facing_down(edges: list, at: int, lo: int, hi: int, axis: int) -> int:
        """The greatest edge at or below ``at`` of a box whose open extent
        on ``axis`` (0 for x, 1 for y) meets (lo, hi), else 0."""
        for p in range(bisect_right(edges, (at, n)) - 1, -1, -1):
            c, j = edges[p]
            box = boxes[j]
            if box[axis] < hi and lo < box[axis + 2]:
                return c
        return 0

    def facing_up(edges: list, at: int, lo: int, hi: int, axis: int) -> int:
        """The least edge at or above ``at`` of a box whose open extent on
        ``axis`` meets (lo, hi), else the side."""
        for p in range(bisect_left(edges, (at, -1)), n):
            c, j = edges[p]
            box = boxes[j]
            if box[axis] < hi and lo < box[axis + 2]:
                return c
        return side

    for k, box in enumerate(boxes):
        xl, yb, xr, yt = box
        xl = facing_down(rights, xl, yb, yt, 1)
        xr = facing_up(lefts, xr, yb, yt, 1)
        yb = facing_down(tops, yb, xl, xr, 0)
        yt = facing_up(bottoms, yt, xl, xr, 0)
        grown = (xl, yb, xr, yt)
        for e, edges in enumerate(by_edge):
            if grown[e] != box[e]:
                del edges[bisect_left(edges, (box[e], k))]
                insort(edges, (grown[e], k))
        boxes[k] = grown

    m = MaximalSet(tuple(Rect(*box) for box in boxes), tuple(order), side)
    assert_maximal(m)
    return m


def _far_edges(
    boxes: Sequence[tuple[int, int, int, int]],
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """The boxes' indices, ascending, bucketed by the line of their right
    edge ({xr: indices}) and by the line of their top edge ({yt:
    indices}): a box's left edge can lie on another's right edge only on
    the line x = xl, so a lookup of its own xl finds every box that may
    face it there, and likewise yb for its bottom edge."""
    rights: dict[int, list[int]] = {}
    tops: dict[int, list[int]] = {}
    for j, (_xl, _yb, xr, yt) in enumerate(boxes):
        rights.setdefault(xr, []).append(j)
        tops.setdefault(yt, []).append(j)
    return rights, tops


def assert_maximal(m: MaximalSet) -> None:
    """A unit of growth in any direction must hit another rect of the set
    or leave the bounding square, and the rects must be pairwise disjoint
    (the overlap kernel of ``neighbour_masks``; the least overlapping pair
    is reported).  The rect grown one unit left meets another exactly
    when their open extents overlap on both axes, and as the two are
    disjoint and the coordinates integers, exactly when the other's right
    edge lies on the rect's left edge and their y-extents overlap.  So a
    pass over the pairs of facing edges on one line (``_far_edges``)
    blocks both rects of each pair that overlaps across the line, and the
    first rect left unblocked is reported with its first free direction
    in the order left, right, bottom, top."""
    boxes = _boxes(m.rects)
    pairs = _overlapping_pairs(boxes)
    if pairs:
        i, j = min(pairs)
        raise StructureError(f"extended rects {i},{j} overlap")
    side = m.side
    # free[i][e]: rect i may grow across its edge e (xl, yb, xr, yt)
    free = [[xl > 0, yb > 0, xr < side, yt < side] for xl, yb, xr, yt in boxes]
    rights, tops = _far_edges(boxes)
    for i, (xl, yb, xr, yt) in enumerate(boxes):
        for j in rights.get(xl, ()):
            _, oyb, _, oyt = boxes[j]
            if oyb < yt and yb < oyt:
                free[i][0] = free[j][2] = False
        for j in tops.get(yb, ()):
            oxl, _, oxr, _ = boxes[j]
            if oxl < xr and xl < oxr:
                free[i][1] = free[j][3] = False
    for i, grows in enumerate(free):
        for e, direction in ((0, "left"), (2, "right"), (1, "bottom"), (3, "top")):
            if grows[e]:
                raise StructureError(f"rect {i} could still grow {direction}")


# -- nesting ----------------------------------------------------------------


@dataclass(frozen=True)
class NestingLabel:
    horizontally_nested: frozenset[int]
    vertically_nested: frozenset[int]

    def label(self, i: int) -> str:
        if i in self.horizontally_nested:
            return "horizontally_nested"
        if i in self.vertically_nested:
            return "vertically_nested"
        return "neither"


def classify_nesting(m: MaximalSet) -> NestingLabel:
    """Vertical nesting: top or bottom edge inside the interior of a facing
    edge of another rect or of S; horizontal nesting likewise for left and
    right edges.  No rect may carry both labels; the least such rect is
    reported.

    An edge lies inside a facing edge of another rect only if the two lie
    on one line, so only the pairs of facing edges on one line
    (``_far_edges``, as ``assert_maximal`` reads them) can nest: of such a
    pair, the rect whose extent along the line the other's strictly holds
    is nested."""
    boxes = _boxes(m.rects)
    side = m.side
    rights, tops = _far_edges(boxes)
    hset, vset = set(), set()
    for i, (xl, yb, xr, yt) in enumerate(boxes):
        if (xl == 0 or xr == side) and 0 < yb and yt < side:
            hset.add(i)
        if (yb == 0 or yt == side) and 0 < xl and xr < side:
            vset.add(i)
        for j in rights.get(xl, ()):
            _, oyb, _, oyt = boxes[j]
            if oyb < yb and yt < oyt:
                hset.add(i)
            elif yb < oyb and oyt < yt:
                hset.add(j)
        for j in tops.get(yb, ()):
            oxl, _, oxr, _ = boxes[j]
            if oxl < xl and xr < oxr:
                vset.add(i)
            elif xl < oxl and oxr < xr:
                vset.add(j)
    both = hset & vset
    if both:
        raise StructureError(f"rect {min(both)} is both horizontally and vertically nested")
    return NestingLabel(frozenset(hset), frozenset(vset))


# -- reflections ------------------------------------------------------------


def _mirror_x(rects: Sequence[Rect]) -> list[Rect]:
    return [Rect(-r.xr, r.yb, -r.xl, r.yt) for r in rects]


def _mirror_x_tagged(rects_in: Sequence[tuple[int, Rect]]) -> list[tuple[int, Rect]]:
    """``_mirror_x`` of (rect id, rect) pairs, ids kept."""
    return [(rid, Rect(-r.xr, r.yb, -r.xl, r.yt)) for rid, r in rects_in]


def _mirror_x_point(q: Point) -> Point:
    """The reflection in the line x = 0 that ``_mirror_x`` applies."""
    return Point(-q.x, q.y)


def _mirror_y(rects: Sequence[Rect]) -> list[Rect]:
    return [Rect(r.xl, -r.yt, r.xr, -r.yb) for r in rects]


# -- seeing -----------------------------------------------------------------


# The (side, corner) pairs the library asks about.
_SEE_PAIRS = frozenset(
    {("right", "TL"), ("right", "BL"), ("left", "TR"), ("left", "BR"), ("bottom", "TR")}
)


def sees(rects: Sequence[Rect], i: int, j: int, corner: str, side: str) -> bool:
    """Corridor visibility from rects[i] to the named corner of rects[j].

    Valid (side, corner) pairs, the ones the library asks about: TL/BL on
    the right, TR/BR on the left and TR below.  The corridor h runs from a
    point p on i's facing edge to the corner: along the row at the
    corner's y, from i's xr to j's xl on the right or from j's xr to i's
    xl on the left; below, down the column x = j's xr from j's yt to i's
    yb.  h must cross no rectangle interior; p must not be the excluded
    end of i's facing edge (its yb for a top corner, its yt for a bottom
    one, its xl below); and h must not contain the matching edge of any
    other rectangle, the edge that holds the named corner and runs along
    h (top for TL/TR, bottom for BL/BR, right below).
    """
    if (side, corner) not in _SEE_PAIRS:
        raise StructureError(f"invalid corner/side combination {(side, corner)}")
    if i == j:
        raise StructureError("a rectangle does not see itself")
    r, q = rects[i], rects[j]
    if side == "bottom":
        x, lo, hi = q.xr, q.yt, r.yb
        if lo > hi or not r.xl <= x <= r.xr or x == r.xl:
            return False
        for k, o in enumerate(rects):
            if o.xl < x < o.xr and lo < o.yt and o.yb < hi:
                return False
            if k != j and o.xr == x and lo <= o.yb and o.yt <= hi:
                return False
        return True
    top = corner[0] == "T"
    y = q.yt if top else q.yb
    lo, hi = (r.xr, q.xl) if side == "right" else (q.xr, r.xl)
    if lo > hi or not r.yb <= y <= r.yt or y == (r.yb if top else r.yt):
        return False
    for k, o in enumerate(rects):
        if o.yb < y < o.yt and lo < o.xr and o.xl < hi:
            return False
        if k != j and (o.yt if top else o.yb) == y and lo <= o.xl and o.xr <= hi:
            return False
    return True


def _side_corners(side: str) -> tuple[str, str]:
    """The corners seen on a horizontal side: left corners on the right."""
    if side == "right":
        return ("TL", "BL")
    if side == "left":
        return ("TR", "BR")
    raise StructureError("seen_corners_on_side handles left/right only")


def seen_corners_on_side(
    rects: Sequence[Rect], i: int, side: str, candidates: Iterable[int]
) -> list[tuple[Point, int, str]]:
    """All corners rects[i] sees on the given horizontal side, restricted
    to candidate owners, in scan order (corner y descending, corner x
    ascending, owner index ascending)."""
    corners = _side_corners(side)
    out = []
    for j in candidates:
        if j == i:
            continue
        for c in corners:
            if sees(rects, i, j, c, side):
                out.append((rects[j].corner(c), j, c))
    out.sort(key=lambda t: (-t[0].y, t[0].x, t[1]))
    return out


# -- niceness ----------------------------------------------------------------


@dataclass(frozen=True)
class NiceLabel:
    horizontally_nice: frozenset[int]
    vertically_nice: frozenset[int]


def classify_nice(m: MaximalSet) -> NiceLabel:
    """Horizontally nice: sees a BL corner to the right, or bottom edge on
    the boundary of S.  Vertically nice: sees a TR corner below, or right
    edge on the boundary of S.  Every rect must earn at least one flag."""
    hset, vset = set(), set()
    n = len(m.rects)
    for i, r in enumerate(m.rects):
        if r.yb == 0 or any(j != i and sees(m.rects, i, j, "BL", "right") for j in range(n)):
            hset.add(i)
        if r.xr == m.side or any(
            j != i and sees(m.rects, i, j, "TR", "bottom") for j in range(n)
        ):
            vset.add(i)
        if i not in hset and i not in vset:
            raise StructureError(
                f"rect {i} is neither horizontally nor vertically nice"
            )
    return NiceLabel(frozenset(hset), frozenset(vset))


# -- line fences (single horizontal segments) --------------------------------


class _Lines(NamedTuple):
    """The lines of one axis of a node, its rows (y = c) or its columns
    (x = c): events, the event lines, ascending; spans, the (a, b, lo, hi)
    of each rect, its extent (a, b) along the lines and (lo, hi) across
    them, ascending."""

    events: list[int]
    spans: list[tuple[int, int, int, int]]


def _band(events: Sequence[int], c: int) -> int:
    """The key of line c's band among the event lines: 2j + 1 on event
    line j, 2j strictly between event lines j - 1 and j."""
    j = bisect_left(events, c)
    return 2 * j + (j < len(events) and events[j] == c)


def _band_rows(events: Sequence[int], lo: int, hi: int, up: bool) -> list[int]:
    """The first row of each band (_band) met by the rows lo..hi, in the
    direction of travel: upward from lo, or downward from hi.  Past an
    event line e, the next row e + 1 (or e - 1) opens a band unless it is
    an event line itself."""
    ev = events[bisect_left(events, lo) : bisect_right(events, hi)]
    if not up:
        ev = ev[::-1]
    rows = [lo if up else hi]
    for k, e in enumerate(ev):
        if e != rows[-1]:
            rows.append(e)
        nxt = e + 1 if up else e - 1
        if lo <= nxt <= hi and (k + 1 == len(ev) or ev[k + 1] != nxt):
            rows.append(nxt)
    return rows


class _Row(NamedTuple):
    """The anchor facts of one row y of a node: lefts/rights, the x of the
    left/right polygon edges holding a point of y, ascending;
    free_lo/free_hi, the row's free pieces (_Pieces)."""

    lefts: tuple[int, ...]
    rights: tuple[int, ...]
    free_lo: tuple[int, ...]
    free_hi: tuple[int, ...]


class _Pieces(NamedTuple):
    """The free pieces of one line of a node (_free_pieces), closed
    intervals (possibly points), ascending, as their low and high ends."""

    free_lo: tuple[int, ...]
    free_hi: tuple[int, ...]


def _free_pieces(
    sections: Sequence[tuple[int, int]],
    spans: Sequence[tuple[int, int, int, int]],
    c: int,
) -> _Pieces:
    """The free pieces of line c, outside the rects crossing it: the
    closed sections of the line minus the open extents (a, b) of the
    spans (a, b, lo, hi) with lo < c < hi (see _Lines)."""
    crossing = [(a, b) for a, b, lo, hi in spans if lo < c < hi]
    los: list[int] = []
    his: list[int] = []
    for a, b in sections:
        cur = a
        for xl, xr in crossing:
            if xl >= b or xr <= cur:
                continue
            if xl >= cur:
                los.append(cur)
                his.append(xl)
            cur = xr
            if cur > b:
                break
        if cur <= b:
            los.append(cur)
            his.append(b)
    return _Pieces(tuple(los), tuple(his))


class _Anchors(NamedTuple):
    """The anchors of the line fences holding one rect's top edge and of
    those holding its bottom edge: the x of each left and each right
    polygon edge on that row, ascending."""

    top_lefts: tuple[int, ...]
    top_rights: tuple[int, ...]
    bottom_lefts: tuple[int, ...]
    bottom_rights: tuple[int, ...]


class _Witness(NamedTuple):
    """The proof of one True protection verdict: point walks, each from its
    start through its bends to its end, that start on one vertical polygon
    edge, a left one (left True), a right one (False) or either (None),
    lie in the closed polygon and cross no rect interior.  A line fence is
    one walk of one segment from its anchor to the far corner of the edge
    it holds."""

    walks: tuple[tuple[Point, ...], ...]
    left: Optional[bool]


# What a witness proves, with its rect the key of a record's witnesses:
# protected, one_edge_anchors_both, or tau_protected at the given tau.
_LINE, _PAIR = "line", "pair"
Proves = Union[str, int]


def _fence(r: Rect, y: int, x: int, left: bool) -> tuple[Point, Point]:
    """The line fence from anchor (x, y) holding r's edge on row y."""
    return Point(x, y), Point(r.xr if left else r.xl, y)


class LineFences:
    """The protection record of one node, a polygon and the rects inside
    it: the free pieces of its lines, one record per band of rows or of
    columns, its line fences, its fence engines' move table and its fence
    engines, all built on first use.

    A line fence from a left polygon edge runs rightward from an integral
    anchor point of the edge, within the polygon's section, to a rect
    feature: the interior of a left edge, where it must stop, or a right
    corner; fences from right edges are the mirror image.  The node's
    reads are the furthest fence of an anchor, the least anchor whose
    fence strictly crosses a vertical line on a row, and, per rect, the
    anchors of the fences holding its top and bottom edges (anchors,
    one record per rect), which answer protected, one_edge_anchors_both
    and, with the engine, tau_protected.  A fence holding an edge is read
    as its anchor: it runs from there to the edge's far corner.

    Lines are read by band.  The event lines of an axis are the distinct
    coordinates of the polygon's vertices and of the rects' edges along
    the lines (for rows, the y of vertices and of bottom and top edges),
    and the rects' spans are sorted once per axis (_Lines); a band is one
    event line, or the lines strictly between two neighbouring ones (or
    beyond the last), keyed as RectPolygon._section keys its bands (_band).
    All lines of a band read alike, so one record per band is exact: a
    rect crosses row y when yb < y < yt, and no yb or yt lies strictly
    inside a band, so every row of it has the same crossing rects and none
    has a rect edge on it; the polygon's section changes only at vertex
    lines, and a vertical edge holds a point of the row exactly when the
    row lies between the edge's ends, which are vertex y's.  A row's facts
    are functions of these four alone, and a column's free pieces, by the
    mirror argument, of its crossing rects and section.  A row's anchor
    facts (_Row) serve anchors, the move table and the line cut's
    crossing_anchor; the line cut's furthest reads no row: it finds its
    anchor's edge among the vertical edges (_verticals), like _holds.
    Both line-cut reads read the fence end of each anchor they ask about
    (_end) and keep none; a column's free pieces (_Pieces) serve only the
    move table.  So a reader that walks a run of rows asking
    these reads needs only the first row of each band it meets: band_rows
    lists them, in the direction of travel.

    A True verdict keeps its witness (_Witness): for protected, the
    shortest fence holding an edge; for one_edge_anchors_both, the nearest
    edge's two fences; for an engine's tau verdict, its two chains
    (FenceEngine.proof).  A record may start from witnesses proved in an
    ancestor node (inherited, as witnesses() hands them down), and each
    question first re-checks the inherited witness on the record's own
    polygon (_holds): the walks start on one vertical edge, of the
    fence's side for line fences, and every segment lies in the closed
    polygon, read with one lookup in the memoized section of its line
    (RectPolygon.contains_walk).
    Only when that fails does the record build rows or an engine.  This is
    exact: a child's polygon lies inside its parent's and its rects are a
    subset of the parent's, so a segment that crosses no parent rect's
    interior and lies in the child's closed polygon is free in the child,
    and the re-checked walks are fences or chains of the child that hold
    the same edges with the same number of segments.  So the child's
    verdict is True, as a fresh record of the child would find.
    """

    def __init__(
        self,
        poly: RectPolygon,
        rects_in: Sequence[tuple[int, Rect]],
        inherited: Optional[dict[tuple[Rect, Proves], _Witness]] = None,
    ):
        self.poly = poly
        self.rects_in = rects_in
        self._rows: dict[int, _Row] = {}
        self._columns: dict[int, _Pieces] = {}
        self._anchors: dict[Rect, _Anchors] = {}
        self._engines: dict[int, FenceEngine] = {}
        self._inherited = inherited or {}
        self._proofs: dict[tuple[Rect, Proves], _Witness] = {}

    def _lines(self, horizontal: bool) -> _Lines:
        """The rows (horizontal) or the columns of the node: the event
        lines and the rects' spans."""
        spans = sorted(
            (r.xl, r.xr, r.yb, r.yt) if horizontal else (r.yb, r.yt, r.xl, r.xr)
            for _rid, r in self.rects_in
        )
        events = set(self.poly.coords()[horizontal])
        for _a, _b, lo, hi in spans:
            events.add(lo)
            events.add(hi)
        return _Lines(sorted(events), spans)

    @cached_property
    def _row_lines(self) -> _Lines:
        return self._lines(True)

    @cached_property
    def _column_lines(self) -> _Lines:
        return self._lines(False)

    @cached_property
    def _verticals(self) -> list[tuple[int, int, int, bool]]:
        """(x, lowest y, highest y, left?) of each vertical polygon edge,
        sorted.  The loop runs clockwise, so an edge running up is left
        (RectPolygon.vertical_edge_sides)."""
        vs = self.poly.vertices
        return sorted(
            (p.x, p.y, q.y, True) if p.y < q.y else (p.x, q.y, p.y, False)
            for p, q in zip(vs, vs[1:] + vs[:1])
            if p.x == q.x
        )

    def row(self, y: int) -> _Row:
        """The anchor facts of row y, one record per band."""
        key = _band(self._row_lines.events, y)
        rec = self._rows.get(key)
        if rec is None:
            rec = self._rows[key] = self._build_row(y)
        return rec

    def _build_row(self, y: int) -> _Row:
        """The anchor facts of row y, built afresh."""
        lefts: list[int] = []
        rights: list[int] = []
        for x, lo, hi, left in self._verticals:
            if lo <= y <= hi:
                (lefts if left else rights).append(x)
        return _Row(
            tuple(lefts),
            tuple(rights),
            *_free_pieces(self.poly.horizontal_section(y), self._row_lines.spans, y),
        )

    def band_rows(self, lo: int, hi: int, up: bool) -> list[int]:
        """The first row of each band of rows between lo and hi (both
        included), in the direction of travel: ascending from lo when up,
        else descending from hi.  Every row of a band reads as that one."""
        return _band_rows(self._row_lines.events, lo, hi, up)

    def column(self, x: int) -> _Pieces:
        """The free pieces of column x, one record per band."""
        key = _band(self._column_lines.events, x)
        rec = self._columns.get(key)
        if rec is None:
            rec = self._columns[key] = self._build_column(x)
        return rec

    def _build_column(self, x: int) -> _Pieces:
        """The free pieces of column x, built afresh."""
        return _free_pieces(self.poly.vertical_section(x), self._column_lines.spans, x)

    def _end(self, y: int, x: int, left: bool) -> Optional[int]:
        """The x of the furthest line fence from the anchor (x, y) of a left
        or a right polygon edge, or None when it anchors none.

        The fence runs within the anchor's section of the row; a left
        anchor's furthest fence ends at the first left edge of a crossing
        rect at or right of it (the fence stops inside that edge), else at
        the last right corner on the row; a right anchor's is the mirror
        image.  The spans are sorted by their left ends, so the scan stops
        at the first one past every end it may take."""
        lo, hi = next(sec for sec in self.poly.horizontal_section(y) if sec[0] <= x <= sec[1])
        corner = None
        if left:
            for a, b, ylo, yhi in self._row_lines.spans:
                if a > hi:
                    break
                if ylo < y < yhi:
                    if a >= x:
                        return a
                elif (ylo == y or yhi == y) and x <= b <= hi and (corner is None or b > corner):
                    corner = b
            return corner
        block = None
        for a, b, ylo, yhi in self._row_lines.spans:
            if a > x:
                break
            if ylo < y < yhi:
                if lo <= b <= x and (block is None or b > block):
                    block = b
            elif (ylo == y or yhi == y) and corner is None and a >= lo:
                corner = a
        return corner if block is None else block

    def furthest(self, p: Point, left: bool) -> Optional[int]:
        """The x of the furthest line fence from p, an integral point of a
        left (fences run rightward) or right (leftward) polygon edge, or
        None when p anchors none.  The edge holding p is found among the
        vertical edges (_verticals), as _holds finds it, and the fence end
        is read with _end: no row record is built or read."""
        verticals = self._verticals
        k = bisect_left(verticals, (p.x,))
        while k < len(verticals) and verticals[k][0] == p.x:
            _x, lo, hi, edge_left = verticals[k]
            if edge_left == left and lo <= p.y <= hi:
                return self._end(p.y, p.x, left)
            k += 1
        return None

    def crossing_anchor(self, y: int, x: int) -> Optional[int]:
        """The least x of an anchor on row y with a line fence that
        strictly crosses the vertical line at x, or None.  Left anchors
        lie left of x and right ones right of it, so the left come first."""
        rec = self.row(y)
        for xa in rec.lefts:
            if xa >= x:
                break
            end = self._end(y, xa, True)
            if end is not None and end > x:
                return xa
        for xa in rec.rights:
            if xa > x:
                end = self._end(y, xa, False)
                if end is not None and end < x:
                    return xa
        return None

    def anchors(self, r: Rect) -> _Anchors:
        """The anchors of the fences holding r's top and bottom edges,
        answered once per rect.  A fence from the anchor (x, y) holds the
        edge on row y when the segment from it to the edge's far corner
        lies in one free piece of the row."""
        rec = self._anchors.get(r)
        if rec is None:
            rec = self._anchors[r] = _Anchors(
                *self._row_anchors(r, r.yt), *self._row_anchors(r, r.yb)
            )
        return rec

    def _row_anchors(self, r: Rect, y: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The left and the right anchors of the fences holding r's edge
        on row y; a row off the polygon holds no free piece."""
        rec = self.row(y)
        k = bisect_right(rec.free_lo, r.xl) - 1
        if k < 0 or rec.free_hi[k] < r.xr:
            return (), ()
        lefts, rights = rec.lefts, rec.rights
        lo, hi = rec.free_lo[k], rec.free_hi[k]
        return (
            lefts[bisect_left(lefts, lo) : bisect_right(lefts, r.xl)],
            rights[bisect_left(rights, r.xr) : bisect_right(rights, hi)],
        )

    def witnesses(self, rects: Iterable[Rect]) -> dict[tuple[Rect, Proves], _Witness]:
        """The witnesses the record holds for the given rects, proved here
        or inherited and not yet asked, as a plain dict: the inheritance
        of a child's record."""
        keep = set(rects)
        return {
            key: w
            for held in (self._inherited, self._proofs)
            for key, w in held.items()
            if key[0] in keep
        }

    def _proved(self, r: Rect, proves: Proves) -> bool:
        """The record holds a witness of the verdict: proved here, or
        inherited and holding here (_holds), when it is kept as proved.  An
        inherited witness is checked once."""
        key = (r, proves)
        if key in self._proofs:
            return True
        w = self._inherited.pop(key, None)
        if w is not None and self._holds(w):
            self._proofs[key] = w
            return True
        return False

    def _holds(self, w: _Witness) -> bool:
        """The witness's walks start on one vertical edge of the polygon,
        of the witness's side, and every segment lies in the closed
        polygon (RectPolygon.contains_walk, one section lookup per segment).
        Crossing no rect interior is inherited (see the class docstring)."""
        x, lo = w.walks[0][0]
        hi = lo
        for walk in w.walks:
            p = walk[0]
            if p.x != x:
                return False
            if p.y < lo:
                lo = p.y
            elif p.y > hi:
                hi = p.y
        verticals = self._verticals
        k = bisect_left(verticals, (x,))
        while k < len(verticals) and verticals[k][0] == x:
            _x, elo, ehi, left = verticals[k]
            if elo <= lo and hi <= ehi and w.left in (None, left):
                return all(map(self.poly.contains_walk, w.walks))
            k += 1
        return False

    def protected(self, r: Rect) -> bool:
        """Some line fence holds r's top or bottom edge: a proof of
        one_edge_anchors_both holds two."""
        if (r, _PAIR) in self._proofs or self._proved(r, _LINE):
            return True
        a = self.anchors(r)
        fences = []  # the nearest anchor of each list, the shortest fence
        for y, lefts, rights in (
            (r.yt, a.top_lefts, a.top_rights),
            (r.yb, a.bottom_lefts, a.bottom_rights),
        ):
            if lefts:
                fences.append((r.xr - lefts[-1], y, lefts[-1], True))
            if rights:
                fences.append((rights[0] - r.xl, y, rights[0], False))
        if not fences:
            return False
        _length, y, x, left = min(fences)
        self._proofs[r, _LINE] = _Witness((_fence(r, y, x, left),), left)
        return True

    def one_edge_anchors_both(self, r: Rect) -> bool:
        """One vertical polygon edge anchors a fence holding r's top edge
        and one holding its bottom edge: for some x of both anchor lists
        of one side, an edge at x holds (x, r.yt) and (x, r.yb).  Vertical
        edges of a simple polygon are disjoint, so that edge is the one
        anchoring both fences, and its side is the lists'."""
        if self._proved(r, _PAIR):
            return True
        a = self.anchors(r)
        xs = set(a.top_lefts).intersection(a.bottom_lefts)
        xs.update(set(a.top_rights).intersection(a.bottom_rights))
        edges = [
            (r.xr - x if left else x - r.xl, x, left)
            for x, lo, hi, left in self._verticals
            if x in xs and lo <= r.yb and r.yt <= hi
        ]
        if not edges:
            return False
        _length, x, left = min(edges)
        walks = (_fence(r, r.yt, x, left), _fence(r, r.yb, x, left))
        self._proofs[r, _PAIR] = _Witness(walks, left)
        return True

    @cached_property
    def moves(self) -> bytes:
        """The fence engines' move table, one for every budget:
        moves[ix*ny + iy] holds the move bits of the unit steps from grid
        point (x0+ix, y0+iy) of the polygon's nx by ny bounding box that
        stay in the closed polygon and cross no rect interior.

        The steps come from the free pieces of the record's rows and
        columns.  Each row's free steps fill one strided slice of a table
        of free steps right, and each column's one slice of a table of free
        steps up; as integers of little-endian bytes, a step right from
        byte k is a step left from byte k + ny, and a step up one down from
        byte k + 1, so shifts give the other two directions."""
        x0, y0, x1, y1 = self.poly.bbox()
        nx, ny = x1 - x0 + 1, y1 - y0 + 1
        right = bytearray(nx * ny)
        rows = map(self.row, range(y0, y0 + ny))
        for j, steps in enumerate(_free_steps(rows, x0, nx)):
            right[j::ny] = steps
        up = b"".join(_free_steps(map(self.column, range(x0, x0 + nx)), y0, ny))
        h, v = int.from_bytes(right, "little"), int.from_bytes(up, "little")
        moves = h * _RIGHT | (h << 8 * ny) * _LEFT | v * _UP | (v << 8) * _DOWN
        return moves.to_bytes(nx * ny, "little")

    def engine(self, tau: int) -> FenceEngine:
        """The node's fence engine at budget tau, built on first use."""
        eng = self._engines.get(tau)
        if eng is None:
            eng = self._engines[tau] = FenceEngine(self.poly, tau, self.moves)
        return eng

    def tau_protected(self, r: Rect, tau: int) -> bool:
        """tau-protection: one vertical polygon edge anchors two chains of
        at most tau segments containing r's top and bottom edges
        respectively.

        A line fence is such a chain of one segment, so when tau >= 1 and
        one edge anchors line fences holding both edges, r is
        tau-protected; the node's engine decides every other rect, and is
        built only for them.  Inherited witnesses of either kind are
        re-checked before anything is built."""
        line = tau >= 1
        if line and self._proved(r, _PAIR) or self._proved(r, tau):
            return True
        if line and self.one_edge_anchors_both(r):
            return True
        walks = self.engine(tau).proof(r)
        if walks is None:
            return False
        self._proofs[r, tau] = _Witness(walks, None)
        return True


# -- tau-fences: budgeted x-monotone chain search -----------------------------

_H = 0  # horizontal
_VU = 1  # vertical, moving up
_VD = 2  # vertical, moving down
_START = 3

# Unit steps out of a grid point, in search order: (move bit, orientation
# after the step, committed horizontal direction after it or None to keep).
_RIGHT, _LEFT, _UP, _DOWN = 1, 2, 4, 8
_STEPS = ((_RIGHT, _H, 1), (_LEFT, _H, 2), (_UP, _VU, None), (_DOWN, _VD, None))

# The states o*3 + h in which a chain at the first point of a horizontal
# run may go on along it, rightward or leftward: (the horizontal state of
# that direction, which goes straight on; the vertical and bare-anchor
# states not committed to the other direction, which turn).
_ONTO_RIGHT = (_H * 3 + 1, tuple(o * 3 + h for o in (_VU, _VD, _START) for h in (0, 1)))
_ONTO_LEFT = (_H * 3 + 2, tuple(o * 3 + h for o in (_VU, _VD, _START) for h in (0, 2)))


def _free_steps(
    records: Iterable[_Row | _Pieces], lo0: int, n: int
) -> list[bytearray]:
    """For the record of each line in turn, free[i]: the unit step from
    lo0+i to lo0+i+1 lies in one of the line's free pieces.  Lines with the
    same pieces, as all lines of one band have, share one array."""
    out: list[bytearray] = []
    made: dict[tuple[tuple[int, ...], tuple[int, ...]], bytearray] = {}
    for rec in records:
        key = (rec.free_lo, rec.free_hi)
        free = made.get(key)
        if free is None:
            free = made[key] = bytearray(n)
            for lo, hi in zip(*key):
                free[lo - lo0 : hi - lo0] = b"\x01" * (hi - lo)
        out.append(free)
    return out


@lru_cache(maxsize=None)
def _step_rules(ny: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """rules[o*3 + h]: the (move bit, state offset, cost) of every step a
    chain in orientation o and horizontal direction h may take, on a grid
    ny points high.  The same for every engine of that height."""
    shift = {_RIGHT: 12 * ny, _LEFT: -12 * ny, _UP: 12, _DOWN: -12}
    rules = []
    for o in range(4):
        for h in range(3):
            steps = []
            for bit, no, nh in _STEPS:
                if nh is None:
                    nh = h
                    if (o, no) in ((_VU, _VD), (_VD, _VU)):
                        continue  # no doubling back
                elif h != 0 and h != nh:
                    continue  # one horizontal direction per chain
                offset = shift[bit] + (no * 3 + nh) - (o * 3 + h)
                steps.append((bit, offset, int(no != o)))
            rules.append(tuple(steps))
    return tuple(rules)


def _step_preds(
    rules: Sequence[Sequence[tuple[int, int, int]]],
) -> list[list[tuple[int, int, int]]]:
    """preds[o*3 + h]: the (move bit, state offset, cost) of every step of
    the rules (_step_rules) into a state of orientation o and horizontal
    direction h, the one going straight on first; the step leaves the
    state's index minus the offset."""
    preds: list[list[tuple[int, int, int]]] = [[] for _ in range(12)]
    for prev, steps in enumerate(rules):
        for step in steps:
            preds[(prev + step[1]) % 12].append(step)
    return [sorted(p, key=lambda step: step[2]) for p in preds]


def _filled(value: int, size: int):
    """A flat table of size entries equal to value, in the narrowest array
    type that holds value."""
    for code in "Bhiq":
        try:
            return array(code, [value]) * size
        except OverflowError:
            pass
    return [value] * size


class _Table(NamedTuple):
    dist: Sequence[int]
    parent: Optional[array]


class FenceEngine:
    """Reachability of x-monotone chains of at most tau axis-parallel
    segments inside a node's polygon, avoiding its rects' interiors.

    The node's protection record builds one engine per budget
    (LineFences.engine) and hands it the polygon and the record's move
    table (LineFences.moves); the engine keeps nothing of the record, only
    its search tables.  The search graph is the integer grid of the
    polygon's bounding box; a chain state is (grid point, current
    orientation, committed horizontal direction).  Turning costs one
    segment, continuing straight nothing.

    A search result (a table) is private to the engine: only its methods
    read it.  Its distances live in one flat array indexed
    ((ix*ny + iy)*4 + o)*3 + h for grid offset (ix, iy), orientation o and
    horizontal direction h; unreached states hold tau + 1, and the element
    type is the narrowest array type that holds tau + 1 (bytes up to
    tau = 254).  There are two kinds of table: reach() tables, seeded at
    given anchor points and returned to the caller, also keep each
    state's predecessor state in a flat array (-1 for none), for chain_to;
    protection tables, one per vertical polygon edge, seeded at every
    point of it and kept in the engine, keep none: they are read at the
    ends of a run, and a proof reads its chains back from them (_chain).
    """

    def __init__(self, poly: RectPolygon, tau: int, moves: bytes):
        self.poly = poly
        self.tau = tau
        self.moves = moves
        x0, y0, x1, y1 = poly.bbox()
        self.x0, self.y0 = x0, y0
        self.nx = x1 - x0 + 1
        self.ny = y1 - y0 + 1
        self._edge_tables: dict[int, _Table] = {}
        self._trans = _step_rules(self.ny)

    def _bfs(
        self, seeds: list[tuple[int, int, int, int, int]], with_parent: bool
    ) -> _Table:
        """0/1-BFS over chain states from (dist, ix, iy, orient, hdir)
        seeds; hdir 0 uncommitted, 1 rightward, 2 leftward."""
        moves, trans, tau = self.moves, self._trans, self.tau
        size = self.nx * self.ny * 12
        dist = _filled(tau + 1, size)
        parent = array("q", [-1]) * size if with_parent else None
        dq: deque = deque()
        for d, ix, iy, o, h in seeds:
            if not (0 <= ix < self.nx and 0 <= iy < self.ny):
                continue
            s = (ix * self.ny + iy) * 12 + o * 3 + h
            if d <= tau and d < dist[s]:
                dist[s] = d
                dq.append((d, s))
        while dq:
            d, s = dq.popleft()
            if d > dist[s]:
                continue
            m = moves[s // 12]
            for bit, offset, cost in trans[s % 12]:
                if not m & bit:
                    continue
                nd = d + cost
                ns = s + offset
                if nd > tau or nd >= dist[ns]:
                    continue
                dist[ns] = nd
                if parent is not None:
                    parent[ns] = s
                if cost:
                    dq.append((nd, ns))
                else:
                    dq.appendleft((nd, ns))
        return _Table(dist, parent)

    def reach(self, sources: Iterable[Point]) -> _Table:
        """Chains emanating from any of the given anchor points, searched
        anew on each call.  The seeds go in sorted order, which fixes the
        parents chain_to follows."""
        seeds = [
            (0, p.x - self.x0, p.y - self.y0, _START, 0) for p in sorted(set(sources))
        ]
        return self._bfs(seeds, with_parent=True)

    # queries ----------------------------------------------------------------

    def edge_points(self, edge: Segment) -> list[Point]:
        y1, y2 = sorted((edge.a.y, edge.b.y))
        return [Point(edge.a.x, y) for y in range(y1, y2 + 1)]

    def _cell(self, p: Point) -> Optional[int]:
        """Index of p's first state in a table, or None off the grid."""
        ix, iy = p.x - self.x0, p.y - self.y0
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            return None
        return (ix * self.ny + iy) * 12

    def best_dist(self, table: _Table, p: Point) -> int:
        base = self._cell(p)
        if base is None:
            return self.tau + 1
        return min(table.dist[base : base + 12])

    def covers(self, table: _Table, p: Point) -> bool:
        return self.best_dist(table, p) <= self.tau

    def rightmost(self, table: _Table) -> Optional[Point]:
        """The rightmost point the table covers, the lowest in its column,
        or None when it covers none.  A column's states are one slice of
        the table, and a column that covers nothing equals a slice of
        unreached states, so each column from the right costs one compare."""
        dist, tau, col = table.dist, self.tau, self.ny * 12
        unreached = _filled(tau + 1, col)
        for ix in reversed(range(self.nx)):
            cells = dist[ix * col : (ix + 1) * col]
            if cells != unreached:
                s = next(s for s, d in enumerate(cells) if d <= tau)
                return Point(ix + self.x0, s // 12 + self.y0)
        return None

    def covers_interior(self, table: _Table, p: Point) -> bool:
        """Some chain passes strictly through p: it arrives at p and can be
        extended by one more unit step within budget."""
        base = self._cell(p)
        if base is None:
            return False
        m = self.moves[base // 12]
        for oh in range(_START * 3):  # arrival as a bare source is an endpoint
            d = table.dist[base + oh]
            for bit, _offset, cost in self._trans[oh]:
                if m & bit and d + cost <= self.tau:
                    return True
        return False

    def chain_to(self, table: _Table, p: Point) -> list[Point]:
        """One optimal chain from a seed to p, as a point walk."""
        base = self._cell(p)
        if base is None or self.best_dist(table, p) > self.tau:
            raise StructureError(f"no chain reaches {p}")
        cell = table.dist[base : base + 12]
        s = base + cell.index(min(cell))
        walk = []
        while s >= 0:
            ix, iy = divmod(s // 12, self.ny)
            walk.append(Point(ix + self.x0, iy + self.y0))
            s = table.parent[s]
        return list(reversed(walk))

    def proof(self, r: Rect) -> Optional[tuple[tuple[Point, ...], ...]]:
        """tau-protection: one vertical polygon edge anchors two chains of
        at most tau segments containing r's top and bottom edges
        respectively.  Returns those two chains from the deciding edge, as
        point walks (_chain), or None when r is not tau-protected.

        Every edge e has one forward table: the search seeded at each
        point of e in state _START.  A chain from e contains the run
        [x1,x2]x{y} traversed rightward when the run is walkable and, at
        (x1, y), either the state (_H, h=1) is within tau (the chain
        already runs right) or a state of orientation _VU, _VD or _START
        with h in {0, 1} is within tau - 1 (one more segment turns onto
        the run).  Leftward is the mirror image: the states at (x2, y)
        with h in {0, 2}.  A chain that contains the run can be cut off
        where the run ends, so nothing past the run matters; and reversing
        a chain gives a chain with the same number of segments and the
        opposite horizontal direction, so this forward lookup answers the
        same question as a reversed search seeded at the run.

        The edges are tried from the rightmost one leftward, and the first
        that anchors both runs decides; an edge's table is built on first
        use.  The order does not change the verdict, only the proof: a case-0
        cut peels the leftmost rect off the node with leftward rays, so the
        chains from the right are the ones a child keeps (LineFences).
        """
        top, bottom = (r.yt, r.xl, r.xr), (r.yb, r.xl, r.xr)
        if not (self._walkable(*top) and self._walkable(*bottom)):
            return None
        for idx in self._edge_order:
            at_top = self._anchors(idx, *top)
            at_bottom = at_top and self._anchors(idx, *bottom)
            if at_bottom:
                return self._chain(idx, *at_top), self._chain(idx, *at_bottom)
        return None

    @cached_property
    def _edge_order(self) -> list[int]:
        """The vertical edges' indices, rightmost first (stable)."""
        vs = self.poly.vertices
        return sorted(self.poly.vertical_edge_sides(), key=lambda i: -vs[i].x)

    def _walkable(self, y: int, x1: int, x2: int) -> bool:
        """The run [x1,x2]x{y} lies on the grid and each of its unit steps
        is free (a free step may be taken either way)."""
        moves, ny = self.moves, self.ny
        ix1, ix2, iy = x1 - self.x0, x2 - self.x0, y - self.y0
        return (
            0 <= iy < ny
            and 0 <= ix1 <= ix2 < self.nx
            and all(moves[i * ny + iy] & _RIGHT for i in range(ix1, ix2))
        )

    def _anchors(self, idx: int, y: int, x1: int, x2: int) -> Optional[tuple[int, Point]]:
        """The lookup of proof() for vertical edge idx and a walkable
        run: the state at one end of the run from which a chain from the
        edge goes on along it, and the run's other end, or None."""
        table = self._edge_tables.get(idx)
        if table is None:
            e = self.poly.edges()[idx]
            ix = e.a.x - self.x0
            y1, y2 = sorted((e.a.y - self.y0, e.b.y - self.y0))
            seeds = [(0, ix, iy, _START, 0) for iy in range(y1, y2 + 1)]
            table = self._edge_tables[idx] = self._bfs(seeds, with_parent=False)
        dist, tau = table.dist, self.tau
        for x, far, (straight, turns) in ((x1, x2, _ONTO_RIGHT), (x2, x1, _ONTO_LEFT)):
            base = ((x - self.x0) * self.ny + y - self.y0) * 12
            if dist[base + straight] <= tau:
                return base + straight, Point(far, y)
            d = min(dist[base + s] for s in turns)
            if d + 1 <= tau:
                return base + next(s for s in turns if dist[base + s] == d), Point(far, y)
        return None

    def _chain(self, idx: int, s: int, end: Point) -> tuple[Point, ...]:
        """The chain from edge idx through state s of the edge's table, then
        on to end, as its start, bends and end.  The table keeps no
        parents, so the chain is read back from s: each step goes to a
        predecessor state whose distance plus the step's cost is the
        state's, which every reached state but a seed has, going straight
        on where it can; the seeds are the states at distance 0, and a step
        costs a segment exactly where the chain bends (every step out of
        _START does)."""
        dist, moves, ny = self._edge_tables[idx].dist, self.moves, self.ny
        preds, size = _step_preds(self._trans), len(dist)

        def point(t: int) -> Point:
            return Point(t // 12 // ny + self.x0, t // 12 % ny + self.y0)

        # a chain running right or left at s goes straight on to end
        walk = [] if s % 12 // 3 == _H else [point(s)]
        while dist[s]:
            for bit, offset, cost in preds[s % 12]:
                p = s - offset
                if 0 <= p < size and moves[p // 12] & bit and dist[p] + cost == dist[s]:
                    break
            else:
                raise StructureError(f"no chain of edge {idx} reaches state {s}")
            if cost:
                walk.append(point(p))
            s = p
        walk.reverse()
        walk.append(end)
        return tuple(walk)

