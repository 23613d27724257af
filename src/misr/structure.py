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
            (_Row), and beside it the ends of each anchor's furthest fence
            (_Ends), built only when the line cut asks;
  columns   per band of columns, the free pieces (_Pieces), built only
            when an engine makes its move table;
  anchors   per rect, the anchors of the line fences holding its top and
            bottom edges, which answer line protection (protected), give
            the line cut the fence of a rect its ray hits and certify
            tau-protection;
  engine    per tau, one FenceEngine, whose move table is made from the
            record's rows and columns, with its search tables, built only
            when a tau query is left open by the line fences.
A line fence is a tau-fence of one segment, so for tau >= 1 a rect whose
top and bottom edges are held by line fences from one vertical edge is
tau-protected; tau_protected asks the engine only about the others.
recursive_partition makes a node's record in the parent's persistence
check (check=True), which hands it down with the node, or else when the
node is cut, and frees it when the node is done: no record outlives its
node, and none outlives the run.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .geom_core import (
    Point,
    Rect,
    RectPolygon,
    Segment,
    rects_intersect,
)
from .instance import Instance, Solution, validate_solution

CORNERS = ("TL", "BL", "TR", "BR")


class StructureError(ValueError):
    pass


@dataclass(frozen=True)
class MaximalSet:
    """Pairwise-disjoint rectangles, each grown to a fixpoint in all four
    directions; origin maps each grown rect back to its input index."""

    rects: tuple[Rect, ...]
    origin: tuple[int, ...]
    side: int


def _y_overlap(a: Rect, b: Rect) -> bool:
    return max(a.yb, b.yb) < min(a.yt, b.yt)


def _x_overlap(a: Rect, b: Rect) -> bool:
    return max(a.xl, b.xl) < min(a.xr, b.xr)


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
    """
    validate_solution(inst, Solution(tuple(sorted(opt.chosen))))
    side = inst.side
    order = sorted(opt.chosen)
    grown: list[Rect] = [inst.rects[i] for i in order]

    for idx in range(len(grown)):
        r = grown[idx]
        others = [grown[k] for k in range(len(grown)) if k != idx]
        xl = max([0] + [o.xr for o in others if o.xr <= r.xl and _y_overlap(o, r)])
        xr = min([side] + [o.xl for o in others if o.xl >= r.xr and _y_overlap(o, r)])
        r = Rect(xl, r.yb, xr, r.yt)
        yb = max([0] + [o.yt for o in others if o.yt <= r.yb and _x_overlap(o, r)])
        yt = min([side] + [o.yb for o in others if o.yb >= r.yt and _x_overlap(o, r)])
        grown[idx] = Rect(xl, yb, xr, yt)

    m = MaximalSet(tuple(grown), tuple(order), side)
    assert_maximal(m)
    return m


def assert_maximal(m: MaximalSet) -> None:
    """A unit of growth in any direction must hit another rect of the set
    or leave the bounding square."""
    for i, r in enumerate(m.rects):
        for j in range(i + 1, len(m.rects)):
            if rects_intersect(r, m.rects[j]):
                raise StructureError(f"extended rects {i},{j} overlap")
    for i, r in enumerate(m.rects):
        grown = {
            "left": Rect(r.xl - 1, r.yb, r.xr, r.yt) if r.xl > 0 else None,
            "right": Rect(r.xl, r.yb, r.xr + 1, r.yt) if r.xr < m.side else None,
            "bottom": Rect(r.xl, r.yb - 1, r.xr, r.yt) if r.yb > 0 else None,
            "top": Rect(r.xl, r.yb, r.xr, r.yt + 1) if r.yt < m.side else None,
        }
        for direction, bigger in grown.items():
            if bigger is None:
                continue
            if not any(
                rects_intersect(bigger, o) for k, o in enumerate(m.rects) if k != i
            ):
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


def _seg_in_interior(lo: int, hi: int, olo: int, ohi: int) -> bool:
    return olo < lo and hi < ohi


def classify_nesting(m: MaximalSet) -> NestingLabel:
    """Vertical nesting: top or bottom edge inside the interior of a facing
    edge of another rect or of S; horizontal nesting likewise for left and
    right edges.  No rect may carry both labels."""
    hset, vset = set(), set()
    side = m.side
    for i, r in enumerate(m.rects):
        v = h = False
        for j, o in enumerate(m.rects):
            if i == j:
                continue
            if (r.yt == o.yb or r.yb == o.yt) and _seg_in_interior(r.xl, r.xr, o.xl, o.xr):
                v = True
            if (r.xr == o.xl or r.xl == o.xr) and _seg_in_interior(r.yb, r.yt, o.yb, o.yt):
                h = True
        if (r.yt == side or r.yb == 0) and _seg_in_interior(r.xl, r.xr, 0, side):
            v = True
        if (r.xr == side or r.xl == 0) and _seg_in_interior(r.yb, r.yt, 0, side):
            h = True
        if h and v:
            raise StructureError(f"rect {i} is both horizontally and vertically nested")
        if h:
            hset.add(i)
        if v:
            vset.add(i)
    return NestingLabel(frozenset(hset), frozenset(vset))


# -- seeing -----------------------------------------------------------------


def _sees_right_base(rects: Sequence[Rect], i: int, j: int, corner: str) -> bool:
    """Does rects[i] see the given left corner (TL or BL) of rects[j] on its
    right?

    The corridor h runs from a point p on i's right edge to the corner; h
    must cross no rectangle interior, p must not be i's opposite-edge
    right corner, and h must not contain the top (for TL) / bottom (for
    BL) edge of any other rectangle.
    """
    if i == j:
        raise StructureError("a rectangle does not see itself")
    r, rp = rects[i], rects[j]
    if corner == "TL":
        y = rp.yt
        excluded_p_y = r.yb  # p may not be the bottom-right corner of r
    else:
        y = rp.yb
        excluded_p_y = r.yt
    if rp.xl < r.xr:
        return False
    if not (r.yb <= y <= r.yt) or y == excluded_p_y:
        return False
    x1, x2 = r.xr, rp.xl
    for k, o in enumerate(rects):
        if o.yb < y < o.yt and x1 < o.xr and x2 > o.xl:
            return False
        edge_y = o.yt if corner == "TL" else o.yb
        if k != j and edge_y == y and x1 <= o.xl and o.xr <= x2:
            return False
    return True


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


def _anti_transpose(rects: Sequence[Rect]) -> list[Rect]:
    # (x, y) -> (-y, -x): "right of" becomes "below", BL corners become TR.
    return [Rect(-r.yt, -r.xr, -r.yb, -r.xl) for r in rects]


# The frame in which each side's corridors run rightward, and the corner
# of the base case (right, TL or BL) that each (side, corner) pair becomes
# there.  Only the pairs the library asks about are listed.
_SEE_FRAMES: dict[str, Optional[Callable]] = {
    "right": None,
    "left": _mirror_x,
    "bottom": _anti_transpose,
}
_SEE_BASE_CORNER: dict[tuple[str, str], str] = {
    ("right", "TL"): "TL",
    ("right", "BL"): "BL",
    ("left", "TR"): "TL",
    ("left", "BR"): "BL",
    ("bottom", "TR"): "BL",
}


def _see_frame(rects: Sequence[Rect], side: str) -> Sequence[Rect]:
    """The rects in the frame where corridors on the given side run
    rightward; one frame serves every query on that side.  An unknown
    side is left for _sees_in_frame to reject."""
    transform = _SEE_FRAMES.get(side)
    return rects if transform is None else transform(rects)


def _sees_in_frame(
    frame: Sequence[Rect], i: int, j: int, corner: str, side: str
) -> bool:
    """sees() on rects already put in the side's frame by _see_frame."""
    key = (side, corner)
    if key not in _SEE_BASE_CORNER:
        raise StructureError(f"invalid corner/side combination {key}")
    return _sees_right_base(frame, i, j, _SEE_BASE_CORNER[key])


def sees(rects: Sequence[Rect], i: int, j: int, corner: str, side: str) -> bool:
    """Corridor visibility from rects[i] to the named corner of rects[j].

    Valid (side, corner) pairs, the ones the library asks about: TL/BL on
    the right, TR/BR on the left and TR below; each is a reflection of
    the right/TL case.  Callers asking many questions on one side build
    its frame once and ask _sees_in_frame.
    """
    return _sees_in_frame(_see_frame(rects, side), i, j, corner, side)


def seen_corners_on_side(
    rects: Sequence[Rect], i: int, side: str, candidates: Iterable[int]
) -> list[tuple[Point, int, str]]:
    """All corners rects[i] sees on the given horizontal side, restricted
    to candidate owners, in scan order (corner y descending, corner x
    ascending, owner index ascending)."""
    if side == "right":
        corners = ("TL", "BL")
    elif side == "left":
        corners = ("TR", "BR")
    else:
        raise StructureError("seen_corners_on_side handles left/right only")
    frame = _see_frame(rects, side)
    out = []
    for j in candidates:
        if j == i:
            continue
        for c in corners:
            if _sees_in_frame(frame, i, j, c, side):
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
    right, below = _see_frame(m.rects, "right"), _see_frame(m.rects, "bottom")
    for i, r in enumerate(m.rects):
        if r.yb == 0 or any(
            j != i and _sees_in_frame(right, i, j, "BL", "right") for j in range(n)
        ):
            hset.add(i)
        if r.xr == m.side or any(
            j != i and _sees_in_frame(below, i, j, "TR", "bottom") for j in range(n)
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


class _Ends(NamedTuple):
    """The line cut's facts of one row: the x of the furthest line fence
    from each of the row's left and right anchors (_Row.lefts/rights, in
    order), None where it anchors none."""

    left_ends: tuple[Optional[int], ...]
    right_ends: tuple[Optional[int], ...]


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


class LineFences:
    """The protection record of one node, a polygon and the rects inside
    it: the free pieces of its lines, one record per band of rows or of
    columns, its line fences and its fence engines, all built on first
    use.

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
    facts (_Row) serve anchors and the engine; its fence ends (_Ends) only
    the line cut (furthest and crossing_anchor); a column's free pieces
    (_Pieces) only the engine.
    """

    def __init__(self, poly: RectPolygon, rects_in: Sequence[tuple[int, Rect]]):
        self.poly = poly
        self.rects_in = rects_in
        self._rows: dict[int, _Row] = {}
        self._ends: dict[int, _Ends] = {}
        self._columns: dict[int, _Pieces] = {}
        self._anchors: dict[Rect, _Anchors] = {}
        self._engines: dict[int, FenceEngine] = {}

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
        sorted."""
        edges = self.poly.edges()
        return sorted(
            (edges[i].a.x, *sorted((edges[i].a.y, edges[i].b.y)), side == "left")
            for i, side in self.poly.vertical_edge_sides().items()
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

    def _line_ends(self, y: int) -> _Ends:
        """The line cut's facts of row y, one record per band."""
        key = _band(self._row_lines.events, y)
        ends = self._ends.get(key)
        if ends is None:
            ends = self._ends[key] = self._build_ends(y)
        return ends

    def _build_ends(self, y: int) -> _Ends:
        """The line cut's facts of row y, built afresh from the row's
        anchor facts.

        The fence from an anchor runs within the anchor's section of the
        row; a left anchor's furthest fence ends at the first left edge of
        a crossing rect at or right of it (the fence stops inside that
        edge), else at the last right corner on the row; a right anchor's
        is the mirror image."""
        rec = self.row(y)
        sections = self.poly.horizontal_section(y)
        blocks_l: list[int] = []
        blocks_r: list[int] = []
        corners_l: list[int] = []
        corners_r: list[int] = []
        for a, b, lo, hi in self._row_lines.spans:
            if lo < y < hi:
                blocks_l.append(a)
                blocks_r.append(b)
            elif lo == y or hi == y:
                corners_l.append(a)
                corners_r.append(b)
        blocks_r.sort()
        corners_r.sort()
        left_ends: list[Optional[int]] = []
        for x in rec.lefts:
            hi = next(b for a, b in sections if a <= x <= b)
            k = bisect_left(blocks_l, x)
            if k < len(blocks_l) and blocks_l[k] <= hi:
                left_ends.append(blocks_l[k])
                continue
            k = bisect_right(corners_r, hi) - 1
            left_ends.append(corners_r[k] if k >= 0 and corners_r[k] >= x else None)
        right_ends: list[Optional[int]] = []
        for x in rec.rights:
            lo = next(a for a, b in sections if a <= x <= b)
            k = bisect_right(blocks_r, x) - 1
            if k >= 0 and blocks_r[k] >= lo:
                right_ends.append(blocks_r[k])
                continue
            k = bisect_left(corners_l, lo)
            found = k < len(corners_l) and corners_l[k] <= x
            right_ends.append(corners_l[k] if found else None)
        return _Ends(tuple(left_ends), tuple(right_ends))

    def furthest(self, p: Point, left: bool) -> Optional[int]:
        """The x of the furthest line fence from p, an integral point of a
        left (fences run rightward) or right (leftward) polygon edge, or
        None when p anchors none."""
        rec = self.row(p.y)
        xs = rec.lefts if left else rec.rights
        k = bisect_left(xs, p.x)
        if k == len(xs) or xs[k] != p.x:
            return None
        ends = self._line_ends(p.y)
        return (ends.left_ends if left else ends.right_ends)[k]

    def crossing_anchor(self, y: int, x: int) -> Optional[int]:
        """The least x of an anchor on row y with a line fence that
        strictly crosses the vertical line at x, or None.  Left anchors
        lie left of x and right ones right of it, so the left come first."""
        rec, ends = self.row(y), self._line_ends(y)
        for xa, end in zip(rec.lefts, ends.left_ends):
            if xa >= x:
                break
            if end is not None and end > x:
                return xa
        for xa, end in zip(rec.rights, ends.right_ends):
            if xa > x and end is not None and end < x:
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

    def protected(self, r: Rect) -> bool:
        """Some line fence holds r's top or bottom edge."""
        return any(self.anchors(r))

    def one_edge_anchors_both(self, r: Rect) -> bool:
        """One vertical polygon edge anchors a fence holding r's top edge
        and one holding its bottom edge: for some x of both anchor lists
        of one side, an edge at x holds (x, r.yt) and (x, r.yb).  Vertical
        edges of a simple polygon are disjoint, so that edge is the one
        anchoring both fences."""
        a = self.anchors(r)
        xs = set(a.top_lefts).intersection(a.bottom_lefts)
        xs.update(set(a.top_rights).intersection(a.bottom_rights))
        return any(
            x in xs and lo <= r.yb and r.yt <= hi
            for x, lo, hi, _left in self._verticals
        )

    def engine(self, tau: int) -> FenceEngine:
        """The node's fence engine at budget tau, built on first use."""
        eng = self._engines.get(tau)
        if eng is None:
            eng = self._engines[tau] = FenceEngine(self, tau)
        return eng

    def tau_protected(self, r: Rect, tau: int) -> bool:
        """tau-protection: one vertical polygon edge anchors two chains of
        at most tau segments containing r's top and bottom edges
        respectively.

        A line fence is such a chain of one segment, so when tau >= 1 and
        one edge anchors line fences holding both edges, r is
        tau-protected; the node's engine decides every other rect, and is
        built only for them."""
        if tau >= 1 and self.one_edge_anchors_both(r):
            return True
        return self.engine(tau).protects(r)


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

    An engine belongs to the node's protection record, which builds it
    (LineFences.engine) and whose rows' and columns' free pieces make its
    move table.  The search graph is the integer grid of the polygon's
    bounding box; a chain state is (grid point, current orientation,
    committed horizontal direction).  Turning costs one segment,
    continuing straight nothing.

    A search result (a table) is private to the engine: only its methods
    read it.  Its distances live in one flat array indexed
    ((ix*ny + iy)*4 + o)*3 + h for grid offset (ix, iy), orientation o and
    horizontal direction h; unreached states hold tau + 1, and the element
    type is the narrowest array type that holds tau + 1 (bytes up to
    tau = 254).  There are two kinds of table: reach() tables, seeded at
    given anchor points and returned to the caller, also keep each
    state's predecessor state in a flat array (-1 for none), for chain_to;
    protection tables, one per vertical polygon edge, seeded at every
    point of it and kept in the engine, keep none and are read only at the
    ends of a run.
    """

    def __init__(self, fences: LineFences, tau: int):
        self.fences = fences
        self.poly = poly = fences.poly
        self.tau = tau
        x0, y0, x1, y1 = poly.bbox()
        self.x0, self.y0 = x0, y0
        self.nx = x1 - x0 + 1
        self.ny = y1 - y0 + 1
        self._moves: Optional[bytes] = None
        self._edge_tables: dict[int, _Table] = {}
        self._trans = _step_rules(self.ny)

    def _steps(self) -> bytes:
        """moves[ix*ny + iy]: the move bits of the unit steps from grid
        point (x0+ix, y0+iy) that stay in the closed polygon and cross no
        rect interior.

        The steps come from the free pieces of the record's rows and
        columns.  Each row's free steps fill one strided slice of a table
        of free steps right, and each column's one slice of a table of free
        steps up; as integers of little-endian bytes, a step right from
        byte k is a step left from byte k + ny, and a step up one down from
        byte k + 1, so shifts give the other two directions."""
        if self._moves is None:
            fences = self.fences
            x0, y0, nx, ny = self.x0, self.y0, self.nx, self.ny
            right = bytearray(nx * ny)
            rows = map(fences.row, range(y0, y0 + ny))
            for j, steps in enumerate(_free_steps(rows, x0, nx)):
                right[j::ny] = steps
            up = b"".join(_free_steps(map(fences.column, range(x0, x0 + nx)), y0, ny))
            h, v = int.from_bytes(right, "little"), int.from_bytes(up, "little")
            moves = h * _RIGHT | (h << 8 * ny) * _LEFT | v * _UP | (v << 8) * _DOWN
            self._moves = moves.to_bytes(nx * ny, "little")
        return self._moves

    def _bfs(
        self, seeds: list[tuple[int, int, int, int, int]], with_parent: bool
    ) -> _Table:
        """0/1-BFS over chain states from (dist, ix, iy, orient, hdir)
        seeds; hdir 0 uncommitted, 1 rightward, 2 leftward."""
        moves, trans, tau = self._steps(), self._trans, self.tau
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

    def covers_interior(self, table: _Table, p: Point) -> bool:
        """Some chain passes strictly through p: it arrives at p and can be
        extended by one more unit step within budget."""
        base = self._cell(p)
        if base is None:
            return False
        m = self._steps()[base // 12]
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

    def protects(self, r: Rect) -> bool:
        """tau-protection: one vertical polygon edge anchors two chains of
        at most tau segments containing r's top and bottom edges
        respectively.

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

        The edges are tried in turn and the first that anchors both runs
        decides; an edge's table is built on first use.
        """
        top, bottom = (r.yt, r.xl, r.xr), (r.yb, r.xl, r.xr)
        if not (self._walkable(*top) and self._walkable(*bottom)):
            return False
        return any(
            self._anchors(idx, *top) and self._anchors(idx, *bottom)
            for idx in self.poly.vertical_edge_sides()
        )

    def _walkable(self, y: int, x1: int, x2: int) -> bool:
        """The run [x1,x2]x{y} lies on the grid and each of its unit steps
        is free (a free step may be taken either way)."""
        moves, ny = self._steps(), self.ny
        ix1, ix2, iy = x1 - self.x0, x2 - self.x0, y - self.y0
        return (
            0 <= iy < ny
            and 0 <= ix1 <= ix2 < self.nx
            and all(moves[i * ny + iy] & _RIGHT for i in range(ix1, ix2))
        )

    def _anchors(self, idx: int, y: int, x1: int, x2: int) -> bool:
        """The lookup of protects() for vertical edge idx and a walkable
        run."""
        table = self._edge_tables.get(idx)
        if table is None:
            e = self.poly.edges()[idx]
            ix = e.a.x - self.x0
            y1, y2 = sorted((e.a.y - self.y0, e.b.y - self.y0))
            seeds = [(0, ix, iy, _START, 0) for iy in range(y1, y2 + 1)]
            table = self._edge_tables[idx] = self._bfs(seeds, with_parent=False)
        dist, tau = table.dist, self.tau
        for x, (straight, turns) in ((x1, _ONTO_RIGHT), (x2, _ONTO_LEFT)):
            base = ((x - self.x0) * self.ny + y - self.y0) * 12
            if dist[base + straight] <= tau or min(dist[base + s] for s in turns) + 1 <= tau:
                return True
        return False

