"""Exact integer axis-parallel geometry: points, segments, open rectangles,
simple rectilinear polygons, and the predicates the rest of the toolkit
relies on.

All arithmetic is integral.  Where a midpoint or half-unit probe is needed
(edge-side classification, point-in-polygon for cell centers) coordinates
are doubled internally so every test stays in the integers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence


class GeometryError(ValueError):
    """Malformed geometric input."""


class CutError(GeometryError):
    """A cut that leaves the polygon, crosses itself, or fails to separate."""


@dataclass(frozen=True, order=True)
class Point:
    x: int
    y: int

    def __iter__(self) -> Iterator[int]:
        return iter((self.x, self.y))


@dataclass(frozen=True)
class Segment:
    """Axis-parallel closed segment; may be a single point where the caller
    explicitly allows it (degenerate fences)."""

    a: Point
    b: Point

    def __post_init__(self) -> None:
        if self.a.x != self.b.x and self.a.y != self.b.y:
            raise GeometryError(f"segment not axis-parallel: {self.a}-{self.b}")

    @property
    def horizontal(self) -> bool:
        return self.a.y == self.b.y and self.a.x != self.b.x

    @property
    def vertical(self) -> bool:
        return self.a.x == self.b.x and self.a.y != self.b.y

    @property
    def degenerate(self) -> bool:
        return self.a == self.b

    @property
    def length(self) -> int:
        return abs(self.a.x - self.b.x) + abs(self.a.y - self.b.y)

    def canonical(self) -> "Segment":
        lo, hi = sorted((self.a, self.b))
        return Segment(lo, hi)

    def contains_point(self, p: Point) -> bool:
        lo, hi = sorted((self.a, self.b))
        if self.a.x == self.b.x:
            return p.x == self.a.x and lo.y <= p.y <= hi.y
        return p.y == self.a.y and lo.x <= p.x <= hi.x


@dataclass(frozen=True)
class Rect:
    """Open axis-parallel rectangle {(x,y) | xl<x<xr, yb<y<yt}."""

    xl: int
    yb: int
    xr: int
    yt: int

    def __post_init__(self) -> None:
        if not (self.xl < self.xr and self.yb < self.yt):
            raise GeometryError(f"degenerate rectangle {self!r}")

    def corner(self, name: str) -> Point:
        return {
            "TL": Point(self.xl, self.yt),
            "TR": Point(self.xr, self.yt),
            "BL": Point(self.xl, self.yb),
            "BR": Point(self.xr, self.yb),
        }[name]

    def area(self) -> int:
        return (self.xr - self.xl) * (self.yt - self.yb)


def rects_intersect(a: Rect, b: Rect) -> bool:
    """True iff the open interiors share a point (boundary contact is not
    an intersection)."""
    return (
        max(a.xl, b.xl) < min(a.xr, b.xr) and max(a.yb, b.yb) < min(a.yt, b.yt)
    )


def segment_intersects_rect(s: Segment, r: Rect) -> bool:
    """True iff s contains a point strictly inside r.

    A segment running along r's boundary (e.g. covering its whole top edge)
    does not intersect r: the rectangle is an open set.
    """
    lo, hi = sorted((s.a, s.b))
    if s.a.x == s.b.x:  # vertical or degenerate
        if not (r.xl < s.a.x < r.xr):
            return False
        return lo.y < r.yt and hi.y > r.yb
    if not (r.yb < s.a.y < r.yt):
        return False
    return lo.x < r.xr and hi.x > r.xl


def edge_distance(k: int, i: int, j: int) -> int:
    """Cyclic distance min(j-i, k-j+i) between edge indices of a k-edge
    polygon."""
    if not (0 <= i < k and 0 <= j < k):
        raise IndexError(f"edge index out of range: i={i}, j={j}, k={k}")
    if i > j:
        i, j = j, i
    return min(j - i, k - j + i)


# -- integer vertex-loop kernel ---------------------------------------------------
#
# A loop is a sequence of integer (x, y) tuples, one per vertex, closing from
# the last vertex back to the first.  RectPolygon and the polygon DP
# (dp_solver) both canonicalize loops and query them through these
# functions: ``merge_loop`` then ``orient_loop`` give the canonical vertex
# order and the doubled area, ``edge_tables`` gives the doubled edge tables,
# and the point and rect predicates read those tables.

IntLoop = tuple[tuple[int, int], ...]
EdgeTable = tuple[tuple[int, int, int], ...]


def merge_loop(pts: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Drop repeated points and the middle points of axis-collinear runs
    (zero-width spikes included) from a closed vertex loop, in one pass.

    Each point first pops the top of a stack while the top is the middle of
    an axis-collinear triple, then goes onto it unless it repeats the new
    top; a wrap-around pass then trims the two ends of the stack against
    each other."""
    out: list[tuple[int, int]] = []
    for p in pts:
        while len(out) > 1:
            o, q = out[-2], out[-1]
            if o[0] == q[0] == p[0] or o[1] == q[1] == p[1]:
                out.pop()
            else:
                break
        if not out or out[-1] != p:
            out.append(p)
    i = 0
    while len(out) - i > 2:
        o, p, q, r = out[-2], out[-1], out[i], out[i + 1]
        if p == q or o[0] == p[0] == q[0] or o[1] == p[1] == q[1]:
            out.pop()
        elif p[0] == q[0] == r[0] or p[1] == q[1] == r[1]:
            i += 1
        else:
            break
    return out[i:] if i else out


def orient_loop(pts: Sequence[tuple[int, int]]) -> tuple[IntLoop, int]:
    """The loop clockwise (in y-up coordinates), rotated to start at its
    smallest vertex, and its doubled area.  A loop of zero signed area comes
    back with area 0 and its order unchanged; callers reject it."""
    area2 = 0
    px, py = pts[-1]
    for qx, qy in pts:
        area2 += px * qy - qx * py
        px, py = qx, qy
    if area2 > 0:  # counter-clockwise
        pts = pts[::-1]
    else:
        area2 = -area2
    start = pts.index(min(pts))
    return tuple(pts[start:] + pts[:start]), area2


def edge_tables(loop: Sequence[tuple[int, int]]) -> tuple[EdgeTable, EdgeTable]:
    """``(2x, 2ylo, 2yhi)`` for each vertical edge and ``(2y, 2xlo, 2xhi)``
    for each horizontal edge, both in edge order (edge i runs from vertex i
    to vertex i + 1).  Coordinates are doubled so that the predicates below
    take half-unit probes without leaving the integers."""
    vtab, htab = [], []
    px, py = loop[0]
    for qx, qy in loop[1:] + loop[:1]:
        if px == qx:
            vtab.append((2 * px, 2 * py, 2 * qy) if py < qy else (2 * px, 2 * qy, 2 * py))
        else:
            htab.append((2 * py, 2 * px, 2 * qx) if px < qx else (2 * py, 2 * qx, 2 * px))
        px, py = qx, qy
    return tuple(vtab), tuple(htab)


def loop_contains_doubled(vtab: EdgeTable, htab: EdgeTable, X: int, Y: int) -> bool:
    """Closed membership of the doubled point (X, Y): on the boundary, or
    inside by the parity of the vertical edges to its right."""
    inside = False
    for c, lo, hi in vtab:
        if lo <= Y <= hi:
            if c == X:
                return True
            if c > X and Y < hi:
                inside = not inside
    for c, lo, hi in htab:
        if c == Y and lo <= X <= hi:
            return True
    return inside


def loop_on_boundary_doubled(vtab: EdgeTable, htab: EdgeTable, X: int, Y: int) -> bool:
    for c, lo, hi in vtab:
        if c == X and lo <= Y <= hi:
            return True
    for c, lo, hi in htab:
        if c == Y and lo <= X <= hi:
            return True
    return False


def loop_contains_rect_doubled(
    vtab: EdgeTable, htab: EdgeTable, xl: int, yb: int, xr: int, yt: int
) -> bool:
    """Does the open rectangle with doubled corners (xl, yb), (xr, yt) lie
    inside the closed loop?  Its centre must be inside, and no edge may
    reach into it."""
    if not loop_contains_doubled(vtab, htab, (xl + xr) >> 1, (yb + yt) >> 1):
        return False
    for c, lo, hi in vtab:
        if xl < c < xr and lo < yt and hi > yb:
            return False
    for c, lo, hi in htab:
        if yb < c < yt and lo < xr and hi > xl:
            return False
    return True


class RectPolygon:
    """Simple rectilinear polygon, canonicalized: clockwise vertex order
    starting at the lexicographically smallest vertex, collinear edges
    merged.

    Non-simple vertex loops (pinched components produced by degenerate
    cuts) are representable but flagged via ``is_simple``; only simple
    polygons may be used as partition/DP cells.

    A view over the integer loop kernel above: ``__init__`` canonicalizes
    with ``merge_loop`` and ``orient_loop``, which also give the doubled
    area, and builds the ``edge_tables`` once, as ``_vtab`` (vertical
    edges) and ``_htab`` (horizontal edges), read only inside this module.
    The point and rect predicates are the kernel's, on those tables.
    """

    __slots__ = (
        "vertices",
        "is_simple",
        "_area2",
        "_hash",
        "_coords",
        "_grid",
        "_vclass",
        "_rows",
        "_edges",
        "_vtab",
        "_htab",
    )

    def __init__(self, vertices: Iterable[Point]):
        given: dict[tuple[int, int], Point] = {}
        pts = []
        for p in vertices:
            t = (p.x, p.y)
            given[t] = p
            pts.append(t)
        vs = merge_loop(pts)
        if len(vs) < 4:
            raise GeometryError(f"too few vertices for a rectilinear polygon: {vs}")
        for p, q in zip(vs, vs[1:] + vs[:1]):
            if p[0] != q[0] and p[1] != q[1]:
                raise GeometryError(f"edge {given[p]}-{given[q]} not axis-parallel")
        loop, area2 = orient_loop(vs)
        if area2 == 0:
            raise GeometryError("zero-area vertex loop")
        self.vertices: tuple[Point, ...] = tuple(given[t] for t in loop)
        self._area2 = area2
        self._vtab, self._htab = edge_tables(loop)
        self.is_simple = self._check_simple()
        # A Point hashes as its (x, y) tuple, so this is hash(self.vertices).
        self._hash = hash(loop)
        self._coords = None
        self._grid = None
        self._vclass = None
        self._rows = None
        self._edges = None

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RectPolygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"RectPolygon({[(p.x, p.y) for p in self.vertices]})"

    # -- basic structure --------------------------------------------------

    @classmethod
    def from_rect(cls, r: Rect) -> "RectPolygon":
        return cls(
            [Point(r.xl, r.yb), Point(r.xl, r.yt), Point(r.xr, r.yt), Point(r.xr, r.yb)]
        )

    def edges(self) -> tuple[Segment, ...]:
        if self._edges is None:
            vs = self.vertices
            self._edges = tuple(
                Segment(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))
            )
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self.vertices)

    def area2(self) -> int:
        return self._area2

    def bbox(self) -> tuple[int, int, int, int]:
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def _check_simple(self) -> bool:
        """No vertex repeats and no vertical edge touches a horizontal edge
        other than its two neighbours.

        This is the rule "edges touch only where adjacent edges share a
        vertex" for a loop whose edges alternate between vertical and
        horizontal, as merged loops do.  Collinear edges need no test of
        their own: sharing an end repeats a vertex, and overlapping puts an
        end of one strictly inside the other, where the perpendicular edge
        at that end touches it.
        """
        vs = self.vertices
        n = len(vs)
        if len(set(vs)) != n:
            return False
        vidx = [i for i in range(n) if vs[i].x == vs[(i + 1) % n].x]
        hidx = [i for i in range(n) if vs[i].x != vs[(i + 1) % n].x]
        for (x, ylo, yhi), i in zip(self._vtab, vidx):
            for (y, xlo, xhi), j in zip(self._htab, hidx):
                if xlo <= x <= xhi and ylo <= y <= yhi and (i - j) % n not in (1, n - 1):
                    return False
        return True

    # -- exact point membership -------------------------------------------

    def contains_doubled(self, X: int, Y: int) -> bool:
        """Closed membership for a point given in doubled coordinates."""
        return loop_contains_doubled(self._vtab, self._htab, X, Y)

    def on_boundary_doubled(self, X: int, Y: int) -> bool:
        return loop_on_boundary_doubled(self._vtab, self._htab, X, Y)

    def contains_point(self, p: Point) -> bool:
        return self.contains_doubled(2 * p.x, 2 * p.y)

    def contains_segment(self, s: Segment) -> bool:
        """Closed containment of an axis-parallel segment with integer ends."""
        if not self.contains_point(s.a) or not self.contains_point(s.b):
            return False
        # Membership can only change where the segment crosses a grid line
        # of the polygon, so checking midpoints of the induced pieces is exact.
        xs, ys = self.coords()
        vtab, htab = self._vtab, self._htab
        if s.a.x == s.b.x:
            lo, hi = sorted((s.a.y, s.b.y))
            cuts = [lo, *ys[bisect_right(ys, lo) : bisect_left(ys, hi)], hi]
            X = 2 * s.a.x
            return all(
                loop_contains_doubled(vtab, htab, X, cuts[i] + cuts[i + 1])
                for i in range(len(cuts) - 1)
            )
        lo, hi = sorted((s.a.x, s.b.x))
        cuts = [lo, *xs[bisect_right(xs, lo) : bisect_left(xs, hi)], hi]
        Y = 2 * s.a.y
        return all(
            loop_contains_doubled(vtab, htab, cuts[i] + cuts[i + 1], Y)
            for i in range(len(cuts) - 1)
        )

    def contains_rect(self, r: Rect) -> bool:
        """True iff the open rectangle lies inside the closed polygon."""
        return loop_contains_rect_doubled(
            self._vtab, self._htab, 2 * r.xl, 2 * r.yb, 2 * r.xr, 2 * r.yt
        )

    # -- refined grid ------------------------------------------------------

    def coords(self) -> tuple[list[int], list[int]]:
        """The sorted distinct vertex x and y coordinates."""
        if self._coords is None:
            self._coords = (
                sorted({p.x for p in self.vertices}),
                sorted({p.y for p in self.vertices}),
            )
        return self._coords

    def grid(self) -> tuple[list[int], list[int], list[list[bool]]]:
        """Refined grid (vertex coordinates) and per-cell inside flags.

        inside[i][j] is the cell [xs[i],xs[i+1]] x [ys[j],ys[j+1]].
        """
        if self._grid is None:
            xs, ys = self.coords()
            inside = [
                [
                    self.contains_doubled(xs[i] + xs[i + 1], ys[j] + ys[j + 1])
                    and not self.on_boundary_doubled(xs[i] + xs[i + 1], ys[j] + ys[j + 1])
                    for j in range(len(ys) - 1)
                ]
                for i in range(len(xs) - 1)
            ]
            self._grid = (xs, ys, inside)
        return self._grid

    def row_intervals(self) -> list[list[tuple[int, int]]]:
        """Maximal inside x-intervals per grid row, as (xlo, xhi) pairs."""
        if self._rows is not None:
            return self._rows
        xs, ys, inside = self.grid()
        rows = []
        for j in range(len(ys) - 1):
            ivals: list[tuple[int, int]] = []
            i = 0
            while i < len(xs) - 1:
                if inside[i][j]:
                    i0 = i
                    while i < len(xs) - 1 and inside[i][j]:
                        i += 1
                    ivals.append((xs[i0], xs[i]))
                else:
                    i += 1
            rows.append(ivals)
        self._rows = rows
        return rows

    def horizontal_section(self, y: int) -> list[tuple[int, int]]:
        """Maximal x-intervals of the closed polygon on the line {y}."""
        xs, ys, _ = self.grid()
        rows = self.row_intervals()
        ivals: list[tuple[int, int]] = []
        j = bisect_left(ys, y)
        if j < len(ys) and ys[j] == y:
            if j > 0:
                ivals += rows[j - 1]
            if j < len(rows):
                ivals += rows[j]
            for c, lo, hi in self._htab:
                if c == 2 * y:
                    ivals.append((lo >> 1, hi >> 1))
        else:
            if 0 < j < len(ys):
                ivals += rows[j - 1]
        return _merge_intervals(ivals)

    def vertical_section(self, x: int) -> list[tuple[int, int]]:
        xs, ys, _ = self.grid()
        rows = self.row_intervals()
        cols: list[tuple[int, int]] = []
        i = bisect_left(xs, x)
        if i < len(xs) and xs[i] == x:
            for col in (i - 1, i):
                if 0 <= col < len(xs) - 1:
                    for j in range(len(ys) - 1):
                        if self.grid()[2][col][j]:
                            cols.append((ys[j], ys[j + 1]))
            for c, lo, hi in self._vtab:
                if c == 2 * x:
                    cols.append((lo >> 1, hi >> 1))
        else:
            if 0 < i < len(xs):
                col = i - 1
                for j in range(len(ys) - 1):
                    if self.grid()[2][col][j]:
                        cols.append((ys[j], ys[j + 1]))
        return _merge_intervals(cols)

    def horizontal_reach(self, p: Point) -> tuple[int, int]:
        """The maximal x-interval containing p on p's horizontal line."""
        for lo, hi in self.horizontal_section(p.y):
            if lo <= p.x <= hi:
                return lo, hi
        raise GeometryError(f"{p} not in polygon")

    def vertical_reach(self, p: Point) -> tuple[int, int]:
        for lo, hi in self.vertical_section(p.x):
            if lo <= p.y <= hi:
                return lo, hi
        raise GeometryError(f"{p} not in polygon")

    # -- edge classification ----------------------------------------------

    def vertical_edge_sides(self) -> dict[int, str]:
        """Map edge index -> 'left' | 'right' for every vertical edge.

        An edge is left-vertical iff the polygon lies immediately to its
        right: a half-unit probe right of the edge interior is inside.
        """
        if self._vclass is None:
            out = {}
            vs = self.vertices
            for i in range(len(vs)):
                p, q = vs[i], vs[(i + 1) % len(vs)]
                if p.x != q.x:
                    continue
                ymid2 = p.y + q.y  # doubled midpoint height
                inside_right = self.contains_doubled(2 * p.x + 1, ymid2)
                out[i] = "left" if inside_right else "right"
            self._vclass = out
        return self._vclass

    def horizontal_edge_sides(self) -> dict[int, str]:
        """Map edge index -> 'bottom' | 'top'.  A bottom edge has the polygon
        above it, a top edge below it."""
        out = {}
        vs = self.vertices
        for i in range(len(vs)):
            p, q = vs[i], vs[(i + 1) % len(vs)]
            if p.y != q.y:
                continue
            xmid2 = p.x + q.x
            inside_above = self.contains_doubled(xmid2, 2 * p.y + 1)
            out[i] = "bottom" if inside_above else "top"
        return out

    def transform(self, f) -> "RectPolygon":
        return RectPolygon([f(p) for p in self.vertices])


def _merge_intervals(ivals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    if not ivals:
        return []
    ivals = sorted(ivals)
    out = [ivals[0]]
    for lo, hi in ivals[1:]:
        if lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def is_horizontally_convex(p: RectPolygon) -> bool:
    """Every horizontal chord between two polygon points stays inside.

    Decided exactly on the refined grid: each open row must hold one inside
    interval, and on each grid line the closed section must be connected.
    """
    rows = p.row_intervals()
    for ivals in rows:
        if len(ivals) > 1:
            return False
    _, ys, _ = p.grid()
    for y in ys:
        if len(p.horizontal_section(y)) > 1:
            return False
    return True


@dataclass(frozen=True)
class Cut:
    """A set of axis-parallel segments cutting a polygon.

    shape is 'path' for a boundary-to-boundary chain, 'tree' for two chains
    sharing a prefix (the two-armed cuts of the line-partitioning step).
    """

    segments: tuple[Segment, ...]
    shape: str = "path"

    def __post_init__(self) -> None:
        if self.shape not in ("path", "tree"):
            raise GeometryError(f"unknown cut shape {self.shape!r}")

    def nondegenerate(self) -> list[Segment]:
        return [s for s in self.segments if not s.degenerate]


def polyline_to_segments(points: Sequence[Point]) -> list[Segment]:
    """Maximal segments of an axis-parallel polyline, dropping zero-length
    steps and merging collinear runs."""
    pts = [points[0]]
    for p in points[1:]:
        if p != pts[-1]:
            pts.append(p)
    if len(pts) < 2:
        return []
    segs: list[Segment] = []
    run_start = pts[0]
    for i in range(1, len(pts)):
        prev, cur = pts[i - 1], pts[i]
        if prev.x != cur.x and prev.y != cur.y:
            raise GeometryError("polyline step not axis-parallel")
        if i == len(pts) - 1:
            segs.append(Segment(run_start, cur))
        else:
            nxt = pts[i + 1]
            straight = (run_start.x == cur.x == nxt.x) or (
                run_start.y == cur.y == nxt.y
            )
            if not straight:
                segs.append(Segment(run_start, cur))
                run_start = cur
    return segs


def splice_simple(points: Sequence[Point]) -> list[Point]:
    """Remove loops from a polyline that revisits vertices, keeping a simple
    walk from the first to the last point."""
    out: list[Point] = []
    index: dict[Point, int] = {}
    for p in points:
        if p in index:
            del_from = index[p] + 1
            for q in out[del_from:]:
                index.pop(q, None)
            out = out[:del_from]
        else:
            out.append(p)
            index[p] = len(out) - 1
    return out


class _Splitter:
    """Refined-grid flood fill computing the connected components of a
    polygon minus a set of cut segments."""

    def __init__(self, poly: RectPolygon, segments: Sequence[Segment]):
        self.poly = poly
        self.segments = [s.canonical() for s in segments]
        for s in self.segments:
            if not poly.contains_segment(s):
                raise CutError(f"cut segment {s} leaves the polygon")
        self._check_no_proper_crossing()
        xs = {p.x for p in poly.vertices}
        ys = {p.y for p in poly.vertices}
        for s in self.segments:
            xs.update((s.a.x, s.b.x))
            ys.update((s.a.y, s.b.y))
        self.xs = sorted(xs)
        self.ys = sorted(ys)
        # (vertical, coordinate) -> spans of cut segments and polygon edges
        # on that line.
        walls: dict[tuple[bool, int], list[tuple[int, int]]] = {}
        for s in self.segments:
            if s.vertical:
                walls.setdefault((True, s.a.x), []).append((s.a.y, s.b.y))
            elif s.horizontal:
                walls.setdefault((False, s.a.y), []).append((s.a.x, s.b.x))
        for vertical, tab in ((True, poly._vtab), (False, poly._htab)):
            for c, lo, hi in tab:
                walls.setdefault((vertical, c >> 1), []).append((lo >> 1, hi >> 1))
        self._walls = walls

    def _check_no_proper_crossing(self) -> None:
        segs = [s for s in self.segments if not s.degenerate]
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                s, t = segs[i], segs[j]
                if s.vertical == t.vertical:
                    continue
                v, h = (s, t) if s.vertical else (t, s)
                x1, x2 = sorted((h.a.x, h.b.x))
                y1, y2 = sorted((v.a.y, v.b.y))
                if x1 < v.a.x < x2 and y1 < h.a.y < y2:
                    raise CutError(f"cut segments cross: {s} x {t}")

    def _inside_cell(self, i: int, j: int) -> bool:
        return self.poly.contains_doubled(
            self.xs[i] + self.xs[i + 1], self.ys[j] + self.ys[j + 1]
        ) and not self.poly.on_boundary_doubled(
            self.xs[i] + self.xs[i + 1], self.ys[j] + self.ys[j + 1]
        )

    def _blocked(self, vertical: bool, c: int, lo: int, hi: int) -> bool:
        """Is the unit grid wall (a full cell side) covered by a cut segment
        or by the polygon boundary?"""
        for a, b in self._walls.get((vertical, c), ()):
            if a <= lo and hi <= b:
                return True
        return False

    def components(self) -> list[dict]:
        xs, ys = self.xs, self.ys
        ni, nj = len(xs) - 1, len(ys) - 1
        inside = [[self._inside_cell(i, j) for j in range(nj)] for i in range(ni)]
        comp = [[-1] * nj for _ in range(ni)]
        comps: list[list[tuple[int, int]]] = []
        for i0 in range(ni):
            for j0 in range(nj):
                if not inside[i0][j0] or comp[i0][j0] != -1:
                    continue
                cid = len(comps)
                stack = [(i0, j0)]
                comp[i0][j0] = cid
                cells = []
                while stack:
                    i, j = stack.pop()
                    cells.append((i, j))
                    if i + 1 < ni and inside[i + 1][j] and comp[i + 1][j] == -1:
                        if not self._blocked(True, xs[i + 1], ys[j], ys[j + 1]):
                            comp[i + 1][j] = cid
                            stack.append((i + 1, j))
                    if i > 0 and inside[i - 1][j] and comp[i - 1][j] == -1:
                        if not self._blocked(True, xs[i], ys[j], ys[j + 1]):
                            comp[i - 1][j] = cid
                            stack.append((i - 1, j))
                    if j + 1 < nj and inside[i][j + 1] and comp[i][j + 1] == -1:
                        if not self._blocked(False, ys[j + 1], xs[i], xs[i + 1]):
                            comp[i][j + 1] = cid
                            stack.append((i, j + 1))
                    if j > 0 and inside[i][j - 1] and comp[i][j - 1] == -1:
                        if not self._blocked(False, ys[j], xs[i], xs[i + 1]):
                            comp[i][j - 1] = cid
                            stack.append((i, j - 1))
                comps.append(cells)
        return [
            {"cells": cells, "polygon": self._trace(cells)} for cells in comps
        ]

    def _trace(self, cells: list[tuple[int, int]]) -> RectPolygon:
        """Trace the boundary loop of a cell set (interior kept on the right,
        giving clockwise order); pinched components come out non-simple."""
        xs, ys = self.xs, self.ys
        cellset = set(cells)
        # Directed unit boundary edges, keyed by start vertex.
        outgoing: dict[Point, list[Point]] = {}

        def add(a: Point, b: Point) -> None:
            outgoing.setdefault(a, []).append(b)

        for (i, j) in cells:
            x1, x2, y1, y2 = xs[i], xs[i + 1], ys[j], ys[j + 1]
            if (i - 1, j) not in cellset or self._blocked(True, x1, y1, y2):
                add(Point(x1, y1), Point(x1, y2))
            if (i + 1, j) not in cellset or self._blocked(True, x2, y1, y2):
                add(Point(x2, y2), Point(x2, y1))
            if (i, j - 1) not in cellset or self._blocked(False, y1, x1, x2):
                add(Point(x2, y1), Point(x1, y1))
            if (i, j + 1) not in cellset or self._blocked(False, y2, x1, x2):
                add(Point(x1, y2), Point(x2, y2))

        start = min(outgoing)
        loop = [start]
        prev_dir: Optional[tuple[int, int]] = None
        cur = start
        # Rightmost-turn-first keeps the traced face consistent at pinches;
        # reversal last so slit tips (non-separating cut ends) can U-turn.
        turn_order = {
            (0, 1): [(1, 0), (0, 1), (-1, 0), (0, -1)],
            (1, 0): [(0, -1), (1, 0), (0, 1), (-1, 0)],
            (0, -1): [(-1, 0), (0, -1), (1, 0), (0, 1)],
            (-1, 0): [(0, 1), (-1, 0), (0, -1), (1, 0)],
        }
        total = sum(len(v) for v in outgoing.values())
        steps = 0
        while True:
            cands = outgoing.get(cur, [])
            if not cands:
                raise GeometryError("boundary trace dead end")
            if prev_dir is None or len(cands) == 1:
                nxt = sorted(cands)[0]
            else:
                nxt = None
                for d in turn_order[prev_dir]:
                    for c in sorted(cands):
                        dx = (c.x > cur.x) - (c.x < cur.x)
                        dy = (c.y > cur.y) - (c.y < cur.y)
                        if (dx, dy) == d:
                            nxt = c
                            break
                    if nxt is not None:
                        break
                if nxt is None:
                    nxt = sorted(cands)[0]
            cands.remove(nxt)
            if not cands:
                del outgoing[cur]
            prev_dir = ((nxt.x > cur.x) - (nxt.x < cur.x), (nxt.y > cur.y) - (nxt.y < cur.y))
            cur = nxt
            steps += 1
            if cur == start:
                break
            loop.append(cur)
            if steps > total + 1:
                raise GeometryError("boundary trace failed to close")
        if outgoing:
            # Leftover edges mean a second loop: a hole, impossible for
            # acyclic cuts of a simple polygon.
            raise GeometryError("component boundary is not a single loop")
        return RectPolygon(loop)


def split_polygon(p: RectPolygon, c: Cut) -> list[RectPolygon]:
    """Connected components of p minus the cut, canonicalized.

    Raises CutError when the cut does not separate (single component).
    Components with pinch points are returned with is_simple == False.
    """
    comps = split_components(p, c)
    if len(comps) < 2:
        raise CutError("cut does not separate the polygon")
    return [comp["polygon"] for comp in comps]


def split_components(p: RectPolygon, c: Cut) -> list[dict]:
    """Like split_polygon but non-raising and with cell data per component."""
    segs = c.nondegenerate()
    splitter = _Splitter(p, segs)
    comps = splitter.components()
    for comp in comps:
        comp["splitter"] = splitter
    return comps


def component_contains_rect(comp: dict, r: Rect) -> bool:
    """Does a split component hold this rectangle?

    Valid only when no cut segment intersects the rectangle's interior:
    then every grid cell overlapping the interior lies in one component,
    so membership of the cell at the rect's bottom-left corner decides.
    """
    splitter: _Splitter = comp["splitter"]
    xs, ys = splitter.xs, splitter.ys
    i = bisect_right(xs, r.xl) - 1
    j = bisect_right(ys, r.yb) - 1
    return (i, j) in set(comp["cells"])
