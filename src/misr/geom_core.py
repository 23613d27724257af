"""Exact integer axis-parallel geometry: points, segments, open rectangles,
simple rectilinear polygons, the predicates the rest of the toolkit
relies on, line sections, and the split of a polygon along a cut.

All arithmetic is integral.  Where a midpoint or half-unit probe is needed
(point-in-polygon for cell centers, a line between two vertex rows)
coordinates are doubled internally so every test stays in the integers.

Where a line meets a polygon or its boundary is read off the edge tables
(``section_intervals``, ``touch_intervals``, ``touch_tables``); which side
of an edge is inside follows from the clockwise canonical loop.

Polygons are split by loop surgery only: ``split_components`` breaks a cut
into boundary-to-boundary walks and splices each into the vertex loop of
the part it runs through (``splice_loop``), as the DP does for its cuts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence


class GeometryError(ValueError):
    """Malformed geometric input."""


class CutError(GeometryError):
    """A cut that leaves the polygon, crosses itself, holds a cycle, or
    fails to separate."""


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
# and the point, rect, section and touch-interval queries read those tables
# (``touch_tables`` answers the touch-interval query for many lines at once,
# in one sweep over the edges).
#
# ``splice_loop`` cuts a canonical loop along a boundary-to-boundary walk;
# it is the one polygon split, used by the DP's ``surgery`` and by
# ``split_components`` below.  It works locally: ``splice_plan`` locates
# each walk end once (``_loop_locate``), as vertex i or the inside of edge
# i, which fixes the slices of the loop that each part keeps and, from
# the ends' neighbours, how many vertices each part has; the parts are
# then built from those slices and the walk, and merged only around the
# two splice points (``_merge_at``), the one place where a canonical
# loop spliced with a walk of corners can hold a point that is no corner.

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


def touch_intervals(
    c: int, along: EdgeTable, across: EdgeTable
) -> tuple[list[int], list[int]]:
    """Where the line at doubled coordinate c touches the loop: the edges
    ``along`` lie on such lines, the edges ``across`` cross them.  The
    sorted, disjoint closed intervals, halved, as the list of their low
    ends and the list of their high ends."""
    out = [(lo >> 1, hi >> 1) for e, lo, hi in along if e == c]
    out += [(e >> 1, e >> 1) for e, lo, hi in across if lo <= c <= hi]
    return _merge_touches(out)


def _merge_touches(out: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Closed intervals sorted and merged where they meet, as the list of
    their low ends and the list of their high ends."""
    out.sort()
    los: list[int] = []
    his: list[int] = []
    for lo, hi in out:
        if his and lo <= his[-1]:
            if hi > his[-1]:
                his[-1] = hi
        else:
            los.append(lo)
            his.append(hi)
    return los, his


def touch_tables(
    xs: Sequence[int], ys: Sequence[int], vtab: EdgeTable, htab: EdgeTable
) -> tuple[dict, dict]:
    """``touch_intervals`` of every vertical line x in xs and every
    horizontal line y in ys (both sorted, not doubled), in one sweep over
    the edge tables: each edge goes to the line it lies on and to the
    lines across it, found by bisection."""
    vt: dict[int, list[tuple[int, int]]] = {x: [] for x in xs}
    ht: dict[int, list[tuple[int, int]]] = {y: [] for y in ys}
    for tab, on, lines, crossed in ((vtab, vt, ys, ht), (htab, ht, xs, vt)):
        for c, lo, hi in tab:
            c, lo, hi = c >> 1, lo >> 1, hi >> 1
            if c in on:
                on[c].append((lo, hi))
            for line in lines[bisect_left(lines, lo) : bisect_right(lines, hi)]:
                crossed[line].append((c, c))
    return (
        {x: _merge_touches(out) for x, out in vt.items()},
        {y: _merge_touches(out) for y, out in ht.items()},
    )


def section_intervals(c: int, along: EdgeTable, across: EdgeTable) -> list[tuple[int, int]]:
    """The closed loop's section by the line at doubled coordinate c: the
    sorted, disjoint closed intervals, halved.  The edges ``across`` with
    lo <= c < hi pair up, in order along the line, into the inside runs
    (the half-open rule of ``loop_contains_doubled``, so their number is
    even); ``touch_intervals`` merges them, as edges along the line, with
    the boundary on it."""
    xs = sorted(e for e, lo, hi in across if lo <= c < hi)
    runs = tuple((c, lo, hi) for lo, hi in zip(xs[::2], xs[1::2]))
    return list(zip(*touch_intervals(c, along + runs, across)))


def _loop_locate(loop: Sequence[tuple[int, int]], p: tuple[int, int], start: int) -> int:
    """Where p sits on the loop, as a doubled index: 2i when p is vertex i,
    its first occurrence from index ``start`` on, cyclically; 2i + 1 when p
    lies inside edge i (from vertex i to vertex i + 1), the first such
    edge."""
    if p in loop:
        i = loop.index(p)
        if i < start and p in loop[start:]:
            i = loop.index(p, start)
        return 2 * i
    x, y = p
    qx, qy = loop[0]
    for i, (rx, ry) in enumerate(loop[1:] + loop[:1]):
        if qx == x == rx:
            if qy <= y <= ry or ry <= y <= qy:
                return 2 * i + 1
        elif qy == y == ry and (qx <= x <= rx or rx <= x <= qx):
            return 2 * i + 1
        qx, qy = rx, ry
    raise CutError(f"{p} not on the boundary loop")


def _straight(o: tuple[int, int], p: tuple[int, int], q: tuple[int, int]) -> bool:
    """Is p, between o and q on a loop, no corner: a repeat of q or the
    middle of an axis-collinear triple?"""
    return p == q or o[0] == p[0] == q[0] or o[1] == p[1] == q[1]


def _merge_at(pts: list[tuple[int, int]], todo: list[int]) -> None:
    """Merge the closed loop pts, in place, around the indices in todo:
    drop each point that is no corner, and then look at its two neighbours
    again.  When every point not in todo is a corner, this gives
    ``merge_loop``'s loop, up to rotation."""
    while todo and len(pts) > 2:
        i = todo.pop()
        if _straight(pts[i - 1], pts[i], pts[i + 1 - len(pts)]):
            del pts[i]
            n = len(pts)
            todo = [j - (j > i) for j in todo if j != i]
            todo += ((i - 1) % n, i % n)


def crosses_itself(walk: Sequence[tuple[int, int]]) -> bool:
    """Do two non-adjacent segments of the walk share a point?  Adjacent
    segments are perpendicular, so segments i and i + 2 lie on distinct
    parallel lines and cannot meet; only walks of four or more segments
    can cross."""
    segs = [
        (min(p[0], q[0]), max(p[0], q[0]), min(p[1], q[1]), max(p[1], q[1]))
        for p, q in zip(walk, walk[1:])
    ]
    for i in range(len(segs) - 3):
        xlo, xhi, ylo, yhi = segs[i]
        for j in range(i + 3, len(segs)):
            x0, x1, y0, y1 = segs[j]
            if x0 <= xhi and xlo <= x1 and y0 <= yhi and ylo <= y1:
                return True
    return False


def splice_plan(
    loop: Sequence[tuple[int, int]], walk: Sequence[tuple[int, int]]
) -> tuple[int, int, int, int, int, int]:
    """Where a walk between two boundary points cuts a loop, and how many
    vertices each part keeps.

    Each end is located once, as a vertex or the inside of an edge.  Part
    1 runs along the loop from the first end a to the last end b and back
    along the walk; part 2 from b to a and along the walk again.  Returns
    ``(sa, na, sb, nb, size1, size2)``: part 1 keeps the ``na`` loop
    vertices from index ``sa`` on (indices taken cyclically, over
    ``loop + loop``), part 2 the ``nb`` from index ``sb`` on.  The sizes
    count both parts' vertices with the ends dropped where they are no
    corner; they are the merged parts' sizes whenever the walk's inner
    points are corners off the loop, as the DP's walks are.  Raises
    CutError when the walk crosses itself or an end is not on the loop."""
    if len(walk) > 4 and crosses_itself(walk):
        raise CutError("walk crosses itself")
    a, b = walk[0], walk[-1]
    if a == b:
        raise CutError("walk closes a cycle")
    n = len(loop)
    pa = _loop_locate(loop, a, 0)
    sa = (pa >> 1) + 1  # the first loop vertex after a
    pb = _loop_locate(loop, b, sa % n)
    sb = (pb >> 1) + 1
    na = (((pb + 1) >> 1) - sa) % n
    if pa == pb:  # both inside one edge: is b before a along it?
        q = loop[pa >> 1]
        if abs(b[0] - q[0]) + abs(b[1] - q[1]) < abs(a[0] - q[0]) + abs(a[1] - q[1]):
            na = n
    nb = n - na - (1 - (pa & 1)) - (1 - (pb & 1))
    # neighbours of each end in each part: the walk on one side, the loop
    # (or the other end) on the other
    w1, wl = walk[1], walk[-2]
    a_next = loop[sa % n] if na else b
    b_prev = loop[(sa + na - 1) % n] if na else a
    b_next = loop[sb % n] if nb else a
    a_prev = loop[(sb + nb - 1) % n] if nb else b
    inner = len(walk) - 2
    size1 = 2 + na + inner - _straight(w1, a, a_next) - _straight(b_prev, b, wl)
    size2 = 2 + nb + inner - _straight(wl, b, b_next) - _straight(a_prev, a, w1)
    return sa, na, sb, nb, size1, size2


def splice_loop(
    loop: Sequence[tuple[int, int]],
    walk: Sequence[tuple[int, int]],
    plan: Optional[tuple[int, int, int, int, int, int]] = None,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The two vertex loops that a walk between two boundary points cuts a
    canonical loop into, as ``splice_plan`` (or the given plan) places
    them: built from slices of the loop and merged at the two splice
    points, not yet oriented or rotated.  Points inside the walk are kept
    as given.  Raises CutError when the walk crosses itself or an end is
    not on the loop."""
    sa, na, sb, nb, size1, size2 = plan or splice_plan(loop, walk)
    twice = tuple(loop) * 2
    a, b = walk[0], walk[-1]
    inner = list(walk[1:-1])
    part1 = [a, *twice[sa : sa + na], b, *inner[::-1]]
    part2 = [b, *twice[sb : sb + nb], a, *inner]
    # an end that is a corner of its part needs no merge
    if len(part1) != size1:
        _merge_at(part1, [0, na + 1])
    if len(part2) != size2:
        _merge_at(part2, [0, nb + 1])
    return part1, part2


class RectPolygon:
    """Simple rectilinear polygon, canonicalized: clockwise vertex order
    starting at the lexicographically smallest vertex, collinear edges
    merged.

    Non-simple vertex loops (pinched or self-touching) are representable
    but flagged via ``is_simple``; only simple polygons may be used as
    partition/DP cells.

    A view over the integer loop kernel above: ``__init__`` canonicalizes
    with ``merge_loop`` and ``orient_loop``, which also give the doubled
    area, and builds the ``edge_tables`` once, as ``_vtab`` (vertical
    edges) and ``_htab`` (horizontal edges), read only inside this module.
    The point and rect predicates and the line sections
    (``section_intervals``) are the kernel's, on those tables, and
    ``edges_at`` locates a boundary point as the splices do
    (``_loop_locate``).  Filled on
    first use: ``_coords``, ``_sections`` (see ``_section``), ``_vclass``.
    """

    __slots__ = (
        "vertices",
        "is_simple",
        "_area2",
        "_hash",
        "_coords",
        "_sections",
        "_vclass",
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
        self._sections: dict[int, list[tuple[int, int]]] = {}
        self._vclass = None
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

    def contains_segment(self, s: Segment) -> bool:
        """Closed containment of an axis-parallel segment with integer ends:
        it lies in one interval of its line's section."""
        if s.a.x == s.b.x:
            lo, hi = sorted((s.a.y, s.b.y))
            sec = self.vertical_section(s.a.x)
        else:
            lo, hi = sorted((s.a.x, s.b.x))
            sec = self.horizontal_section(s.a.y)
        return any(a <= lo and hi <= b for a, b in sec)

    def contains_rect(self, r: Rect) -> bool:
        """True iff the open rectangle lies inside the closed polygon."""
        return loop_contains_rect_doubled(
            self._vtab, self._htab, 2 * r.xl, 2 * r.yb, 2 * r.xr, 2 * r.yt
        )

    def edges_at(self, p: Point) -> tuple[int, ...]:
        """The indices of the edges whose closed segment holds p, in
        ascending order: none off the boundary, the two edges at a vertex,
        the one edge p lies inside.  Read off ``_loop_locate``, so exact on
        simple polygons, where a point lies on at most two edges."""
        if not self.on_boundary_doubled(2 * p.x, 2 * p.y):
            return ()
        at = _loop_locate(self.vertices, p, 0)
        i = at >> 1
        if at & 1:
            return (i,)
        return (i - 1, i) if i else (0, len(self.vertices) - 1)

    def vertical_touches(self, x: int) -> list[tuple[int, int]]:
        """The sorted, disjoint closed y-intervals (possibly single points)
        where the vertical line at x touches the boundary."""
        return list(zip(*touch_intervals(2 * x, self._vtab, self._htab)))

    # -- line sections ----------------------------------------------------

    def coords(self) -> tuple[list[int], list[int]]:
        """The sorted distinct vertex x and y coordinates."""
        if self._coords is None:
            self._coords = (
                sorted({p.x for p in self.vertices}),
                sorted({p.y for p in self.vertices}),
            )
        return self._coords

    def _section(self, c: int, horizontal: bool) -> list[tuple[int, int]]:
        """``section_intervals`` of the line y = c/2 (horizontal) or
        x = c/2, c doubled.  Memoized per vertex line and per open band
        between two neighbouring vertex lines: all lines of a band meet the
        polygon alike.  Callers share the memoized list and leave it as is."""
        vals = self.coords()[horizontal]
        j = bisect_left(vals, (c + 1) >> 1)  # vertex lines below the line
        key = 4 * j + 2 * (j < len(vals) and 2 * vals[j] == c) + horizontal
        sec = self._sections.get(key)
        if sec is None:
            if horizontal:
                sec = section_intervals(c, self._htab, self._vtab)
            else:
                sec = section_intervals(c, self._vtab, self._htab)
            self._sections[key] = sec
        return sec

    def horizontal_section(self, y: int) -> list[tuple[int, int]]:
        """Maximal x-intervals of the closed polygon on the line {y}."""
        return self._section(2 * y, True)

    def vertical_section(self, x: int) -> list[tuple[int, int]]:
        """Maximal y-intervals of the closed polygon on the line {x}."""
        return self._section(2 * x, False)

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
        """Map edge index -> 'left' | 'right' for every vertical edge.  A
        left edge has the polygon immediately to its right.

        The canonical loop runs clockwise, so the inside lies right of each
        edge's direction: an edge running up is left.  This holds for
        simple polygons, the only ones it is asked on.
        """
        if self._vclass is None:
            vs = self.vertices
            self._vclass = {
                i: "left" if p.y < q.y else "right"
                for i, (p, q) in enumerate(zip(vs, vs[1:] + vs[:1]))
                if p.x == q.x
            }
        return self._vclass

    def horizontal_edge_sides(self) -> dict[int, str]:
        """Map edge index -> 'bottom' | 'top'.  A bottom edge has the polygon
        above it, a top edge below it: on the clockwise loop of a simple
        polygon, an edge running left is bottom."""
        vs = self.vertices
        return {
            i: "bottom" if p.x > q.x else "top"
            for i, (p, q) in enumerate(zip(vs, vs[1:] + vs[:1]))
            if p.y == q.y
        }

    def transform(self, f) -> "RectPolygon":
        return RectPolygon([f(p) for p in self.vertices])


def is_horizontally_convex(p: RectPolygon) -> bool:
    """Every horizontal chord between two polygon points stays inside.

    Sections change only at vertex rows, so it is enough that each vertex
    row, and one line inside each open row between two vertex rows, meets
    the polygon in at most one interval.
    """
    _, ys = p.coords()
    lines = [2 * y for y in ys] + [y + z for y, z in zip(ys, ys[1:])]
    return all(len(p._section(c, True)) <= 1 for c in lines)


@dataclass(frozen=True)
class Cut:
    """A set of axis-parallel segments cutting a polygon.

    shape is 'path' for a boundary-to-boundary chain, 'tree' for two chains
    sharing a prefix (the two-armed cuts of the line-partitioning step).
    A cut whose segments close a cycle is neither; splitting along it
    raises CutError.
    """

    segments: tuple[Segment, ...]
    shape: str = "path"

    def __post_init__(self) -> None:
        if self.shape not in ("path", "tree"):
            raise GeometryError(f"unknown cut shape {self.shape!r}")

    def nondegenerate(self) -> list[Segment]:
        return [s for s in self.segments if not s.degenerate]


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


def _check_no_proper_crossing(segs: Sequence[Segment]) -> None:
    """Raise CutError when two canonical segments cross at a point
    interior to both."""
    for s, t in combinations(segs, 2):
        if s.vertical != t.vertical:
            v, h = (s, t) if s.vertical else (t, s)
            if h.a.x < v.a.x < h.b.x and v.a.y < h.a.y < v.b.y:
                raise CutError(f"cut segments cross: {s} x {t}")


def cut_pieces(poly: RectPolygon, segments: Sequence[Segment]) -> list[list[Segment]]:
    """Each segment cut at the polygon's vertices and boundary crossings
    and at the other segments' endpoints: per segment, its pieces in
    order of increasing coordinate, leaving out those on the boundary."""
    ends = {(p.x, p.y) for s in segments for p in (s.a, s.b)}
    out = []
    for s in segments:
        # c is the segment's line, [a, b] its span along it; a point q lies
        # on the line when q[1 - v] == c, at coordinate q[v]
        v = s.vertical
        c = s.a.x if v else s.a.y
        a, b = sorted((s.a.y, s.b.y) if v else (s.a.x, s.b.x))
        ts = {a, b} | {q[v] for q in ends if q[1 - v] == c and a < q[v] < b}
        ts.update(
            e >> 1 for e, lo, hi in (poly._htab if v else poly._vtab)
            if lo <= 2 * c <= hi and 2 * a <= e <= 2 * b
        )
        ts = sorted(ts)
        pairs = [((c, t), (c, u)) if v else ((t, c), (u, c)) for t, u in zip(ts, ts[1:])]
        out.append([
            Segment(Point(*p), Point(*q)) for p, q in pairs
            if not poly.on_boundary_doubled(p[0] + q[0], p[1] + q[1])
        ])
    return out


def _prune(adj: dict[tuple[int, int], set], keep: set) -> None:
    """Remove, until none is left, every node outside ``keep`` with at
    most one neighbour, and then the nodes left without neighbours."""
    tips = [q for q, nb in adj.items() if len(nb) <= 1 and q not in keep]
    while tips:
        q = tips.pop()
        for r in adj.pop(q):
            adj[r].discard(q)
            if len(adj[r]) == 1 and r not in keep:
                tips.append(r)
    for q in [q for q, nb in adj.items() if not nb]:
        del adj[q]


def split_components(p: RectPolygon, c: Cut) -> list[RectPolygon]:
    """The parts of p cut along c, sorted by smallest vertex; just p when
    the cut separates nothing.

    The cut's pieces (``cut_pieces``) form a graph on their endpoints.
    Slits that end inside the polygon are pruned; what is left is a
    forest whose leaves lie on the boundary.  It is split off one
    boundary-to-boundary walk at a time, each spliced into the part that
    holds its first piece.  Raises CutError when a segment leaves the
    polygon, two segments cross, or the cut holds a cycle.
    """
    segs = [s.canonical() for s in c.nondegenerate()]
    for s in segs:
        if not p.contains_segment(s):
            raise CutError(f"cut segment {s} leaves the polygon")
    _check_no_proper_crossing(segs)
    adj: dict[tuple[int, int], set] = {}
    for pieces in cut_pieces(p, segs):
        for s in pieces:
            a, b = (s.a.x, s.a.y), (s.b.x, s.b.y)
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    # nodes on the boundary of some part: first the polygon's, then also
    # every walk already split along
    fixed = {q for q in adj if p.on_boundary_doubled(2 * q[0], 2 * q[1])}
    _prune(adj, fixed)
    forest = {q: set(nb) for q, nb in adj.items()}
    _prune(forest, set())  # only a cycle survives pruning every leaf
    if forest:
        raise CutError("cut contains a cycle")
    parts = [p]
    while adj:
        walk = [min(q for q in adj if q in fixed)]
        while len(walk) == 1 or walk[-1] not in fixed:
            q = walk[-1]
            r = min(adj[q])
            for u, v in ((q, r), (r, q)):
                adj[u].discard(v)
                if not adj[u]:
                    del adj[u]
            walk.append(r)
        fixed.update(walk)
        X, Y = walk[0][0] + walk[1][0], walk[0][1] + walk[1][1]
        i = next(
            i for i, q in enumerate(parts)
            if q.contains_doubled(X, Y) and not q.on_boundary_doubled(X, Y)
        )
        whole = parts[i]
        halves = [
            RectPolygon([Point(*t) for t in loop])
            for loop in splice_loop([(v.x, v.y) for v in whole.vertices], walk)
        ]
        if halves[0].area2() + halves[1].area2() != whole.area2():
            raise CutError("split lost area")
        parts[i : i + 1] = halves
    return sorted(parts, key=lambda q: q.vertices[0])
