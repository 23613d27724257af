"""Structure on an optimal solution: maximal extension, nesting and
niceness labels, corridor visibility ("sees"), and fence/protection
machinery for single-segment fences and for chains of up to tau segments.

Fence conventions (all exact, all integral):
  * a line fence is one horizontal segment from an integral point on a
    vertical polygon edge to a rectangle feature (left-edge interior or a
    far corner), crossing no rectangle contained in the polygon;
  * a tau-fence is an x-monotone chain of at most tau axis-parallel
    segments anchored anywhere on a vertical polygon edge, crossing no
    rectangle contained in the polygon; no feature endpoint is required.
Anchors and bends are restricted to integral points; every obstacle has
integral coordinates, so chains can always be deformed onto the integer
grid without increasing their segment count.

Both kinds of protection are memoized per partition run, in one dict the
run owns: tau_engine keeps one engine per (polygon, rects, tau), and
protecting_fences one fence list per (rect, polygon, rects).  A memo is a
cache only; every answer is the same without it.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
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

    Rectangles are processed in ascending index order; within one
    rectangle the growth cycle is left, right, bottom, top, repeated to a
    fixpoint.  Any processing order yields a valid maximal set; fixing
    one keeps fixtures reproducible.
    """
    validate_solution(inst, Solution(tuple(sorted(opt.chosen))))
    side = inst.side
    order = sorted(opt.chosen)
    grown: list[Rect] = [inst.rects[i] for i in order]

    for idx in range(len(grown)):
        r = grown[idx]
        others = [grown[k] for k in range(len(grown)) if k != idx]
        changed = True
        while changed:
            changed = False
            limit = max([0] + [o.xr for o in others if o.xr <= r.xl and _y_overlap(o, r)])
            if limit < r.xl:
                r, changed = Rect(limit, r.yb, r.xr, r.yt), True
            limit = min([side] + [o.xl for o in others if o.xl >= r.xr and _y_overlap(o, r)])
            if limit > r.xr:
                r, changed = Rect(r.xl, r.yb, limit, r.yt), True
            limit = max([0] + [o.yt for o in others if o.yt <= r.yb and _x_overlap(o, r)])
            if limit < r.yb:
                r, changed = Rect(r.xl, limit, r.xr, r.yt), True
            limit = min([side] + [o.yb for o in others if o.yb >= r.yt and _x_overlap(o, r)])
            if limit > r.yt:
                r, changed = Rect(r.xl, r.yb, r.xr, limit), True
        grown[idx] = r

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
# there: the seven non-base combinations are reflections of right/TL.
_SEE_FRAMES: dict[str, Optional[Callable]] = {
    "right": None,
    "left": _mirror_x,
    "bottom": _anti_transpose,
    "top": lambda rs: _anti_transpose(_mirror_x(_mirror_y(rs))),
}
_SEE_BASE_CORNER: dict[tuple[str, str], str] = {
    ("right", "TL"): "TL",
    ("right", "BL"): "BL",
    ("left", "TR"): "TL",
    ("left", "BR"): "BL",
    ("bottom", "TR"): "BL",
    ("bottom", "TL"): "TL",
    ("top", "BR"): "BL",
    ("top", "BL"): "TL",
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

    Valid (side, corner) pairs: TL/BL on the right, TR/BR on the left,
    TR/TL below, BR/BL above; the seven non-base combinations are the
    reflections of the right/TL case.  Callers asking many questions on
    one side build its frame once and ask _sees_in_frame.
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


@dataclass(frozen=True)
class Fence:
    """An x-monotone chain anchored on a vertical polygon edge.  Line
    fences carry a single segment (possibly a degenerate point)."""

    anchor: Point
    chain: tuple[Segment, ...]
    side: str  # 'from_left_edge' | 'from_right_edge'

    @property
    def endpoint(self) -> Point:
        return self.chain[-1].b if self.chain else self.anchor


def _fence_features_rightward(
    rects_in: Sequence[tuple[int, Rect]], y: int, x_from: int, x_to: int
) -> list[tuple[int, str, int]]:
    """Rect features on the rightward ray at height y within [x_from,x_to],
    ordered by x: (x, kind, rect id).  kind 'block' is the interior of a
    left edge; the ray cannot continue past it."""
    feats = []
    for rid, r in rects_in:
        if r.yb < y < r.yt and x_from <= r.xl <= x_to:
            feats.append((r.xl, "block", rid))
        if (y == r.yt or y == r.yb) and x_from <= r.xr <= x_to:
            feats.append((r.xr, "corner", rid))
    feats.sort()
    return feats


def _fence_frame(
    poly: RectPolygon, rects_in: Sequence[tuple[int, Rect]], side: str
) -> tuple[RectPolygon, Sequence[tuple[int, Rect]], int, str]:
    """(polygon, rects, sign, tag) in which the line fences from a
    `side`-vertical edge run rightward: the cell itself for left edges,
    its reflection in the line x = 0 for right edges.  sign maps an x of
    the frame back to the cell."""
    if side == "left":
        return poly, rects_in, 1, "from_left_edge"
    return poly.transform(_mirror_x_point), _mirror_x_tagged(rects_in), -1, "from_right_edge"


def _fences_rightward(frame, p: Point) -> list[Fence]:
    """Line fences from the anchor p of the cell, nearest feature first,
    found running rightward in the frame."""
    fpoly, frects, sign, tag = frame
    q = Point(sign * p.x, p.y)
    _lo, hi = fpoly.horizontal_reach(q)
    out = []
    for x, kind, _rid in _fence_features_rightward(frects, q.y, q.x, hi):
        if x < q.x:
            continue
        out.append(Fence(p, (Segment(p, Point(sign * x, p.y)),), tag))
        if kind == "block":
            break
    return out


def enumerate_line_fences(
    poly: RectPolygon, rects_in: Sequence[tuple[int, Rect]]
) -> list[Fence]:
    """All line fences, one per (integral anchor point, reachable feature)
    pair over every vertical edge; degenerate point fences included.  Each
    side's frame, the mirrored cell for right edges, is built once."""
    fences: list[Fence] = []
    sides = poly.vertical_edge_sides()
    edges = poly.edges()
    frames = {side: _fence_frame(poly, rects_in, side) for side in ("left", "right")}
    for idx in sorted(sides):
        e = edges[idx]
        y1, y2 = sorted((e.a.y, e.b.y))
        for y in range(y1, y2 + 1):
            fences.extend(_fences_rightward(frames[sides[idx]], Point(e.a.x, y)))
    return fences


def _ray_clear_of_rects(
    rects_in: Sequence[tuple[int, Rect]], y: int, x1: int, x2: int
) -> bool:
    return not any(
        r.yb < y < r.yt and x1 < r.xr and x2 > r.xl for _rid, r in rects_in
    )


def protecting_fences(
    poly: RectPolygon,
    rects_in: Sequence[tuple[int, Rect]],
    r: Rect,
    memo: Optional[dict] = None,
) -> list[Fence]:
    """Line fences containing the top or bottom edge of r.

    Only the fence ending at the covered edge's far corner needs testing:
    if any covering fence exists, that one does.  Deterministic order:
    top before bottom, left anchors before right, then anchor position.
    With a memo (a partition run's, as for tau_engine), each (r, poly,
    rects_in) is answered once; the answer is the same without one.
    """
    if memo is not None:
        key = ("line", r, poly, tuple(sorted(rects_in)))
        if key in memo:
            return memo[key]
    out: list[Fence] = []
    sides = poly.vertical_edge_sides()
    edges = poly.edges()
    for y in (r.yt, r.yb):
        for side_name in ("left", "right"):
            found = []
            for idx, side in sides.items():
                if side != side_name:
                    continue
                e = edges[idx]
                ey1, ey2 = sorted((e.a.y, e.b.y))
                if not ey1 <= y <= ey2:
                    continue
                xe = e.a.x
                target_x = r.xr if side_name == "left" else r.xl
                if (side_name == "left" and xe > r.xl) or (
                    side_name == "right" and xe < r.xr
                ):
                    continue
                p = Point(xe, y)
                seg = Segment(p, Point(target_x, y))
                x1, x2 = sorted((xe, target_x))
                if not poly.contains_segment(seg):
                    continue
                if not _ray_clear_of_rects(rects_in, y, x1, x2):
                    continue
                found.append(Fence(p, (seg,), f"from_{side_name}_edge"))
            found.sort(key=lambda f: (f.anchor.y, f.anchor.x))
            out.extend(found)
    if memo is not None:
        memo[key] = out
    return out


def is_protected(
    r: Rect,
    poly: RectPolygon,
    rects_in: Sequence[tuple[int, Rect]],
    memo: Optional[dict] = None,
) -> bool:
    """Line-fence protection: some fence contains r's top or bottom edge."""
    return bool(protecting_fences(poly, rects_in, r, memo))


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
    sections: list[tuple[int, int]], blocked: list[tuple[int, int]], lo0: int, n: int
) -> bytearray:
    """free[i]: the unit step from lo0+i to lo0+i+1 lies in one of the
    sections and in none of the blocked intervals."""
    free = bytearray(n)
    for lo, hi in sections:
        free[lo - lo0 : hi - lo0] = b"\x01" * (hi - lo)
    for lo, hi in blocked:
        lo, hi = max(lo - lo0, 0), min(hi - lo0, n)
        if lo < hi:
            free[lo:hi] = bytes(hi - lo)
    return free


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
    segments inside a polygon, avoiding the given rect interiors.

    The search graph is the integer grid of the polygon's bounding box; a
    chain state is (grid point, current orientation, committed horizontal
    direction).  Turning costs one segment, continuing straight nothing.

    A search result (a table) is private to the engine: only its methods
    read it.  Its distances live in one flat array indexed
    ((ix*ny + iy)*4 + o)*3 + h for grid offset (ix, iy), orientation o and
    horizontal direction h; unreached states hold tau + 1, and the element
    type is the narrowest array type that holds tau + 1 (bytes up to
    tau = 254).  There are two kinds of table, both cached in the engine:
    reach() tables, seeded at given anchor points, also keep each state's
    predecessor state in a flat array (-1 for none), for chain_to;
    protection tables, one per vertical polygon edge and seeded at every
    point of it, keep none and are read only at the ends of a run.
    """

    def __init__(
        self, poly: RectPolygon, rects_in: Sequence[tuple[int, Rect]], tau: int
    ):
        self.poly = poly
        self.rects = [r for _rid, r in rects_in]
        self.tau = tau
        x0, y0, x1, y1 = poly.bbox()
        self.x0, self.y0 = x0, y0
        self.nx = x1 - x0 + 1
        self.ny = y1 - y0 + 1
        self._moves: Optional[bytearray] = None
        self._cache: dict = {}
        # _trans[o*3 + h]: the (move bit, state offset, cost) of every step
        # a chain in orientation o and horizontal direction h may take.
        shift = {_RIGHT: 12 * self.ny, _LEFT: -12 * self.ny, _UP: 12, _DOWN: -12}
        self._trans = []
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
                self._trans.append(tuple(steps))

    def _steps(self) -> bytearray:
        """moves[ix*ny + iy]: the move bits of the unit steps from grid
        point (x0+ix, y0+iy) that stay in the closed polygon and cross no
        rect interior."""
        if self._moves is None:
            poly, rects = self.poly, self.rects
            x0, y0, nx, ny = self.x0, self.y0, self.nx, self.ny
            moves = bytearray(nx * ny)
            for j in range(ny):
                y = y0 + j
                blocked = [(r.xl, r.xr) for r in rects if r.yb < y < r.yt]
                free = _free_steps(poly.horizontal_section(y), blocked, x0, nx)
                for i, ok in enumerate(free):
                    if ok:
                        moves[i * ny + j] |= _RIGHT
                        moves[(i + 1) * ny + j] |= _LEFT
            for i in range(nx):
                x = x0 + i
                blocked = [(r.yb, r.yt) for r in rects if r.xl < x < r.xr]
                free = _free_steps(poly.vertical_section(x), blocked, y0, ny)
                for j, ok in enumerate(free):
                    if ok:
                        moves[i * ny + j] |= _UP
                        moves[i * ny + j + 1] |= _DOWN
            self._moves = moves
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
        """Chains emanating from any of the given anchor points."""
        key = ("pts", tuple(sorted(set(sources))))
        if key not in self._cache:
            seeds = [(0, p.x - self.x0, p.y - self.y0, _START, 0) for p in key[1]]
            self._cache[key] = self._bfs(seeds, with_parent=True)
        return self._cache[key]

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

    def anchoring_edges(self, y: int, x1: int, x2: int) -> set[int]:
        """Vertical edges of the polygon anchoring some chain that contains
        the horizontal run [x1,x2]x{y}, x1 <= x2."""
        if not self._walkable(y, x1, x2):
            return set()
        return {
            idx for idx in self.poly.vertical_edge_sides()
            if self._anchors(idx, y, x1, x2)
        }

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
        key = ("edge", idx)
        table = self._cache.get(key)
        if table is None:
            e = self.poly.edges()[idx]
            ix = e.a.x - self.x0
            y1, y2 = sorted((e.a.y - self.y0, e.b.y - self.y0))
            seeds = [(0, ix, iy, _START, 0) for iy in range(y1, y2 + 1)]
            table = self._cache[key] = self._bfs(seeds, with_parent=False)
        dist, tau = table.dist, self.tau
        for x, (straight, turns) in ((x1, _ONTO_RIGHT), (x2, _ONTO_LEFT)):
            base = ((x - self.x0) * self.ny + y - self.y0) * 12
            if dist[base + straight] <= tau or min(dist[base + s] for s in turns) + 1 <= tau:
                return True
        return False


def tau_engine(
    poly: RectPolygon,
    rects_in: Sequence[tuple[int, Rect]],
    tau: int,
    memo: Optional[dict] = None,
) -> FenceEngine:
    """The fence engine of (poly, rects_in, tau).  With a memo, one engine
    and its search tables serve every request with the same key; a
    partition run owns its memo, so everything in it is freed with the run.
    Without one, a fresh engine."""
    if memo is None:
        return FenceEngine(poly, rects_in, tau)
    key = (poly, tuple(sorted(rects_in)), tau)
    eng = memo.get(key)
    if eng is None:
        eng = memo[key] = FenceEngine(poly, rects_in, tau)
    return eng


def is_tau_protected(
    r: Rect,
    poly: RectPolygon,
    rects_in: Sequence[tuple[int, Rect]],
    tau: int,
    memo: Optional[dict] = None,
) -> bool:
    """tau-protection: one vertical polygon edge anchors two chains of at
    most tau segments containing r's top and bottom edges respectively."""
    return tau_engine(poly, rects_in, tau, memo).protects(r)
