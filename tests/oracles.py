"""Independent references and generators for the test suite.

One reference per question.  A test that checks a library routine
compares it with the one reference this module keeps for the routine's
question: the one closest to the paper's definition, such as a brute
force, a scan of the vertex loop or the routine as first written.  A
reference never calls the library routine it checks; the library code
it does call has tests of its own.  A name here that no test module
reads fails tests/test_dead_code.py.

Each kept reference, the library routine it checks, and the library
names it still calls ("nothing" still reads a polygon's vertex loop, its
input):

  brute_force_mis: exact_mis; rects_intersect
  ref_side_doubled: side_doubled; nothing
  ref_contains_rect: contains_rect; nothing
  brute_force_hconvex: is_horizontally_convex; RectPolygon.bbox
  ref_canon_loop: canon_loop and RectPolygon's canonical loop; nothing
  ref_surgery, RefCellGeometry, ref_enumerate_walks: surgery,
      _CellGeometry, _enumerate_walks; nothing
  ref_dp_solve: dp_solve and its DpStats; containment_prune
  ref_moves, NestedFenceEngine, nested_is_tau_protected: FenceEngine;
      horizontal_section, vertical_section, edges, vertical_edge_sides
  ref_maximal_extension: maximal_extension; nothing
  ref_sees, ref_seen_corners_on_side: sees, seen_corners_on_side;
      Rect.corner
  ref_protecting_fences, ref_one_edge_anchors_both: LineFences.anchors,
      protected, one_edge_anchors_both; edges, vertical_edge_sides
  ref_enumerate_line_fences, ref_furthest, ref_crossing_anchor:
      LineFences.furthest, crossing_anchor; horizontal_reach,
      vertical_edge_sides
  ref_line_anchor, ref_ray_crossing: partition._line_anchor,
      _ray_crossing; LineFences.furthest, crossing_anchor
  ref_edge_sides: vertical_edge_sides; nothing
  ref_is_simple: RectPolygon.is_simple; nothing
  ref_cut_pieces: inside_pieces; nothing
  ref_split_components: split_components; RectPolygon, to build the parts
  ref_contains_walk, ref_holds: contains_walk, LineFences._holds; nothing
  ref_assert_maximal: assert_maximal; rects_intersect
  ref_root_is_square, ref_horizontal_edges_miss_rects: two clauses of
      validate_partition; RectPolygon.from_rect, edges,
      segment_intersects_rect

The rest of the module builds inputs (blob, notched and cell-traced
polygons, the units of acceptance criterion 6) and holds small test
helpers.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional, Sequence

from misr.dp_solver import DpError
from misr.geom_core import (
    Cut,
    CutError,
    GeometryError,
    Point,
    Rect,
    RectPolygon,
    Segment,
    is_horizontally_convex,
    rects_intersect,
    segment_intersects_rect,
    split_components,
)
from misr.instance import Instance, Solution
from misr.partition import Chord, _make_chord
from misr.structure import (
    LineFences,
    MaximalSet,
    StructureError,
    sees,
)


# -- brute force MIS -------------------------------------------------------------


def brute_force_mis(inst: Instance) -> tuple[int, tuple[int, ...]]:
    """Exhaustive maximum independent set: every index subset, largest
    size first and each size in lexicographic order, until one is
    pairwise disjoint.  Returns its size and the subset, so among the
    maximum sets the lexicographically smallest."""
    n, rects = inst.n, inst.rects
    adj = [0] * n  # bit j of adj[i]: rects i and j meet
    for i, j in combinations(range(n), 2):
        if rects_intersect(rects[i], rects[j]):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    for size in range(n, 0, -1):
        for combo in combinations(range(n), size):
            taken = 0
            for v in combo:
                if adj[v] & taken:
                    break
                taken |= 1 << v
            else:
                return size, combo
    return 0, ()


# -- point location, rect containment, horizontal convexity ------------------------
#
# Read off the vertex loop: no edge table or line section of the
# library's polygon.  A loop is any sequence of (x, y) pairs, a
# RectPolygon's vertices or a DP cell.


def ref_side_doubled(loop: Sequence[tuple[int, int]], X: int, Y: int) -> int:
    """Where the doubled point (X, Y) lies against the closed loop: 0 on
    an edge, 1 inside, -1 outside.  Off the boundary it is inside when an
    odd number of vertical edges lie to its right, each counted over its
    half-open span lo <= Y < hi."""
    inside = False
    px, py = loop[-1]
    for qx, qy in loop:
        if px == qx:
            lo, hi = (2 * py, 2 * qy) if py < qy else (2 * qy, 2 * py)
            if lo <= Y <= hi:
                if X == 2 * px:
                    return 0
                if X < 2 * px and Y < hi:
                    inside = not inside
        elif Y == 2 * py and (2 * px <= X <= 2 * qx or 2 * qx <= X <= 2 * px):
            return 0
        px, py = qx, qy
    return 1 if inside else -1


def ref_contains_rect(loop: Sequence[tuple[int, int]], r: Rect) -> bool:
    """The open rect lies inside the closed loop: its centre is not
    outside, and no edge reaches into it."""
    if ref_side_doubled(loop, r.xl + r.xr, r.yb + r.yt) < 0:
        return False
    return not any(
        min(p[0], q[0]) < r.xr and max(p[0], q[0]) > r.xl
        and min(p[1], q[1]) < r.yt and max(p[1], q[1]) > r.yb
        for p, q in zip(loop, loop[1:] + loop[:1])
    )


def brute_force_hconvex(poly: RectPolygon) -> bool:
    """Check every horizontal chord on the doubled grid: if two sampled
    points lie inside at the same height, everything between must too."""
    x0, y0, x1, y1 = poly.bbox()
    for Y in range(2 * y0, 2 * y1 + 1):
        row = [
            X for X in range(2 * x0, 2 * x1 + 1)
            if ref_side_doubled(poly.vertices, X, Y) >= 0
        ]
        if row and row[-1] - row[0] + 1 != len(row):
            return False
    return True


# -- polygon generators --------------------------------------------------------------


def blob_polygon(rng: random.Random, grid: int = 8, cells: int = 14) -> RectPolygon:
    """Random simple rectilinear polygon: a connected, hole-free union of
    unit cells traced into a vertex loop."""
    start = (rng.randrange(grid), rng.randrange(grid))
    blob = {start}
    while len(blob) < cells:
        base = rng.choice(sorted(blob))
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        c = (base[0] + dx, base[1] + dy)
        if 0 <= c[0] < grid and 0 <= c[1] < grid:
            blob.add(c)
    # fill holes: cells not reachable from outside the bounding box
    outside = set()
    stack = [(-1, -1)]
    while stack:
        c = stack.pop()
        if c in outside or c in blob:
            continue
        if not (-1 <= c[0] <= grid and -1 <= c[1] <= grid):
            continue
        outside.add(c)
        stack.extend(
            (c[0] + dx, c[1] + dy)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
        )
    for x in range(grid):
        for y in range(grid):
            if (x, y) not in blob and (x, y) not in outside:
                blob.add((x, y))
    return cells_to_polygon(blob)


def cells_to_polygon(blob: set[tuple[int, int]]) -> RectPolygon:
    """Trace the outer boundary of a connected hole-free set of unit cells
    of non-negative coordinates."""
    grid = range(max(max(c) for c in blob) + 2)
    return trace_cells(blob, grid, grid)


def trace_cells(cells, xs: Sequence[int], ys: Sequence[int], blocked=None) -> RectPolygon:
    """The polygon of a set of grid cells, cell (i, j) spanning
    [xs[i], xs[i+1]] x [ys[j], ys[j+1]]: a cell side is boundary where no
    cell of the set lies across it or where ``blocked(vertical,
    coordinate, lo, hi)`` says a wall covers it."""
    cellset = set(cells)
    outgoing: dict[Point, list[Point]] = {}  # directed boundary edges by start

    def add(a: Point, b: Point) -> None:
        outgoing.setdefault(a, []).append(b)

    def wall(*side) -> bool:
        return blocked is not None and blocked(*side)

    for (i, j) in cells:
        x1, x2, y1, y2 = xs[i], xs[i + 1], ys[j], ys[j + 1]
        if (i - 1, j) not in cellset or wall(True, x1, y1, y2):
            add(Point(x1, y1), Point(x1, y2))
        if (i + 1, j) not in cellset or wall(True, x2, y1, y2):
            add(Point(x2, y2), Point(x2, y1))
        if (i, j - 1) not in cellset or wall(False, y1, x1, x2):
            add(Point(x2, y1), Point(x1, y1))
        if (i, j + 1) not in cellset or wall(False, y2, x1, x2):
            add(Point(x1, y2), Point(x2, y2))
    return trace_loop(outgoing)


# the directions to try after a step in each direction: the rightmost
# turn first, which keeps the traced face consistent at a pinch, and the
# reversal last, which lets a slit's tip turn back
_TURNS = {
    (0, 1): [(1, 0), (0, 1), (-1, 0), (0, -1)],
    (1, 0): [(0, -1), (1, 0), (0, 1), (-1, 0)],
    (0, -1): [(-1, 0), (0, -1), (1, 0), (0, 1)],
    (-1, 0): [(0, 1), (-1, 0), (0, -1), (1, 0)],
}


def trace_loop(outgoing: dict[Point, list[Point]]) -> RectPolygon:
    """The polygon of directed boundary edges, keyed by their start, that
    keep the interior on their right: traced from the smallest start,
    turning by ``_TURNS`` where a point has several ways on.  Raises
    GeometryError when the edges do not close into a single loop."""
    start = cur = min(outgoing)
    loop = [start]
    step = None
    while True:
        cands = outgoing.get(cur)
        if not cands:
            raise GeometryError("boundary trace dead end")
        if step is None or len(cands) == 1:
            nxt = min(cands)
        else:
            nxt = min(cands, key=lambda c: (_TURNS[step].index(_direction(cur, c)), c))
        cands.remove(nxt)
        if not cands:
            del outgoing[cur]
        step = _direction(cur, nxt)
        cur = nxt
        if cur == start:
            break
        loop.append(cur)
    if outgoing:
        # leftover edges: a second loop, a hole or a pinched-off part
        raise GeometryError("boundary is not a single loop")
    return RectPolygon(loop)


def _direction(a: Point, b: Point) -> tuple[int, int]:
    return (b.x > a.x) - (b.x < a.x), (b.y > a.y) - (b.y < a.y)


def notched_polygon(
    rng: random.Random,
    k: int,
    width: int = 30,
    height: int = 20,
    h_convex_only: bool = False,
) -> RectPolygon:
    """A polygon with exactly k edges: a rectangle with unit notches cut
    into its sides (each notch adds 4 edges, a corner notch adds 2).

    With h_convex_only, notches go only into the left and right sides,
    preserving horizontal convexity.
    """
    if k < 4 or k % 2:
        raise ValueError("k must be even and at least 4")
    quads, rem = divmod(k - 4, 4)
    corner = rem // 2  # 0 or 1
    sides = ["left", "right"] if h_convex_only else ["left", "right", "bottom", "top"]
    positions: dict[str, list[int]] = {s: [] for s in sides}
    spans = {"left": height, "right": height, "bottom": width, "top": width}
    needed = quads
    attempts = 0
    while needed > 0:
        attempts += 1
        if attempts > 10000:
            raise ValueError("could not place notches")
        s = rng.choice(sides)
        pos = rng.randrange(2, spans[s] - 3)
        if all(abs(pos - p) >= 3 for p in positions[s]):
            positions[s].append(pos)
            needed -= 1
    blob = {(x, y) for x in range(width) for y in range(height)}
    for s, poss in positions.items():
        for pos in poss:
            if s == "left":
                blob.discard((0, pos))
            elif s == "right":
                blob.discard((width - 1, pos))
            elif s == "bottom":
                blob.discard((pos, 0))
            else:
                blob.discard((pos, height - 1))
    if corner:
        blob.discard((0, 0))
    poly = cells_to_polygon(blob)
    if poly.num_edges != k:
        raise ValueError(f"got {poly.num_edges} edges, wanted {k}")
    return poly


def fill_with_maximal_rects(
    rng: random.Random, poly: RectPolygon, count: int, tries: int = 400
) -> list[Rect]:
    """Disjoint rects inside the polygon, each grown to a fixpoint against
    the polygon boundary and the other rects (left, right, bottom, top)."""
    x0, y0, x1, y1 = poly.bbox()
    rects: list[Rect] = []

    def fits(r: Rect) -> bool:
        return poly.contains_rect(r) and not any(
            rects_intersect(r, o) for o in rects
        )

    for _ in range(tries):
        if len(rects) >= count:
            break
        x = rng.randrange(x0, x1)
        y = rng.randrange(y0, y1)
        seed = Rect(x, y, x + 1, y + 1)
        if not fits(seed):
            continue
        rects.append(_grow_in_polygon(poly, rects, seed))
    return rects


def line_units(rng: random.Random, count: int):
    """count (k, polygon, rects) units for line cuts: horizontally convex
    notched polygons with k edges and 2-5 maximal rects inside."""
    done = 0
    while done < count:
        k = rng.choice((8, 12, 16, 20, 24, 26))
        try:
            poly = notched_polygon(
                rng, k, width=rng.randrange(10, 20),
                height=rng.randrange(8, 16), h_convex_only=True,
            )
        except ValueError:
            continue
        rects = list(enumerate(fill_with_maximal_rects(rng, poly, rng.randrange(2, 6))))
        if len(rects) < 2:
            continue
        yield k, poly, rects
        done += 1


# (tau, edge counts, width, height, units) of the general-cut units
GENERAL_PLAN = (
    (1, (12, 20, 32, 44), 14, 10, 120), (1, (46, 48), 26, 20, 30),
    (3, (12, 24, 40), 16, 12, 40), (3, (106,), 60, 40, 6),
    (7, (16, 28), 16, 12, 16), (7, (226,), 120, 60, 2),
)


def general_units(rng: random.Random):
    """(tau, k, polygon, rects) units for general cuts, GENERAL_PLAN's
    counts of each: notched polygons with k edges and 2-5 maximal rects."""
    for tau, ks, w, h, count in GENERAL_PLAN:
        done = 0
        while done < count:
            k = rng.choice(ks)
            try:
                poly = notched_polygon(rng, k, width=w, height=h)
            except ValueError:
                continue
            rects = list(
                enumerate(fill_with_maximal_rects(rng, poly, rng.randrange(2, 6)))
            )
            if len(rects) < 2:
                continue
            yield tau, k, poly, rects
            done += 1


@lru_cache(maxsize=None)
def criterion_6_units() -> tuple[tuple, tuple]:
    """Acceptance criterion 6's units, built once per session: the 200
    line units of ``line_units``, then the units of ``general_units``, both
    drawn from one ``Random(2024)`` stream.  Callers only read them."""
    rng = random.Random(2024)
    line = tuple(line_units(rng, 200))
    return line, tuple(general_units(rng))


def _grow_in_polygon(poly: RectPolygon, others: list[Rect], r: Rect) -> Rect:
    changed = True
    while changed:
        changed = False
        for direction in ("left", "right", "bottom", "top"):
            while True:
                if direction == "left":
                    cand = Rect(r.xl - 1, r.yb, r.xr, r.yt)
                elif direction == "right":
                    cand = Rect(r.xl, r.yb, r.xr + 1, r.yt)
                elif direction == "bottom":
                    cand = Rect(r.xl, r.yb - 1, r.xr, r.yt)
                else:
                    cand = Rect(r.xl, r.yb, r.xr, r.yt + 1)
                if poly.contains_rect(cand) and not any(
                    rects_intersect(cand, o) for o in others
                ):
                    r = cand
                    changed = True
                else:
                    break
    return r


# -- the DP's loop kernel as first written -----------------------------------------
#
# Canonicalization by repeated deletion, the per-cut area re-check, the
# per-call cell geometry and the memoized recursion of the polygon DP as
# they were before it moved onto the integer loop kernel in geom_core.
# test_dp_kernel.py requires the library's kernel, RectPolygon's
# canonical loop and dp_solve to agree with them exactly.


def ref_canon_loop(
    pts: Sequence[tuple[int, int]], simple: bool = True
) -> tuple[tuple[int, int], ...]:
    """Canonical form of a rectilinear vertex loop: repeated points and
    the middle points of axis-collinear runs deleted one at a time until
    none is left, clockwise, rotated to the smallest vertex.  Raises
    DpError on an edge off the axes, on fewer than four points left, on
    zero area and, when ``simple``, on a repeated point (a pinched loop):
    the DP's cells must be simple, a RectPolygon need not be."""
    out = list(pts)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(out) and len(out) > 2:
            n = len(out)
            p, q, r = out[i - 1], out[i], out[(i + 1) % n]
            if p == q or (p[0] == q[0] == r[0]) or (p[1] == q[1] == r[1]):
                del out[i]
                changed = True
            else:
                i += 1
    if len(out) < 4:
        raise DpError("degenerate loop")
    for p, q in zip(out, out[1:] + out[:1]):
        if p[0] != q[0] and p[1] != q[1]:
            raise DpError(f"edge {p}-{q} not axis-parallel")
    if simple and len(set(out)) != len(out):
        raise DpError("pinched loop")
    area2 = sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(out, out[1:] + out[:1]))
    if area2 == 0:
        raise DpError("zero-area loop")
    if area2 > 0:
        out.reverse()
    start = min(range(len(out)), key=lambda i: out[i])
    return tuple(out[start:] + out[:start])


def ref_loop_area2(loop: Sequence[tuple[int, int]]) -> int:
    total = 0
    n = len(loop)
    for i in range(n):
        p, q = loop[i], loop[(i + 1) % n]
        total += p[0] * q[1] - q[0] * p[1]
    return abs(total)


def _ref_loop_insert(loop: list[tuple[int, int]], p: tuple[int, int]) -> list[tuple[int, int]]:
    if p in loop:
        return loop
    n = len(loop)
    for i in range(n):
        q, r = loop[i], loop[(i + 1) % n]
        if q[0] == r[0] == p[0] and min(q[1], r[1]) <= p[1] <= max(q[1], r[1]):
            return loop[: i + 1] + [p] + loop[i + 1 :]
        if q[1] == r[1] == p[1] and min(q[0], r[0]) <= p[0] <= max(q[0], r[0]):
            return loop[: i + 1] + [p] + loop[i + 1 :]
    raise DpError(f"{p} not on the boundary loop")


def ref_surgery(loop, walk):
    """Split a simple vertex loop along an interior-clean path whose
    endpoints are on the boundary; returns the two canonical part loops.
    Self-crossing walks are not rejected here."""
    a, b = walk[0], walk[-1]
    lst = _ref_loop_insert(list(loop), a)
    lst = _ref_loop_insert(lst, b)
    ia = lst.index(a)
    lst = lst[ia:] + lst[:ia]
    ib = lst.index(b)
    inner = list(walk[1:-1])
    part1 = lst[: ib + 1] + inner[::-1]
    part2 = lst[ib:] + [a] + inner
    l1, l2 = ref_canon_loop(part1), ref_canon_loop(part2)
    if ref_loop_area2(l1) + ref_loop_area2(l2) != ref_loop_area2(loop):
        raise DpError("path split lost area")
    return l1, l2


class RefCellGeometry:
    """Boundary-touch tables for walk enumeration on one cell."""

    def __init__(self, loop, xs: list[int], ys: list[int]):
        self.loop = loop
        self.xs = xs
        self.ys = ys
        n = len(loop)
        vedges = []  # (x, ylo, yhi)
        hedges = []  # (y, xlo, xhi)
        for i in range(n):
            p, q = loop[i], loop[(i + 1) % n]
            if p[0] == q[0]:
                vedges.append((p[0], min(p[1], q[1]), max(p[1], q[1])))
            else:
                hedges.append((p[1], min(p[0], q[0]), max(p[0], q[0])))
        self.vedges = vedges
        self.hedges = hedges
        self.vtouch = {x: self._touch(x, True) for x in xs}
        self.htouch = {y: self._touch(y, False) for y in ys}

    def _touch(self, c: int, vertical: bool) -> list[tuple[int, int]]:
        out = []
        if vertical:
            for x, ylo, yhi in self.vedges:
                if x == c:
                    out.append((ylo, yhi))
            for y, xlo, xhi in self.hedges:
                if xlo <= c <= xhi:
                    out.append((y, y))
        else:
            for y, xlo, xhi in self.hedges:
                if y == c:
                    out.append((xlo, xhi))
            for x, ylo, yhi in self.vedges:
                if ylo <= c <= yhi:
                    out.append((x, x))
        out.sort()
        merged: list[tuple[int, int]] = []
        for lo, hi in out:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return merged

    def on_boundary(self, p: tuple[int, int]) -> bool:
        for lo, hi in self.vtouch.get(p[0], ()):
            if lo <= p[1] <= hi:
                return True
        return False

    def corridor(
        self, p: tuple[int, int], dx: int, dy: int
    ) -> tuple[Optional[int], list[int]]:
        """First boundary-touch coordinate from p along (dx,dy), plus the
        interior grid coordinates strictly before it."""
        if dx != 0:
            touches = self.htouch[p[1]]
            coords = self.xs
            pos = p[0]
            step = dx
        else:
            touches = self.vtouch[p[0]]
            coords = self.ys
            pos = p[1]
            step = dy
        if step > 0:
            cand = [lo if lo > pos else hi for lo, hi in touches if hi > pos]
            cand = [c for c in cand if c > pos]
            if not cand:
                return None, []
            t = min(cand)
            mids = [c for c in coords if pos < c < t]
        else:
            cand = [hi if hi < pos else lo for lo, hi in touches if lo < pos]
            cand = [c for c in cand if c < pos]
            if not cand:
                return None, []
            t = max(cand)
            mids = [c for c in coords if t < c < pos]
            mids.reverse()
        end = (t, p[1]) if dx else (p[0], t)
        if ref_side_doubled(self.loop, p[0] + end[0], p[1] + end[1]) < 0:
            return None, []
        return t, mids


_WALK_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def ref_enumerate_walks(geom, budget: int):
    """Interior-clean boundary-to-boundary polylines with at most `budget`
    maximal segments, bending only on grid coordinates, each once."""
    starts = [(x, y) for x in geom.xs for y in geom.ys if geom.on_boundary((x, y))]
    seen: set = set()

    def emit(walk):
        key = frozenset((a, b) if a < b else (b, a) for a, b in zip(walk, walk[1:]))
        if key not in seen:
            seen.add(key)
            yield walk

    def extend(walk, rem, dx, dy):
        cur = walk[-1]
        for ndx, ndy in _WALK_DIRS:
            if (ndx, ndy) == (dx, dy) or (ndx, ndy) == (-dx, -dy):
                continue
            t, mids = geom.corridor(cur, ndx, ndy)
            if t is None:
                continue
            end = (t, cur[1]) if ndx else (cur[0], t)
            if end != walk[0]:
                yield from emit(walk + [end])
            if rem > 1:
                for m in mids:
                    mid = (m, cur[1]) if ndx else (cur[0], m)
                    yield from extend(walk + [mid], rem - 1, ndx, ndy)

    for a in starts:
        for dx, dy in _WALK_DIRS:
            t, mids = geom.corridor(a, dx, dy)
            if t is None:
                continue
            end = (t, a[1]) if dx else (a[0], t)
            if end != a:
                yield from emit([a, end])
            if budget > 1:
                for m in mids:
                    mid = (m, a[1]) if dx else (a[0], m)
                    yield from extend([a, mid], budget - 1, dx, dy)


def ref_dp_solve(
    inst: Instance, k: int, cut_budget: int, shapes: tuple[str, ...]
) -> tuple[int, tuple[int, ...], int, int]:
    """The DP's memoized recursion as first written, on the kernel above:
    (size, chosen, cells, cuts tried), to compare with dp_solve and its
    DpStats.  Self-crossing walks are tried like any other walk."""
    from misr.dp_solver import containment_prune

    pruned = containment_prune(inst.rects)
    rects = [(i, inst.rects[i]) for i in pruned]
    gxs = sorted({c for _i, r in rects for c in (r.xl, r.xr)} | {0, inst.side})
    gys = sorted({c for _i, r in rects for c in (r.yb, r.yt)} | {0, inst.side})
    memo: dict = {}
    cuts = 0
    root = ref_canon_loop([(0, 0), (0, inst.side), (inst.side, inst.side), (inst.side, 0)])
    use_tree = "tree" in shapes and k > 4
    use_path = "path" in shapes

    def solve(loop):
        nonlocal cuts
        hit = memo.get(loop)
        if hit is not None:
            return hit
        inside = [(i, r) for i, r in rects if ref_contains_rect(loop, r)]
        if len(inside) <= 1:
            memo[loop] = (len(inside), tuple(i for i, _r in inside))
            return memo[loop]
        xs = [x for x in gxs if min(p[0] for p in loop) <= x <= max(p[0] for p in loop)]
        ys = [y for y in gys if min(p[1] for p in loop) <= y <= max(p[1] for p in loop)]
        geom = RefCellGeometry(loop, xs, ys)
        bound = len(inside)
        best = (1, (min(i for i, _r in inside),))

        def consider(parts) -> bool:
            nonlocal best
            size, chosen = 0, []
            for part in parts:
                s, ch = solve(part)
                size += s
                chosen.extend(ch)
            cand = (size, tuple(sorted(chosen)))
            if cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                best = cand
            return best[0] >= bound

        done = False
        tree_seeds = []
        for walk in ref_enumerate_walks(geom, 1 if k == 4 else cut_budget):
            cuts += 1
            try:
                parts = ref_surgery(loop, walk)
            except DpError:
                continue
            fits = all(len(p) <= k for p in parts)
            if fits and (use_path or len(walk) == 2):
                if consider(parts):
                    done = True
                    break
            if use_tree:
                tree_seeds.append((walk, parts))
        if not done and use_tree:
            for walk, parts in tree_seeds:
                if ref_tree_cuts(k, cut_budget, gxs, gys, walk, parts, consider):
                    break
        memo[loop] = best
        return best

    def ref_tree_cuts(k, cut_budget, gxs, gys, walk, parts, consider) -> bool:
        nonlocal cuts
        branch_points = []
        for a, b in zip(walk, walk[1:]):
            if a[0] == b[0]:
                lo, hi = sorted((a[1], b[1]))
                branch_points.extend((a[0], y) for y in gys if lo < y < hi)
            else:
                lo, hi = sorted((a[0], b[0]))
                branch_points.extend((x, a[1]) for x in gxs if lo < x < hi)
        for m in set(branch_points) | set(walk[1:-1]):
            for pi, part in enumerate(parts):
                if len(part) > k + cut_budget * 2:
                    continue
                xs = sorted({p[0] for p in part} | {m[0]})
                ys = sorted({p[1] for p in part} | {m[1]})
                sub = RefCellGeometry(part, xs, ys)
                if not sub.on_boundary(m):
                    continue
                other = parts[1 - pi]
                if len(other) > k:
                    continue
                for dx, dy in _WALK_DIRS:
                    t, _mids = sub.corridor(m, dx, dy)
                    if t is None:
                        continue
                    end = (t, m[1]) if dx else (m[0], t)
                    if end == m:
                        continue
                    cuts += 1
                    try:
                        subparts = ref_surgery(part, [m, end])
                    except DpError:
                        continue
                    if any(len(p) > k for p in subparts):
                        continue
                    if consider((other,) + subparts):
                        return True
        return False

    size, chosen = solve(root)
    return size, tuple(sorted(chosen)), len(memo), cuts


# -- reference fence engine --------------------------------------------------------
#
# The fence engine and the protection checks as first written: BFS
# distances and predecessors in dicts keyed by state tuple, over the free
# unit steps of ref_moves's table.  The library's engine must agree with
# these on every verdict, every covered point and every chain walk.

_H, _VU, _VD, _START = 0, 1, 2, 3
# (dx, dy, orientation, the step's bit in ref_moves's table)
_DIRS = ((1, 0, _H, 1), (-1, 0, _H, 2), (0, 1, _VU, 4), (0, -1, _VD, 8))


def ref_moves(poly: RectPolygon, rects: Sequence[Rect]) -> bytes:
    """The fence engine's move table as first written, one grid point at
    a time: moves[ix*ny + iy] holds the bits right 1, left 2, up 4 and
    down 8 of the free unit steps from (x0+ix, y0+iy)."""
    x0, y0, x1, y1 = poly.bbox()
    nx, ny = x1 - x0 + 1, y1 - y0 + 1

    def free_steps(sections, blocked, lo0, n):
        free = bytearray(n)
        for lo, hi in sections:
            free[lo - lo0 : hi - lo0] = b"\x01" * (hi - lo)
        for lo, hi in blocked:
            lo, hi = max(lo - lo0, 0), min(hi - lo0, n)
            if lo < hi:
                free[lo:hi] = bytes(hi - lo)
        return free

    moves = bytearray(nx * ny)
    for j in range(ny):
        y = y0 + j
        blocked = [(r.xl, r.xr) for r in rects if r.yb < y < r.yt]
        free = free_steps(poly.horizontal_section(y), blocked, x0, nx)
        for i, ok in enumerate(free):
            if ok:
                moves[i * ny + j] |= 1
                moves[(i + 1) * ny + j] |= 2
    for i in range(nx):
        x = x0 + i
        blocked = [(r.yb, r.yt) for r in rects if r.xl < x < r.xr]
        free = free_steps(poly.vertical_section(x), blocked, y0, ny)
        for j, ok in enumerate(free):
            if ok:
                moves[i * ny + j] |= 4
                moves[i * ny + j + 1] |= 8
    return bytes(moves)


class NestedFenceEngine:
    """x-monotone chains of at most tau segments inside a polygon, avoiding
    rect interiors; state (grid point, orientation, horizontal direction)."""

    def __init__(self, poly: RectPolygon, rects_in: Sequence[tuple[int, Rect]], tau: int):
        self.poly = poly
        self.rects = [r for _rid, r in rects_in]
        self.tau = tau
        x0, y0, x1, y1 = poly.bbox()
        self.x0, self.y0 = x0, y0
        self.nx = x1 - x0 + 1
        self.ny = y1 - y0 + 1
        self._table: Optional[bytes] = None
        self._cache: dict = {}
        self._points: Optional[list[Point]] = None

    def _moves(self) -> bytes:
        if self._table is None:
            self._table = ref_moves(self.poly, self.rects)
        return self._table

    def _bfs(self, seeds: list[tuple[int, int, int, int, int]]) -> dict:
        """dist maps each reached state (ix, iy, o, h) to its distance, keyed
        like parent; a state missing from it is at tau + 1.  best maps each
        reached grid offset (ix, iy) to the least distance of its states."""
        moves, ny = self._moves(), self.ny
        INF = self.tau + 1
        dist: dict[tuple, int] = {}
        best: dict[tuple, int] = {}
        parent: dict[tuple, tuple] = {}
        dq: deque = deque()
        for d, ix, iy, o, h in seeds:
            if not (0 <= ix < self.nx and 0 <= iy < self.ny):
                continue
            if d <= self.tau and d < dist.get((ix, iy, o, h), INF):
                dist[(ix, iy, o, h)] = d
                best[(ix, iy)] = min(d, best.get((ix, iy), INF))
                dq.append((d, ix, iy, o, h))
        while dq:
            d, ix, iy, o, h = dq.popleft()
            if d > dist[(ix, iy, o, h)]:
                continue
            for dx, dy, no, bit in _DIRS:
                if not moves[ix * ny + iy] & bit:
                    continue
                nix, niy = ix + dx, iy + dy
                if no == _H:
                    nh = 1 if dx == 1 else 2
                    if h != 0 and h != nh:
                        continue
                else:
                    nh = h
                    if (o == _VU and no == _VD) or (o == _VD and no == _VU):
                        continue
                nd = d if no == o else d + 1
                if nd > self.tau:
                    continue
                if nd < dist.get((nix, niy, no, nh), INF):
                    dist[(nix, niy, no, nh)] = nd
                    if nd < best.get((nix, niy), INF):
                        best[(nix, niy)] = nd
                    parent[(nix, niy, no, nh)] = (ix, iy, o, h)
                    if nd == d:
                        dq.appendleft((nd, nix, niy, no, nh))
                    else:
                        dq.append((nd, nix, niy, no, nh))
        return {"dist": dist, "best": best, "parent": parent}

    def reach(self, sources: Iterable[Point]) -> dict:
        key = ("pts", tuple(sorted(set(sources))))
        if key not in self._cache:
            seeds = [(0, p.x - self.x0, p.y - self.y0, _START, 0) for p in key[1]]
            self._cache[key] = self._bfs(seeds)
        return self._cache[key]

    def reach_run(self, y: int, x1: int, x2: int, rightward: bool) -> Optional[dict]:
        if x1 > x2:
            x1, x2 = x2, x1
        key = ("run", y, x1, x2, rightward)
        if key in self._cache:
            return self._cache[key]
        moves = self._moves()
        iy = y - self.y0
        ok = 0 <= iy < self.ny and all(
            0 <= i < self.nx and moves[i * self.ny + iy] & 1
            for i in range(x1 - self.x0, x2 - self.x0)
        )
        result = None
        if ok:
            if rightward:
                seeds = [(1, x1 - self.x0, iy, _H, 2)]
            else:
                seeds = [(1, x2 - self.x0, iy, _H, 1)]
            result = self._bfs(seeds)
        self._cache[key] = result
        return result

    def edge_points(self, edge: Segment) -> list[Point]:
        y1, y2 = sorted((edge.a.y, edge.b.y))
        return [Point(edge.a.x, y) for y in range(y1, y2 + 1)]

    def best_dist(self, table: dict, p: Point) -> int:
        return table["best"].get((p.x - self.x0, p.y - self.y0), self.tau + 1)

    def covers(self, table: dict, p: Point) -> bool:
        return self.best_dist(table, p) <= self.tau

    def covers_interior(self, table: dict, p: Point) -> bool:
        ix, iy = p.x - self.x0, p.y - self.y0
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            return False
        free = self._moves()[ix * self.ny + iy]
        dist = table["dist"]
        for o in range(4):
            if o == _START:
                continue
            for h in range(3):
                d = dist.get((ix, iy, o, h), self.tau + 1)
                if d > self.tau:
                    continue
                for dx, _dy, no, bit in _DIRS:
                    if not free & bit:
                        continue
                    if no == _H:
                        nh = 1 if dx == 1 else 2
                        if h != 0 and h != nh:
                            continue
                    if (o == _VU and no == _VD) or (o == _VD and no == _VU):
                        continue
                    if (d if no == o else d + 1) <= self.tau:
                        return True
        return False

    def chain_to(self, table: dict, p: Point) -> list[Point]:
        ix, iy = p.x - self.x0, p.y - self.y0
        dist, parent = table["dist"], table["parent"]
        d = self.best_dist(table, p)
        if d > self.tau:
            raise ValueError(f"no chain reaches {p}")
        # the first of the point's states in (o, h) order at the least distance
        state = next(
            (ix, iy, o, h) for o in range(4) for h in range(3)
            if dist.get((ix, iy, o, h)) == d
        )
        if self._points is None:  # the grid's points, at ix * ny + iy
            self._points = [
                Point(self.x0 + i, self.y0 + j)
                for i in range(self.nx) for j in range(self.ny)
            ]
        walk = []
        while state is not None:
            walk.append(self._points[state[0] * self.ny + state[1]])
            state = parent.get(state)
        return walk[::-1]


def _nested_edges_reaching_run(eng: NestedFenceEngine, y: int, x1: int, x2: int) -> set[int]:
    tables = [eng.reach_run(y, x1, x2, rightward=True),
              eng.reach_run(y, x1, x2, rightward=False)]
    edges = eng.poly.edges()
    out: set[int] = set()
    for idx in eng.poly.vertical_edge_sides():
        for p in eng.edge_points(edges[idx]):
            if any(t is not None and eng.covers(t, p) for t in tables):
                out.add(idx)
                break
    return out


def anchoring_edges(eng, y: int, x1: int, x2: int) -> set[int]:
    """Vertical edges of the library engine's polygon anchoring some chain
    that contains the horizontal run [x1,x2]x{y}, x1 <= x2, read from the
    engine's per-edge protection tables."""
    if not eng._walkable(y, x1, x2):
        return set()
    return {
        idx for idx in eng.poly.vertical_edge_sides()
        if eng._anchors(idx, y, x1, x2)
    }


def nested_is_tau_protected(
    r: Rect,
    poly: RectPolygon,
    rects_in: Sequence[tuple[int, Rect]],
    tau: int,
    eng: Optional[NestedFenceEngine] = None,
) -> bool:
    """tau-protection by the reference engine; pass eng to reuse its
    tables across the rects of one polygon."""
    eng = eng or NestedFenceEngine(poly, rects_in, tau)
    top = _nested_edges_reaching_run(eng, r.yt, r.xl, r.xr)
    if not top:
        return False
    return bool(top & _nested_edges_reaching_run(eng, r.yb, r.xl, r.xr))


# -- maximal extension as first written -------------------------------------------


def ref_maximal_extension(opt: Solution, inst: Instance) -> MaximalSet:
    """maximal_extension as first written: each chosen rect, in ascending
    index order, repeats the cycle left, right, bottom, top against the
    others as grown so far until a cycle grows nothing."""

    def y_overlap(a: Rect, b: Rect) -> bool:
        return max(a.yb, b.yb) < min(a.yt, b.yt)

    def x_overlap(a: Rect, b: Rect) -> bool:
        return max(a.xl, b.xl) < min(a.xr, b.xr)

    side = inst.side
    order = sorted(opt.chosen)
    grown = [inst.rects[i] for i in order]
    for idx in range(len(grown)):
        r = grown[idx]
        others = [o for k, o in enumerate(grown) if k != idx]
        changed = True
        while changed:
            changed = False
            limit = max([0] + [o.xr for o in others if o.xr <= r.xl and y_overlap(o, r)])
            if limit < r.xl:
                r, changed = Rect(limit, r.yb, r.xr, r.yt), True
            limit = min([side] + [o.xl for o in others if o.xl >= r.xr and y_overlap(o, r)])
            if limit > r.xr:
                r, changed = Rect(r.xl, r.yb, limit, r.yt), True
            limit = max([0] + [o.yt for o in others if o.yt <= r.yb and x_overlap(o, r)])
            if limit < r.yb:
                r, changed = Rect(r.xl, limit, r.xr, r.yt), True
            limit = min([side] + [o.yb for o in others if o.yb >= r.yt and x_overlap(o, r)])
            if limit > r.yt:
                r, changed = Rect(r.xl, r.yb, r.xr, limit), True
        grown[idx] = r
    return MaximalSet(tuple(grown), tuple(order), side)


# -- corridor visibility, one reflection per query ---------------------------------


def _ref_sees_right_base(rects: Sequence[Rect], i: int, j: int, corner: str) -> bool:
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


def _ref_mirror_x(rects: Sequence[Rect]) -> list[Rect]:
    return [Rect(-r.xr, r.yb, -r.xl, r.yt) for r in rects]


def _ref_anti_transpose(rects: Sequence[Rect]) -> list[Rect]:
    return [Rect(-r.yt, -r.xr, -r.yb, -r.xl) for r in rects]


_REF_SEE = {
    ("right", "TL"): (list, "TL"),
    ("right", "BL"): (list, "BL"),
    ("left", "TR"): (_ref_mirror_x, "TL"),
    ("left", "BR"): (_ref_mirror_x, "BL"),
    ("bottom", "TR"): (_ref_anti_transpose, "BL"),
}


def ref_sees(rects: Sequence[Rect], i: int, j: int, corner: str, side: str) -> bool:
    """sees() as first written: reflect the whole rect list so that the
    corridor runs rightward, and ask the right-side base case."""
    transform, base = _REF_SEE[(side, corner)]
    return _ref_sees_right_base(transform(rects), i, j, base)


def ref_seen_corners_on_side(rects: Sequence[Rect], i: int, side: str, candidates) -> list:
    corners = ("TL", "BL") if side == "right" else ("TR", "BR")
    out = [
        (rects[j].corner(c), j, c)
        for j in candidates if j != i
        for c in corners if ref_sees(rects, i, j, c, side)
    ]
    out.sort(key=lambda t: (-t[0].y, t[0].x, t[1]))
    return out


# -- test-only helpers -------------------------------------------------------------


def classify_vertical_edges(p: RectPolygon) -> dict[Segment, str]:
    """Per-edge left/right classification keyed by canonical segment."""
    sides = p.vertical_edge_sides()
    es = p.edges()
    return {es[i].canonical(): side for i, side in sides.items()}


def is_vertically_convex(p: RectPolygon) -> bool:
    return is_horizontally_convex(RectPolygon([Point(q.y, q.x) for q in p.vertices]))


def split_polygon(p: RectPolygon, c: Cut) -> list[RectPolygon]:
    """The parts of p cut along c, as ``split_components`` gives them.

    Raises CutError when the cut does not separate (single part).
    """
    parts = split_components(p, c)
    if len(parts) < 2:
        raise CutError("cut does not separate the polygon")
    return parts


def all_chords(poly: RectPolygon) -> list[Chord]:
    """Every vertical segment between two boundary touch points on the same
    section, at integral x (the exhaustive oracle for the k/3 bound)."""
    x0, _, x1, _ = poly.bbox()
    out = []
    for x in range(x0, x1 + 1):
        touches = poly.vertical_touches(x)
        for lo, hi in poly.vertical_section(x):
            ys = sorted(
                {y for t1, t2 in touches for y in (t1, t2) if lo <= y <= hi}
            )
            for a in range(len(ys)):
                for b in range(a + 1, len(ys)):
                    out.append(_make_chord(poly, x, ys[a], ys[b]))
    return out


def check_niceness_observation(m: MaximalSet) -> None:
    """The rightward ray from each top-right corner either reveals a first
    blocking rect satisfying the seeing / coordinate alternative, or the
    rect's right edge lies on the boundary of S."""
    for i, r in enumerate(m.rects):
        y = r.yt
        best = None
        for j, o in enumerate(m.rects):
            if j == i:
                continue
            hit = (o.yb < y < o.yt and o.xr > r.xr) or (o.yt == y and o.xl >= r.xr)
            if not hit:
                continue
            key = max(o.xl, r.xr)
            if best is None or (key, j) < best:
                best = (key, j)
        if best is None:
            if r.xr != m.side:
                raise StructureError(
                    f"rect {i}: clear rightward ray but right edge not on S"
                )
            continue
        j = best[1]
        o = m.rects[j]
        ok = sees(m.rects, i, j, "BL", "right") or (
            r.yt <= o.yt and o.yb < r.yb and r.xr == o.xl
        )
        if not ok:
            raise StructureError(f"rect {i}: niceness observation fails at rect {j}")


def intersection_matrix(rects: tuple[Rect, ...]) -> list[list[bool]]:
    n = len(rects)
    return [
        [i != j and rects_intersect(rects[i], rects[j]) for j in range(n)]
        for i in range(n)
    ]


# -- per-call polygon predicates (reference for the edge tables) -------------------
#
# Edge sides, the edges holding a point and simplicity as first written:
# every call walks the vertex loop, building segments and sorting
# endpoints.  test_polygon_kernel.py requires RectPolygon's tables to
# agree with them exactly.


def _loop_edges(poly: RectPolygon) -> list[Segment]:
    vs = poly.vertices
    return [Segment(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def segment_contains_point(s: Segment, p: Point) -> bool:
    """The closed axis-parallel segment s holds the point p."""
    lo, hi = sorted((s.a, s.b))
    if s.a.x == s.b.x:
        return p.x == s.a.x and lo.y <= p.y <= hi.y
    return p.y == s.a.y and lo.x <= p.x <= hi.x


def horizontal_edge_sides(poly: RectPolygon) -> dict[int, str]:
    """Map edge index -> 'bottom' | 'top', read off the loop as the library
    reads vertical_edge_sides: a bottom edge has the polygon above it, a
    top edge below it; on the clockwise loop of a simple polygon, an edge
    running left is bottom."""
    vs = poly.vertices
    return {
        i: "bottom" if p.x > q.x else "top"
        for i, (p, q) in enumerate(zip(vs, vs[1:] + vs[:1]))
        if p.y == q.y
    }


def ref_edge_sides(poly: RectPolygon) -> tuple[dict[int, str], dict[int, str]]:
    """vertical_edge_sides and horizontal_edge_sides by a half-unit probe
    beside each edge's midpoint: a left edge has the inside on its right,
    a bottom edge has it above."""
    vsides, hsides = {}, {}
    vs = poly.vertices
    for i in range(len(vs)):
        p, q = vs[i], vs[(i + 1) % len(vs)]
        if p.x == q.x:
            inside = ref_side_doubled(vs, 2 * p.x + 1, p.y + q.y) >= 0
            vsides[i] = "left" if inside else "right"
        else:
            inside = ref_side_doubled(vs, p.x + q.x, 2 * p.y + 1) >= 0
            hsides[i] = "bottom" if inside else "top"
    return vsides, hsides


def _segments_touch(s: Segment, t: Segment, allow_shared_endpoint: bool) -> bool:
    """True if two boundary edges touch in a way that violates simplicity."""
    sl, sh = sorted((s.a, s.b))
    tl, th = sorted((t.a, t.b))
    sv, tv = s.a.x == s.b.x, t.a.x == t.b.x
    if sv == tv:
        if sv:
            if sl.x != tl.x:
                return False
            lo, hi = max(sl.y, tl.y), min(sh.y, th.y)
        else:
            if sl.y != tl.y:
                return False
            lo, hi = max(sl.x, tl.x), min(sh.x, th.x)
        if lo > hi:
            return False
        if lo == hi and allow_shared_endpoint:
            return False
        return True
    if tv:
        s, t = t, s
        sl, sh = sorted((s.a, s.b))
        tl, th = sorted((t.a, t.b))
    # s vertical, t horizontal
    if not (tl.x <= sl.x <= th.x and sl.y <= tl.y <= sh.y):
        return False
    crossing = Point(sl.x, tl.y)
    if allow_shared_endpoint and crossing in (s.a, s.b) and crossing in (t.a, t.b):
        return False
    return True


def ref_is_simple(poly: RectPolygon) -> bool:
    vs = poly.vertices
    if len(set(vs)) != len(vs):
        return False
    segs = _loop_edges(poly)
    n = len(segs)
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            if _segments_touch(segs[i], segs[j], allow_shared_endpoint=adjacent):
                return False
    return True


# -- a cut's pieces (reference for inside_pieces) ------------------------------------


def ref_cut_pieces(poly: RectPolygon, segments: Sequence[Segment]) -> list[list[Segment]]:
    """The cut's pieces as first written, read off the vertex loop: each
    segment cut at its ends, at the other segments' ends on it and at
    every point where a polygon edge perpendicular to it meets it (the
    polygon's vertices on it among them); per segment, its pieces in
    order of increasing coordinate, leaving out those on the boundary
    (but not those outside)."""
    vs = poly.vertices
    ends = {p for s in segments for p in (s.a, s.b)}
    out = []
    for s in segments:
        k = 1 if s.a.x == s.b.x else 0  # s runs along coordinate k ...
        c = s.a[1 - k]  # ... on the line where coordinate 1 - k is c
        a, b = sorted((s.a[k], s.b[k]))
        ts = {a, b} | {p[k] for p in ends if p[1 - k] == c and a < p[k] < b}
        ts.update(
            p[k] for p, q in zip(vs, vs[1:] + vs[:1])
            if p[k] == q[k] and a <= p[k] <= b
            and min(p[1 - k], q[1 - k]) <= c <= max(p[1 - k], q[1 - k])
        )
        pts = [Point(c, t) if k else Point(t, c) for t in sorted(ts)]
        out.append([
            Segment(p, q) for p, q in zip(pts, pts[1:])
            if ref_side_doubled(vs, p.x + q.x, p.y + q.y) != 0
        ])
    return out


# -- refined-grid polygon split (reference for split_components) -------------------
#
# The first-written split: a flood fill over the grid refined by the
# polygon's and the cut's coordinates, then a trace of each component's
# boundary (trace_cells).  test_polygon_kernel.py requires split_components
# to agree with it on every split the constructions make and on random
# cuts.


def ref_split_components(p: RectPolygon, c: Cut) -> list[RectPolygon]:
    """The components of p minus the cut, in flood-fill order; pinched
    components come back with is_simple == False."""
    segs = [s for s in c.segments if not s.degenerate]
    return _Splitter(p, segs).components()


class _Splitter:
    """Refined-grid flood fill computing the connected components of a
    polygon minus a set of cut segments."""

    def __init__(self, poly: RectPolygon, segments: Sequence[Segment]):
        self.poly = poly
        self.segments = [s.canonical() for s in segments]
        for s in self.segments:
            if not ref_contains_walk(poly, (s.a, s.b)):
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
        vs = poly.vertices
        for p, q in zip(vs, vs[1:] + vs[:1]):
            if p.x == q.x:
                walls.setdefault((True, p.x), []).append(tuple(sorted((p.y, q.y))))
            else:
                walls.setdefault((False, p.y), []).append(tuple(sorted((p.x, q.x))))
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
        return ref_side_doubled(
            self.poly.vertices, self.xs[i] + self.xs[i + 1], self.ys[j] + self.ys[j + 1]
        ) > 0

    def _blocked(self, vertical: bool, c: int, lo: int, hi: int) -> bool:
        """Is the unit grid wall (a full cell side) covered by a cut segment
        or by the polygon boundary?"""
        for a, b in self._walls.get((vertical, c), ()):
            if a <= lo and hi <= b:
                return True
        return False

    def components(self) -> list[RectPolygon]:
        """The components' polygons, each flood-filled from its least cell."""
        xs, ys = self.xs, self.ys
        inside = {
            (i, j) for i in range(len(xs) - 1) for j in range(len(ys) - 1)
            if self._inside_cell(i, j)
        }
        seen: set[tuple[int, int]] = set()
        out = []
        for start in sorted(inside):
            if start in seen:
                continue
            seen.add(start)
            stack, cells = [start], []
            while stack:
                i, j = stack.pop()
                cells.append((i, j))
                for cell, side in (
                    ((i + 1, j), (True, xs[i + 1], ys[j], ys[j + 1])),
                    ((i - 1, j), (True, xs[i], ys[j], ys[j + 1])),
                    ((i, j + 1), (False, ys[j + 1], xs[i], xs[i + 1])),
                    ((i, j - 1), (False, ys[j], xs[i], xs[i + 1])),
                ):
                    if cell in inside and cell not in seen and not self._blocked(*side):
                        seen.add(cell)
                        stack.append(cell)
            out.append(trace_cells(cells, xs, ys, self._blocked))
        return out


# -- line fences ----------------------------------------------------------------


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


def protecting_fences(record: LineFences, r: Rect) -> list[Fence]:
    """The line fences holding r's top or bottom edge, built from the
    record's anchors of r: each runs from its anchor to the edge's far
    corner.  Order: top before bottom, left anchors before right, each
    side's anchors ascending, the order the line cut reads them in."""
    a = record.anchors(r)
    out = []
    for y, lefts, rights in (
        (r.yt, a.top_lefts, a.top_rights),
        (r.yb, a.bottom_lefts, a.bottom_rights),
    ):
        for xa in lefts:
            p = Point(xa, y)
            out.append(Fence(p, (Segment(p, Point(r.xr, y)),), "from_left_edge"))
        for xa in rights:
            p = Point(xa, y)
            out.append(Fence(p, (Segment(p, Point(r.xl, y)),), "from_right_edge"))
    return out


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


def ref_line_fences_from_point(
    poly: RectPolygon, rects_in: Sequence[tuple[int, Rect]], p: Point, side: str
) -> list[Fence]:
    """Line fences from one anchor; a right anchor mirrors the polygon and
    its rects anew on every call."""
    if side == "left":
        lo, hi = poly.horizontal_reach(p)
        out = []
        for x, kind, _rid in _fence_features_rightward(rects_in, p.y, p.x, hi):
            if x < p.x:
                continue
            out.append(Fence(p, (Segment(p, Point(x, p.y)),), "from_left_edge"))
            if kind == "block":
                break
        return out
    mirrored = [(rid, Rect(-r.xr, r.yb, -r.xl, r.yt)) for rid, r in rects_in]
    mpoly = RectPolygon([Point(-q.x, q.y) for q in poly.vertices])
    out = []
    for f in ref_line_fences_from_point(mpoly, mirrored, Point(-p.x, p.y), "left"):
        end = f.endpoint
        out.append(Fence(p, (Segment(p, Point(-end.x, end.y)),), "from_right_edge"))
    return out


def ref_enumerate_line_fences(
    poly: RectPolygon, rects_in: Sequence[tuple[int, Rect]]
) -> list[Fence]:
    fences: list[Fence] = []
    sides = poly.vertical_edge_sides()
    edges = _loop_edges(poly)
    for idx in sorted(sides):
        e = edges[idx]
        y1, y2 = sorted((e.a.y, e.b.y))
        for y in range(y1, y2 + 1):
            fences.extend(
                ref_line_fences_from_point(poly, rects_in, Point(e.a.x, y), sides[idx])
            )
    return fences


def ref_furthest(fences: Sequence[Fence]) -> dict[Point, int]:
    """The x of each anchor's furthest fence: its fences come nearest
    first, so the last one wins."""
    return {f.anchor: f.endpoint.x for f in fences}


def ref_crossing_anchor(fences: Sequence[Fence], y: int, x: int) -> Optional[int]:
    """The least anchor x of a fence on row y strictly crossing the
    vertical line at x, as the line cut's ray first read it."""
    xs = [
        f.anchor.x for f in fences
        if f.anchor.y == y
        and min(f.anchor.x, f.endpoint.x) < x < max(f.anchor.x, f.endpoint.x)
    ]
    return min(xs, default=None)


def ref_line_anchor(
    fences: LineFences, em: Sequence[Segment]
) -> Optional[tuple[Point, Point]]:
    """The line cut's (p', anchor) as first read, row by row: the furthest
    fence from every integral point of every middle-third left edge, the
    candidates sorted by (-end x, y, x)."""
    candidates = []
    for e in em:
        y1, y2 = sorted((e.a.y, e.b.y))
        for y in range(y1, y2 + 1):
            p = Point(e.a.x, y)
            end = fences.furthest(p, left=True)
            if end is not None:
                candidates.append((Point(end, y), p))
    if not candidates:
        return None
    candidates.sort(key=lambda t: (-t[0].x, t[1].y, t[1].x))
    return candidates[0]


def ref_ray_crossing(
    fences: LineFences, x: int, y0: int, y1: int
) -> Optional[tuple[int, int]]:
    """The line cut's ray fence stop as first read, row by row from y0 to
    y1: the first row with an anchor whose fence strictly crosses x, and
    that anchor."""
    step = 1 if y0 <= y1 else -1
    for y in range(y0, y1 + step, step):
        xa = fences.crossing_anchor(y, x)
        if xa is not None:
            return y, xa
    return None


def ref_protecting_fences(
    poly: RectPolygon, rects_in: Sequence[tuple[int, Rect]], r: Rect
) -> list[Fence]:
    """protecting_fences as first written: per rect, each facing vertical
    edge tested with a segment containment and a scan of every rect."""
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
                if not ref_contains_walk(poly, (seg.a, seg.b)):
                    continue
                if any(o.yb < y < o.yt and x1 < o.xr and x2 > o.xl for _rid, o in rects_in):
                    continue
                found.append(Fence(p, (seg,), f"from_{side_name}_edge"))
            found.sort(key=lambda f: (f.anchor.y, f.anchor.x))
            out.extend(found)
    return out


def ref_one_edge_anchors_both(
    r: Rect, poly: RectPolygon, rects_in: Sequence[tuple[int, Rect]]
) -> bool:
    """one_edge_anchors_both as first written: some vertical polygon edge
    holding both of r's edge rows anchors a protecting fence on each."""
    anchors = {(f.anchor, f.side) for f in ref_protecting_fences(poly, rects_in, r)}
    edges = poly.edges()
    for idx, side in poly.vertical_edge_sides().items():
        e = edges[idx]
        lo, hi = sorted((e.a.y, e.b.y))
        kind = f"from_{side}_edge"
        if lo <= r.yb and r.yt <= hi and all(
            (Point(e.a.x, y), kind) in anchors for y in (r.yt, r.yb)
        ):
            return True
    return False


# -- the first-written certification checks ----------------------------------------
#
# Walk containment, the protection record's witness re-check, the
# maximality check and two clauses of validate_partition as first
# written: each segment cut into pieces and each piece tested by parity,
# a Rect built for each unit of growth, a Segment for each polygon edge
# and a RectPolygon for the square.  test_certification_checks.py
# requires the library's table reads to agree with them exactly.


def _ref_run_contains(
    loop: Sequence[tuple[int, int]], c: int, a: int, b: int, horizontal: bool
) -> bool:
    """Closed containment of the run from a to b (a <= b) along the line
    y = c (horizontal) or x = c, all doubled: the edges across the line
    that touch it strictly inside the run cut it into pieces, and each
    piece lies inside as a whole exactly when its midpoint does."""
    k = 0 if horizontal else 1  # the run's coordinate
    cuts = []
    p = loop[-1]
    for q in loop:
        if p[k] == q[k] and a < 2 * p[k] < b:
            lo, hi = (p[1 - k], q[1 - k]) if p[1 - k] < q[1 - k] else (q[1 - k], p[1 - k])
            if 2 * lo <= c <= 2 * hi:
                cuts.append(2 * p[k])
        p = q
    ends = [a, *sorted(cuts), b]
    for u, v in zip(ends, ends[1:]):
        m = (u + v) >> 1
        if ref_side_doubled(loop, *((m, c) if horizontal else (c, m))) < 0:
            return False
    return True


def ref_contains_walk(poly: RectPolygon, walk: Sequence[Point]) -> bool:
    """Closed containment of every segment of a walk, run by run."""
    for p, q in zip(walk, walk[1:]):
        horizontal = p.y == q.y
        c, a, b = (p.y, p.x, q.x) if horizontal else (p.x, p.y, q.y)
        lo, hi = (a, b) if a <= b else (b, a)
        if not _ref_run_contains(poly.vertices, 2 * c, 2 * lo, 2 * hi, horizontal):
            return False
    return True


def ref_holds(poly: RectPolygon, walks, left: Optional[bool], inside: bool) -> bool:
    """A witness's re-check: its walks start on one vertical edge of the
    polygon, of its side (left None takes either), and lie in the closed
    polygon, which ``inside`` says: ref_contains_walk's verdict on every
    walk, read by the caller once for a witness and its other side."""
    starts = [walk[0] for walk in walks]
    x = starts[0].x
    lo, hi = min(p.y for p in starts), max(p.y for p in starts)
    vs = poly.vertices
    verticals = [
        (p.x, min(p.y, q.y), max(p.y, q.y), p.y < q.y)
        for p, q in zip(vs, vs[1:] + vs[:1])
        if p.x == q.x
    ]
    return (
        all(p.x == x for p in starts)
        and any(
            ex == x and elo <= lo and hi <= ehi and left in (None, side)
            for ex, elo, ehi, side in verticals
        )
        and inside
    )


def ref_assert_maximal(m: MaximalSet) -> None:
    """A unit of growth in any direction must hit another rect of the set
    or leave the bounding square: the grown rect built and tested."""
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


def ref_root_is_square(run) -> bool:
    """validate_partition's root_is_square: the root is the square."""
    return run.nodes[0].polygon == RectPolygon.from_rect(Rect(0, 0, run.side, run.side))


def ref_horizontal_edges_miss_rects(run) -> tuple[bool, str]:
    """validate_partition's horizontal_edges_miss_rects, (ok, detail): no
    horizontal edge of a node meets the interior of a work rect."""
    crossing: dict[int, list[tuple[int, Rect]]] = {}
    for node in run.nodes:
        for e in node.polygon.edges():
            if not e.horizontal:
                continue
            y = e.a.y
            if y not in crossing:
                crossing[y] = [(i, r) for i, r in enumerate(run.work_rects) if r.yb < y < r.yt]
            for i, r in crossing[y]:
                if segment_intersects_rect(e, r):
                    return False, f"node {node.id} horizontal edge hits rect {i}"
    return True, ""
