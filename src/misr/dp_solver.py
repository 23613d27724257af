"""Geometric dynamic program over polygon cells with memoization.

The cell language is P(k): simple rectilinear polygons with at most k
edges on the instance grid.  Subdivisions are enumerated as interior-
clean boundary-to-boundary cut paths with a bounded segment count, plus
tree cuts (a path with one branch, i.e. two paths sharing a prefix) when
enabled; parts must stay inside P(k).

Parts are produced by boundary surgery (splicing the path into the
vertex loop), which keeps a candidate evaluation at O(k); cells are
memoized by canonical vertex tuple.  A cell stops enumerating as soon as
its candidate value reaches the number of rects it contains.

For k = 4 every cell is a rectangle and any subdivision of a rectangle
into at most three rectangles is realizable by straight chords applied
recursively, so single-segment cuts are complete and the enumerator
stops there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .geom_core import Point, Rect, RectPolygon
from .instance import Instance, Solution, validate_solution


class DpError(RuntimeError):
    pass


class DpCellCapError(DpError):
    """The memo table exceeded the configured cell cap."""


@dataclass
class DpConfig:
    k: int = 4
    cut_budget: int = 1
    shapes: tuple[str, ...] = ("path", "tree")
    cell_cap: int = 2_000_000

    def __post_init__(self) -> None:
        if self.k < 4 or self.k % 2 != 0:
            raise DpError("k must be an even integer >= 4")
        if self.cut_budget < 1:
            raise DpError("cut budget must be >= 1")
        for s in self.shapes:
            if s not in ("path", "tree"):
                raise DpError(f"unknown cut shape {s!r}")


@dataclass
class DpStats:
    cells: int = 0
    cuts_tried: int = 0


def containment_prune(rects: Sequence[Rect]) -> list[int]:
    """Indices surviving containment pruning: whenever one rect contains
    another, the container is dropped (the contained one can replace it in
    any solution); duplicates keep the smallest index."""
    keep = []
    for i, r in enumerate(rects):
        dominated = False
        for j, o in enumerate(rects):
            if i == j:
                continue
            inside = o.xl >= r.xl and o.xr <= r.xr and o.yb >= r.yb and o.yt <= r.yt
            if inside and (o != r or j < i):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


# -- integer vertex-loop helpers ------------------------------------------------

Loop = tuple[tuple[int, int], ...]


def canon_loop(pts: Sequence[tuple[int, int]]) -> Loop:
    """Canonical form of a rectilinear vertex loop: duplicates and
    collinear runs merged, clockwise, rotated to the smallest vertex."""
    out = list(pts)
    changed = True
    while changed:
        changed = False
        n = len(out)
        if n < 3:
            break
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
    if len(set(out)) != len(out):
        raise DpError("pinched loop")  # cells must stay simple polygons
    area2 = 0
    n = len(out)
    for i in range(n):
        p, q = out[i], out[(i + 1) % n]
        area2 += p[0] * q[1] - q[0] * p[1]
    if area2 == 0:
        raise DpError("zero-area loop")
    if area2 > 0:
        out.reverse()
    start = min(range(len(out)), key=lambda i: out[i])
    return tuple(out[start:] + out[:start])


def loop_area2(loop: Loop) -> int:
    total = 0
    n = len(loop)
    for i in range(n):
        p, q = loop[i], loop[(i + 1) % n]
        total += p[0] * q[1] - q[0] * p[1]
    return abs(total)


def _loop_insert(loop: list[tuple[int, int]], p: tuple[int, int]) -> list[tuple[int, int]]:
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


def surgery(loop: Loop, walk: Sequence[tuple[int, int]]) -> tuple[Loop, Loop]:
    """Split a simple vertex loop along an interior-clean path whose
    endpoints are on the boundary; returns the two canonical part loops."""
    a, b = walk[0], walk[-1]
    lst = _loop_insert(list(loop), a)
    lst = _loop_insert(lst, b)
    ia = lst.index(a)
    lst = lst[ia:] + lst[:ia]
    ib = lst.index(b)
    inner = list(walk[1:-1])
    part1 = lst[: ib + 1] + inner[::-1]
    part2 = lst[ib:] + [a] + inner
    l1, l2 = canon_loop(part1), canon_loop(part2)
    if loop_area2(l1) + loop_area2(l2) != loop_area2(loop):
        raise DpError("path split lost area")
    return l1, l2


# -- per-cell geometry ------------------------------------------------------------


class _CellGeometry:
    """Boundary-touch tables for walk enumeration on one cell."""

    def __init__(self, loop: Loop, xs: list[int], ys: list[int]):
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

    def contains_mid(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        """Is the midpoint of ab inside the closed polygon (doubled)?"""
        X, Y = a[0] + b[0], a[1] + b[1]
        # on-boundary first
        for x, ylo, yhi in self.vedges:
            if X == 2 * x and 2 * ylo <= Y <= 2 * yhi:
                return True
        for y, xlo, xhi in self.hedges:
            if Y == 2 * y and 2 * xlo <= X <= 2 * xhi:
                return True
        parity = 0
        for x, ylo, yhi in self.vedges:
            if 2 * ylo <= Y < 2 * yhi and 2 * x > X:
                parity ^= 1
        return parity == 1

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
        if not self.contains_mid(p, end):
            return None, []
        return t, mids


_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _enumerate_walks(geom: _CellGeometry, budget: int) -> Iterator[list[tuple[int, int]]]:
    """Interior-clean boundary-to-boundary polylines with at most `budget`
    maximal segments, bending only on grid coordinates."""
    starts = [
        (x, y) for x in geom.xs for y in geom.ys if geom.on_boundary((x, y))
    ]
    seen: set = set()

    def emit(walk: list[tuple[int, int]]) -> Iterator[list[tuple[int, int]]]:
        key = frozenset(
            (a, b) if a < b else (b, a) for a, b in zip(walk, walk[1:])
        )
        if key not in seen:
            seen.add(key)
            yield walk

    def extend(walk, rem, dx, dy):
        cur = walk[-1]
        for ndx, ndy in _DIRS:
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
        for dx, dy in _DIRS:
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


def dp_solve(
    inst: Instance,
    k: int = 4,
    cut_budget: int = 1,
    shapes: tuple[str, ...] = ("path", "tree"),
    cell_cap: int = 2_000_000,
    stats: Optional[DpStats] = None,
) -> Solution:
    """Top-down memoized recursion over polygon cells: terminal cells hold
    at most one rect; otherwise the best candidate over all enumerated
    subdivisions, ties broken toward the lexicographically smallest chosen
    index set."""
    cfg = DpConfig(k, cut_budget, tuple(shapes), cell_cap)
    pruned = containment_prune(inst.rects)
    rects = [(i, inst.rects[i]) for i in pruned]
    gxs = sorted({c for _i, r in rects for c in (r.xl, r.xr)} | {0, inst.side})
    gys = sorted({c for _i, r in rects for c in (r.yb, r.yt)} | {0, inst.side})
    memo: dict[Loop, tuple[int, tuple[int, ...]]] = {}
    root = canon_loop(
        [(0, 0), (0, inst.side), (inst.side, inst.side), (inst.side, 0)]
    )
    use_tree = "tree" in cfg.shapes and cfg.k > 4
    use_path = "path" in cfg.shapes

    def rect_inside(loop_poly: RectPolygon, r: Rect) -> bool:
        return loop_poly.contains_rect(r)

    def solve(loop: Loop) -> tuple[int, tuple[int, ...]]:
        hit = memo.get(loop)
        if hit is not None:
            return hit
        if len(memo) >= cfg.cell_cap:
            raise DpCellCapError(f"memo exceeded {cfg.cell_cap} cells")
        poly = RectPolygon([Point(x, y) for x, y in loop])
        inside = [(i, r) for i, r in rects if rect_inside(poly, r)]
        if len(inside) <= 1:
            result = (len(inside), tuple(i for i, _r in inside))
            memo[loop] = result
            return result
        xs0 = min(p[0] for p in loop)
        xs1 = max(p[0] for p in loop)
        ys0 = min(p[1] for p in loop)
        ys1 = max(p[1] for p in loop)
        xs = [x for x in gxs if xs0 <= x <= xs1]
        ys = [y for y in gys if ys0 <= y <= ys1]
        geom = _CellGeometry(loop, xs, ys)
        budget = 1 if cfg.k == 4 else cfg.cut_budget
        bound = len(inside)
        best: tuple[int, tuple[int, ...]] = (1, (min(i for i, _r in inside),))

        def consider(parts: Sequence[Loop]) -> bool:
            """Returns True when the cell's upper bound is reached."""
            nonlocal best
            size = 0
            chosen: list[int] = []
            for part in parts:
                s, ch = solve(part)
                size += s
                chosen.extend(ch)
            cand = (size, tuple(sorted(chosen)))
            if cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                best = cand
            return best[0] >= bound

        done = False
        tree_seeds: list[tuple[list[tuple[int, int]], tuple[Loop, Loop]]] = []
        for walk in _enumerate_walks(geom, budget):
            if stats is not None:
                stats.cuts_tried += 1
            try:
                parts = surgery(loop, walk)
            except DpError:
                continue
            fits = all(len(p) <= cfg.k for p in parts)
            if fits and (use_path or len(walk) == 2):
                if consider(parts):
                    done = True
                    break
            if use_tree:
                tree_seeds.append((walk, parts))
        if not done and use_tree:
            for walk, parts in tree_seeds:
                if _tree_cuts(cfg, geom, gxs, gys, walk, parts, consider, stats):
                    break
        memo[loop] = best
        return best

    size, chosen = solve(root)
    if stats is not None:
        stats.cells = len(memo)
    sol = Solution(tuple(sorted(chosen)))
    validate_solution(inst, sol)
    if sol.size != size:
        raise DpError("memo size/choice mismatch")
    return sol


def _tree_cuts(cfg, geom, gxs, gys, walk, parts, consider, stats) -> bool:
    """Branch the path at a grid point of its interior into one of the two
    parts, giving three-part subdivisions (two paths sharing a prefix)."""
    branch_points: list[tuple[int, int]] = []
    for a, b in zip(walk, walk[1:]):
        if a[0] == b[0]:
            lo, hi = sorted((a[1], b[1]))
            branch_points.extend((a[0], y) for y in gys if lo < y < hi)
        else:
            lo, hi = sorted((a[0], b[0]))
            branch_points.extend((x, a[1]) for x in gxs if lo < x < hi)
    for m in set(branch_points) | set(walk[1:-1]):
        for pi, part in enumerate(parts):
            if len(part) > cfg.k + cfg.cut_budget * 2:
                continue
            xs = sorted({p[0] for p in part} | {m[0]})
            ys = sorted({p[1] for p in part} | {m[1]})
            sub = _CellGeometry(part, xs, ys)
            if not sub.on_boundary(m):
                continue
            other = parts[1 - pi]
            if len(other) > cfg.k:
                continue
            for dx, dy in _DIRS:
                t, _mids = sub.corridor(m, dx, dy)
                if t is None:
                    continue
                end = (t, m[1]) if dx else (m[0], t)
                if end == m:
                    continue
                if stats is not None:
                    stats.cuts_tried += 1
                try:
                    subparts = surgery(part, [m, end])
                except DpError:
                    continue
                if any(len(p) > cfg.k for p in subparts):
                    continue
                if consider((other,) + subparts):
                    return True
    return False
