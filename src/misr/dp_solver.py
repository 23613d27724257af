"""Geometric dynamic program over polygon cells with memoization.

The cell language is P(k): simple rectilinear polygons with at most k
edges on the instance grid.  Subdivisions are enumerated as interior-
clean boundary-to-boundary cut paths with a bounded segment count, plus
tree cuts (a path with one branch, i.e. two paths sharing a prefix) when
enabled; parts must stay inside P(k).

A corridor never runs along the cell boundary: every segment of a walk
leaves its start into the interior.  A walk whose first segment ran
along the boundary would be degenerate or cut the same two parts as the
walk starting at its first bend, which has one segment fewer.  So the
reverse of every walk is a walk too, and each walk is emitted once, from
its smaller end.

Parts are produced by boundary surgery (splicing the path into the
vertex loop); cells are memoized by canonical vertex tuple.  A cut reads
each part from the memo and enters ``solve`` only for a part not in it,
so ``solve`` runs once per cell; the cell cap counts the cells stored.
The sorted union of the parts' chosen sets, which the tie rule compares,
is built only for a cut whose size ties or beats the best.  Walks that
cross themselves (possible from four segments on) are rejected, so every
part is again a simple polygon.

A cell stops enumerating as soon as its best value equals its target:
the lexicographically smallest maximum independent set of the rects
inside it.  The run builds each pruned rect's neighbour mask once
(``instance.neighbour_masks``); a cell ORs its rects' bits and
neighbour masks as it finds them.  A cell none of whose rects meets
another has all of them as its target, with no search; any other cell
takes its target from ``instance.max_independent_mask``, the search
``exact_mis`` runs too, kept for the run by inside mask.  Bits follow
the rects' index order, so the search's lexicographic order is the tie
rule's.  The exit is safe: every candidate a cell compares, its first
rect alone or the union of its parts' values, is an independent set of
its inside rects, since the parts are interior-disjoint and each part's
set lies inside that part.  Under the DP's order (larger size first,
then the lexicographically smaller sorted tuple) no candidate beats the
target, so once the best reaches it, enumerating every cut would end
with the same value.  Every stored cell keeps the value it would have
without the exit, and without the k = 4 bounding-box rule below, so a
memo hit returns that value too.  Where the inside rects are
pairwise disjoint, the target is all of them, and the cell stops when
its best reaches its rect count.

The loop geometry is geom_core's integer loop kernel, shared with
RectPolygon and the partitions' ``split_components``.  ``canon_loop`` is
its ``merge_loop`` and ``orient_loop`` plus the rejection of pinched
loops, and returns the canonical loop with its doubled area.  A cut is
spliced locally on the canonical cell loop: ``splice_plan`` locates each
walk end, as a vertex or the inside of an edge, and counts the vertices
each part keeps.  It reads both ends from the cell's one position table
(``loop_positions``: every grid point on the loop with the answer of
the kernel's ``_loop_locate``, unique as a canonical loop repeats no
vertex), built once per cell rather than scanned for per walk.
``surgery`` builds both parts from slices of the loop with
``splice_loop``, the one polygon split, which merges them only at the
two splice points (the walk's inner points are corners and the rest of
the loop is canonical already), and then takes each part's
orientation and doubled area from one signed-area pass and rotates it
to its smallest vertex.  Every surgery checks that the parts' areas add
up to the cell's.  The counted sizes decide whether a cut can be used
before any part is built: both parts within k for a path cut, or one
within k and the other within k + 2 * cut_budget for a tree cut's seed;
a walk with no such use is counted as tried and skipped.

A cell looks for rects only among its parent's.  A cell that is no
rectangle tests them on its ``edge_tables``, and its walk corridors on
the boundary-touch tables that ``touch_tables`` builds in one sweep over
the same tables.  A corridor from a boundary point may leave the cell,
which a parity test of its midpoint decides; a walk's bend points lie
strictly inside the cell, so a corridor from one needs no test.

For k = 4 every cell is a rectangle and any subdivision of a rectangle
into at most three rectangles is realizable by straight chords applied
recursively, so single-segment cuts are complete and the walk budget is
one segment.  A rectangle cell is read off its corners: its rects are
those whose doubled corners lie in its doubled box, and at a walk budget
of one its cuts are its chords (``_chords``), each part spelled from the
cell's corners and its doubled area from their differences.  The chords
are all the walks there are: a one-segment walk leaves the boundary into
the interior and ends at the boundary, and in a rectangle that is a
segment on a grid line strictly inside, from one side to the opposite
one.  ``_chords`` yields them in the order ``_enumerate_walks`` does and
each part as ``surgery`` would, so the memo, the early exit and the tie
rule see the same cuts.  Every other cell, and a rectangle cell at a
walk budget of two or more, goes through ``_CellGeometry``,
``_enumerate_walks``, ``splice_plan`` and ``surgery``.

At k = 4 a cell's value depends only on the rects inside it, so a cell
holding two or more rects whose corners are not their bounding box B
stores B's value, read from the memo or solved first with the cell's
inside rects as candidates, and tries no chord.  Both cells are stored,
and the cell cap counts both.  Why that is exact: let S be the rects
inside a rectangle cell R, and B their bounding box, whose corners are
grid points.  A chord of R on a grid line outside B's open range leaves
all of S on one side; its candidate is the value of a smaller rectangle
that holds S, plus an empty part.  A chord inside B's open range is
also a chord of B, and the parts on each side hold the same rects in R
as in B.  Each such part holds a proper subset of S, since the rect
whose edge lies on B's bottom (top, left, right) line stays on that
side of the chord or is cut by it.  The first-rect baseline, the order
of ``inside`` and the target depend on S alone.  The DP's order is
total, so a cell's value is the best of its candidates, whatever order
they come in and wherever the early exit stops.  By induction on |S|,
and for one S on the area of R, value(R) = value(B), with the same
chosen set: R's candidates are B's plus value(B) itself.  Above k = 4
tree cuts give three parts and the parts need not be rectangles, which
this argument does not cover, so the rule stays at k = 4.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

from .geom_core import (
    CutError,
    EdgeTable,
    IntLoop as Loop,
    Rect,
    edge_tables,
    loop_contains_rect_doubled,
    loop_positions,
    loop_side_doubled,
    merge_loop,
    orient_loop,
    splice_loop,
    splice_plan,
    touch_tables,
)
from .instance import (
    Instance,
    Solution,
    max_independent_mask,
    neighbour_masks,
    validate_solution,
)


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
        if self.cell_cap < 1:
            raise DpError("cell cap must be >= 1")
        for s in self.shapes:
            if s not in ("path", "tree"):
                raise DpError(f"unknown cut shape {s!r}")
        if not self.shapes:
            raise DpError("no cut shape given")
        if set(self.shapes) == {"tree"} and self.k == 4:
            raise DpError("tree cuts need k > 4: give path at k = 4")


@dataclass
class DpStats:
    """Counters of one ``dp_solve`` run.  ``cells`` is the number of cells
    stored in the memo, the count the cell cap bounds; at k = 4 it counts
    a cell that takes its rects' bounding box's value as well as the box.
    ``cuts_tried`` counts the walks enumerated, usable or not, and the
    branches of tree cuts; a cell that takes its box's value tries none."""

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


# a cut's walk, and its two parts: each a canonical loop and its doubled area
Walk = list[tuple[int, int]]
Parts = tuple[tuple[Loop, int], tuple[Loop, int]]


# -- vertex loops ----------------------------------------------------------------


def canon_loop(pts: Sequence[tuple[int, int]]) -> tuple[Loop, int]:
    """Canonical form of a rectilinear vertex loop (duplicates and
    collinear runs merged, clockwise, rotated to the smallest vertex) and
    its doubled area.  Pinched loops are rejected: cells must stay simple
    polygons."""
    return _oriented(merge_loop(pts))


def _oriented(out: list[tuple[int, int]]) -> tuple[Loop, int]:
    """``canon_loop`` of a loop already merged."""
    if len(out) < 4:
        raise DpError("degenerate loop")
    if len(set(out)) != len(out):
        raise DpError("pinched loop")
    loop, area2 = orient_loop(out)
    if area2 == 0:
        raise DpError("zero-area loop")
    return loop, area2


def surgery(
    loop: Loop,
    walk: Sequence[tuple[int, int]],
    area2: int,
    plan: Optional[tuple[int, int, int, int, int, int]] = None,
) -> Parts:
    """Split a canonical cell loop of doubled area ``area2`` along an
    interior-clean path whose endpoints are on the boundary, at the
    ``splice_plan`` given or found; returns the two canonical part loops,
    each with its doubled area.

    ``splice_loop`` merges the parts at the splice points, the only places
    where they can hold a point that is no corner, so each part only needs
    its orientation and area (one pass) and a rotation."""
    try:
        half1, half2 = splice_loop(loop, walk, plan)
    except CutError as e:
        raise DpError(str(e)) from None
    return _summed(_oriented(half1), _oriented(half2), area2)


def _summed(part1: tuple[Loop, int], part2: tuple[Loop, int], area2: int) -> Parts:
    """The two parts, after ``surgery``'s check that their areas add up to
    the cell's."""
    if part1[1] + part2[1] != area2:
        raise DpError("path split lost area")
    return part1, part2


# -- per-cell geometry ------------------------------------------------------------


class _CellGeometry:
    """Boundary-touch tables for walk enumeration on one cell, read off the
    cell's kernel edge tables (``geom_core.edge_tables``).

    For every line x in ``xs`` and y in ``ys`` (the grid lines through the
    cell, or in a tree cut the lines through the branch points), the
    sorted, disjoint closed intervals where the line touches the boundary,
    kept as the list of their low ends and the list of their high ends:
    ``geom_core.touch_intervals`` of each line, built for all lines in one
    sweep over the edges (``geom_core.touch_tables``).

    ``positions`` is the loop's ``geom_core.loop_positions`` table on the
    same lines, from which ``splice_plan`` reads where each walk ends; it
    is built on first use, as a tree cut's geometries never read it."""

    def __init__(
        self,
        loop: Loop,
        xs: list[int],
        ys: list[int],
        tables: Optional[tuple[EdgeTable, EdgeTable]] = None,
    ):
        self.loop = loop
        self.xs = xs
        self.ys = ys
        self.vtab, self.htab = tables if tables is not None else edge_tables(loop)
        self.vtouch, self.htouch = touch_tables(xs, ys, self.vtab, self.htab)

    @cached_property
    def positions(self) -> dict[tuple[int, int], int]:
        return loop_positions(self.loop, self.xs, self.ys)

    def on_boundary(self, p: tuple[int, int]) -> bool:
        los, his = self.vtouch[p[0]]
        j = bisect_left(his, p[1])
        return j < len(his) and los[j] <= p[1]

    def corridor(
        self, p: tuple[int, int], dx: int, dy: int, inner: bool = False
    ) -> tuple[Optional[int], list[int]]:
        """First boundary-touch coordinate from p along (dx,dy), plus the
        interior grid coordinates strictly before it.  A segment that
        would run along the boundary from p (p lies in a touch interval
        that goes on in that direction) gives ``(None, [])``: corridors
        never run along the boundary.

        From a boundary point the segment to the first touch may run
        outside the cell, which a parity test of its midpoint decides.  A
        point known to lie strictly inside (``inner``: a walk's bend point)
        needs no test, as the segment from it to the first touch is."""
        if dx != 0:
            los, his = self.htouch[p[1]]
            coords = self.xs
            pos = p[0]
            step = dx
        else:
            los, his = self.vtouch[p[0]]
            coords = self.ys
            pos = p[1]
            step = dy
        if step > 0:
            j = bisect_right(his, pos)
            if j == len(his) or los[j] <= pos:
                return None, []
            t = los[j]
            mids = coords[bisect_right(coords, pos) : bisect_left(coords, t)]
        else:
            j = bisect_left(los, pos) - 1
            if j < 0 or his[j] >= pos:
                return None, []
            t = his[j]
            mids = coords[bisect_right(coords, t) : bisect_left(coords, pos)]
            mids.reverse()
        if not inner:
            if dx:
                X, Y = pos + t, 2 * p[1]
            else:
                X, Y = 2 * p[0], pos + t
            if loop_side_doubled(self.vtab, self.htab, X, Y) < 0:
                return None, []
        return t, mids


_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _enumerate_walks(geom: _CellGeometry, budget: int) -> Iterator[list[tuple[int, int]]]:
    """Interior-clean boundary-to-boundary polylines with at most `budget`
    maximal segments, bending only on grid coordinates.

    Starts are the grid points in the cell's vertical touch intervals.  No
    corridor runs along the boundary, so every segment leaves its start
    into the interior, and the reverse of every walk is enumerated too;
    each walk is emitted once, from its smaller end.  A bend point lies
    strictly inside the cell, so its corridors skip the parity test."""
    ys = geom.ys
    starts = [
        (x, y)
        for x in geom.xs
        for lo, hi in zip(*geom.vtouch[x])
        for y in ys[bisect_left(ys, lo) : bisect_right(ys, hi)]
    ]

    def extend(walk, rem, dx, dy):
        cur = walk[-1]
        for ndx, ndy in _DIRS:
            if (ndx, ndy) == (dx, dy) or (ndx, ndy) == (-dx, -dy):
                continue
            t, mids = geom.corridor(cur, ndx, ndy, True)
            if t is None:
                continue
            end = (t, cur[1]) if ndx else (cur[0], t)
            if walk[0] < end:
                yield walk + [end]
            if rem > 1:
                for m in mids:
                    mid = (m, cur[1]) if ndx else (cur[0], m)
                    yield from extend(walk + [mid], rem - 1, ndx, ndy)

    # a single segment is emitted only from its smaller end, where it runs
    # in a positive direction
    dirs = _DIRS if budget > 1 else _DIRS[::2]
    for a in starts:
        for dx, dy in dirs:
            t, mids = geom.corridor(a, dx, dy)
            if t is None:
                continue
            end = (t, a[1]) if dx else (a[0], t)
            if a < end:
                yield [a, end]
            if budget > 1:
                for m in mids:
                    mid = (m, a[1]) if dx else (a[0], m)
                    yield from extend([a, mid], budget - 1, dx, dy)


def _kernel_cuts(
    loop: Loop,
    area2: int,
    geom: _CellGeometry,
    budget: int,
    usable: Callable[[int, int], bool],
) -> Iterator[tuple[Walk, Optional[Parts]]]:
    """Each walk of ``_enumerate_walks`` on the cell (loop, doubled area)
    with the two canonical parts ``surgery`` cuts, or None where
    ``splice_plan`` or ``surgery`` rejects the walk or ``usable`` rejects
    the part sizes it counted, before any part is built.  Both ends of
    every walk are read from the cell's one position table."""
    positions = geom.positions
    for walk in _enumerate_walks(geom, budget):
        parts = None
        try:
            plan = splice_plan(loop, walk, positions)
        except CutError:
            plan = None
        if plan is not None and usable(*plan[4:]):
            try:
                parts = surgery(loop, walk, area2, plan)
            except DpError:
                pass
        yield walk, parts


def _chords(
    loop: Loop, area2: int, gxs: Sequence[int], gys: Sequence[int]
) -> Iterator[tuple[Walk, Parts]]:
    """The walks of one segment of the rectangle cell
    ``((x0, y0), (x0, y1), (x1, y1), (x1, y0))`` of doubled area ``area2``,
    with their parts, read off the corners: what ``_kernel_cuts`` gives at
    walk budget 1, in its order.  Those walks are the chords: the
    horizontal one at each grid y strictly between y0 and y1, ascending,
    parts top then bottom, then the vertical one at each grid x strictly
    between x0 and x1, ascending, parts left then right.  Every chord's
    parts add up to the corners' area, so ``surgery``'s area check is made
    once for the cell, and the parts share the cell's corner points."""
    a, b, c, d = loop
    (x0, y0), (x1, y1) = a, c
    w = 2 * (x1 - x0)
    h = 2 * (y1 - y0)
    if w * (y1 - y0) != area2:
        raise DpError("path split lost area")
    for y in gys[bisect_right(gys, y0) : bisect_left(gys, y1)]:
        p, q = (x0, y), (x1, y)
        yield [p, q], (((p, b, c, q), w * (y1 - y)), ((a, p, q, d), w * (y - y0)))
    for x in gxs[bisect_right(gxs, x0) : bisect_left(gxs, x1)]:
        p, q = (x, y0), (x, y1)
        yield [p, q], (((a, b, q, p), (x - x0) * h), ((p, q, c, d), (x1 - x) * h))


def dp_solve(
    inst: Instance,
    k: int = 4,
    cut_budget: int = 1,
    shapes: tuple[str, ...] = ("path", "tree"),
    cell_cap: int = 2_000_000,
    stats: Optional[DpStats] = None,
) -> Solution:
    """Top-down memoized recursion over polygon cells: terminal cells hold
    at most one rect; at k = 4 a cell whose corners are not its rects'
    bounding box takes the box's value; otherwise the best candidate over
    all enumerated subdivisions, ties broken toward the lexicographically
    smallest chosen index set, where a cell stops at its target (module
    docstring)."""
    cfg = DpConfig(k, cut_budget, tuple(shapes), cell_cap)
    pruned = containment_prune(inst.rects)
    kept = [inst.rects[i] for i in pruned]
    # (index, doubled corners, bit, neighbour mask) of each rect: the corners
    # as the kernel's rect test takes them, the masks as the target's search
    adj = neighbour_masks(kept)
    rects = [
        (i, 2 * r.xl, 2 * r.yb, 2 * r.xr, 2 * r.yt, 1 << j, adj[j])
        for j, (i, r) in enumerate(zip(pruned, kept))
    ]
    gxs = sorted({c for r in kept for c in (r.xl, r.xr)} | {0, inst.side})
    gys = sorted({c for r in kept for c in (r.yb, r.yt)} | {0, inst.side})
    memo: dict[Loop, tuple[int, tuple[int, ...]]] = {}
    # the best value of the rects of an inside mask: (size, chosen)
    targets: dict[int, tuple[int, tuple[int, ...]]] = {}
    root = canon_loop(
        [(0, 0), (0, inst.side), (inst.side, inst.side), (inst.side, 0)]
    )
    use_tree = "tree" in cfg.shapes and cfg.k > 4
    use_path = "path" in cfg.shapes
    # a part a tree cut branches into may exceed k by two edges per segment
    tree_k = cfg.k + 2 * cfg.cut_budget
    budget = 1 if cfg.k == 4 else cfg.cut_budget

    def usable(n1: int, n2: int) -> bool:
        """Can parts of n1 and n2 vertices be a path cut or a tree cut's seed?"""
        if n1 <= cfg.k and n2 <= cfg.k:
            return True
        return use_tree and min(n1, n2) <= cfg.k and max(n1, n2) <= tree_k

    def store(loop: Loop, result: tuple[int, tuple[int, ...]]) -> tuple[int, tuple[int, ...]]:
        """Memoize a solved cell; the cap counts the cells stored."""
        if len(memo) >= cfg.cell_cap:
            raise DpCellCapError(f"memo exceeded {cfg.cell_cap} cells")
        memo[loop] = result
        return result

    def solve(cell: tuple[Loop, int], cands) -> tuple[int, tuple[int, ...]]:
        """Best (size, chosen) in the cell (loop, doubled area), which is
        not in the memo yet; ``cands`` holds every rect that can lie in it
        (the parent's inside rects)."""
        loop, area2 = cell
        rectangle = len(loop) == 4
        if rectangle:
            # the loop is ((x0, y0), (x0, y1), (x1, y1), (x1, y0))
            X0, Y0 = 2 * loop[0][0], 2 * loop[0][1]
            X1, Y1 = 2 * loop[2][0], 2 * loop[2][1]
            tables = None
            inside = [
                c for c in cands if X0 <= c[1] and c[3] <= X1 and Y0 <= c[2] and c[4] <= Y1
            ]
        else:
            tables = edge_tables(loop)
            vtab, htab = tables
            inside = [
                c for c in cands if loop_contains_rect_doubled(vtab, htab, c[1], c[2], c[3], c[4])
            ]
        if len(inside) <= 1:
            return store(loop, (len(inside), tuple(c[0] for c in inside)))
        if cfg.k == 4:
            # a rectangle cell takes the value of its rects' bounding box
            # (module docstring)
            BX0 = min(c[1] for c in inside)
            BY0 = min(c[2] for c in inside)
            BX1 = max(c[3] for c in inside)
            BY1 = max(c[4] for c in inside)
            if (BX0, BY0, BX1, BY1) != (X0, Y0, X1, Y1):
                x0, y0, x1, y1 = BX0 // 2, BY0 // 2, BX1 // 2, BY1 // 2
                box = ((x0, y0), (x0, y1), (x1, y1), (x1, y0))
                hit = memo.get(box) or solve((box, 2 * (x1 - x0) * (y1 - y0)), inside)
                return store(loop, hit)
        mask = meets = 0
        for c in inside:
            mask |= c[5]
            meets |= c[6]
        if not mask & meets:
            target = (len(inside), tuple(c[0] for c in inside))
        else:
            target = targets.get(mask)
            if target is None:
                found = max_independent_mask(adj, mask)
                target = targets[mask] = (
                    found.bit_count(),
                    tuple(c[0] for c in inside if c[5] & found),
                )
        best: tuple[int, tuple[int, ...]] = (1, (inside[0][0],))
        if best == target:
            return store(loop, best)
        if rectangle and budget == 1:
            cuts = _chords(loop, area2, gxs, gys)
        else:
            xs0 = min(p[0] for p in loop)
            xs1 = max(p[0] for p in loop)
            ys0 = min(p[1] for p in loop)
            ys1 = max(p[1] for p in loop)
            xs = gxs[bisect_left(gxs, xs0) : bisect_right(gxs, xs1)]
            ys = gys[bisect_left(gys, ys0) : bisect_right(gys, ys1)]
            geom = _CellGeometry(loop, xs, ys, tables)
            cuts = _kernel_cuts(loop, area2, geom, budget, usable)

        def consider(parts: Sequence[tuple[Loop, int]]) -> bool:
            """Returns True when the best reaches the cell's target.  Each
            part is read from the memo, and solved only when missing; the
            parts' chosen sets are sorted into one only for a size that
            ties or beats the best."""
            nonlocal best
            size = 0
            chosen = ()
            for part in parts:
                hit = memo.get(part[0]) or solve(part, inside)
                size += hit[0]
                chosen += hit[1]
            if size >= best[0]:
                chosen = tuple(sorted(chosen))
                if size > best[0] or chosen < best[1]:
                    best = (size, chosen)
            return best == target

        done = False
        tree_seeds: list[tuple[Walk, Parts]] = []
        tried = 0
        for walk, parts in cuts:
            tried += 1
            if parts is None:
                continue
            fits = len(parts[0][0]) <= cfg.k and len(parts[1][0]) <= cfg.k
            if fits and (use_path or len(walk) == 2):
                if consider(parts):
                    done = True
                    break
            if use_tree:
                tree_seeds.append((walk, parts))
        if stats is not None:
            stats.cuts_tried += tried
        if not done and use_tree:
            for walk, parts in tree_seeds:
                if _tree_cuts(cfg, gxs, gys, walk, parts, consider, stats):
                    break
        return store(loop, best)

    size, chosen = solve(root, rects)
    if stats is not None:
        stats.cells = len(memo)
    sol = Solution(tuple(sorted(chosen)))
    validate_solution(inst, sol)
    if sol.size != size:
        raise DpError("memo size/choice mismatch")
    return sol


def _tree_cuts(cfg, gxs, gys, walk, parts, consider, stats) -> bool:
    """Branch the path at a grid point of its interior into one of the two
    parts, giving three-part subdivisions (two paths sharing a prefix).

    Each part gets one geometry, with touch lists only for the lines
    through the branch points: a branch is one corridor, whose interior
    grid coordinates are not read."""
    branch_points: list[tuple[int, int]] = []
    for a, b in zip(walk, walk[1:]):
        if a[0] == b[0]:
            lo, hi = sorted((a[1], b[1]))
            branch_points.extend((a[0], y) for y in gys if lo < y < hi)
        else:
            lo, hi = sorted((a[0], b[0]))
            branch_points.extend((x, a[1]) for x in gxs if lo < x < hi)
    points = set(branch_points) | set(walk[1:-1])
    xs = sorted({m[0] for m in points})
    ys = sorted({m[1] for m in points})
    geoms: list[Optional[_CellGeometry]] = []
    for pi, (part, _a) in enumerate(parts):
        fits = len(part) <= cfg.k + cfg.cut_budget * 2 and len(parts[1 - pi][0]) <= cfg.k
        geoms.append(_CellGeometry(part, xs, ys) if fits else None)
    for m in points:
        for pi, sub in enumerate(geoms):
            if sub is None or not sub.on_boundary(m):
                continue
            part, part_area2 = parts[pi]
            for dx, dy in _DIRS:
                t, _mids = sub.corridor(m, dx, dy)
                if t is None:
                    continue
                end = (t, m[1]) if dx else (m[0], t)
                if stats is not None:
                    stats.cuts_tried += 1
                cut = [m, end]
                try:
                    plan = splice_plan(part, cut)
                except CutError:
                    continue
                if max(plan[4:]) > cfg.k:
                    continue
                try:
                    subparts = surgery(part, cut, part_area2, plan)
                except DpError:
                    continue
                if consider((parts[1 - pi],) + subparts):
                    return True
    return False
