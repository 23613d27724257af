"""Constructive cut machinery and the recursive partitioning driver.

Three regimes share the driver:
  six      line cuts on horizontally convex polygons with at most 26 edges
           (at most 8 segments, 2-3 components);
  three    chain cuts with tau = 7 on general simple polygons with at most
           228 edges (at most 2 tau + 1 segments, exactly 2 components);
  two_eps  the same machinery with tau = 4/eps + 3.

Every guaranteed postcondition is asserted at run time; a violation
raises ConstructionError, which always indicates a bug rather than an
input condition.  Each fact of a cut is decided in one place:
  regime_budgets  the segment and edge budgets of each regime;
  _split_walks    a construction's point walks as merged segments, and
                  the one split of the polygon along them;
  _finalize       the repair of a split that breaks the budgets or the
                  part count (repair_nonsimple), then every check of the
                  cut's shape (budgets, parts, horizontal convexity for
                  the line regime, the one rect-meeting vertical segment)
                  and the assignment of rects to parts.
The driver asserts, after every cut, that no rect protected at the node
was intersected, and under check=True that protection persists into the
child; validate_partition checks the finished tree against the same
budgets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, pairwise
from typing import Optional, Sequence

from .geom_core import (
    Cut,
    CutError,
    GeometryError,
    Point,
    Rect,
    RectPolygon,
    Segment,
    _merge_touches,
    cut_pieces,
    edge_distance,
    is_horizontally_convex,
    segment_intersects_rect,
    splice_simple,
    split_components,
)
from .structure import (
    FenceEngine,
    _mirror_x_point,
    _mirror_x_tagged,
    MaximalSet,
    NestingLabel,
    NiceLabel,
    classify_nesting,
    classify_nice,
    is_protected,
    is_tau_protected,
    line_fences,
    seen_corners_on_side,
    tau_engine,
)

RectsIn = Sequence[tuple[int, Rect]]


class ConstructionError(RuntimeError):
    """A construction step with a guaranteed outcome failed: bug signal."""


@dataclass
class CutResult:
    cut: Cut
    ell: Optional[Segment]
    intersected: tuple[int, ...]
    components: list[RectPolygon]
    assignment: dict[int, int]  # rect id -> component index
    case: str = ""


def regime_budgets(tau: Optional[int]) -> tuple[int, int]:
    """(segments per cut, edges per polygon) of a regime: 8 and 26 for the
    line regime (tau None), 2 tau + 1 and 30 tau + 18 for a tau regime."""
    if tau is None:
        return 8, 26
    return 2 * tau + 1, 30 * tau + 18


def _merge_segments(segs: Sequence[Segment]) -> list[Segment]:
    """Union of axis-parallel segments as maximal merged segments, line by
    line (horizontal lines first), each merged with ``_merge_touches``."""
    lines: dict[tuple[bool, int], list[tuple[int, int]]] = {}
    for s in segs:
        if s.degenerate:
            continue
        v = s.vertical
        lo, hi = sorted((s.a.y, s.b.y) if v else (s.a.x, s.b.x))
        lines.setdefault((v, s.a.x if v else s.a.y), []).append((lo, hi))
    return [
        Segment(Point(c, lo), Point(c, hi)) if v else Segment(Point(lo, c), Point(hi, c))
        for (v, c), ivals in sorted(lines.items())
        for lo, hi in zip(*_merge_touches(ivals))
    ]


Split = tuple[list[Segment], list[RectPolygon]]


def _split_walks(poly: RectPolygon, *walks: Sequence[Point]) -> Split:
    """A construction's cut, given as point walks: its merged segments and
    the parts of one split of the polygon along them."""
    merged = _merge_segments(
        [Segment(p, q) for w in walks for p, q in pairwise(splice_simple(w))]
    )
    return merged, split_components(poly, Cut(tuple(merged)))


def _finalize(
    poly: RectPolygon, split: Split, rects: RectsIn, tau: Optional[int], case: str
) -> CutResult:
    """Turn a construction's split (see _split_walks) into a checked cut
    of its regime, tau None for the line regime.  A split into the wrong
    number of parts, or with a part that is not simple or breaks the edge
    budget, is repaired first.  Then the regime's budgets are asserted,
    with 2-3 horizontally convex parts for the line regime and exactly 2
    for a tau regime, and at most one segment, a vertical one, meeting
    rects; each rect it does not meet goes to the one part holding it."""
    merged, polys = split
    max_segments, max_edges = regime_budgets(tau)
    hi = 3 if tau is None else 2
    bad = len(polys) < 2 or len(polys) > hi or any(
        not c.is_simple for c in polys
    ) or any(c.num_edges > max_edges for c in polys)
    if bad:
        merged = repair_nonsimple(poly, merged, max_edges)
        polys = split_components(poly, Cut(tuple(merged)))
        case = case + "+repair"
    if not (2 <= len(polys) <= hi):
        raise ConstructionError(
            f"{case}: expected 2..{hi} components, got {len(polys)}"
        )
    if any(not p.is_simple for p in polys):
        raise ConstructionError(f"{case}: non-simple component survived repair")
    if any(p.num_edges > max_edges for p in polys):
        raise ConstructionError(
            f"{case}: component exceeds {max_edges} edges"
        )
    if tau is None and any(not is_horizontally_convex(p) for p in polys):
        raise ConstructionError(f"{case}: component not horizontally convex")
    if len(merged) > max_segments:
        raise ConstructionError(
            f"{case}: cut has {len(merged)} segments > {max_segments}"
        )
    hits = [(rid, s) for rid, r in rects for s in merged if segment_intersects_rect(s, r)]
    hit_segs = {s for _rid, s in hits}
    ell: Optional[Segment] = None
    if hit_segs:
        if len(hit_segs) > 1 or not next(iter(hit_segs)).vertical:
            raise ConstructionError(
                f"{case}: rectangles intersected by more than one cut "
                f"segment or by a horizontal segment"
            )
        ell = next(iter(hit_segs))
    intersected = tuple(sorted({rid for rid, _s in hits}))
    assignment: dict[int, int] = {}
    for rid, r in rects:
        if rid in intersected:
            continue
        homes = [i for i, c in enumerate(polys) if c.contains_rect(r)]
        if len(homes) != 1:
            raise ConstructionError(
                f"{case}: rect {rid} lies in {len(homes)} components"
            )
        assignment[rid] = homes[0]
    shape = "tree" if len(polys) == 3 else "path"
    return CutResult(
        Cut(tuple(merged), shape), ell, intersected, polys, assignment, case
    )


# -- repair of boundary-touching cuts -----------------------------------------


def repair_nonsimple(
    poly: RectPolygon, segments: list[Segment], max_edges: int
) -> list[Segment]:
    """Choose a subpath of the cut whose interior stays inside the polygon
    and whose endpoints land on boundary edges far enough apart that both
    resulting components stay within the edge budget.

    The candidate rule (contained original segments <= d(e,e')-1) follows
    the counting argument that guarantees such a subpath exists; every
    candidate is verified concretely before being accepted.  When no
    candidate both splits cleanly and satisfies the rule, the guarantee
    failed: ConstructionError.
    """
    k = poly.num_edges

    # Cut segments refined at boundary contacts and mutual endpoints.  A
    # path contains segment si when it holds all need[si] of its pieces and
    # those span it (need -1: part of it runs along the boundary).
    refined = cut_pieces(poly, segments)
    pieces = [piece for sp in refined for piece in sp]
    piece_owner = [si for si, sp in enumerate(refined) for _ in sp]
    need = [
        len(sp) if sum(p.length for p in sp) == s.length else -1
        for s, sp in zip(segments, refined)
    ]

    # Graph on piece endpoints.
    adj: dict[Point, list[int]] = {}
    for pi, piece in enumerate(pieces):
        adj.setdefault(piece.a, []).append(pi)
        adj.setdefault(piece.b, []).append(pi)

    def is_boundary_node(p: Point) -> bool:
        return poly.on_boundary_doubled(2 * p.x, 2 * p.y)

    boundary_nodes = [p for p in adj if is_boundary_node(p)]
    candidates: list[list[int]] = []
    seen_paths: set[tuple[int, ...]] = set()
    for start in sorted(boundary_nodes):
        stack: list[tuple[Point, list[int]]] = [(start, [])]
        while stack:
            node, path = stack.pop()
            if path and is_boundary_node(node):
                key = tuple(sorted(path))
                if key not in seen_paths:
                    seen_paths.add(key)
                    candidates.append(path)
                continue
            for pi in adj[node]:
                if path and pi == path[-1]:
                    continue
                if pi in path:
                    continue
                piece = pieces[pi]
                nxt = piece.b if piece.a == node else piece.a
                stack.append((nxt, path + [pi]))

    def cand_key(path: list[int]) -> tuple:
        owners = sorted({piece_owner[pi] for pi in path})
        return (owners[0], len(path), tuple(sorted(path)))

    candidates.sort(key=cand_key)

    def contained_original_count(path: list[int]) -> int:
        held = Counter(piece_owner[pi] for pi in path)
        return sum(1 for si, count in held.items() if count == need[si])

    for path in candidates:
        segs = _merge_segments([pieces[pi] for pi in path])
        try:
            comps = split_components(poly, Cut(tuple(segs)))
        except (CutError, GeometryError):
            continue
        ok = (
            len(comps) == 2
            and all(c.is_simple for c in comps)
            and all(c.num_edges <= max_edges for c in comps)
        )
        if not ok:
            continue
        ends = [p for p in (_path_ends(pieces, path)) if p is not None]
        rule_ok = False
        if len(ends) == 2:
            best_d = 0
            for ei in poly.edges_at(ends[0]):
                for ej in poly.edges_at(ends[1]):
                    best_d = max(best_d, edge_distance(k, min(ei, ej), max(ei, ej)))
            rule_ok = contained_original_count(path) <= best_d - 1
        if rule_ok:
            return segs
    raise ConstructionError("no repairable subpath found")


def _path_ends(pieces: list[Segment], path: list[int]) -> list[Optional[Point]]:
    counts: dict[Point, int] = {}
    for pi in path:
        for p in (pieces[pi].a, pieces[pi].b):
            counts[p] = counts.get(p, 0) + 1
    ends = sorted(p for p, c in counts.items() if c == 1)
    return ends if len(ends) == 2 else [None]


# -- k/3 vertical chord --------------------------------------------------------


@dataclass(frozen=True)
class Chord:
    x: int
    ylo: int
    yhi: int
    e_bottom: int  # edge index carrying the bottom endpoint
    e_top: int


def _edge_at(poly: RectPolygon, p: Point, vertical: bool) -> Optional[int]:
    """The vertical (or horizontal) edge holding the boundary point p, if
    any; on a simple polygon p lies on at most one of each."""
    sides = poly.vertical_edge_sides()
    return next((i for i in poly.edges_at(p) if (i in sides) == vertical), None)


def chord_distance(poly: RectPolygon, c: Chord) -> int:
    return edge_distance(poly.num_edges, c.e_bottom, c.e_top)


def _make_chord(poly: RectPolygon, x: int, ylo: int, yhi: int) -> Chord:
    ends = []
    for y in (ylo, yhi):
        e = _edge_at(poly, Point(x, y), vertical=False)
        if e is None:
            raise ConstructionError(f"no horizontal edge contains {Point(x, y)}")
        ends.append(e)
    return Chord(x, ylo, yhi, *ends)


def vertical_spanning_segment(poly: RectPolygon) -> tuple[Segment, Chord]:
    """The vertical chord whose endpoint edges, the horizontal edges that
    hold its two ends, are furthest apart in cyclic edge distance d.

    The candidates are the segments at integral x between two boundary
    touch points of one section of the vertical line at x; ties go to the
    smallest (x, ylo, yhi).  Every line inside an open band between two
    neighbouring vertex x's meets the same sections and horizontal edges,
    so the scan reads the vertex x's and the first integral x of each
    band, and locates each touch point's edge once per line.  The paper
    shows that some chord has 3 d >= k; a best chord below that raises
    ConstructionError.
    """
    k = poly.num_edges
    xs = poly.coords()[0]
    best, best_d = None, -1
    for x in sorted({*xs, *(a + 1 for a, b in zip(xs, xs[1:]) if b > a + 1)}):
        edge = {
            y: _edge_at(poly, Point(x, y), vertical=False)
            for touch in poly.vertical_touches(x)
            for y in touch
        }
        for lo, hi in poly.vertical_section(x):
            ys = sorted(y for y in edge if lo <= y <= hi)
            for a, ylo in enumerate(ys):
                for yhi in ys[a + 1 :]:
                    d = edge_distance(k, edge[ylo], edge[yhi])
                    if d > best_d:
                        best, best_d = Chord(x, ylo, yhi, edge[ylo], edge[yhi]), d
    if 3 * best_d < k:
        raise ConstructionError(f"best vertical chord has d={best_d} < k/3, k={k}")
    return Segment(Point(best.x, best.ylo), Point(best.x, best.yhi)), best


def _chain_between(k: int, from_edge: int, to_edge: int) -> list[int]:
    """Edge indices strictly between two edges in cyclic (stored) order."""
    out = []
    i = (from_edge + 1) % k
    while i != to_edge:
        out.append(i)
        i = (i + 1) % k
    return out


# -- the line-partitioning cut (factor-6 regime) -------------------------------


def _mirror_cutresult(res: CutResult) -> CutResult:
    """A cut of the x-mirrored polygon, mapped back."""
    def mseg(s: Segment) -> Segment:
        return Segment(_mirror_x_point(s.a), _mirror_x_point(s.b)).canonical()

    return CutResult(
        Cut(tuple(mseg(s) for s in res.cut.segments), res.cut.shape),
        mseg(res.ell) if res.ell else None,
        res.intersected,
        [p.transform(_mirror_x_point) for p in res.components],
        dict(res.assignment),
        res.case + "+mirrored",
    )


def line_partition_cut(
    poly: RectPolygon, rects: RectsIn, memo: Optional[dict] = None
) -> CutResult:
    """Cut a horizontally convex polygon (at most 26 edges, at least two
    rects) with at most 8 segments so that 2-3 horizontally convex
    components remain, only one vertical segment meets any rectangle, and
    no line-fence-protected rectangle is met.  memo is the caller's
    protection memo (see line_fences).
    """
    if len(rects) < 2:
        raise ConstructionError("line_partition_cut needs at least two rects")
    if not is_horizontally_convex(poly):
        raise ConstructionError("polygon is not horizontally convex")
    sides = poly.vertical_edge_sides()
    left_idx = [i for i, s in sides.items() if s == "left"]
    right_idx = [i for i, s in sides.items() if s == "right"]
    if len(left_idx) < len(right_idx):
        mres = line_partition_cut(
            poly.transform(_mirror_x_point), _mirror_x_tagged(rects), memo
        )
        return _mirror_cutresult(mres)

    edges = poly.edges()
    lefts = sorted(left_idx, key=lambda i: -max(edges[i].a.y, edges[i].b.y))
    s = len(lefts)
    em = lefts[s // 3 : (2 * s + 2) // 3]  # middle third, 1-based floor/ceil

    fences = line_fences(poly, rects, memo)
    candidates = []
    for i in em:
        e = edges[i]
        y1, y2 = sorted((e.a.y, e.b.y))
        for y in range(y1, y2 + 1):
            p = Point(e.a.x, y)
            end = fences.furthest(p, left=True)
            if end is not None:
                candidates.append((Point(end, y), p))
    if not candidates:
        return _guillotine_cut(poly, rects)
    candidates.sort(key=lambda t: (-t[0].x, t[1].y, t[1].x))
    p_prime, p_anchor = candidates[0]

    prot_ids = {rid for rid, r in rects if fences.protecting(r)}

    def ray_stop(start: Point, down: bool) -> tuple[Point, list[Point]]:
        """First stopping event of the vertical ray from start; returns the
        stop point and the tail walk from it to the polygon boundary.  The
        events are a line fence strictly crossing the ray, from its least
        anchor, and the facing edge of a protected rect the ray pierces,
        least id first; the nearest row decides, a fence before a rect."""
        ylo, yhi = poly.vertical_reach(start)
        bound = ylo if down else yhi
        hit = None  # ((nearness, id), row, rect) of the nearest rect event
        for rid, r in rects:
            if rid not in prot_ids or not (r.xl < start.x < r.xr):
                continue
            ey = r.yt if down else r.yb
            within = (bound <= ey <= start.y) if down else (start.y <= ey <= bound)
            order = (-ey if down else ey, rid)
            if within and (hit is None or order < hit[0]):
                hit = order, ey, r
        stop = bound if hit is None else hit[1]
        step = -1 if down else 1
        for y in range(start.y, stop + step, step):
            xa = fences.crossing_anchor(y, start.x)
            if xa is not None:
                return Point(start.x, y), [Point(xa, y)]
        if hit is None:
            return Point(start.x, bound), []
        _order, y, r = hit
        qp = Point(start.x, y)
        pf = fences.protecting(r)[0]
        covered_y = pf.chain[0].a.y
        if covered_y == (r.yt if down else r.yb):
            # the protecting fence runs along the very edge the ray hit
            return qp, [pf.anchor]
        if pf.side == "from_left_edge":
            walk = [
                Point(r.xl, y),
                Point(r.xl, covered_y),
                pf.anchor,
            ]
        else:
            walk = [
                Point(r.xr, y),
                Point(r.xr, covered_y),
                pf.anchor,
            ]
        return qp, walk

    qb, tail_b = ray_stop(p_prime, down=True)
    qt, tail_t = ray_stop(p_prime, down=False)

    split = _split_walks(
        poly, [p_anchor, p_prime, qb] + tail_b, [p_anchor, p_prime, qt] + tail_t
    )
    if len(split[1]) < 2:
        return _degenerate_line_cut(poly, rects, p_anchor, p_prime)
    return _finalize(poly, split, rects, None, "line")


def _guillotine_cut(poly: RectPolygon, rects: RectsIn) -> CutResult:
    """A single straight chord splitting the polygon without meeting any
    rectangle; used when no middle-third fence exists."""
    x0, y0, x1, y1 = poly.bbox()
    rows = (
        (Point(lo, y), Point(hi, y))
        for y in range(y0 + 1, y1)
        for lo, hi in poly.horizontal_section(y)
    )
    columns = (
        (Point(x, lo), Point(x, hi))
        for x in range(x0 + 1, x1)
        for lo, hi in poly.vertical_section(x)
    )
    for a, b in chain(rows, columns):
        if any(segment_intersects_rect(Segment(a, b), r) for _rid, r in rects):
            continue
        try:
            return _finalize(poly, _split_walks(poly, [a, b]), rects, None, "guillotine")
        except (ConstructionError, CutError):
            continue
    raise ConstructionError("no fence anchored on the middle third and no guillotine")


def _degenerate_line_cut(
    poly: RectPolygon, rects: RectsIn, p_anchor: Point, p_prime: Point
) -> CutResult:
    """The alternate cut around the corner rectangle when the main line cut
    lies entirely on the boundary; only possible for polygons with at most
    8 edges.
    """
    if poly.num_edges > 8:
        raise ConstructionError(
            "degenerate line cut on a polygon with more than 8 edges"
        )
    y = p_anchor.y
    top_rect = None
    for rid, r in rects:
        if r.corner("TR") == p_prime:
            top_rect = ("top", r)
        if r.corner("BR") == p_prime:
            top_rect = top_rect or ("bottom", r)
    if top_rect is None:
        raise ConstructionError("degenerate case: p' is not a rect corner")
    kind, r = top_rect
    if kind == "top":
        walk = [p_anchor, Point(r.xl, y), Point(r.xl, r.yb), Point(r.xr, r.yb)]
    else:
        walk = [p_anchor, Point(r.xl, y), Point(r.xl, r.yt), Point(r.xr, r.yt)]
    return _finalize(poly, _split_walks(poly, walk), rects, None, "line-degenerate")


# -- the general partitioning cut (tau-fence regimes) --------------------------


def general_partition_cut(
    poly: RectPolygon,
    rects: RectsIn,
    tau: int,
    ell0: Optional[Chord] = None,
    _depth: int = 0,
    memo: Optional[dict] = None,
) -> CutResult:
    """Cut a simple polygon with at most 30 tau + 18 edges into exactly two
    simple components with at most 2 tau + 1 segments, such that only one
    vertical segment meets rectangles and no tau-protected rectangle is
    met.  memo is the caller's fence-engine memo (see tau_engine)."""
    if len(rects) < 2:
        raise ConstructionError("general_partition_cut needs at least two rects")
    if not poly.is_simple:
        raise ConstructionError("polygon is not simple")
    k = poly.num_edges
    budget, cap = regime_budgets(tau)
    if k > cap:
        raise ConstructionError(f"polygon exceeds {cap} edges")

    if k <= 15 * budget - 1:
        return _case0_cut(poly, rects, tau)

    eng = tau_engine(poly, rects, tau, memo)
    if ell0 is None:
        _seg, chord = vertical_spanning_segment(poly)
    else:
        chord = ell0
    d0 = chord_distance(poly, chord)
    if 3 * d0 < k:
        raise ConstructionError("spanning chord below the k/3 bound")

    edges = poly.edges()
    sides = poly.vertical_edge_sides()
    L = _chain_between(k, chord.e_bottom, chord.e_top)
    R = _chain_between(k, chord.e_top, chord.e_bottom)
    if len(L) < 5 * budget or len(R) < 5 * budget:
        raise ConstructionError("boundary chains shorter than 5(2tau+1)")

    def split3(chain: list[int]) -> tuple[list[int], list[int], list[int]]:
        # middle group exactly 2 tau + 1 edges, remainder split evenly over
        # the outer groups (clockwise-first outer gets the ceiling).
        rem = len(chain) - 5 * budget
        a = 2 * budget + (rem + 1) // 2
        return chain[:a], chain[a : a + budget], chain[a + budget :]

    LB, LM, LT = split3(L)
    RT, RM, RB = split3(R)

    # Each group holds at least 2 tau + 1 >= 3 consecutive edges of a loop
    # whose edges alternate, so at least one vertical edge anchors it.
    group_edges = {"LB": LB, "LM": LM, "LT": LT, "RT": RT, "RM": RM, "RB": RB}
    tables = {
        name: eng.reach([p for i in g if i in sides for p in eng.edge_points(edges[i])])
        for name, g in group_edges.items()
    }

    def covered(name: str, p: Point) -> bool:
        return eng.covers(tables[name], p)

    ys = range(chord.ylo, chord.yhi + 1)
    pts = [Point(chord.x, y) for y in ys]
    plist = [p for p in pts if any(covered(g, p) for g in tables)]
    if not plist:
        raise ConstructionError("no fence-covered point on the spanning chord")
    if not (covered("LB", plist[0]) and covered("RB", plist[0])):
        raise ConstructionError("chord foot not covered from both bottom groups")
    if not (covered("LT", plist[-1]) and covered("RT", plist[-1])):
        raise ConstructionError("chord head not covered from both top groups")

    lm_hit = any(covered("LM", p) for p in plist)
    rm_hit = any(covered("RM", p) for p in plist)

    if not lm_hit and not rm_hit:
        return _general_case1(poly, rects, tau, eng, tables, covered, plist)
    if not lm_hit:
        if _depth >= 2:
            raise ConstructionError("mirror recursion diverged")
        mpoly = poly.transform(_mirror_x_point)
        mrects = _mirror_x_tagged(rects)
        mchord = _make_chord(mpoly, -chord.x, chord.ylo, chord.yhi)
        mres = general_partition_cut(mpoly, mrects, tau, mchord, _depth + 1, memo)
        return _mirror_cutresult(mres)
    return _general_case2(poly, rects, tau, eng, tables, group_edges)


def _case0_cut(poly: RectPolygon, rects: RectsIn, tau: int) -> CutResult:
    """Wrap the rectangle with the leftmost left side with two leftward
    rays and its right edge; intersects nothing and adds at most four
    edges per component."""
    rid, r = min(rects, key=lambda t: (t[1].xl, t[1].yb, t[0]))
    top_lo, _ = poly.horizontal_reach(Point(r.xr, r.yt))
    bot_lo, _ = poly.horizontal_reach(Point(r.xr, r.yb))
    walk = [
        Point(top_lo, r.yt),
        Point(r.xr, r.yt),
        Point(r.xr, r.yb),
        Point(bot_lo, r.yb),
    ]
    res = _finalize(poly, _split_walks(poly, walk), rects, tau, "general-0")
    if res.intersected:
        raise ConstructionError("case 0 cut intersects a rectangle")
    return res


def _general_case1(
    poly, rects, tau, eng: FenceEngine, tables, covered, plist
) -> CutResult:
    def b_cover(p):
        return covered("LB", p) or covered("RB", p)

    def t_cover(p):
        return covered("LT", p) or covered("RT", p)

    def chain_from(names, p):  # one of the groups covers p
        name = next(name for name in names if covered(name, p))
        return eng.chain_to(tables[name], p)

    for p in plist:
        if b_cover(p) and t_cover(p):
            walk = chain_from(("LB", "RB"), p) + list(
                reversed(chain_from(("LT", "RT"), p))
            )[1:]
            return _finalize(poly, _split_walks(poly, walk), rects, tau, "general-1a")
    for a, b in zip(plist, plist[1:]):
        if b_cover(a) and t_cover(b):
            walk = (
                chain_from(("LB", "RB"), a)
                + [b]
                + list(reversed(chain_from(("LT", "RT"), b)))[1:]
            )
            return _finalize(poly, _split_walks(poly, walk), rects, tau, "general-1b")
    raise ConstructionError("case 1: no bottom-to-top transition on the chord")


def _general_case2(poly, rects, tau, eng: FenceEngine, tables, group_edges) -> CutResult:
    # f: the LM-anchored chain with the rightmost endpoint.
    t_lm = tables["LM"]
    best = None
    for ix in range(eng.nx):
        for iy in range(eng.ny):
            cand = Point(ix + eng.x0, iy + eng.y0)
            if eng.covers(t_lm, cand):
                key = (-cand.x, cand.y)
                if best is None or key < best[0]:
                    best = (key, cand)
    if best is None:
        raise ConstructionError("case 2: LM reaches nothing")
    p = best[1]
    f_chain = eng.chain_to(t_lm, p)

    def scan(start: Point, up: bool):
        ylo, yhi = poly.vertical_reach(start)
        ys = range(start.y, yhi + 1) if up else range(start.y, ylo - 1, -1)
        for y in ys:
            z = Point(start.x, y)
            grps = [g for g in tables if eng.covers_interior(tables[g], z)]
            if grps:
                return z, grps, False
        z = Point(start.x, yhi if up else ylo)
        vi = _edge_at(poly, z, vertical=True)
        if vi is not None:
            grp = _group_of_edge(group_edges, vi)
            if grp:
                return z, [grp], True
        return None, [], False

    q, q_groups, q_vertex = scan(p, up=True)
    qh, qh_groups, qh_vertex = scan(p, up=False)

    def chain_or_point(name, z, vertex):
        if vertex:
            return [z]
        return eng.chain_to(tables[name], z)

    right = ("RT", "RM", "RB")
    for name in right:
        if q is not None and name in q_groups:
            walk = f_chain + [q] + list(reversed(chain_or_point(name, q, q_vertex)))[1:]
            return _finalize(poly, _split_walks(poly, walk), rects, tau, "general-2a")
    for name in right:
        if qh is not None and name in qh_groups:
            walk = f_chain + [qh] + list(reversed(chain_or_point(name, qh, qh_vertex)))[1:]
            return _finalize(poly, _split_walks(poly, walk), rects, tau, "general-2a'")

    if q is None or qh is None:
        raise ConstructionError("case 2b: missing ray stop")
    if "LM" in q_groups or "LM" in qh_groups:
        raise ConstructionError("case 2b: stop anchored on LM contradicts f's choice")

    if "LT" in q_groups and "LB" in qh_groups:
        walk = (
            chain_or_point("LT", q, q_vertex)
            + [qh]
            + list(reversed(chain_or_point("LB", qh, qh_vertex)))[1:]
        )
        return _finalize(poly, _split_walks(poly, walk), rects, tau, "general-2bi")
    if "LB" in q_groups and "LT" in qh_groups:
        g_chain = chain_or_point("LB", q, q_vertex)
        gh_chain = chain_or_point("LT", qh, qh_vertex)
        walk = _join_at_intersection(g_chain, gh_chain)
        return _finalize(poly, _split_walks(poly, walk), rects, tau, "general-2bi'")

    if "LT" in q_groups and "LT" in qh_groups:
        side = "LT"
        down = True
    elif "LB" in q_groups and "LB" in qh_groups:
        side = "LB"
        down = False
    else:
        raise ConstructionError(f"case 2b: unclassifiable stops {q_groups}/{qh_groups}")
    return _general_case2bii(
        poly, rects, tau, eng, tables, group_edges, p, f_chain, side, down
    )


def _group_of_edge(group_edges: dict[str, list[int]], idx: int) -> Optional[str]:
    for name, g in group_edges.items():
        if idx in g:
            return name
    return None


def _join_at_intersection(chain_a: list[Point], chain_b: list[Point]) -> list[Point]:
    """Walk chain_a from its anchor until the first point shared with
    chain_b, then follow chain_b back to its anchor."""
    bset = {p: i for i, p in enumerate(chain_b)}
    for i, pt in enumerate(chain_a):
        if pt in bset:
            return chain_a[: i + 1] + list(reversed(chain_b[: bset[pt]]))
    raise ConstructionError("chains do not intersect")


def _general_case2bii(
    poly, rects, tau, eng, tables, group_edges, p, f_chain, side, down
) -> CutResult:
    """Both ray stops anchor on the same outer-left group: walk the ray to
    the boundary, find the lowest/highest stop anchored outside the group,
    and cut between the group fence and that outside fence."""
    ylo, yhi = poly.vertical_reach(p)
    ys = range(p.y, ylo - 1, -1) if down else range(p.y, yhi + 1)
    complement = [g for g in tables if g not in (side, "LM")]
    stops = []
    for y in ys:
        z = Point(p.x, y)
        grps = [g for g in tables if eng.covers_interior(tables[g], z)]
        if grps:
            stops.append((z, grps))
    if not stops:
        raise ConstructionError("case 2bii: no interior-covered stop on the ray")
    idx_star = None
    for i, (z, grps) in enumerate(stops):
        if side in grps:
            idx_star = i
    if idx_star is None:
        raise ConstructionError("case 2bii: no stop anchored on the group")
    z_star, grps_star = stops[idx_star]
    gpp_at = None
    if any(g in complement for g in grps_star):
        gpp_at = (z_star, next(g for g in complement if g in grps_star))
    elif idx_star + 1 < len(stops):
        z2, grps2 = stops[idx_star + 1]
        cands = [g for g in complement if g in grps2]
        if cands:
            gpp_at = (z2, cands[0])
    if gpp_at is None:
        raise ConstructionError("case 2bii: no complement-anchored stop adjacent")

    g_chain = eng.chain_to(tables[side], z_star)
    anchor_edge = _edge_at(poly, g_chain[0], vertical=True)
    group = group_edges[side]
    if anchor_edge not in group:
        raise ConstructionError("case 2bii: group chain anchor not on a group edge")
    half = len(group) // 2
    # The half adjacent to LM: LT starts right after LM (clockwise), LB ends
    # right before it.
    if side == "LT":
        inner = set(group[:half])
    else:
        inner = set(group[-half:])
    if anchor_edge in inner:
        z2, gname = gpp_at
        gpp_chain = eng.chain_to(tables[gname], z2)
        walk = g_chain + ([z2] if z2 != z_star else []) + list(reversed(gpp_chain))[1:]
        return _finalize(poly, _split_walks(poly, walk), rects, tau, "general-2biiA")
    walk = _join_at_intersection(f_chain, g_chain)
    return _finalize(poly, _split_walks(poly, walk), rects, tau, "general-2biiB")


# -- recursive partitioning driver ---------------------------------------------


def anti_transpose_rect(r: Rect, side: int) -> Rect:
    """Reflection across the anti-diagonal of S: maps vertically nice to
    horizontally nice and vertically nested to horizontally nested."""
    return Rect(side - r.yt, side - r.xr, side - r.yb, side - r.xl)


@dataclass
class PartitionNode:
    """One polygon of the partition tree.  rects are the ids of the work
    rects inside it, ascending: all of them at the root, and at a child the
    parent's rects that its cut did not intersect and assigned to this
    child's component.  A cut node records its cut, ell (the one segment
    meeting rects), the rects it intersected and its construction case; a
    leaf holding one rect records it as assigned."""

    id: int
    polygon: RectPolygon
    parent: Optional[int]
    rects: tuple[int, ...] = ()
    children: list[int] = field(default_factory=list)
    cut: Optional[Cut] = None
    ell: Optional[Segment] = None
    intersected: tuple[int, ...] = ()
    assigned: Optional[int] = None
    case: str = ""


@dataclass
class PartitionRun:
    """The record of one recursive partition, in the normalized frame.

    trace holds the ids of the cut nodes in the order they were cut,
    which is the order the charging ledgers pay in.  nesting holds the
    work rects' nesting labels, and nice their niceness labels under
    two_eps (None otherwise); the charging schemes and verify_ratios read
    them from here.
    """

    regime: str
    tau: Optional[int]
    eps: Optional[Fraction]
    transposed: bool
    side: int
    work_rects: tuple[Rect, ...]
    origin: tuple[int, ...]
    nodes: list[PartitionNode]
    trace: list[int]
    tracked: frozenset[int]
    nesting: NestingLabel
    nice: Optional[NiceLabel] = None

    @property
    def k_budget(self) -> int:
        return regime_budgets(self.tau)[1]

    def saved_original_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.origin[i] for i in self.tracked))


REGIMES = ("six", "three", "two_eps")


def regime_tau(regime: str, eps: Optional[Fraction], tau: Optional[int]) -> Optional[int]:
    if regime == "six":
        return None
    if tau is not None:
        return tau
    if regime == "three":
        return 7
    if regime == "two_eps":
        if eps is None:
            raise ConstructionError("two_eps regime requires eps")
        inv = 1 / Fraction(eps)
        if inv.denominator != 1:
            raise ConstructionError("two_eps requires 1/eps integral")
        return int(4 * inv) + 3
    raise ConstructionError(f"unknown regime {regime!r}")


def recursive_partition(
    m: MaximalSet,
    regime: str,
    eps: Optional[Fraction] = None,
    tau: Optional[int] = None,
    check: bool = True,
    nesting: Optional[NestingLabel] = None,
) -> PartitionRun:
    """Run the regime's recursive partitioning over the maximal set.

    Orientation is normalized first by an anti-diagonal transpose of the
    whole configuration (at most half horizontally nested for six/three,
    at least half horizontally nice for two_eps); all further work happens
    in the normalized frame.  ``nesting`` is ``classify_nesting(m)`` where
    the caller has it already; it, and under two_eps the niceness labels
    of m, are reused for the normalized frame when nothing is transposed.
    """
    if regime not in REGIMES:
        raise ConstructionError(f"unknown regime {regime!r}")
    n = len(m.rects)
    side = m.side
    transposed = False
    lab = nesting
    nice = None
    if regime in ("six", "three"):
        if lab is None:
            lab = classify_nesting(m)
        if 2 * len(lab.horizontally_nested) > n:
            transposed = True
    else:
        nice = classify_nice(m)
        if 2 * len(nice.horizontally_nice) < n:
            transposed = True
    work = tuple(
        anti_transpose_rect(r, side) if transposed else r for r in m.rects
    )
    wm = MaximalSet(work, m.origin, side)
    if regime == "two_eps":
        if transposed:
            nice = classify_nice(wm)
        if 2 * len(nice.horizontally_nice) < n:
            raise ConstructionError("normalization failed: too few nice")
    nesting = lab if lab is not None and not transposed else classify_nesting(wm)
    if regime != "two_eps" and 2 * len(nesting.horizontally_nested) > n:
        raise ConstructionError("normalization failed: too many nested")

    the_tau = regime_tau(regime, eps, tau)
    # The run's protection memo: one fence engine per (polygon, rects) and
    # one line-fence list per (rect, polygon, rects).  A node's visibility
    # check, its protection checks, its cut and its parent's persistence
    # check all ask the same questions.
    memo: dict = {}
    if regime == "six":
        cutter = lambda poly, rin: line_partition_cut(poly, rin, memo)
        prot = lambda r, poly, rin: is_protected(r, poly, rin, memo)
    else:
        cutter = lambda poly, rin: general_partition_cut(
            poly, rin, the_tau, memo=memo
        )
        prot = lambda r, poly, rin: is_tau_protected(r, poly, rin, the_tau, memo)

    root_poly = RectPolygon.from_rect(Rect(0, 0, side, side))
    nodes = [PartitionNode(0, root_poly, None, tuple(range(n)))]
    trace: list[int] = []
    tracked: set[int] = set()
    stack = [0]
    while stack:
        v = stack.pop()
        poly, ids = nodes[v].polygon, nodes[v].rects
        if not ids:
            continue
        if len(ids) == 1:
            nodes[v].assigned = ids[0]
            tracked.add(ids[0])
            continue
        rects_in = [(i, work[i]) for i in ids]
        if check:
            _check_visibility_guarantee(
                work, poly, rects_in, nesting.horizontally_nested, memo
            )
        protected_before = (
            {i: prot(work[i], poly, rects_in) for i in ids} if check else {}
        )
        res = cutter(poly, rects_in)
        for i in res.intersected:
            if (protected_before[i] if check else prot(work[i], poly, rects_in)):
                raise ConstructionError(
                    f"{res.case}: protected rectangle {i} intersected"
                )
        trace.append(v)
        nodes[v].cut = res.cut
        nodes[v].ell = res.ell
        nodes[v].intersected = res.intersected
        nodes[v].case = res.case
        order = sorted(range(len(res.components)), key=lambda c: res.components[c].vertices)
        for c in order:
            child_ids = tuple(i for i in ids if res.assignment.get(i) == c)
            child = PartitionNode(len(nodes), res.components[c], v, child_ids)
            if child.polygon.area2() >= poly.area2():
                raise ConstructionError("child polygon did not shrink")
            nodes[v].children.append(child.id)
            nodes.append(child)
            stack.append(child.id)
            if check:
                child_rects = [(j, work[j]) for j in child_ids]
                for i in child_ids:
                    if protected_before[i] and not prot(work[i], child.polygon, child_rects):
                        raise ConstructionError(
                            f"protection of rect {i} not persistent in child"
                        )
    leftover = set(range(n)) - tracked
    for v in trace:
        leftover -= set(nodes[v].intersected)
    if leftover:
        raise ConstructionError(f"rects neither tracked nor intersected: {leftover}")
    return PartitionRun(
        regime,
        the_tau,
        Fraction(eps) if eps is not None else None,
        transposed,
        side,
        work,
        m.origin,
        nodes,
        trace,
        frozenset(tracked),
        nesting,
        nice,
    )


def _check_visibility_guarantee(
    work: tuple[Rect, ...],
    poly: RectPolygon,
    rects_in: RectsIn,
    h_nested: frozenset[int],
    memo: dict,
) -> None:
    """Every rect that is neither line-fence-protected (asked through the
    run's memo) nor horizontally nested must see a corner of another
    contained rect on each side."""
    ids = [rid for rid, _ in rects_in]
    for rid, r in rects_in:
        if rid in h_nested or is_protected(r, poly, rects_in, memo):
            continue
        for side_name in ("left", "right"):
            if not seen_corners_on_side(work, rid, side_name, ids):
                raise ConstructionError(
                    f"rect {rid} neither protected nor nested sees no corner "
                    f"on its {side_name}"
                )


# -- validation -----------------------------------------------------------------


def polygon_meets_rect_interior(poly: RectPolygon, r: Rect) -> bool:
    """Does the closed polygon contain any interior point of the rect?"""
    if poly.contains_doubled(r.xl + r.xr, r.yb + r.yt):
        return True
    xs = sorted({p.x for p in poly.vertices if r.xl < p.x < r.xr} | {r.xl, r.xr})
    ys = sorted({p.y for p in poly.vertices if r.yb < p.y < r.yt} | {r.yb, r.yt})
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            if poly.contains_doubled(xs[i] + xs[i + 1], ys[j] + ys[j + 1]):
                return True
    return False


def _check(report: list[dict], name: str, ok: bool, detail: str = "") -> None:
    """Append one named check to a report."""
    report.append({"name": name, "ok": bool(ok), "detail": detail})


def validate_partition(run: PartitionRun) -> list[dict]:
    """Check every defining clause of a k-recursive partition, k the run's
    edge budget, plus the regime extras; returns a report of named
    checks."""
    k = run.k_budget
    report = []
    nodes = run.nodes

    ok = all(p.polygon.is_simple and p.polygon.num_edges <= k for p in nodes)
    _check(report, "polygons_in_class", ok, f"k={k}")

    root_ok = nodes[0].polygon == RectPolygon.from_rect(
        Rect(0, 0, run.side, run.side)
    )
    _check(report, "root_is_square", root_ok)

    tile_ok, tile_detail = True, ""
    for node in nodes:
        if not node.children:
            continue
        if len(node.children) > 3:
            tile_ok, tile_detail = False, f"node {node.id} has >3 children"
            break
        kids = [nodes[c].polygon for c in node.children]
        if sum(p.area2() for p in kids) != node.polygon.area2():
            tile_ok, tile_detail = False, f"node {node.id} area mismatch"
            break
        xs = sorted({p.x for kp in kids for p in kp.vertices})
        ys = sorted({p.y for kp in kids for p in kp.vertices})
        for i in range(len(xs) - 1):
            for j in range(len(ys) - 1):
                X, Y = xs[i] + xs[i + 1], ys[j] + ys[j + 1]
                inside_parent = node.polygon.contains_doubled(
                    X, Y
                ) and not node.polygon.on_boundary_doubled(X, Y)
                owners = sum(
                    1
                    for kp in kids
                    if kp.contains_doubled(X, Y) and not kp.on_boundary_doubled(X, Y)
                )
                if inside_parent != (owners == 1) or owners > 1:
                    tile_ok = False
                    tile_detail = f"node {node.id} cell ({xs[i]},{ys[j]}) owners={owners}"
                    break
            if not tile_ok:
                break
        if not tile_ok:
            break
    _check(report, "children_tile_parent", tile_ok, tile_detail)

    leaves = [node for node in nodes if not node.children]
    leaf_ok = True
    leaf_detail = ""
    for node in leaves:
        inside = [
            i
            for i in run.tracked
            if node.polygon.contains_rect(run.work_rects[i])
        ]
        if len(inside) > 1:
            leaf_ok, leaf_detail = False, f"leaf {node.id} holds {inside}"
            break
    _check(report, "leaf_holds_at_most_one", leaf_ok, leaf_detail)

    unique_ok, unique_detail = True, ""
    for i in run.tracked:
        r = run.work_rects[i]
        homes = [node.id for node in leaves if node.polygon.contains_rect(r)]
        meets = [
            node.id
            for node in leaves
            if polygon_meets_rect_interior(node.polygon, r)
        ]
        if len(homes) != 1 or meets != homes:
            unique_ok = False
            unique_detail = f"rect {i}: homes={homes} meets={meets}"
            break
    _check(report, "tracked_in_unique_leaf", unique_ok, unique_detail)

    horiz_ok, horiz_detail = True, ""
    for node in nodes:
        for e in node.polygon.edges():
            if not e.horizontal:
                continue
            for i, r in enumerate(run.work_rects):
                if segment_intersects_rect(e, r):
                    horiz_ok = False
                    horiz_detail = f"node {node.id} horizontal edge hits rect {i}"
                    break
            if not horiz_ok:
                break
        if not horiz_ok:
            break
    _check(report, "horizontal_edges_miss_rects", horiz_ok, horiz_detail)

    budget = regime_budgets(run.tau)[0]
    cut_ok = all(
        node.cut is None or len(node.cut.segments) <= budget for node in nodes
    )
    _check(report, "cut_segment_budget", cut_ok, f"budget={budget}")
    return report


def run_to_json(run: PartitionRun) -> dict:
    def seg(s: Optional[Segment]):
        return None if s is None else [[s.a.x, s.a.y], [s.b.x, s.b.y]]

    return {
        "regime": run.regime,
        "tau": run.tau,
        "eps": str(run.eps) if run.eps is not None else None,
        "transposed": run.transposed,
        "side": run.side,
        "work_rects": [[r.xl, r.yb, r.xr, r.yt] for r in run.work_rects],
        "origin": list(run.origin),
        "tracked": sorted(run.tracked),
        "nodes": [
            {
                "id": node.id,
                "polygon": [[p.x, p.y] for p in node.polygon.vertices],
                "parent": node.parent,
                "children": list(node.children),
                "cut": None
                if node.cut is None
                else {
                    "shape": node.cut.shape,
                    "segments": [seg(s) for s in node.cut.segments],
                },
                "ell": seg(node.ell),
                "intersected": list(node.intersected),
                "assigned": node.assigned,
                "case": node.case,
            }
            for node in run.nodes
        ],
    }
