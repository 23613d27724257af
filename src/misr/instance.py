"""Instance model: bit-exact preprocessing, deterministic generators,
JSON serialization, and the branch-and-bound optimum oracle that grounds
every certification run.
"""

from __future__ import annotations

import json
import os
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from math import isqrt
from typing import Iterable, Optional, Sequence

from .geom_core import GeometryError, Rect, rects_intersect

DEFAULT_ORACLE_CAP = 16
ORACLE_CAP_ENV = "MISR_ORACLE_CAP"
COORD_LIMIT = 2**62  # raw inputs must stay well inside 64-bit signed range


class InstanceError(ValueError):
    """Malformed instance or solution."""


class OracleCapError(InstanceError):
    """exact_mis called beyond its configured size cap."""


@dataclass(frozen=True)
class Instance:
    rects: tuple[Rect, ...]
    side: int  # bounding square S = [0, side]^2 (side = 2n-1 after preprocessing)

    @property
    def n(self) -> int:
        return len(self.rects)


@dataclass(frozen=True)
class Solution:
    chosen: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.chosen)


def validate_solution(inst: Instance, sol: Solution) -> None:
    """The indices are distinct and in range, and their rects pairwise
    disjoint, read by the overlap kernel ``neighbour_masks`` reads too;
    of several overlapping pairs the least (a, b) is reported."""
    ids = sorted(sol.chosen)
    if len(set(ids)) != len(ids):
        raise InstanceError("solution repeats an index")
    for i in ids:
        if not 0 <= i < inst.n:
            raise InstanceError(f"solution index {i} out of range")
    pairs = _overlapping_pairs(_boxes(inst.rects[i] for i in ids))
    if pairs:
        a, b = min(pairs)
        raise InstanceError(f"solution rectangles {ids[a]} and {ids[b]} overlap")


def preprocess(rects: list[Rect]) -> Instance:
    """Order-preserving compression of x- and y-coordinates onto
    {0, ..., 2n-1}; the intersection graph is unchanged."""
    n = len(rects)
    if n == 0:
        raise InstanceError("empty instance")
    for r in rects:
        for c in (r.xl, r.xr, r.yb, r.yt):
            if abs(c) >= COORD_LIMIT:
                raise InstanceError(f"coordinate overflow: {c}")
    xs = sorted({c for r in rects for c in (r.xl, r.xr)})
    ys = sorted({c for r in rects for c in (r.yb, r.yt)})
    xr = {c: i for i, c in enumerate(xs)}
    yr = {c: i for i, c in enumerate(ys)}
    out = tuple(Rect(xr[r.xl], yr[r.yb], xr[r.xr], yr[r.yt]) for r in rects)
    return Instance(out, side=2 * n - 1)


def oracle_cap(cap: Optional[int] = None) -> int:
    """The largest n exact_mis accepts: `cap` when given, else the
    integer in MISR_ORACLE_CAP, else DEFAULT_ORACLE_CAP."""
    if cap is not None:
        return cap
    env = os.environ.get(ORACLE_CAP_ENV)
    if not env:
        return DEFAULT_ORACLE_CAP
    message = f"{ORACLE_CAP_ENV} must be an integer >= 1: {env!r}"
    try:
        value = int(env)
    except ValueError:
        raise InstanceError(message) from None
    if value < 1:
        raise InstanceError(message)
    return value


def _boxes(rects: Iterable[Rect]) -> list[tuple[int, int, int, int]]:
    """Each rect's (xl, yb, xr, yt), read once for the pair loops."""
    return [(r.xl, r.yb, r.xr, r.yt) for r in rects]


def _overlapping_pairs(boxes: Sequence[tuple[int, int, int, int]]) -> list[tuple[int, int]]:
    """Every pair (a, b), a < b, of boxes whose open interiors meet, in no
    set order: the one overlap kernel of the oracle and the maximal set.

    A sweep in order of xl: each box is tested, on y alone, against the
    boxes after it whose xl lies before its xr, the ones that overlap it
    on x; every x-overlapping pair is met once, at its box of lesser xl."""
    swept = sorted([(*box, i) for i, box in enumerate(boxes)])
    starts = [s[0] for s in swept]
    pairs = []
    for p, (_xl, yb, xr, yt, i) in enumerate(swept, 1):
        for _, oyb, _, oyt, j in swept[p : bisect_left(starts, xr, p)]:
            if oyb < yt and yb < oyt:
                pairs.append((i, j) if i < j else (j, i))
    return pairs


def neighbour_masks(rects: Sequence[Rect]) -> list[int]:
    """Each rect's neighbours in the intersection graph as an int mask
    (bit j is rects[j]), from the overlap kernel, which
    ``validate_solution`` reads too."""
    adj = [0] * len(rects)
    for a, b in _overlapping_pairs(_boxes(rects)):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def max_independent_mask(adj: Sequence[int], cand: int) -> int:
    """The lexicographically smallest maximum independent set among the
    vertices of the mask ``cand``, as a mask, in the graph whose neighbour
    masks are ``adj``.

    The connected components of cand are grown from their least index in
    index order, and each is solved on its own by a depth-first branch
    and bound: branch on the lowest candidate, including it before
    excluding it, and prune a node unless its size plus a greedy clique
    cover of its candidates beats the best size found.

    Including first visits the leaves in lexicographic order: where two
    leaves part, the earlier one holds the branching index and the later
    one does not, and every lower index is decided alike in both.  So no
    set of the maximum size is reached before the lex-smallest one, which
    the strict prune cannot cut, and nothing after it beats its size.

    The union of the components' answers is the whole answer, since a set
    is maximum iff its part in every component is.  For sets of equal
    size, S precedes T lexicographically iff min(S ^ T) lies in S.  If
    every component's part of S is its lex-smallest maximum set, then for
    any other maximum set T the least index of S ^ T is the least over
    the components of their parts of S ^ T, and each of those lies in S.
    """

    def cover(cand: int, limit: int) -> int:
        """Cliques of a greedy clique cover of cand, counted up to limit."""
        cliques = 0
        while cand and cliques < limit:
            low = cand & -cand
            cand ^= low
            pool = cand & adj[low.bit_length() - 1]
            while pool:  # every vertex of pool meets the whole clique so far
                u = pool & -pool
                cand ^= u
                pool &= adj[u.bit_length() - 1]
            cliques += 1
        return cliques if not cand else limit

    def search(cand: int, chosen: int, size: int) -> None:
        nonlocal best_size, best
        if not cand:
            if size > best_size:
                best_size, best = size, chosen
            return
        # Prune what cannot beat best_size; the first set of the maximum
        # size reached is the lex-smallest, and it beats what came before.
        if size + cover(cand, best_size - size + 1) <= best_size:
            return
        low = cand & -cand
        nbrs = adj[low.bit_length() - 1]
        search((cand ^ low) & ~nbrs, chosen | low, size + 1)
        if cand & nbrs:  # else every maximum set below this node holds low
            search(cand ^ low, chosen, size)

    chosen = 0
    rest = cand
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grow = adj[low.bit_length() - 1] & rest & ~comp
            comp |= grow
            frontier |= grow
        rest ^= comp
        best_size = best = 0
        search(comp, 0, 0)
        chosen |= best
    return chosen


def exact_mis(inst: Instance, cap: Optional[int] = None) -> Solution:
    """Maximum independent set of the intersection graph; among maximum
    sets the lexicographically smallest index set is returned.

    The cap bounds n, however the graph splits.  Vertex sets are int
    bitmasks (bit i is rect i), solved by ``max_independent_mask``, the
    search the DP asks for its cells' optima too."""
    n = inst.n
    if n > oracle_cap(cap):
        raise OracleCapError(f"oracle cap exceeded: n={n}")
    chosen = max_independent_mask(neighbour_masks(inst.rects), (1 << n) - 1)
    sol = Solution(tuple(i for i in range(n) if chosen >> i & 1))
    validate_solution(inst, sol)
    return sol


GENERATOR_KINDS = (
    "uniform_random", "nested_grid", "windmill", "stacked_strips", "packed", "pinwheel"
)

# Interlocking pinwheel: four pairwise-disjoint arms, every axis-parallel
# chord of the bounding square cuts one of them, plus a center rectangle
# overlapping all four arms.  Optimum is the four arms.
_WINDMILL_CELL = [
    Rect(0, 3, 3, 4),  # top arm
    Rect(3, 2, 4, 5),  # right arm
    Rect(2, 1, 5, 2),  # bottom arm
    Rect(1, 0, 2, 3),  # left arm
    Rect(1, 1, 4, 4),  # hub, overlaps all arms
]
_WINDMILL_SPAN = 5


def generate(kind: str, n: int, seed: int) -> Instance:
    """Deterministic instance families; output is always preprocessed."""
    if n < 1:
        raise InstanceError("n must be >= 1")
    if kind == "uniform_random":
        rng = random.Random(("uniform_random", n, seed).__repr__())
        span = 2 * n
        rects = []
        for _ in range(n):
            x1, x2 = sorted(rng.sample(range(span + 1), 2))
            y1, y2 = sorted(rng.sample(range(span + 1), 2))
            rects.append(Rect(x1, y1, x2, y2))
        return preprocess(rects)
    if kind == "nested_grid":
        rng = random.Random(("nested_grid", n, seed).__repr__())
        span = 4 * n
        rects = []
        for i in range(n):
            if i % 2 == 0:  # wide, flat; tends to nest tall neighbors
                w = rng.randrange(span // 2, span)
                h = rng.randrange(1, 3)
            else:  # tall, narrow
                w = rng.randrange(1, 3)
                h = rng.randrange(span // 2, span)
            x = rng.randrange(0, span - w + 1)
            y = rng.randrange(0, span - h + 1)
            rects.append(Rect(x, y, x + w, y + h))
        return preprocess(rects)
    if kind == "windmill":
        rects = []
        copies = (n + len(_WINDMILL_CELL) - 1) // len(_WINDMILL_CELL)
        for c in range(copies):
            dx = c * (_WINDMILL_SPAN + 1)
            for r in _WINDMILL_CELL:
                rects.append(Rect(r.xl + dx, r.yb, r.xr + dx, r.yt))
        return preprocess(rects[:n])
    if kind == "stacked_strips":
        rects = [Rect(0, 2 * i, 2 * n, 2 * i + 1) for i in range(n)]
        return preprocess(rects)
    if kind == "packed":  # dense and pairwise disjoint; may hold fewer than n
        rng = random.Random(("packed", n, seed).__repr__())
        span = 4 * n
        top = -(-span // 3)  # sides are drawn from [1, 4n/3)
        rects = []
        for _ in range(5000):
            if len(rects) == n:
                break
            w, h = rng.randrange(1, top), rng.randrange(1, top)
            x, y = rng.randrange(0, span - w + 1), rng.randrange(0, span - h + 1)
            r = Rect(x, y, x + w, y + h)
            if not any(rects_intersect(r, o) for o in rects):
                rects.append(r)
        return preprocess(rects)
    if kind == "pinwheel":  # windmill cells in a k x k grid at pitch 5, k = ceil(sqrt(n/4))
        k = isqrt(-(-n // 4) - 1) + 1
        cell = _WINDMILL_CELL if seed % 2 else _WINDMILL_CELL[:4]  # odd seeds keep the hubs
        rects = [
            Rect(r.xl + dx, r.yb + dy, r.xr + dx, r.yt + dy)
            for dy in range(0, k * _WINDMILL_SPAN, _WINDMILL_SPAN)
            for dx in range(0, k * _WINDMILL_SPAN, _WINDMILL_SPAN)
            for r in cell
        ]
        return preprocess(rects[:n])
    raise InstanceError(f"unknown generator kind {kind!r}")


# -- JSON interchange -------------------------------------------------------

_RECT_FIELDS = ("xl", "yb", "xr", "yt")


def instance_to_json(inst: Instance) -> dict:
    return {
        "n": inst.n,
        "rects": [
            {"xl": r.xl, "yb": r.yb, "xr": r.xr, "yt": r.yt} for r in inst.rects
        ],
    }


def _check_count(doc: dict, key: str, count: int, what: str) -> None:
    """A document's declared count, where it has one, must be an int (a
    bool is none) equal to the count read: ``True == 1`` in Python."""
    if key in doc:
        declared = doc[key]
        if not isinstance(declared, int) or isinstance(declared, bool):
            raise InstanceError(f"non-integer {key!r}: {declared!r}")
        if declared != count:
            raise InstanceError(f"declared {key} does not match {what} count")


def instance_from_json(doc: dict) -> Instance:
    if not isinstance(doc, dict) or not isinstance(doc.get("rects"), list):
        raise InstanceError("instance document needs a 'rects' list")
    rects = []
    for entry in doc["rects"]:
        if not isinstance(entry, dict) or any(f not in entry for f in _RECT_FIELDS):
            raise InstanceError(f"malformed rect entry: {entry!r}")
        vals = [entry[f] for f in _RECT_FIELDS]
        if any(not isinstance(v, int) or isinstance(v, bool) for v in vals):
            raise InstanceError(f"non-integer rect fields: {entry!r}")
        if any(abs(v) >= COORD_LIMIT for v in vals):
            raise InstanceError(f"coordinate overflow: {entry!r}")
        try:
            rects.append(Rect(*vals))
        except GeometryError as exc:
            raise InstanceError(str(exc)) from None
    _check_count(doc, "n", len(rects), "rect")
    if not rects:
        raise InstanceError("empty instance")
    inst = Instance(tuple(rects), side=2 * len(rects) - 1)
    for r in rects:
        if not (0 <= r.xl and r.xr <= inst.side and 0 <= r.yb and r.yt <= inst.side):
            return preprocess(list(rects))
    return inst


def solution_to_json(sol: Solution) -> dict:
    return {"chosen": sorted(sol.chosen), "size": sol.size}


def solution_from_json(doc: dict, inst: Optional[Instance] = None) -> Solution:
    if not isinstance(doc, dict) or "chosen" not in doc:
        raise InstanceError("solution document missing 'chosen'")
    chosen = doc["chosen"]
    if not isinstance(chosen, list) or any(
        not isinstance(i, int) or isinstance(i, bool) for i in chosen
    ):
        raise InstanceError("malformed 'chosen' list")
    _check_count(doc, "size", len(chosen), "chosen")
    sol = Solution(tuple(sorted(chosen)))
    if inst is not None:
        validate_solution(inst, sol)
    return sol


def write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON syntax or bytes that are not UTF-8
            raise InstanceError(f"malformed JSON: {exc}") from None
