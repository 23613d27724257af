"""The certification path's table reads against the checks as first
written (oracles.py): walk containment (RectPolygon.contains_walk), the
protection record's witness re-check (LineFences._holds), maximality
(assert_maximal) and validate_partition's root_is_square and
horizontal_edges_miss_rects must agree exactly, verdict and message, on
every node polygon and every witness of the partition sweep's runs
(sweep_digests.specs under its four regimes) and on mutated inputs: a
rect shrunk by one unit, a node edge pushed through a rect, a root that
is not square."""

import dataclasses
import random

import pytest

from misr.geom_core import GeometryError, Point, Rect, RectPolygon
from misr.instance import exact_mis, generate, instance_from_json
from misr.partition import PartitionNode, recursive_partition, validate_partition
from misr.structure import LineFences, MaximalSet, StructureError, assert_maximal, maximal_extension
from oracles import (
    ref_assert_maximal,
    ref_contains_walk,
    ref_holds,
    ref_horizontal_edges_miss_rects,
    ref_root_is_square,
)
from sweep_digests import REGIMES, specs
from test_cli import SIX_REPRODUCERS

CHECKED = ("root_is_square", "horizontal_edges_miss_rects")


@pytest.fixture(scope="module")
def sweep():
    """The partition sweep's maximal sets and runs, with every protection
    record a run made: (maximal sets, runs, [(polygon, witnesses)]), the
    witnesses a record inherited and those it proved."""
    real_init = LineFences.__init__
    made = []

    def init(self, poly, rects_in, tau=None, inherited=None):
        real_init(self, poly, rects_in, tau, inherited)
        made.append((self, list((inherited or {}).values())))

    sets, runs, records = [], [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LineFences, "__init__", init)
        for family, n, seed in specs():
            inst = generate(family, n, seed)
            m = maximal_extension(exact_mis(inst, cap=inst.n), inst)
            sets.append(m)
            for regime, eps in REGIMES:
                try:
                    runs.append(recursive_partition(m, regime, eps=eps))
                except Exception:  # the sweep's failing runs still made records
                    pass
                for record, inherited in made:
                    records.append((record.poly, record, inherited + list(record._proofs.values())))
                made.clear()
    return sets, runs, records


def _coord(rng, vals, lo, hi):
    """A vertex coordinate, one unit off one, or any in [lo, hi]."""
    pick = rng.random()
    if pick < 0.5:
        return rng.choice(vals)
    if pick < 0.7:
        return rng.choice(vals) + rng.choice((-1, 1))
    return rng.randint(lo, hi)


def _walks(rng, poly, count):
    """Horizontal and vertical one-segment walks (some of one point) and
    walks of 2-5 segments turning at each bend, ends near the polygon's
    vertex lines."""
    x0, y0, x1, y1 = poly.bbox()
    xs, ys = poly.coords()

    def x():
        return _coord(rng, xs, x0 - 1, x1 + 1)

    def y():
        return _coord(rng, ys, y0 - 1, y1 + 1)

    out = []
    for _ in range(count):
        c = y()
        out.append((Point(x(), c), Point(x(), c)))
        c = x()
        out.append((Point(c, y()), Point(c, y())))
        walk = [Point(x(), y())]
        horizontal = rng.random() < 0.5
        for _ in range(rng.randint(2, 5)):
            p = walk[-1]
            walk.append(Point(x(), p.y) if horizontal else Point(p.x, y()))
            horizontal = not horizontal
        out.append(tuple(walk))
    return out


def test_contains_walk_agrees_on_sweep_nodes(sweep):
    """contains_walk against the run-by-run test on every node polygon of
    the sweep, on random walks and on every witness walk the records
    hold; and _holds against the first-written re-check on every
    witness."""
    _sets, runs, records = sweep
    rng = random.Random(28)
    polys = {node.polygon for run in runs for node in run.nodes}
    polys.update(poly for poly, _record, _ws in records)
    verdicts = {True: 0, False: 0}
    for poly in sorted(polys, key=lambda p: p.vertices):
        for walk in _walks(rng, poly, 8):
            got = poly.contains_walk(walk)
            assert got == ref_contains_walk(poly, walk), (poly, walk)
            verdicts[got] += 1
    held = {True: 0, False: 0}
    flipped = 0
    inside = {}  # (polygon, walk): the reference verdict, computed once
    for poly, record, witnesses in records:
        for w in witnesses:
            for walk in w.walks:
                if (poly, walk) not in inside:
                    inside[poly, walk] = ref_contains_walk(poly, walk)
                assert poly.contains_walk(walk) == inside[poly, walk], (poly, walk)
            walks_inside = all(inside[poly, walk] for walk in w.walks)
            got = record._holds(w)
            assert got == ref_holds(poly, w.walks, w.left, walks_inside), (poly, w)
            held[got] += 1
            if w.left is not None:  # the same walks claimed for the other side
                other = w._replace(left=not w.left)
                got = record._holds(other)
                assert got == ref_holds(poly, other.walks, other.left, walks_inside), (poly, other)
                flipped += not got
    assert min(verdicts.values()) > 10_000, verdicts
    assert held[True] > 5_000 and held[False] > 100 and flipped > 1_000, (held, flipped)


def _outcome(check, m):
    try:
        check(m)
    except StructureError as exc:
        return str(exc)
    return None


def test_assert_maximal_agrees_on_shrunk_rects(sweep):
    """assert_maximal against the grown-rect test on every maximal set of
    the sweep, and with each rect shrunk, then grown, by one unit on each
    side: the same verdict and message."""
    sets, _runs, _records = sweep
    messages = set()
    for m in sets:
        assert _outcome(assert_maximal, m) is None
        assert _outcome(ref_assert_maximal, m) is None
        for i, r in enumerate(m.rects):
            for d in (-1, 1):
                for k in range(4):
                    box = [r.xl, r.yb, r.xr, r.yt]
                    box[k] += d if k >= 2 else -d
                    try:
                        changed = Rect(*box)
                    except GeometryError:
                        continue
                    rects = m.rects[:i] + (changed,) + m.rects[i + 1 :]
                    mutated = MaximalSet(rects, m.origin, m.side)
                    got = _outcome(assert_maximal, mutated)
                    assert got == _outcome(ref_assert_maximal, mutated), (m, i, box)
                    messages.add(got and got.split()[-1])
    assert {"left", "right", "bottom", "top", "overlap"} <= messages, messages


def _checked(report):
    return {c["name"]: (c["ok"], c["detail"]) for c in report if c["name"] in CHECKED}


def _refs(run):
    return {
        "root_is_square": (ref_root_is_square(run), ""),
        "horizontal_edges_miss_rects": ref_horizontal_edges_miss_rects(run),
    }


def _pushed(poly, i, d):
    """The polygon with its horizontal edge i moved by d rows, or None
    when that is no polygon."""
    vs = list(poly.vertices)
    j = (i + 1) % len(vs)
    vs[i], vs[j] = Point(vs[i].x, vs[i].y + d), Point(vs[j].x, vs[j].y + d)
    try:
        return RectPolygon(vs)
    except GeometryError:
        return None


def test_validate_checks_agree_on_sweep_and_mutations(sweep):
    """root_is_square and horizontal_edges_miss_rects against the
    first-written checks on every run of the sweep; on runs with a node's
    horizontal edge pushed by one or two rows, into or through a rect;
    and on roots that are not the square."""
    _sets, runs, _records = sweep
    for run in runs:
        assert _checked(validate_partition(run)) == _refs(run)
    rng = random.Random(2)
    hits = 0
    for run in rng.sample(runs, 60):
        for node in run.nodes[1:]:
            vs = node.polygon.vertices
            edges = [i for i in range(len(vs)) if vs[i].y == vs[(i + 1) % len(vs)].y]
            i, d = rng.choice(edges), rng.choice((-2, -1, 1, 2))
            poly = _pushed(node.polygon, i, d)
            if poly is None:
                continue
            nodes = list(run.nodes)
            nodes[node.id] = dataclasses.replace(node, polygon=poly)
            mutated = dataclasses.replace(run, nodes=nodes)
            got = _checked(validate_partition(mutated))
            assert got == _refs(mutated), (node.polygon, i, d)
            hits += not got["horizontal_edges_miss_rects"][0]
    assert hits > 50, hits
    for run in runs[::20]:
        s = run.side
        roots = [
            RectPolygon.from_rect(Rect(0, 0, s, s + 1)),
            RectPolygon.from_rect(Rect(1, 0, s, s)),
            RectPolygon(
                [Point(0, 0), Point(0, s), Point(s, s), Point(s, 1), Point(1, 1), Point(1, 0)]
            ),
        ]
        for root in roots:
            nodes = [PartitionNode(0, root, None, run.nodes[0].rects)] + run.nodes[1:]
            mutated = dataclasses.replace(run, nodes=nodes)
            assert _checked(validate_partition(mutated)) == _refs(mutated)
            assert not _refs(mutated)["root_is_square"][0]
        wider = dataclasses.replace(run, side=s + 1)
        assert _checked(validate_partition(wider)) == _refs(wider)
        assert not _refs(wider)["root_is_square"][0]


# The six reproducers that fail horizontal_edges_miss_rects (their marks,
# strict xfails of the certify test, are not taken over).
EDGE_FAILURES = [p for p in SIX_REPRODUCERS if p.id.endswith("edges-miss-rects")]


@pytest.mark.parametrize(
    "rects, name", [p.values + (p.id,) for p in EDGE_FAILURES], ids=[p.id for p in EDGE_FAILURES]
)
def test_horizontal_edge_failures_agree(rects, name):
    """The six runs that fail horizontal_edges_miss_rects fail it as the
    first-written check does, with the same detail; packed n = 48 seed 0
    at node 15, rect 2."""
    inst = instance_from_json({"rects": [dict(zip(("xl", "yb", "xr", "yt"), r)) for r in rects]})
    run = recursive_partition(maximal_extension(exact_mis(inst), inst), "six")
    got = _checked(validate_partition(run))
    assert got == _refs(run)
    assert not got["horizontal_edges_miss_rects"][0]
    if name == "packed48-s0-edges-miss-rects":
        assert got["horizontal_edges_miss_rects"][1] == "node 15 horizontal edge hits rect 2"
