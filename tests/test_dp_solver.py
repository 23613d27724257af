import random

import pytest

from misr.geom_core import Rect
from misr.dp_solver import (
    DpCellCapError,
    DpError,
    DpStats,
    canon_loop,
    containment_prune,
    dp_solve,
    surgery,
)
from misr.instance import exact_mis, generate, preprocess
from oracles import ref_dp_solve
from test_instance import random_instance


class TestSurgery:
    def test_chord_split(self):
        loop, area2 = canon_loop([(0, 0), (0, 4), (6, 4), (6, 0)])
        (a, a_area2), (b, b_area2) = surgery(loop, [(2, 0), (2, 4)], area2)
        assert sorted(len(p) for p in (a, b)) == [4, 4]
        assert a_area2 + b_area2 == area2 == 48

    def test_z_path_split(self):
        loop, area2 = canon_loop([(0, 0), (0, 4), (6, 4), (6, 0)])
        parts = surgery(loop, [(2, 0), (2, 2), (4, 2), (4, 4)], area2)
        assert sorted(len(p) for p, _a in parts) == [6, 6]
        assert sum(a for _p, a in parts) == area2


class TestContainmentPrune:
    def test_container_dropped(self):
        rects = [Rect(0, 0, 5, 5), Rect(1, 1, 3, 3)]
        assert containment_prune(rects) == [1]

    def test_duplicates_keep_first(self):
        rects = [Rect(0, 0, 2, 2), Rect(0, 0, 2, 2)]
        assert containment_prune(rects) == [0]

    def test_overlap_kept(self):
        rects = [Rect(0, 0, 4, 4), Rect(2, 2, 6, 6)]
        assert containment_prune(rects) == [0, 1]


WINDMILL = generate("windmill", 5, 0)


class TestDpSolve:
    def test_disjoint_all_selected(self):
        inst = generate("stacked_strips", 6, 0)
        assert dp_solve(inst, 4, 1).size == 6

    def test_windmill_frozen_values(self):
        # guillotine value of the interlocking pinwheel is 3; the richer
        # language (k = 6, three-segment paths) recovers the optimum 4
        assert dp_solve(WINDMILL, 4, 1).size == 3
        assert dp_solve(WINDMILL, 4, 3).size == 3
        assert dp_solve(WINDMILL, 6, 3, ("path",)).size == 4

    def test_never_exceeds_exact_and_matches_small_opt(self):
        rng = random.Random(0)
        for _ in range(25):
            inst = random_instance(rng, rng.randrange(2, 8))
            d = dp_solve(inst, 4, 1).size
            e = exact_mis(inst).size
            assert d <= e
            if e <= 2:
                assert d == e

    def test_matches_naive_enumeration(self):
        # checks dp_solve's value against the first-written DP, whose
        # early exit and tie-breaking match the library's
        rng = random.Random(1)
        for _ in range(6):
            inst = random_instance(rng, rng.randrange(2, 5), span=6)
            assert dp_solve(inst, 4, 1).size == ref_dp_solve(inst, 4, 1, ("path",))[0]
        inst = preprocess([Rect(0, 0, 3, 2), Rect(1, 2, 4, 5), Rect(3, 0, 5, 2)])
        assert dp_solve(inst, 6, 2, ("path",)).size == ref_dp_solve(inst, 6, 2, ("path",))[0]

    def test_k_monotone(self):
        rng = random.Random(2)
        for _ in range(4):
            inst = random_instance(rng, 4, span=6)
            v4 = dp_solve(inst, 4, 3).size
            v6 = dp_solve(inst, 6, 3, ("path",)).size
            assert v4 <= v6

    def test_deterministic(self):
        inst = generate("uniform_random", 6, 3)
        a = dp_solve(inst, 4, 1)
        b = dp_solve(inst, 4, 1)
        assert a == b

    def test_cell_cap(self):
        with pytest.raises(DpCellCapError):
            dp_solve(WINDMILL, 4, 1, cell_cap=3)

    @pytest.mark.parametrize(
        "spec, k, b, shapes, cells",
        [
            (("windmill", 5, 0), 4, 3, ("path", "tree"), 78),
            (("nested_grid", 3, 1), 6, 2, ("path",), 85),
        ],
        ids=["k4-windmill", "k6-nested_grid"],
    )
    def test_cell_cap_is_exact(self, spec, k, b, shapes, cells):
        """The cap counts the cells stored: a run fits a cap of exactly its
        cell count, and one cell fewer raises."""
        inst = generate(*spec)
        stats = DpStats()
        sol = dp_solve(inst, k, b, shapes, stats=stats)
        assert stats.cells == cells
        assert dp_solve(inst, k, b, shapes, cell_cap=cells) == sol
        with pytest.raises(DpCellCapError):
            dp_solve(inst, k, b, shapes, cell_cap=cells - 1)

    def test_bad_params(self):
        with pytest.raises(DpError):
            dp_solve(WINDMILL, 5, 1)
        with pytest.raises(DpError):
            dp_solve(WINDMILL, 4, 0)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cell_cap_below_one(self, cap):
        # refused before any cell is solved, not as an exceeded memo
        with pytest.raises(DpError, match="cell cap must be >= 1"):
            dp_solve(WINDMILL, 4, 1, cell_cap=cap)

    def test_no_cut_shape_refused(self):
        with pytest.raises(DpError, match="no cut shape given"):
            dp_solve(WINDMILL, 4, 1, ())

    def test_tree_alone_at_k4_refused(self):
        # tree cuts need k > 4, so tree alone names no cut at k = 4; with
        # path it is the CLI default, and alone it is read at k = 6
        with pytest.raises(DpError, match="tree cuts need k > 4"):
            dp_solve(WINDMILL, 4, 1, ("tree",))
        assert dp_solve(WINDMILL, 4, 1, ("path", "tree")).size == 3
        assert dp_solve(generate("uniform_random", 3, 0), 6, 1, ("tree",)).size >= 1

    def test_tree_cuts_at_k6(self):
        # a T-subdivision is reachable with tree cuts; value must not drop
        inst = preprocess(
            [Rect(0, 0, 2, 4), Rect(2, 0, 4, 2), Rect(2, 2, 4, 4)]
        )
        v_path = dp_solve(inst, 6, 2, ("path",)).size
        v_tree = dp_solve(inst, 6, 2, ("path", "tree")).size
        assert v_tree >= v_path
        assert v_tree == 3


def build_guillotine_tree(rng: random.Random, depth: int = 3):
    """A random k=4 guillotine partition: recursive chords of S, one rect
    placed inside each leaf cell."""
    side = 32
    leaves = []

    def split(x0, y0, x1, y1, d):
        if d == 0 or (x1 - x0 < 6 and y1 - y0 < 6):
            leaves.append((x0, y0, x1, y1))
            return 1
        if rng.random() < 0.5 and x1 - x0 >= 6:
            x = rng.randrange(x0 + 3, x1 - 2)
            return split(x0, y0, x, y1, d - 1) + split(x, y0, x1, y1, d - 1)
        if y1 - y0 >= 6:
            y = rng.randrange(y0 + 3, y1 - 2)
            return split(x0, y0, x1, y, d - 1) + split(x0, y, x1, y1, d - 1)
        x = rng.randrange(x0 + 3, x1 - 2)
        return split(x0, y0, x, y1, d - 1) + split(x, y0, x1, y1, d - 1)

    split(0, 0, side, side, depth)
    rects = []
    for (x0, y0, x1, y1) in leaves:
        rects.append(Rect(x0 + 1, y0 + 1, x1 - 1, y1 - 1))
    return preprocess(rects), len(rects)


class TestDominance:
    def test_guillotine_trees(self):
        rng = random.Random(3)
        for _ in range(10):
            inst, tracked = build_guillotine_tree(rng)
            assert dp_solve(inst, 4, 1).size >= tracked

    def test_vacuous_tree(self):
        # three disjoint strips: the optimum takes all three
        inst = generate("stacked_strips", 3, 0)
        assert dp_solve(inst, 4, 1).size == exact_mis(inst).size == 3

    def test_six_regime_tree_on_tiny_instance(self):
        # a three-rect instance whose six-regime cuts are expressible as
        # short paths: the DP at a generous k dominates the tracked set
        from misr.partition import recursive_partition
        from misr.structure import maximal_extension

        inst = preprocess([Rect(0, 0, 2, 5), Rect(2, 0, 4, 5), Rect(4, 0, 5, 5)])
        opt = exact_mis(inst)
        from misr.structure import maximal_extension

        m = maximal_extension(opt, inst)
        run = recursive_partition(m, "six")
        budget = max(
            (len(n.cut.segments) for n in run.nodes if n.cut is not None),
            default=1,
        )
        assert budget <= 3
        assert dp_solve(inst, 8, max(budget, 1), ("path", "tree")).size >= len(run.tracked)
