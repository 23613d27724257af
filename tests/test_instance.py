import json
import random
from itertools import combinations

import pytest

from misr.geom_core import Rect, rects_intersect
from misr.instance import (
    DEFAULT_ORACLE_CAP,
    GENERATOR_KINDS,
    Instance,
    InstanceError,
    OracleCapError,
    Solution,
    exact_mis,
    generate,
    instance_from_json,
    instance_to_json,
    max_independent_mask,
    neighbour_masks,
    preprocess,
    solution_from_json,
    solution_to_json,
    validate_solution,
)
from oracles import brute_force_mis, intersection_matrix


def random_instance(rng: random.Random, n: int, span: int | None = None) -> Instance:
    span = span or 2 * n
    rects = []
    for _ in range(n):
        x1, x2 = sorted(rng.sample(range(span + 1), 2))
        y1, y2 = sorted(rng.sample(range(span + 1), 2))
        rects.append(Rect(x1, y1, x2, y2))
    return preprocess(rects)


class TestPreprocess:
    def test_single_rect_compresses_to_unit(self):
        inst = preprocess([Rect(5, 7, 100, 900)])
        assert inst.rects == (Rect(0, 0, 1, 1),)
        assert inst.side == 1

    def test_idempotent(self):
        rng = random.Random(0)
        for _ in range(20):
            inst = random_instance(rng, rng.randrange(1, 8))
            again = preprocess(list(inst.rects))
            assert again.rects == inst.rects

    def test_intersection_graph_preserved(self):
        rng = random.Random(1)
        for _ in range(30):
            n = rng.randrange(2, 9)
            span = rng.randrange(4, 40)
            raw = []
            for _ in range(n):
                x1, x2 = sorted(rng.sample(range(span + 1), 2))
                y1, y2 = sorted(rng.sample(range(span + 1), 2))
                raw.append(Rect(x1, y1, x2, y2))
            before = intersection_matrix(tuple(raw))
            after = intersection_matrix(preprocess(raw).rects)
            assert before == after

    def test_coordinates_in_range(self):
        rng = random.Random(2)
        for _ in range(20):
            inst = random_instance(rng, rng.randrange(1, 10), span=1000)
            for r in inst.rects:
                assert 0 <= r.xl < r.xr <= inst.side
                assert 0 <= r.yb < r.yt <= inst.side


class TestExactMis:
    def test_disjoint_takes_all(self):
        inst = generate("stacked_strips", 7, 0)
        assert exact_mis(inst).size == 7

    def test_three_rect_chain(self):
        # 1 meets 2, 2 meets 3, 1 and 3 disjoint: optimum is {0, 2}
        inst = preprocess(
            [Rect(0, 0, 4, 2), Rect(3, 0, 7, 2), Rect(6, 0, 10, 2)]
        )
        sol = exact_mis(inst)
        assert sol.chosen == (0, 2)

    def test_all_pairwise_overlapping(self):
        inst = preprocess([Rect(0, 0, 10, 10), Rect(1, 1, 9, 9), Rect(2, 2, 8, 8)])
        assert exact_mis(inst).size == 1

    def test_matches_brute_force_and_lex_order(self):
        rng = random.Random(3)
        for _ in range(40):
            inst = random_instance(rng, rng.randrange(1, 9))
            sol = exact_mis(inst)
            size, lex = brute_force_mis(inst)
            assert sol.size == size
            assert sol.chosen == lex

    def test_no_larger_independent_set(self):
        rng = random.Random(4)
        for _ in range(10):
            inst = random_instance(rng, 7)
            sol = exact_mis(inst)
            for combo in combinations(range(inst.n), sol.size + 1):
                assert any(
                    rects_intersect(inst.rects[a], inst.rects[b])
                    for a, b in combinations(combo, 2)
                )

    def test_cap(self):
        inst = generate("uniform_random", DEFAULT_ORACLE_CAP + 1, 0)
        with pytest.raises(OracleCapError):
            exact_mis(inst)
        assert exact_mis(inst, cap=inst.n).size >= 1

    def test_matches_reference_on_generators(self):
        for kind in GENERATOR_KINDS:
            for n in range(1, 17):
                for seed in range(10):
                    inst = generate(kind, n, seed)
                    sol = exact_mis(inst)
                    assert (sol.size, sol.chosen) == brute_force_mis(inst), (kind, n, seed)

    def test_disjoint_copies_match_brute_force(self):
        """Translated copies of one small instance, their rects shuffled so
        that the components' indices interleave: the lex rule has to hold
        across components."""
        rng = random.Random(5)
        for _ in range(60):
            copies = rng.randrange(2, 5)
            base = random_instance(rng, rng.randrange(1, 12 // copies + 1))
            shift = base.side + 1
            rects = [
                Rect(r.xl + c * shift, r.yb, r.xr + c * shift, r.yt)
                for c in range(copies)
                for r in base.rects
            ]
            rng.shuffle(rects)
            inst = preprocess(rects)
            size, lex = brute_force_mis(inst)
            assert exact_mis(inst).chosen == lex
            assert size == copies * exact_mis(base).size

    def test_search_on_random_masks_matches_brute_force(self):
        """The search exact_mis and the DP share, on random graphs and a
        random candidate mask each: the lex-smallest maximum independent
        subset of the candidates, found by trying every subset."""
        rng = random.Random(6)
        for _ in range(300):
            n = rng.randrange(1, 11)
            adj = [0] * n
            density = rng.random()
            for i, j in combinations(range(n), 2):
                if rng.random() < density:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            cand = rng.getrandbits(n)
            verts = [i for i in range(n) if cand >> i & 1]
            want = 0
            for size in range(len(verts), 0, -1):
                for combo in combinations(verts, size):  # lexicographic order
                    if all(not adj[a] >> b & 1 for a, b in combinations(combo, 2)):
                        want = sum(1 << i for i in combo)
                        break
                if want:
                    break
            assert max_independent_mask(adj, cand) == want, (adj, cand)

    def test_neighbour_masks_are_the_intersection_graph(self):
        rng = random.Random(7)
        insts = [random_instance(rng, rng.randrange(1, 12)) for _ in range(20)]
        # larger sets with many shared coordinates and overlaps: the
        # kernel's sweep meets equal left edges and long runs of x-overlaps
        insts += [generate("uniform_random", 80, 0), generate("nested_grid", 80, 1)]
        insts += [generate("pinwheel", 100, 1), generate("windmill", 60, 0)]
        for inst in insts:
            adj = neighbour_masks(inst.rects)
            for i, j in combinations(range(inst.n), 2):
                meet = rects_intersect(inst.rects[i], inst.rects[j])
                assert (adj[i] >> j & 1, adj[j] >> i & 1) == (meet, meet)
            assert not any(adj[i] >> i & 1 for i in range(inst.n))

    def test_packed_120_takes_all(self):
        inst = generate("packed", 120, 0)
        assert exact_mis(inst, cap=inst.n).chosen == tuple(range(inst.n))

    def test_windmill_60_takes_the_arms(self):
        # twelve pinwheels; each hub (every fifth rect) meets its four arms
        inst = generate("windmill", 60, 0)
        sol = exact_mis(inst, cap=inst.n)
        assert sol.size == 48
        assert sol.chosen == tuple(i for i in range(60) if i % 5 != 4)


class TestGenerators:
    def test_windmill_optimum_is_four(self):
        inst = generate("windmill", 5, 0)
        assert inst.n == 5
        size, _ = brute_force_mis(inst)
        assert size == 4
        assert exact_mis(inst).size == 4

    def test_windmill_not_guillotine_separable(self):
        # every axis-parallel chord of S cuts some rect of the optimum
        inst = generate("windmill", 5, 0)
        opt = exact_mis(inst).chosen
        from misr.geom_core import Point, Segment, segment_intersects_rect

        span = max(r.xr for r in inst.rects)
        for x in range(1, span):
            seg = Segment(Point(x, 0), Point(x, inst.side))
            assert any(segment_intersects_rect(seg, inst.rects[i]) for i in opt)
        for y in range(1, max(r.yt for r in inst.rects)):
            seg = Segment(Point(0, y), Point(inst.side, y))
            assert any(segment_intersects_rect(seg, inst.rects[i]) for i in opt)

    def test_determinism(self):
        for kind in GENERATOR_KINDS:
            a = generate(kind, 6, 42)
            b = generate(kind, 6, 42)
            assert a == b

    def test_pinwheel_tiles_the_windmill_cell(self):
        """k = ceil(sqrt(n/4)) rows and columns of windmill cells at pitch
        5, row by row, truncated to n; even seeds drop the hubs, odd seeds
        keep them, and the seed is read for nothing else."""
        hubless = [Rect(0, 3, 3, 4), Rect(3, 2, 4, 5), Rect(2, 1, 5, 2), Rect(1, 0, 2, 3)]
        cell = hubless + [Rect(1, 1, 4, 4)]
        for n, k in ((1, 1), (4, 1), (5, 2), (16, 2), (17, 3), (36, 3), (37, 4)):
            for seed, kept in ((0, hubless), (1, cell)):
                rects = [
                    Rect(r.xl + 5 * col, r.yb + 5 * row, r.xr + 5 * col, r.yt + 5 * row)
                    for row in range(k)
                    for col in range(k)
                    for r in kept
                ]
                inst = generate("pinwheel", n, seed)
                assert inst == preprocess(rects[:n]), (n, seed)
                assert generate("pinwheel", n, seed + 2) == inst

    def test_pinwheel_optimum_takes_the_arms(self):
        inst = generate("pinwheel", 64, 0)  # 4 x 4, no hubs: pairwise disjoint
        assert exact_mis(inst, cap=inst.n).chosen == tuple(range(64))
        inst = generate("pinwheel", 45, 1)  # 3 x 3 cells of five
        assert exact_mis(inst, cap=inst.n).chosen == tuple(i for i in range(45) if i % 5 != 4)

    def test_stacked_strips_all_disjoint(self):
        inst = generate("stacked_strips", 9, 5)
        assert exact_mis(inst, cap=9).size == 9

    def test_packed_dense_and_disjoint(self):
        """packed fills its square with n pairwise-disjoint rects at these
        sizes, and stops drawing when the square is too full."""
        for n in (3, 12, 24, 32):
            for seed in range(5):
                inst = generate("packed", n, seed)
                assert inst.n == n
                assert not any(
                    rects_intersect(a, b) for i, a in enumerate(inst.rects) for b in inst.rects[i + 1 :]
                )
        assert generate("packed", 100, 7).n == 91

    def test_unknown_kind(self):
        with pytest.raises(InstanceError):
            generate("mystery", 3, 0)

    def test_emits_preprocessed(self):
        for kind in GENERATOR_KINDS:
            inst = generate(kind, 7, 1)
            assert preprocess(list(inst.rects)).rects == inst.rects


class TestJson:
    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(20):
            inst = random_instance(rng, rng.randrange(1, 9))
            assert instance_from_json(instance_to_json(inst)) == inst

    def test_missing_rects(self):
        with pytest.raises(InstanceError):
            instance_from_json({"n": 2})

    def test_non_integer_fields(self):
        with pytest.raises(InstanceError):
            instance_from_json({"rects": [{"xl": 0.5, "yb": 0, "xr": 1, "yt": 1}]})

    def test_overflow(self):
        with pytest.raises(InstanceError):
            instance_from_json(
                {"rects": [{"xl": 0, "yb": 0, "xr": 2**63, "yt": 1}]}
            )

    def test_solution_round_trip(self):
        sol = Solution((0, 2, 5))
        assert solution_from_json(solution_to_json(sol)) == sol

    def test_solution_overlap_rejected(self):
        inst = preprocess([Rect(0, 0, 4, 4), Rect(1, 1, 5, 5)])
        with pytest.raises(InstanceError):
            solution_from_json({"chosen": [0, 1], "size": 2}, inst)

    def test_solution_overlap_names_the_least_pair(self):
        # chosen 1 and 5 overlap at the right, 2 and 4 further left
        rects = [Rect(0, 6, 1, 7), Rect(8, 0, 10, 2), Rect(0, 0, 2, 2), Rect(4, 4, 5, 5)]
        rects += [Rect(1, 1, 3, 3), Rect(9, 1, 11, 3)]
        inst = Instance(tuple(rects), side=11)
        with pytest.raises(InstanceError, match="^solution rectangles 1 and 5 overlap$"):
            validate_solution(inst, Solution((5, 4, 2, 1)))
        with pytest.raises(InstanceError, match="^solution rectangles 2 and 4 overlap$"):
            validate_solution(inst, Solution((0, 2, 3, 4)))

    def test_solution_size_mismatch(self):
        with pytest.raises(InstanceError):
            solution_from_json({"chosen": [0], "size": 2})

    @pytest.mark.parametrize("n", [True, 1.0, "1", None])
    def test_non_integer_n(self, n):
        """A declared n must be an int: True and 1.0 equal 1 in Python."""
        rect = {"xl": 0, "yb": 0, "xr": 1, "yt": 1}
        with pytest.raises(InstanceError, match="non-integer 'n'"):
            instance_from_json({"n": n, "rects": [rect]})

    @pytest.mark.parametrize(
        "doc",
        [
            {"chosen": [0], "size": True},
            {"chosen": [], "size": False},
            {"chosen": [0, 1], "size": 2.0},
        ],
    )
    def test_non_integer_size(self, doc):
        """A declared size must be an int: True equals 1 and False 0."""
        with pytest.raises(InstanceError, match="non-integer 'size'"):
            solution_from_json(doc)
