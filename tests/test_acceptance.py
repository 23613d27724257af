"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  The approximation guarantees are certified in exact rational
arithmetic against the brute-force optimum over seeded instance sweeps.
"""

import random
from fractions import Fraction

import pytest

from misr.charging import (
    build_see_forest,
    charge_six,
    charge_three,
    charge_two_eps,
    verify_ratios,
)
from misr.cli import render_svg, run_pipeline
from misr.dp_solver import dp_solve
from misr.geom_core import Rect, is_horizontally_convex
from misr.instance import (
    exact_mis,
    generate,
    instance_from_json,
    instance_to_json,
    preprocess,
    solution_from_json,
    solution_to_json,
)
from misr.partition import (
    ConstructionError,
    chord_distance,
    general_partition_cut,
    line_partition_cut,
    recursive_partition,
    validate_partition,
    vertical_spanning_segment,
)
from misr.structure import (
    MaximalSet,
    classify_nesting,
    classify_nice,
    is_protected,
    is_tau_protected,
    maximal_extension,
)
from oracles import (
    all_chords,
    blob_polygon,
    criterion_6_units,
    dp_dominates_partition,
)

FAMILIES = ("uniform_random", "nested_grid", "windmill")


def sweep_instances():
    out = []
    for family in ("uniform_random", "nested_grid"):
        for n in range(3, 11):
            for seed in range(30):
                out.append((family, n, seed))
    for n in range(3, 11):
        for seed in range(3):
            out.append(("windmill", n, seed))
    return out


def _result(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def sweep():
    """All regime runs over the seeded sweep, with their verification
    reports; computed once."""
    specs = sweep_instances()
    assert len(specs) >= 500
    records = []
    for family, n, seed in specs:
        inst = generate(family, n, seed)
        opt = exact_mis(inst)
        m = maximal_extension(opt, inst)
        nesting = classify_nesting(m)  # raises on a Prop-5 violation
        nice = classify_nice(m)  # raises when a rect has no nice flag
        per_regime = {}
        run6 = recursive_partition(m, "six")
        led6 = charge_six(run6)
        per_regime["six"] = (run6, led6, verify_ratios(run6, led6, opt.size), None)
        run3 = recursive_partition(m, "three")
        led3 = charge_three(run3)
        per_regime["three"] = (run3, led3, verify_ratios(run3, led3, opt.size), None)
        for eps in (Fraction(1), Fraction(1, 2)):
            run2 = recursive_partition(m, "two_eps", eps=eps)
            led2, forest = charge_two_eps(run2, eps)
            per_regime[f"two_eps_{eps}"] = (
                run2, led2, verify_ratios(run2, led2, opt.size, forest), forest
            )
        records.append(
            {
                "spec": (family, n, seed),
                "inst": inst,
                "opt": opt.size,
                "m": m,
                "regimes": per_regime,
            }
        )
    return records


def _regime_violations(records, key, bound):
    violations = []
    for rec in records:
        run, _led, report, _forest = rec["regimes"][key]
        if bound * len(run.tracked) < rec["opt"]:
            violations.append((rec["spec"], "ratio"))
        for c in report:
            if not c["ok"]:
                violations.append((rec["spec"], c["name"]))
        tree = validate_partition(run)
        for c in tree:
            if not c["ok"]:
                violations.append((rec["spec"], "tree:" + c["name"]))
    return violations


def test_criterion_1_ratio_six(sweep):
    violations = _regime_violations(sweep, "six", 6)
    _result(
        "1 ratio-6 certification",
        not violations,
        f"{len(sweep)} instances, violations={violations[:5]}",
    )


def test_criterion_2_ratio_three(sweep):
    violations = _regime_violations(sweep, "three", 3)
    cuts = sum(
        1 for rec in sweep for node in rec["regimes"]["three"][0].nodes
        if node.cut is not None
    )
    _result(
        "2 ratio-3 certification",
        not violations,
        f"{len(sweep)} instances, {cuts} cuts verified, "
        f"violations={violations[:5]}",
    )


def test_criterion_3_ratio_two_eps(sweep):
    bad = []
    for eps in (Fraction(1), Fraction(1, 2)):
        bad += _regime_violations(sweep, f"two_eps_{eps}", 2 + eps)
    _result(
        "3 ratio-(2+eps) certification",
        not bad,
        f"eps in {{1, 1/2}}, case-2(b) never fired, violations={bad[:5]}",
    )


def test_criterion_4_charging_bounds(sweep):
    failures = []
    charged = 0
    for rec in sweep:
        for key, (run, led, report, forest) in rec["regimes"].items():
            charged += len(led.entries)
            for c in report:
                if not c["ok"]:
                    failures.append((rec["spec"], key, c["name"]))
        forest = build_see_forest(rec["m"].rects)
        if any(d > 1 for d in forest.in_degrees()):
            failures.append((rec["spec"], "H", "in_degree"))
    _result(
        "4 charging-bound suite",
        not failures,
        f"{charged} ledger entries, failures={failures[:5]}",
    )


def test_criterion_5_structural_propositions(sweep):
    # classify_nesting / classify_nice raise on violation and already ran
    # for every maximal set in the sweep fixture; re-run to count.
    count = 0
    for rec in sweep:
        classify_nesting(rec["m"])
        classify_nice(rec["m"])
        count += 1
    _result("5 structural propositions", True, f"{count} maximal sets checked")


def assert_run_record(run) -> int:
    """A run's node rect sets are what a scan of every work rect against
    the node polygon finds, no child holds a rect its parent's cut
    intersected, and the run's labels are those of its work rects.
    Returns the number of intersected rects."""
    work = run.work_rects
    intersected = 0
    for node in run.nodes:
        scan = tuple(i for i in range(len(work)) if node.polygon.contains_rect(work[i]))
        assert node.rects == scan, (node.id, node.rects, scan)
        for c in node.children:
            assert not set(node.intersected) & set(run.nodes[c].rects)
        intersected += len(node.intersected)
    wm = MaximalSet(work, run.origin, run.side)
    assert run.nesting == classify_nesting(wm)
    assert run.nice == (classify_nice(wm) if run.regime == "two_eps" else None)
    return intersected


def test_run_records_rects_and_labels(sweep):
    runs = 0
    for rec in sweep:
        for run, _led, _report, _forest in rec["regimes"].values():
            assert_run_record(run)
            runs += 1
    # packed inputs are where six intersects rects
    intersected = 0
    for n in (16, 24, 32):
        for seed in range(15):
            inst = generate("packed", n, seed)
            m = maximal_extension(exact_mis(inst, cap=n), inst)
            try:
                run = recursive_partition(m, "six")
            except ConstructionError as exc:
                assert "no repairable subpath found" in str(exc)
                continue
            intersected += assert_run_record(run)
            runs += 1
    assert runs > 2000 and intersected > 0, (runs, intersected)


def test_criterion_6_partitioning_units():
    line, general = criterion_6_units()
    checked_line = 0
    fails = []
    for k, poly, rects in line:
        try:
            res = line_partition_cut(poly, rects)
            assert len(res.cut.segments) <= 8
            assert 2 <= len(res.components) <= 3
            for comp in res.components:
                assert comp.is_simple and comp.num_edges <= 26
                assert is_horizontally_convex(comp)
            for rid in res.intersected:
                assert not is_protected(dict(rects)[rid], poly, rects)
        except Exception as exc:
            fails.append((k, str(exc)[:60]))
        checked_line += 1

    checked_general = 0
    for tau, k, poly, rects in general:
        try:
            res = general_partition_cut(poly, rects, tau)
            assert len(res.cut.segments) <= 2 * tau + 1
            assert len(res.components) == 2
            for comp in res.components:
                assert comp.is_simple and comp.num_edges <= 30 * tau + 18
            for rid in res.intersected:
                assert not is_tau_protected(dict(rects)[rid], poly, rects, tau)
        except Exception as exc:
            fails.append((tau, k, str(exc)[:60]))
        checked_general += 1
    _result(
        "6 partitioning units",
        not fails,
        f"{checked_line} line cuts + {checked_general} general cuts, "
        f"fails={fails[:4]}",
    )


def test_criterion_7_spanning_chord():
    rng = random.Random(7)
    checked = 0
    fails = []
    while checked < 200:
        poly = blob_polygon(rng, grid=7, cells=rng.randrange(5, 26))
        k = poly.num_edges
        if not 4 <= k <= 24:
            continue
        _seg, chord = vertical_spanning_segment(poly)
        d = chord_distance(poly, chord)
        if 3 * d < k:
            fails.append((k, d, "below k/3"))
        best = max(all_chords(poly), key=lambda c: chord_distance(poly, c))
        if chord != best:
            fails.append((k, d, chord_distance(poly, best), "not the oracle's best"))
        checked += 1
    _result("7 k/3 chord bound", not fails, f"{checked} polygons, fails={fails[:4]}")


def test_criterion_8_dp_correctness():
    rng = random.Random(8)
    fails = []
    # equality whenever the optimum is at most 2 (heavily overlapping
    # instances keep the optimum small)
    checked_small = 0
    attempts = 0
    while checked_small < 40 and attempts < 4000:
        attempts += 1
        n = rng.randrange(2, 9)
        span = rng.randrange(3, 6)
        rects = []
        for _ in range(n):
            x1, x2 = sorted(rng.sample(range(span + 1), 2))
            y1, y2 = sorted(rng.sample(range(span + 1), 2))
            rects.append(Rect(x1, y1, x2, y2))
        inst = preprocess(rects)
        opt = exact_mis(inst).size
        if opt > 2:
            continue
        val = dp_solve(inst, 4, 3).size
        if val != opt:
            fails.append(("opt<=2", n, val, opt))
        checked_small += 1
    # never exceeds the optimum
    for seed in range(20):
        inst = generate("uniform_random", 3 + seed % 6, seed)
        if dp_solve(inst, 4, 1).size > exact_mis(inst).size:
            fails.append(("exceeds", seed))
    # frozen windmill values: guillotine 3; richer language 4
    wm = generate("windmill", 5, 0)
    if dp_solve(wm, 4, 1).size != 3:
        fails.append(("windmill-b1",))
    if dp_solve(wm, 4, 3).size != 3:
        fails.append(("windmill-k4-b3",))
    if dp_solve(wm, 6, 3, ("path",)).size != 4:
        fails.append(("windmill-k6-b3",))
    _result(
        "8 dp correctness",
        not fails,
        f"{checked_small} small-optimum instances, windmill 3/3/4, "
        f"fails={fails[:4]}",
    )


def test_criterion_9_dominance():
    from test_dp_solver import build_guillotine_tree

    rng = random.Random(9)
    fails = []
    for i in range(50):
        inst, tracked = build_guillotine_tree(rng)
        if not dp_dominates_partition(inst, tracked, 4, 1):
            fails.append(i)
    _result("9 dp dominance", not fails, f"50 guillotine trees, fails={fails}")


def test_criterion_10_determinism_and_round_trips():
    fails = []
    for family in FAMILIES:
        inst = generate(family, 6, 11)
        doc = instance_to_json(inst)
        if instance_to_json(instance_from_json(doc)) != doc:
            fails.append((family, "instance json"))
        sol = exact_mis(inst)
        if solution_from_json(solution_to_json(sol), inst) != sol:
            fails.append((family, "solution json"))
    inst = generate("windmill", 5, 0)
    arts = []
    for _ in range(2):
        _sol, rep, art = run_pipeline(inst, "six")
        art["report"].pop("wall_ms")
        arts.append((art, render_svg({**art, "report": None} if False else art)))
    import json as _json

    same_json = _json.dumps(arts[0][0], sort_keys=True) == _json.dumps(
        arts[1][0], sort_keys=True
    )
    same_svg = arts[0][1] == arts[1][1]
    if not same_json:
        fails.append(("six", "artifacts differ"))
    if not same_svg:
        fails.append(("six", "svg differs"))
    _result("10 determinism and round-trips", not fails, f"fails={fails}")
