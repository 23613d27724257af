"""Recursive runs on pinwheels (``generate("pinwheel", n, 0)``, the
windmill cell's four arms tiled without hubs), the inputs on which the
paper's general cases run and six loses rects.  Each run's histogram of
construction cases and the rects it loses are pinned; the pinwheel
section of sweep_digests.py keeps the same runs under refactors."""

from collections import Counter
from fractions import Fraction

import pytest

from misr.cli import run_pipeline
from misr.instance import ORACLE_CAP_ENV, exact_mis, generate
from misr.partition import recursive_partition, validate_partition
from misr.structure import maximal_extension


@pytest.fixture(scope="module")
def pinwheel_6x6():
    inst = generate("pinwheel", 144, 0)
    return maximal_extension(exact_mis(inst, cap=inst.n), inst)


@pytest.mark.parametrize("regime, eps", [("three", None), ("two_eps", Fraction(1, 2))])
def test_tau_1_reaches_case_2_on_pinwheel_6x6(pinwheel_6x6, regime, eps):
    """At tau = 1, with every check on, both regimes leave case 0 on five
    nodes (case 2b ii A) and lose the five rects those cuts intersect."""
    run = recursive_partition(pinwheel_6x6, regime, eps=eps, tau=1, check=True)
    cases = Counter(node.case for node in run.nodes if node.case)
    assert cases == {"general-0": 128, "general-0+repair": 5, "general-2biiA": 5}
    lost = sorted(set(range(144)) - run.tracked)
    assert lost == sorted(i for node in run.nodes for i in node.intersected)
    assert lost == [28, 32, 36, 40, 44]
    assert all(check["ok"] for check in validate_partition(run))


@pytest.mark.parametrize(
    "n, cases, lost",
    [
        (16, {"line-degenerate": 7, "line-degenerate+mirrored": 2, "line+mirrored": 5}, [4, 10]),
        (
            24,
            {"line-degenerate": 11, "line-degenerate+mirrored": 2, "line+mirrored": 7},
            [4, 8, 14, 18],
        ),
    ],
)
def test_six_certifies_lossy_pinwheels(monkeypatch, n, cases, lost):
    """six through run_pipeline on 2 x 2 and 3 x 2 pinwheels: every check
    passes with an empty ledger while the run loses rects."""
    monkeypatch.setenv(ORACLE_CAP_ENV, str(n))
    sol, report, artifacts = run_pipeline(generate("pinwheel", n, 0), "six")
    assert report.ok() and report.opt == n and report.checks
    assert artifacts["ledger"]["entries"] == []
    assert Counter(node["case"] for node in artifacts["partition"]["nodes"] if node["case"]) == cases
    assert sorted(set(range(n)) - set(sol.chosen)) == lost
    assert sol.size == n - len(lost)
