"""Mutated JSON documents reach the readers and `misr render`: the only
outcome allowed besides success is InstanceError (exit status 2 from the
command line), never another exception."""

import copy
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from misr.charging import ledger_from_json
from misr.cli import main, run_pipeline
from misr.instance import (
    InstanceError,
    generate,
    instance_from_json,
    instance_to_json,
    solution_from_json,
    solution_to_json,
)

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.integers(-3, 40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.sampled_from(["1/0", "a/b", "3/2", "TL", "BR", "six", "path", "-1"]),
)
VALUES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8,
)


def _paths(doc, path=()):
    """The root and every dict key and list index below it."""
    yield path
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, path + (i,))


@st.composite
def mutated(draw, doc):
    """doc after one to three edits: a value replaced, an integer nudged,
    or a key or list item deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = draw(st.sampled_from(("replace", "nudge", "delete")))
        value = parent[key]
        if op == "delete":
            del parent[key]
        elif op == "nudge" and isinstance(value, int) and not isinstance(value, bool):
            parent[key] = value + draw(st.integers(-3, 3).filter(bool))
        else:
            parent[key] = draw(VALUES)
    return doc


# The sweep's ledgers are empty, so the bundles carry hand-made entries
# for the mutations to reach.
ENTRIES = [
    {"payer": 0, "payee": 1, "corner": "TL", "amount": "1/2", "kind": "direct",
     "node": 0, "side": "left", "seen": True},
    {"payer": 2, "payee": 3, "corner": "BR", "amount": "1/1", "kind": "leaf_full",
     "node": 1, "side": "", "seen": False},
]


def _bundle(regime):
    inst = generate("windmill", 5, 0)
    eps = Fraction(1, 2) if regime == "two_eps" else None
    _sol, report, artifacts = run_pipeline(inst, regime, eps=eps)
    artifacts["report"] = report.to_json()
    artifacts["ledger"]["entries"] = copy.deepcopy(ENTRIES)
    return artifacts


BUNDLES = {regime: _bundle(regime) for regime in ("six", "two_eps")}
INSTANCE_DOC = instance_to_json(generate("uniform_random", 6, 1))
FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _only_instance_error(fn, *args):
    try:
        fn(*args)
    except InstanceError:
        pass


@FUZZ
@given(st.data())
def test_instance_reader(data):
    _only_instance_error(instance_from_json, data.draw(mutated(INSTANCE_DOC)))


@FUZZ
@given(st.data())
def test_solution_reader(data):
    inst = instance_from_json(INSTANCE_DOC)
    doc = data.draw(mutated(solution_to_json(run_pipeline(inst, "exact")[0])))
    _only_instance_error(solution_from_json, doc)
    _only_instance_error(solution_from_json, doc, inst)


@pytest.mark.parametrize("regime", sorted(BUNDLES))
@FUZZ
@given(data=st.data())
def test_ledger_reader(regime, data):
    _only_instance_error(ledger_from_json, data.draw(mutated(BUNDLES[regime]["ledger"])))


@pytest.mark.parametrize("regime", sorted(BUNDLES))
@FUZZ
@given(data=st.data())
def test_render_exits_cleanly(regime, data):
    doc = data.draw(mutated(BUNDLES[regime]))
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "bundle.json")
        with open(src, "w") as fh:
            json.dump(doc, fh)
        assert main(["render", src, "--out", os.path.join(tmp, "x.svg")]) in (0, 2)
