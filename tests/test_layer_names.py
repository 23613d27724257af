"""The names the timing tools patch still exist, so that a rename in
src/misr fails tier-1 rather than a later bench or ``--trace 1`` run:
every function tests/bench_layers.py times is an attribute of each of
its owners, and every layer perfbench/spans.py traces (the keys of its
LAYER_SPANS, read from the source) is an attribute of ``misr.cli``."""

import ast
from pathlib import Path

import misr.cli
from bench_layers import TIMED

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_timed_function_is_an_attribute_of_its_owners():
    missing = [
        (layer, getattr(owner, "__name__", owner), name)
        for layer, timed in TIMED.items()
        for owners, name in timed
        for owner in owners
        if not callable(getattr(owner, name, None))
    ]
    assert sum(len(timed) for timed in TIMED.values()) > 0 and missing == []


def test_every_traced_layer_is_an_attribute_of_the_cli():
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    (spans,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYER_SPANS" for t in node.targets)
    ]
    missing = [name for name in spans if not callable(getattr(misr.cli, name, None))]
    assert spans and missing == []
