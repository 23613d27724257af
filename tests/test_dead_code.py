"""No dead code in the library or its references: every function,
method, class and module-level constant that src/misr defines is
referenced somewhere in src/misr, and every one that tests/oracles.py
defines is referenced by a test module or by oracles.py itself.

A reference is any name read or attribute with the definition's name (an
``ast.Name`` that is not assigned to, or an ``ast.Attribute``), so a
method counts as used when any object's attribute of that name is read.  Dunders are exempt: the
language calls them.  A wrapper that only tests call fails this test;
tests must reach the routine the library itself uses.  A reference
nothing compares against any more fails it too."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "misr"

# These read outside input, a stored ledger and a stored solution, and
# nothing in src/misr calls them yet: they stay for the certificate
# checker of ROADMAP item 12 (``misr verify``), which loads both.
ALLOWED = {"ledger_from_json", "solution_from_json"}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _module_constants(tree: ast.Module) -> list[ast.Name]:
    """The names a module's top-level Assign and AnnAssign statements bind."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            elts = target.elts if isinstance(target, ast.Tuple) else [target]
            out += [t for t in elts if isinstance(t, ast.Name)]
    return out


def unreferenced(defining: list[Path], reading: list[Path]) -> list[str]:
    """``file:line name`` of every non-dunder function, method, class and
    module-level constant defined in the defining files whose name no
    Name node of the reading files reads and no Attribute node names.
    The reading files include the defining ones."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in reading:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path in defining:
            for const in _module_constants(tree):
                if not _dunder(const.id):
                    defined.setdefault(const.id, f"{path.name}:{const.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if path in defining and not _dunder(node.name):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{where} {name}" for name, where in defined.items() if name not in used]


def test_every_definition_is_referenced():
    """Only the allowed names of src/misr go unreferenced, and each of
    them still does: a name that gains a caller leaves the list.  No name
    of tests/oracles.py goes unreferenced."""
    src = sorted(SRC.glob("*.py"))
    dead = unreferenced(src, src)
    assert sorted(entry.split()[1] for entry in dead) == sorted(ALLOWED), dead
    oracles = TESTS / "oracles.py"
    assert unreferenced([oracles], sorted(TESTS.glob("*.py"))) == []
