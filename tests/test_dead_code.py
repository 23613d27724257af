"""No dead code in the library: every function, method and class that
src/misr defines is referenced somewhere in src/misr.

A reference is any name or attribute with the definition's name (an
``ast.Name`` or an ``ast.Attribute``), so a method counts as used when
any object's attribute of that name is read.  Dunders are exempt: the
language calls them.  A wrapper that only tests call fails this test;
tests must reach the routine the library itself uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "misr"

# These read outside input, a stored ledger and a stored solution, and
# nothing in src/misr calls them yet: they stay for the certificate
# checker of ROADMAP item 8 (``misr verify``), which loads both.
ALLOWED = {"ledger_from_json", "solution_from_json"}


def unreferenced(src: Path) -> list[str]:
    """``file:line name`` of every non-dunder function, method and class
    defined under src whose name no Name or Attribute node reads."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{where} {name}" for name, where in defined.items() if name not in used]


def test_every_definition_is_referenced():
    """Only the allowed names go unreferenced, and each of them still
    does: a name that gains a caller leaves the list."""
    dead = unreferenced(SRC)
    assert sorted(entry.split()[1] for entry in dead) == sorted(ALLOWED), dead
