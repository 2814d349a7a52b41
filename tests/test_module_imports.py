"""Module boundaries: each rule is coded in the module that owns it.

patterns alone converts between words and bit strings, so the state
engine, which returns register values as ints, imports nothing from it;
memory builds states through statevector's public names only, leaving
the norm check to the state constructor.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mirrorqam"


def package_imports(module: str) -> dict[str, set[str]]:
    """The names a module imports from each sibling module, by sibling."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = imported.setdefault(node.module or "", set())
            names.update(alias.name for alias in node.names)
    return imported


def test_statevector_imports_nothing_from_patterns():
    assert "patterns" not in package_imports("statevector")


def test_memory_imports_no_private_statevector_name():
    names = package_imports("memory").get("statevector", set())
    assert names and not [name for name in names if name.startswith("_")]
