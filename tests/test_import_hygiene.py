"""Source hygiene, read from each module's syntax tree. Every name a module
of the package imports is read in that module: a deleted function often
leaves behind an import that only it used (``__init__.py`` is exempt,
because its imports are the package's exports). No module calls np.cross."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "orthosect"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_imported_names_are_used(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"unused imports: {sorted(imported - used)}"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_np_cross(module):
    """The package takes cross products with ``geom_core.cross_rows``, which
    gives np.cross's bits at about a sixth of its call overhead."""
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "cross" and isinstance(node.func.value, ast.Name)
             and node.func.value.id in ("np", "numpy")]
    assert not calls, f"np.cross called on lines {calls}"
