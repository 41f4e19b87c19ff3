"""Source hygiene, read from each module's syntax tree. Every name a module
of the package imports is read in that module: a deleted function often
leaves behind an import that only it used (``__init__.py`` is exempt,
because its imports are the package's exports). No module calls np.cross
or json.dumps, and the CLI names no OrthosectSystem. Every public
function, method and class has a caller or a reader; being exported is
not being read. Every exception class is one of ``errors.py``'s."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "orthosect"


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


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_json_dumps(module):
    """Every scene and report is encoded by ``scene.dumps_canonical``, which
    gives the bytes of ``json.dumps(..., indent=2, sort_keys=True)``
    without its pure-Python indent path; no module names ``json.dumps`` or
    ``json.dump``."""
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("dumps", "dump")
             and isinstance(node.value, ast.Name) and node.value.id == "json"]
    calls += [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and node.module == "json" and any(a.name in ("dumps", "dump") for a in node.names)]
    assert not calls, f"json.dump or json.dumps named on lines {calls}"


def test_cli_names_no_orthosect_system():
    """Every verdict and guard of the CLI reads ``pair_measures`` or the
    solver's own results; ``OrthosectSystem`` is the solver's residual
    vector, and the CLI builds none."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    named = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id == "OrthosectSystem")
             or (isinstance(node, ast.Attribute) and node.attr == "OrthosectSystem")
             or (isinstance(node, ast.alias) and node.name == "OrthosectSystem")]
    assert not named, f"cli.py names OrthosectSystem on lines {named}"


def _public_definitions(tree):
    """(qualified name, name) of the module's public functions and classes
    and of their classes' public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def test_public_names_have_a_caller():
    """A public name stays in the package only if the package itself names
    it (a call or an attribute read; an import is not one, so a re-export
    in ``__init__.py`` keeps nothing alive, and every other import is read
    by the test above), the benchmark calls it or the README documents it;
    what only tests use belongs in the tests."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    texts = [p.read_text(encoding="utf-8")
             for p in [*sorted((ROOT / "bench").glob("*.py")), ROOT / "README.md"]]
    named |= set(re.findall(r"\w+", "\n".join(texts)))
    unnamed = [f"{module}:{qualified}" for module, tree in trees.items()
               for qualified, name in _public_definitions(tree) if name not in named]
    assert not unnamed, f"public names only tests use: {unnamed}"


def test_every_exception_is_a_package_error():
    """Every exception class the package defines, at any depth of any
    module, is defined in ``errors.py`` and derives from GeometryError or
    SceneError, the two bases callers catch: no private exception can
    escape the API."""
    from orthosect.errors import GeometryError, SceneError

    stray = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("orthosect" if path.stem == "__init__"
                                         else f"orthosect.{path.stem}")
        namespace = vars(module)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = [eval(ast.unparse(base), namespace) for base in node.bases]
            if not any(isinstance(base, type) and issubclass(base, BaseException)
                       for base in bases):
                continue
            if path.name != "errors.py" or not issubclass(namespace[node.name],
                                                          (GeometryError, SceneError)):
                stray.append(f"{path.name}:{node.lineno} {node.name}")
    assert not stray, f"exception classes outside the package's errors: {stray}"
