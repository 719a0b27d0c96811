"""Every name a flowmark module imports is used in it, the CLI imports light, and
every public function and class is documented.

`__init__.py` is exempt from the first check: it imports names to re-export them.
"""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flowmark

MODULES = sorted(
    path for path in Path(flowmark.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from typing import Optional, Sequence\nimport numpy as np\nx: Optional[int] = 1\n"
    assert unused_imports(source) == ["line 1: Sequence", "line 2: np"]


def unreached(sources: dict[str, str], public: set[str]) -> list[str]:
    """Top-level functions and classes, and public methods of the classes named in
    public, that no Name or Attribute in sources reaches from outside their own body."""
    trees = [ast.parse(source) for source in sources.values()]
    defs = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node.name, node))
            if isinstance(node, ast.ClassDef) and node.name in public:
                defs.extend(
                    (f"{node.name}.{method.name}", method.name, method)
                    for method in node.body
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
                )
    uses = [
        (node.id if isinstance(node, ast.Name) else node.attr, node)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    found = []
    for qualname, name, node in defs:
        own = set(map(id, ast.walk(node)))
        if not any(used == name and id(use) not in own for used, use in uses):
            found.append(qualname)
    return sorted(found)


# Definitions that only tests reach yet, each with the ROADMAP item that gives it a caller.
REACHED_ONLY_BY_TESTS = {"wilson_interval": "ROADMAP item 6: detect's Wilson interval"}


def readme_entry_points() -> list[str]:
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Key entry points:", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"`(\w+)`", paragraph)


def test_every_definition_has_a_caller_in_src():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    entry_points = set(readme_entry_points())
    found = [name for name in unreached(sources, set(flowmark.__all__)) if name not in entry_points]
    assert found == sorted(REACHED_ONLY_BY_TESTS)


def test_a_definition_without_a_caller_is_found():
    source = (
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Box:\n    def get(self):\n        return used()\n\n"
        "    def put(self):\n        pass\n\n"
        "    def _hidden(self):\n        pass\n\n"
        "Box().get()\n"
    )
    assert unreached({"m.py": source}, public={"Box"}) == ["Box.put", "recursive"]


def run_fresh(code: str) -> str:
    """What code prints to stdout in a fresh interpreter that imports this flowmark."""
    src = str(Path(flowmark.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_importing_the_cli_leaves_numpy_random_out():
    # Every CLI call pays for its imports; seeds registers its block seed
    # with numpy.random at first use for the same reason.
    code = "import sys, flowmark.cli; print(any(m.startswith('numpy.random') for m in sys.modules))"
    assert run_fresh(code) == "False\n"


def test_importing_the_cli_leaves_the_ziggurat_unread():
    # The layer widths are read from numpy at first draw, not at import.
    code = "import flowmark.cli; print(flowmark.seeds._ziggurat.cache_info().currsize)"
    assert run_fresh(code) == "0\n"


def own_docstrings() -> dict[str, bool]:
    """For each function and class in flowmark.__all__, whether its source gives it a docstring."""
    found = {}
    for name in flowmark.__all__:
        obj = getattr(flowmark, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            tree = ast.parse(inspect.getsource(sys.modules[obj.__module__]))
            (node,) = [n for n in tree.body if getattr(n, "name", None) == obj.__name__]
            found[name] = ast.get_docstring(node) is not None
    return found


def test_every_public_function_and_class_has_a_docstring():
    assert [name for name, has_doc in own_docstrings().items() if not has_doc] == []


def test_readme_entry_points_are_public():
    names = readme_entry_points()
    assert names and [name for name in names if name not in flowmark.__all__] == []
