"""Every name a flowmark module imports is used in it.

`__init__.py` is exempt: it imports names to re-export them.
"""

import ast
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
