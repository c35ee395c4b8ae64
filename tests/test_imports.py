"""The package's unused-import check, in place of a linter: every name a
module of ``src/denoiseclf`` imports is read there. ``__init__.py`` and an
import whose first line says ``# noqa: F401`` re-export on purpose."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "denoiseclf"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                and "# noqa: F401" not in lines[node.lineno - 1]):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read]


@pytest.mark.parametrize("module", sorted(
    p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_read(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == \
        ["line 1: os"]
    assert unused_imports("from a import b  # noqa: F401\n") == []
