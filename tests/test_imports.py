"""The package's unused-code checks, in place of a linter: every name a
module of ``src/denoiseclf`` imports is read there, and every top-level
function or class and every public method of one is used by the program.
``__init__.py`` and an import whose first line says ``# noqa: F401``
re-export on purpose. No module imports another's underscore-prefixed
name: what one module keeps private, no other depends on, and every one
that README names is still defined."""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "denoiseclf"
# the program: the package's modules (its re-exports aside), the demos and
# the benchmark; the tests are not users
PROGRAM = sorted([p for p in SRC.glob("*.py") if p.name != "__init__.py"]
                 + list((ROOT / "demos").glob("*.py"))
                 + list((ROOT / "perfbench").glob("*.py")))
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


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


def private_imports(source: str) -> list[str]:
    """The underscore-prefixed names ``source`` imports from a module of
    the package, by a relative or a ``denoiseclf`` import."""
    return [f"line {node.lineno}: {alias.name}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0]
                 == "denoiseclf")
            for alias in node.names if alias.name.startswith("_")]


@pytest.mark.parametrize("module", sorted(
    p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_private_name_is_imported_from_another_module(module):
    assert private_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_the_scan_finds_a_private_import():
    assert private_imports("from .tensor import (Tensor,\n"
                           "                     _coerce)\n"
                           "from denoiseclf.noise import _Stream\n"
                           "from numpy import _private, public\n"
                           "from __future__ import annotations\n") == \
        ["line 1: _coerce", "line 3: _Stream"]


def definitions(tree: ast.Module):
    """Each top-level function or class, and each public method of such a
    class, with its node."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def used_names(tree: ast.Module):
    """(name, line) for each name the module reads, imports, or spells as
    part of a dotted string, the way a tracer names what it wraps."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def orphans(sources: dict[str, str], checked) -> list[str]:
    """The definitions in the ``checked`` paths of ``sources`` (path ->
    text) whose name is used nowhere in ``sources`` outside their own
    body."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    uses = {}
    for path, tree in trees.items():
        for name, line in used_names(tree):
            uses.setdefault(name, []).append((path, line))
    found = []
    for path in checked:
        for qualname, node in definitions(trees[path]):
            name = qualname.rpartition(".")[2]
            if not any(where != path
                       or not node.lineno <= line <= node.end_lineno
                       for where, line in uses.get(name, ())):
                found.append(f"{path}: {qualname}")
    return found


def test_every_definition_is_used_by_the_program():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in PROGRAM}
    assert orphans(sources, [p for p in sources if p.startswith("src/")]) \
        == []


def test_the_scan_finds_orphaned_code():
    lib = ("class Report:\n"
           "    @classmethod\n"
           "    def build(cls) -> 'Report':\n"
           "        return cls()\n"
           "    def shown(self):\n"
           "        return self\n"
           "def helper():\n"
           "    return helper()\n"
           "def traced():\n"
           "    pass\n")
    user = "SPANS = ('lib.traced',)\nprint(x.shown())\n"
    assert orphans({"lib.py": lib, "user.py": user}, ["lib.py"]) == \
        ["lib.py: Report", "lib.py: Report.build", "lib.py: helper"]


def config_rejections(source: str) -> list[str]:
    """Each ``raise`` in the ``__post_init__`` of a config dataclass, one
    that checks its fields with ``check_fields``, whose exception is not
    ``ConfigError``: a config rejects its values with one error class."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not (isinstance(method, ast.FunctionDef)
                    and method.name == "__post_init__"
                    and any(isinstance(node, ast.Name)
                            and node.id == "check_fields"
                            for node in ast.walk(method))):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Raise):
                    exc = getattr(node.exc, "func", node.exc)
                    if getattr(exc, "id", None) != "ConfigError":
                        found.append(f"line {node.lineno}: {cls.name} raises "
                                     f"{ast.unparse(exc)}")
    return found


@pytest.mark.parametrize("module", sorted(
    p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_config_rejects_with_config_error(module):
    assert config_rejections((SRC / module).read_text(encoding="utf-8")) \
        == []


def test_the_scan_finds_a_config_that_raises_another_error():
    source = ("@dataclass(frozen=True)\n"
              "class RunConfig:\n"
              "    epochs: int = 1\n"
              "    def __post_init__(self):\n"
              "        check_fields(self)\n"
              "        if self.epochs < 1:\n"
              "            raise ValueError('epochs')\n"
              "        if self.epochs > 9:\n"
              "            raise ConfigError('epochs')\n"
              "@dataclass\n"
              "class Table:\n"
              "    def __post_init__(self):\n"
              "        raise VocabError('not a config')\n")
    assert config_rejections(source) == ["line 7: RunConfig raises ValueError"]


def tracer_spans() -> list[tuple[str, str]]:
    """The ``(module, attribute path)`` pairs of ``perfbench/tracer.py``'s
    ``SPANS``, read from its source, not imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(
        encoding="utf-8"))
    [spans] = [node.value for node in tree.body
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["SPANS"]]
    return ast.literal_eval(spans)


@pytest.mark.parametrize("module,path", tracer_spans())
def test_every_traced_name_resolves(module, path):
    # the tracer wraps these by name, so a rename would otherwise fail only
    # inside the benchmark's smoke run
    owner = importlib.import_module(f"denoiseclf.{module}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def readme_code_names(text: str) -> set[str]:
    """The names that ``text`` puts in backticks as code: an
    underscore-prefixed name, alone or after a dotted owner (`` `_make` ``,
    `` `noise._Interned` ``), and the name a backticked call opens with
    (`` `calibrate(corpus, `` or `` `np.cumsum(x)` ``)."""
    return (set(re.findall(r"`(?:[A-Za-z]\w*\.)*(_\w+)(?:\(\))?`", text))
            | set(re.findall(r"`(?:[A-Za-z_]\w*\.)*([A-Za-z_]\w*)\(", text)))


def identifiers(source: str) -> set[str]:
    """Every name token of ``source``; strings and comments hold none."""
    return {token.string for token in
            tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.NAME}


def test_every_private_name_readme_gives_is_in_the_package():
    defined = set().union(*(identifiers(p.read_text(encoding="utf-8"))
                            for p in SRC.glob("*.py")))
    named = readme_code_names(
        (ROOT / "README.md").read_text(encoding="utf-8"))
    assert sorted(named - defined) == []


def test_the_scan_finds_a_private_name_readme_gives():
    assert readme_code_names(
        "`_make` and `noise._Interned`, `_erf()`, not `<category>_draws`, "
        "has_uint32, _bare or `x + _y`") == {"_make", "_Interned", "_erf"}
    # a call form names its function, however the call goes on
    assert readme_code_names(
        "`retired_pass(corpus,\nspec)` and `np.cumsum(x)`, not "
        "retired_pass(x), `(a + b)` or `x + f(y)`") == {"retired_pass",
                                                        "cumsum"}
    assert identifiers("def _f():  # _comment\n    return '_text'\n") == \
        {"def", "_f", "return"}
