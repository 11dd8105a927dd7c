"""Source hygiene of the package, checked on its syntax trees.

Every import binds a name that its module uses, lists in ``__all__`` or
marks ``# noqa: F401``, and every ``__all__`` entry resolves to an attribute
of its module. A deletion that leaves an import behind fails here. Every
``PipelineConfig`` field is read by some code other than the check in its
``__post_init__``, so a setting no stage uses fails here too, and every
dataclass field of the package is read by the package, its tests or its
benchmark, so a field nothing reads fails here as well.
"""

import ast
import importlib
from pathlib import Path

import pytest

import nirscope

PACKAGE = Path(nirscope.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
# The code outside the package that reads its records: the tests and the
# benchmark harness.
READERS = sorted(Path(__file__).parent.glob("*.py")) + sorted(
    (PACKAGE.parents[1] / "perfbench").glob("*.py")
)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _dunder_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    kept = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_dunder_all(tree))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in kept:
                unused.append(f"{path.name}:{node.lineno}: {bound}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_exported_or_marked(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_all_entry_resolves(path):
    name = "nirscope" if path.stem == "__init__" else f"nirscope.{path.stem}"
    module = importlib.import_module(name)
    missing = [entry for entry in _dunder_all(_tree(path)) if not hasattr(module, entry)]
    assert missing == []


def test_an_unused_import_is_found(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from functools import lru_cache, partial\n"
        "from json import dumps  # noqa: F401\n"
        "def f(x: partial) -> int:\n"
        "    return os.path.sep\n"
    )
    assert _unused_imports(path) == ["probe.py:2: math", "probe.py:4: lru_cache"]


def _post_init_nodes(cls: ast.ClassDef) -> set[int]:
    """The ids of the nodes of ``cls.__post_init__``: the checks a record
    makes of itself, which are no read of its fields."""
    return {
        id(n)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
        for n in ast.walk(item)
    }


def _config_fields_never_read(paths) -> list[str]:
    """PipelineConfig fields that no attribute read in ``paths`` names,
    leaving out the reads in PipelineConfig.__post_init__."""
    fields, reads = [], set()
    for path in paths:
        tree = _tree(path)
        checks = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "PipelineConfig":
                fields += [s.target.id for s in node.body if isinstance(s, ast.AnnAssign)]
                checks |= _post_init_nodes(node)
        reads |= {
            n.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and id(n) not in checks
        }
    return [name for name in fields if name not in reads]


def test_every_config_field_is_read():
    assert _config_fields_never_read(MODULES) == []


def test_a_config_field_never_read_is_found(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "class PipelineConfig:\n"
        "    used: int = 1\n"
        "    checked: int = 2\n"
        "    stored: int = 3\n"
        "    def __post_init__(self):\n"
        "        assert self.checked > 0\n"
        "def run(config, out):\n"
        "    out.stored = config.used\n"
    )
    assert _config_fields_never_read([path]) == ["checked", "stored"]


def _dataclass_fields_never_read(defining, readers=()) -> list[str]:
    """``Class.field`` for each field of a dataclass in ``defining`` that no
    code in ``defining`` or ``readers`` reads. A read is an attribute load of
    the field's name, or a string constant equal to it (as ``getattr`` takes),
    outside the class's own ``__post_init__``."""
    fields = []  # (class name, field name, the class's __post_init__ nodes)
    reads: dict[str, set[int]] = {}  # name -> ids of the nodes reading it
    # Every tree is held to the end, so no two nodes share an id.
    trees = [_tree(path) for path in [*defining, *readers]]
    for k, tree in enumerate(trees):
        for node in ast.walk(tree):
            if k < len(defining) and isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).startswith("dataclass") for d in node.decorator_list
            ):
                checks = _post_init_nodes(node)
                fields += [
                    (node.name, s.target.id, checks)
                    for s in node.body
                    if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                ]
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, set()).add(id(node))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.setdefault(node.value, set()).add(id(node))
    return [
        f"{cls}.{name}" for cls, name, checks in fields if not reads.get(name, set()) - checks
    ]


def test_every_dataclass_field_is_read():
    assert _dataclass_fields_never_read(MODULES, READERS) == []


def test_a_dataclass_field_never_read_is_found(tmp_path):
    module, reader = tmp_path / "probe.py", tmp_path / "reader.py"
    module.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Record:\n"
        "    loaded: int\n"
        "    named: int\n"
        "    elsewhere: int\n"
        "    checked: int\n"
        "    unread: int\n"
        "    def __post_init__(self):\n"
        "        assert self.checked > 0 and getattr(self, 'elsewhere')\n"
        "class Plain:\n"
        "    never: int\n"
        "def use(record):\n"
        "    record.unread = getattr(record, 'named')\n"
        "    return record.loaded\n"
    )
    reader.write_text("def show(record):\n    print(record.elsewhere)\n")
    # A store is no read, nor is a check in __post_init__; a reader's load is.
    assert _dataclass_fields_never_read([module], [reader]) == ["Record.checked", "Record.unread"]
    assert _dataclass_fields_never_read([module]) == [
        "Record.elsewhere", "Record.checked", "Record.unread"
    ]
