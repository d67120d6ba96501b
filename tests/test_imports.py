"""Every name a module of nodeban imports is read in that module, so a
deletion that leaves an import behind fails here rather than lingering."""

import ast
from pathlib import Path

import nodeban

SRC = Path(nodeban.__file__).parent

#: Imported names that their module never reads, each with the reason it stays:
#: policies.posterior is the module global that cli's nodeban stream reads its
#: posterior through, and that the benchmark tracer patches by that name, so
#: both tier-1 and the benchmark count the stream's posterior calls.
UNREAD = {("policies", "posterior")}


def unread_imports(source: str) -> set[str]:
    """The names bound by the source's imports, at any depth, that no
    expression of the source reads; `from __future__` binds none."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_unread_imports_finds_a_dead_import():
    source = "from __future__ import annotations\nimport os, re\nimport a.b as c\nre.compile\n"
    assert unread_imports(source) == {"os", "c"}
    assert unread_imports("def f():\n    from .x import y\n    return y\n") == set()


def test_no_module_imports_a_name_it_never_reads():
    found = {
        (path.stem, name) for path in sorted(SRC.glob("*.py")) for name in unread_imports(path.read_text("utf-8"))
    }
    assert found == UNREAD
