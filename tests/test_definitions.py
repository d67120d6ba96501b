"""Every top-level function and class of nodeban is read somewhere in the
project's code (src, tests or perfbench), so a definition that a change
leaves without readers fails here rather than lingering."""

import ast
from pathlib import Path

import nodeban

SRC = Path(nodeban.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
READERS = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]

#: Top-level definitions, as (module, name), that no code reads, each with
#: the reason it stays. None does.
UNREAD: set[tuple[str, str]] = set()


def definitions(source: str) -> set[str]:
    """The names of the source's top-level functions and classes."""
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def reads(source: str) -> set[str]:
    """The names the source reads: as a name, as an attribute or as an
    imported name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def test_reads_finds_a_dead_definition():
    source = (
        "import m\nfrom x import y\n\ndef dead():\n    pass\n\nclass Used:\n    pass\n\n"
        "def also_used():\n    pass\n\nUsed()\nm.also_used\n"
    )
    assert definitions(source) == {"dead", "Used", "also_used"}
    assert definitions(source) - reads(source) == {"dead"}
    assert {"m", "y"} <= reads(source)


def test_every_definition_is_read():
    read = set()
    for directory in READERS:
        for path in sorted(directory.rglob("*.py")):
            read |= reads(path.read_text("utf-8"))
    found = {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        for name in definitions(path.read_text("utf-8"))
        if name not in read
    }
    assert found == UNREAD
