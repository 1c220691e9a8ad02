"""Every function, class and method in the package is used somewhere.

A stdlib `ast` scan: each top-level function and class of `src/dualnav`,
and each method of its top-level classes, must be referenced by name
outside its own definition, in the package, the tests, the demos or the
benchmark. A reference is a name, an attribute or a string equal to it
(the runtime dispatches its loop bodies by name). Dunder methods, which
Python calls, and click commands, which click calls, are exempt.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/dualnav"
SCANNED = (PACKAGE, "tests", "demos", "navbench")


def _is_click_command(node) -> bool:
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(func, ast.Attribute) and func.attr in ("command",
                                                             "group"):
            return True
    return False


def definitions(tree):
    """(name, node) for each top-level function and class and each method
    of a top-level class, dunders and click commands left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(item.name, item) for item in node.body
                    if isinstance(item, ast.FunctionDef)]
    return [(name, node) for name, node in out
            if not (name.startswith("__") and name.endswith("__"))
            and not _is_click_command(node)]


def references(tree):
    """(name, line) for each name, attribute and string in the module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno))
    return out


def dead_helpers(sources: dict) -> list:
    """`path:line: name` for each definition in a `src/dualnav` module of
    {path: source} that nothing outside its own body references."""
    trees = {path: ast.parse(src) for path, src in sources.items()}
    refs = {path: references(tree) for path, tree in trees.items()}
    found = []
    for path, tree in trees.items():
        if not path.startswith(PACKAGE):
            continue
        for name, node in definitions(tree):
            used = any(
                ref == name and not (other == path
                                     and node.lineno <= line <= node.end_lineno)
                for other, rs in refs.items() for ref, line in rs)
            if not used:
                found.append(f"{path}:{node.lineno}: {name}")
    return found


def test_scan_finds_a_dead_helper():
    package = PACKAGE + "/m.py"
    sources = {
        package: ("import click\n"
                  "def used():\n    return 1\n"
                  "def recursive(n):\n    return recursive(n - 1)\n"
                  "class Box:\n"
                  "    def __init__(self):\n        pass\n"
                  "    def read(self):\n        return used()\n"
                  "    def unread(self):\n        return 0\n"
                  "@click.command()\ndef cmd():\n    pass\n"),
        "tests/test_m.py": "from dualnav.m import Box\nBox().read()\n",
    }
    assert dead_helpers(sources) == [f"{package}:4: recursive",
                                     f"{package}:11: unread"]


def test_no_dead_helpers():
    files = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))
    assert any(str(p.relative_to(ROOT)).startswith(PACKAGE) for p in files)
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in files}
    found = dead_helpers(sources)
    assert not found, "unreferenced definitions:\n" + "\n".join(found)
