"""Every imported name is used in the file that imports it.

A stdlib `ast` scan over the package, the tests and the demos; the
project has no linter, so this stands in for an unused-import check.
`from __future__` imports are exempt.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/dualnav", "tests", "demos")


def unused_imports(source: str) -> list:
    """(line, name) for each name the module imports but never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_scan_finds_an_unused_import():
    src = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(src) == [(2, "os")]


def test_no_unused_imports():
    files = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))
    assert files
    found = [f"{p.relative_to(ROOT)}:{line}: {name}"
             for p in files for line, name in unused_imports(p.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
