"""No row norm in the package goes through numpy's short-axis reduction.

`np.linalg.norm(d, axis=1)` and `np.add.reduce(d * d, axis=1)` over (N, 3)
rows reduce along a length-3 axis, several times slower than the column sum
of `geometry.row_norms`, which gives the same bits. A stdlib `ast` scan of
`src/dualnav` finds a `norm` call given an axis, and an `add.reduce` call
over axis 1 or -1, by keyword or by position.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/dualnav"


def _dotted(node) -> str:
    """`np.linalg.norm` for the callee of `np.linalg.norm(...)`; '' for a
    callee that is not a chain of names."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id] + parts[::-1])


def _argument(call, name, position):
    """The node a call passes for a parameter, or None."""
    for k in call.keywords:
        if k.arg == name:
            return k.value
    return call.args[position] if len(call.args) > position else None


def short_axis_reductions(sources: dict) -> list:
    """`path:line: callee` for each short-axis row reduction in the
    `src/dualnav` modules of {path: source}."""
    found = []
    for path, src in sources.items():
        if not path.startswith(PACKAGE):
            continue
        calls = [node for node in ast.walk(ast.parse(src))
                 if isinstance(node, ast.Call)]
        for node in sorted(calls, key=lambda node: node.lineno):
            callee = _dotted(node.func)
            if callee.split(".")[-1] == "norm":
                slow = _argument(node, "axis", 2) is not None
            elif callee.endswith("add.reduce"):
                axis = _argument(node, "axis", 1)
                slow = (isinstance(axis, ast.Constant) and axis.value == 1
                        or isinstance(axis, ast.UnaryOp)
                        and isinstance(axis.op, ast.USub)
                        and getattr(axis.operand, "value", None) == 1)
            else:
                continue
            if slow:
                found.append(f"{path}:{node.lineno}: {callee}")
    return found


def test_scan_finds_a_short_axis_reduction():
    package = PACKAGE + "/m.py"
    sources = {
        package: ("import numpy as np\n"
                  "from numpy.linalg import norm\n"
                  "def f(d, v):\n"
                  "    a = np.linalg.norm(d, axis=1)\n"
                  "    b = np.linalg.norm(v)\n"
                  "    c = norm(d, None, -1)\n"
                  "    e = np.sqrt(np.add.reduce(d * d, axis=1))\n"
                  "    g = np.add.reduce(d, -1)\n"
                  "    h = np.add.reduce(d, axis=0)\n"
                  "    return a, b, c, e, g, h\n"),
        "tests/test_m.py": ("import numpy as np\n"
                            "np.linalg.norm(np.eye(3), axis=1)\n"),
    }
    assert short_axis_reductions(sources) == [
        f"{package}:4: np.linalg.norm", f"{package}:6: norm",
        f"{package}:7: np.add.reduce", f"{package}:8: np.add.reduce"]


def test_no_short_axis_reductions():
    files = sorted((ROOT / PACKAGE).rglob("*.py"))
    assert files
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in files}
    found = short_axis_reductions(sources)
    assert not found, ("row norms to route through geometry.row_norms:\n"
                       + "\n".join(found))
