"""Every function, class and method in the package is used somewhere, and
so is every default it offers.

A stdlib `ast` scan: each top-level function and class of `src/dualnav`,
and each method of its top-level classes, must be referenced by name
outside its own definition, in the package, the tests, the demos or the
benchmark. A reference is a name, an attribute or a string equal to it
(the runtime dispatches its loop bodies by name). Dunder methods, which
Python calls, and click commands, which click calls, are exempt.

A second scan checks that each defaulted parameter of those functions and
methods (`__init__` included, called by its class's name) is passed, by
position or by keyword, by at least one call to a function of that name in
the same files. A parameter nobody passes is a knob with one value in use,
which a module constant states more plainly. A call with `*args` passes
every positional parameter and one with `**kwargs` every keyword one.
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


def _defaulted_params(node, is_method):
    """(name, position) of each defaulted parameter of a def; position is
    the index among the arguments a call passes, None for keyword-only."""
    a = node.args
    positional = a.posonlyargs + a.args
    skip = int(is_method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list))
    first = len(positional) - len(a.defaults)
    out = [(p.arg, idx - skip)
           for idx, p in enumerate(positional) if idx >= first]
    out += [(p.arg, None)
            for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _calls(tree):
    """(callee name, positional count, keyword names, *args, **kwargs) for
    each call in the module."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            continue
        star = any(isinstance(arg, ast.Starred) for arg in node.args)
        out.append((name, len(node.args) - star,
                    {k.arg for k in node.keywords if k.arg is not None},
                    star, any(k.arg is None for k in node.keywords)))
    return out


def unset_parameters(sources: dict) -> list:
    """`path:line: function(parameter)` for each defaulted parameter of a
    `src/dualnav` function or method that no call in {path: source}
    passes."""
    trees = {path: ast.parse(src) for path, src in sources.items()}
    calls = [c for tree in trees.values() for c in _calls(tree)]
    found = []
    for path, tree in trees.items():
        if not path.startswith(PACKAGE):
            continue
        defs = [(node.name, node, False) for node in tree.body
                if isinstance(node, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defs += [(cls.name if item.name == "__init__" else item.name,
                          item, True) for item in cls.body
                         if isinstance(item, ast.FunctionDef)]
        for name, node, is_method in defs:
            for param, pos in _defaulted_params(node, is_method):
                passed = any(
                    callee == name and (
                        param in keywords or double_star
                        or (pos is not None and (n_pos > pos or star)))
                    for callee, n_pos, keywords, star, double_star in calls)
                if not passed:
                    found.append(f"{path}:{node.lineno}: {name}({param})")
    return found


def test_scan_finds_an_unset_parameter():
    package = PACKAGE + "/m.py"
    sources = {
        package: ("def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
                  "def g(a=0, b=1):\n    return a\n"
                  "class Box:\n"
                  "    def __init__(self, size=1.0, name=None):\n"
                  "        self.size = size\n"
                  "    def grow(self, by=1.0):\n        return by\n"),
        "tests/test_m.py": ("from dualnav.m import Box, f, g\n"
                            "f(0, 5, d=6)\nbox = Box(2.0)\n"
                            "g(*[1, 2])\nbox.grow()\n"),
    }
    assert unset_parameters(sources) == [f"{package}:1: f(c)",
                                         f"{package}:1: f(e)",
                                         f"{package}:6: Box(name)",
                                         f"{package}:8: grow(by)"]


def test_no_unset_parameters():
    files = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in files}
    found = unset_parameters(sources)
    assert not found, "parameters no call passes:\n" + "\n".join(found)


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
