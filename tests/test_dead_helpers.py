"""Every function, class and method in the package is used somewhere, so
is every default it offers, and no parameter always gets one constant.

A stdlib `ast` scan: each top-level function and class of `src/dualnav`,
and each method of its top-level classes, must be referenced by name
outside its own definition, in the package, the demos or the benchmark. A
reference is a name, an attribute or a string equal to it (the runtime
dispatches its loop bodies by name). Dunder methods, which Python calls,
and click commands, which click calls, are exempt. Each module-level
constant of `src/dualnav` must likewise be referenced outside its own
assignment.

A second scan checks that each defaulted parameter of those functions and
methods (`__init__` included, called by its class's name) is passed, by
position or by keyword, by at least one call to a function of that name in
the same files. A parameter nobody passes is a knob with one value in use,
which a module constant states more plainly. A call with `*args` passes
every positional parameter and one with `**kwargs` every keyword one,
except where it forwards the enclosing function's own `**kwargs`: that call
passes the keywords the enclosing function's callers give it.

A third scan holds the dataclasses of the package to the same rule: each
defaulted field that `__init__` takes (a `ClassVar` or `field(init=False)`
is not one) must be set by a call of the class, by Hypothesis's
`builds(Class, ...)` or by `replace(..., field=...)`.

A fifth scan reports a parameter, defaulted or not, that every call gives
one and the same module constant of the package (a call that leaves it out
gives its default): it too is a knob with one value in use, and the
function should read the constant itself. A parameter that a `*` or `**`
hides in some call is not reported, nor are the TRACER_PINNED ones, which
the benchmark's tracer counters take.

All five scans share one caller rule: a test counts as a caller only of
the test rig, `sim.py` and `bench.py`, which the tests shrink on purpose (a
noise-free camera for exact geometry checks, a coarse oracle grid, fewer
optimizer caps). Code of a planner module that only a test reaches is not
code the loop runs, and a value of one that only a test sets is the one
value the planner ever runs with, so it must be a module constant.
"""
import ast
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/dualnav"
SCANNED = (PACKAGE, "tests", "demos", "navbench")
TEST_RIG = (PACKAGE + "/sim.py", PACKAGE + "/bench.py")


def _is_test(path: str) -> bool:
    return "tests" in Path(path).parts


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


def constants(tree):
    """(name, node) for each name a module-level assignment binds, dunders
    left out."""
    out = []
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        out += [(name.id, node) for target in targets
                for name in ast.walk(target) if isinstance(name, ast.Name)
                and not name.id.startswith("__")]
    return out


def unreferenced(sources: dict, named) -> list:
    """`path:line: name` for each (name, node) that `named` finds in a
    `src/dualnav` module of {path: source} and that nothing outside the
    node references; a reference in a test counts only for the test rig."""
    trees = {path: ast.parse(src) for path, src in sources.items()}
    referrers = _callers(trees, lambda ts: [
        (path, ref, line) for path, tree in ts.items()
        for ref, line in references(tree)])
    found = []
    for path, tree in trees.items():
        if not path.startswith(PACKAGE):
            continue
        refs = referrers(path)
        for name, node in named(tree):
            used = any(
                ref == name and not (other == path
                                     and node.lineno <= line <= node.end_lineno)
                for other, ref, line in refs)
            if not used:
                found.append(f"{path}:{node.lineno}: {name}")
    return found


def _params(node, is_method):
    """(name, position, default) of each parameter of a def that a call can
    pass; position is the index among the arguments a call passes, None for
    keyword-only, and default is the default's node or None."""
    a = node.args
    positional = a.posonlyargs + a.args
    skip = int(is_method and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list))
    defaults = [None] * (len(positional) - len(a.defaults)) + a.defaults
    out = [(p.arg, idx - skip, d)
           for idx, (p, d) in enumerate(zip(positional, defaults))
           if idx >= skip]
    out += [(p.arg, None, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)]
    return out


class CallSite(NamedTuple):
    callee: str
    n_pos: int              # positional arguments, a `*` one left out
    keywords: frozenset
    star: bool              # has a `*args`: passes every positional parameter
    double_star: bool       # has a `**` the scan cannot follow: passes every
                            # keyword parameter
    names: dict             # position (before any `*`) or keyword -> the
                            # name or attribute passed there, None for any
                            # other expression


def _name(node):
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def _calls(tree):
    """(CallSite, forwarder) for each call in the module; the forwarder is
    the enclosing def when the call passes on that def's own `**kwargs`."""
    out = []

    def visit(node, fn):
        if isinstance(node, ast.FunctionDef):
            fn = node
        if isinstance(node, ast.Call) and _name(node.func) is not None:
            own = fn.args.kwarg.arg if fn and fn.args.kwarg else None
            spread = [k.value for k in node.keywords if k.arg is None]
            forwards = [v for v in spread
                        if isinstance(v, ast.Name) and v.id == own]
            star = any(isinstance(arg, ast.Starred) for arg in node.args)
            names = {k.arg: _name(k.value) for k in node.keywords
                     if k.arg is not None}
            for idx, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                names[idx] = _name(arg)
            out.append((CallSite(
                _name(node.func), len(node.args) - star,
                frozenset(k.arg for k in node.keywords if k.arg is not None),
                star, len(forwards) < len(spread), names),
                fn if forwards else None))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return out


def resolved_calls(trees: dict) -> list:
    """Every CallSite in the {path: tree}, with the keywords that each
    forwarded `**kwargs` carries: those the forwarder's callers pass beyond
    its named parameters, followed through further forwarding."""
    raw = [c for tree in trees.values() for c in _calls(tree)]

    def resolve(call, forwarder, seen):
        if forwarder is None or forwarder.name in seen:
            return call
        a = forwarder.args
        named = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
        for outer, outer_forwarder in raw:
            if outer.callee == forwarder.name:
                outer = resolve(outer, outer_forwarder,
                                seen | {forwarder.name})
                call = call._replace(
                    keywords=call.keywords | (outer.keywords - named),
                    double_star=call.double_star or outer.double_star)
        return call

    return [resolve(call, forwarder, frozenset()) for call, forwarder in raw]


def _callers(trees: dict, collect):
    """A function of a `src/dualnav` path giving what `collect` finds in the
    {path: tree} that count as its callers: every file for the test rig,
    and the files outside the tests for any other module."""
    every = collect(trees)
    own = collect({path: tree for path, tree in trees.items()
                   if not _is_test(path)})
    return lambda path: every if path in TEST_RIG else own


def _passes(call, param, pos, shift=0):
    """Whether a call passes a parameter at position pos (None for keyword
    only) when its first `shift` positional arguments go elsewhere."""
    return (param in call.keywords or call.double_star
            or (pos is not None and (call.n_pos - shift > pos or call.star)))


def _package_params(trees: dict):
    """(path, def node, name, parameter, position, default, calls) for each
    parameter of a `src/dualnav` function or method in the {path: tree}
    (`__init__` goes by its class's name), with the calls of a function of
    that name that count as its callers."""
    callers = _callers(trees, resolved_calls)
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
            calls = [call for call in callers(path) if call.callee == name]
            for param, pos, default in _params(node, is_method):
                yield path, node, name, param, pos, default, calls


def unset_parameters(sources: dict) -> list:
    """`path:line: function(parameter)` for each defaulted parameter of a
    `src/dualnav` function or method that no call in {path: source}
    passes; a call in a test counts only for the test rig."""
    trees = {path: ast.parse(src) for path, src in sources.items()}
    return [f"{path}:{node.lineno}: {name}({param})"
            for path, node, name, param, pos, default, calls
            in _package_params(trees)
            if default is not None
            and not any(_passes(call, param, pos) for call in calls)]


def _given(call, param, pos, default):
    """The name or attribute that a call gives a parameter, its default's
    when the call leaves it out; None for any other expression or where a
    `*` or `**` hides it."""
    if param in call.keywords:
        return call.names.get(param)
    if pos is not None and pos < call.n_pos:
        return call.names.get(pos)
    if call.star or call.double_star or default is None:
        return None
    return _name(default)


# navbench/tracer.py's counters `_voxel` and `_outlier` take these arguments
# of the filters it wraps, so the filters keep them while the counters do
TRACER_PINNED = {"voxel_downsample(voxel_size)", "outlier_filter(radius)",
                 "outlier_filter(min_neighbors)"}


def constant_parameters(sources: dict) -> list:
    """`path:line: function(parameter)` for each parameter of a
    `src/dualnav` function or method, TRACER_PINNED left out, that every
    call in {path: source} gives one and the same module constant of the
    package, by name or as an attribute; a call in a test counts only for
    the test rig."""
    trees = {path: ast.parse(src) for path, src in sources.items()}
    package_constants = {name for path, tree in trees.items()
                         if path.startswith(PACKAGE)
                         for name, _ in constants(tree)}
    found = []
    for path, node, name, param, pos, default, calls in _package_params(
            trees):
        given = {_given(call, param, pos, default) for call in calls}
        if (len(given) == 1 and given <= package_constants
                and f"{name}({param})" not in TRACER_PINNED):
            found.append(f"{path}:{node.lineno}: {name}({param})")
    return found


def _init_fields(cls):
    """(name, position, defaulted) of each field a dataclass's `__init__`
    takes: `ClassVar`s and `field(init=False)` left out."""
    out = []
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)):
            continue
        ann = item.annotation
        if _name(ann.value if isinstance(ann, ast.Subscript)
                 else ann) == "ClassVar":
            continue
        value = item.value
        if isinstance(value, ast.Call) and _name(value.func) == "field":
            options = {k.arg: k.value for k in value.keywords}
            init = options.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = "default" in options or "default_factory" in options
        else:
            defaulted = value is not None
        out.append((item.target.id, len(out), defaulted))
    return out


def unset_fields(sources: dict) -> list:
    """`path:line: Class.field` for each defaulted `__init__` field of a
    `src/dualnav` dataclass that no call in {path: source} sets. A field is
    set by a call of the class, by `builds(Class, ...)` (Hypothesis), or by
    `replace(..., field=...)`, which the scan cannot tie to one class; a
    call in a test counts only for the test rig."""
    trees = {path: ast.parse(src) for path, src in sources.items()}
    callers = _callers(trees, resolved_calls)
    found = []
    for path, tree in trees.items():
        if not path.startswith(PACKAGE):
            continue
        calls = callers(path)
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and any(
                    _name(d.func if isinstance(d, ast.Call) else d)
                    == "dataclass" for d in cls.decorator_list)):
                continue
            sites = ([(c, 0) for c in calls if c.callee == cls.name]
                     + [(c, 1) for c in calls
                        if c.callee == "builds" and c.names.get(0) == cls.name]
                     + [(c._replace(n_pos=0, star=False), 0) for c in calls
                        if c.callee == "replace"])
            for name, pos, defaulted in _init_fields(cls):
                if defaulted and not any(_passes(c, name, pos, shift)
                                         for c, shift in sites):
                    found.append(f"{path}:{cls.lineno}: {cls.name}.{name}")
    return found


def test_scan_finds_an_unset_parameter():
    package = PACKAGE + "/m.py"
    sources = {
        package: ("def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
                  "def g(a=0, b=1):\n    return a\n"
                  "class Box:\n"
                  "    def __init__(self, size=1.0, name=None):\n"
                  "        self.size = size\n"
                  "    def grow(self, by=1.0):\n        return by\n"
                  "def h(x, step=0.1):\n    return x\n"),
        "demos/m_demo.py": ("from dualnav.m import Box, f, g\n"
                            "f(0, 5, d=6)\nbox = Box(2.0)\n"
                            "g(*[1, 2])\nbox.grow()\n"),
        # only tests pass h's step, so it is a knob with one value in use
        "tests/test_m.py": "from dualnav.m import h\nh(1.0, step=0.2)\n",
        "navbench/tests/test_m.py": "from dualnav.m import h\nh(2.0, 0.3)\n",
        # the test rig's noise is set by a test alone, and that counts
        PACKAGE + "/sim.py": ("def sense(world, noise=0.01):\n"
                              "    return world\n"),
        "tests/test_sim.py": ("from dualnav.sim import sense\n"
                              "sense(None, noise=0.0)\n"),
    }
    assert unset_parameters(sources) == [f"{package}:1: f(c)",
                                         f"{package}:1: f(e)",
                                         f"{package}:10: h(step)",
                                         f"{package}:6: Box(name)",
                                         f"{package}:8: grow(by)"]


def test_no_unset_parameters():
    files = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in files}
    found = unset_parameters(sources)
    assert not found, "parameters no call passes:\n" + "\n".join(found)


def test_scan_finds_a_constant_parameter():
    package = PACKAGE + "/m.py"
    sources = {
        package: ("STEP = 0.5\nLIMIT = 3\n"
                  "def clip(x, limit):\n    return x\n"
                  "def walk(x, step=STEP, *, rate=1.0):\n    return x\n"
                  "class Box:\n"
                  "    def grow(self, by):\n        return by\n"
                  "def scale(x, factor):\n    return x\n"
                  "def voxel_downsample(cloud, voxel_size):\n"
                  "    return cloud\n"),
        "demos/m_demo.py": (
            "from dualnav import m\nfrom dualnav.m import LIMIT, STEP\n"
            # every call gives clip's limit and grow's by one constant
            "m.clip(0, LIMIT)\nm.clip(1, limit=m.LIMIT)\n"
            "m.Box().grow(STEP)\n"
            # walk's step is STEP by default and by argument
            "m.walk(0)\nm.walk(1, STEP, rate=2.0)\n"
            # one call scales by another value
            "m.scale(0, STEP)\nm.scale(1, 2 * STEP)\n"
            # the tracer's counter takes voxel_size
            "m.voxel_downsample([], STEP)\n"),
        # a test's other value counts for the test rig alone
        "tests/test_m.py": "from dualnav.m import clip\nclip(0, 7)\n",
        PACKAGE + "/sim.py": ("NOISE = 0.01\n"
                              "def sense(world, noise):\n"
                              "    return world\n"
                              "def run(world):\n"
                              "    return sense(world, NOISE)\n"),
        "tests/test_sim.py": ("from dualnav.sim import sense\n"
                              "sense(None, 0.0)\n"),
    }
    assert constant_parameters(sources) == [
        f"{package}:3: clip(limit)", f"{package}:5: walk(step)",
        f"{package}:8: grow(by)"]


def test_no_constant_parameters():
    files = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in files}
    found = constant_parameters(sources)
    assert not found, ("parameters every call gives one module constant:\n"
                       + "\n".join(found))


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
                  "@click.command()\ndef cmd():\n    pass\n"
                  "def only_tested():\n    return 2\n"),
        "demos/m_demo.py": "from dualnav.m import Box\nBox().read()\n",
        # only a test calls only_tested, so the loop never runs it
        "tests/test_m.py": "from dualnav.m import only_tested\nonly_tested()\n",
        # a test calling the test rig counts
        PACKAGE + "/sim.py": "def camera():\n    return 0\n",
        "tests/test_sim.py": "from dualnav.sim import camera\ncamera()\n",
    }
    assert unreferenced(sources, definitions) == [
        f"{package}:4: recursive", f"{package}:11: unread",
        f"{package}:16: only_tested"]


def test_no_dead_helpers():
    files = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))
    assert any(str(p.relative_to(ROOT)).startswith(PACKAGE) for p in files)
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in files}
    found = unreferenced(sources, definitions)
    assert not found, "unreferenced definitions:\n" + "\n".join(found)


def test_scan_finds_a_dead_constant():
    package = PACKAGE + "/m.py"
    sources = {
        package: ("import numpy as np\n"
                  "__all__ = ['STEP']\n"
                  "STEP = 0.5\n"
                  "_CHUNK = 12     # read by nothing\n"
                  "_LIMIT: int = 3\n"
                  "_A, _B = 1, 2\n"
                  "_ROUNDS = (\n    _A,\n)\n"
                  "def f(x):\n    return np.clip(x, 0, _LIMIT)\n"
                  "ONLY_TESTED = 7\n"),
        # only a test reads ONLY_TESTED, so the loop never does
        "tests/test_m.py": "from dualnav import m\nm.STEP, m.ONLY_TESTED\n",
        # a test reading the test rig counts
        PACKAGE + "/sim.py": "NOISE = 0.01\n",
        "tests/test_sim.py": "from dualnav import sim\nsim.NOISE\n",
    }
    assert unreferenced(sources, constants) == [
        f"{package}:4: _CHUNK", f"{package}:6: _B", f"{package}:7: _ROUNDS",
        f"{package}:12: ONLY_TESTED"]


def test_no_dead_constants():
    files = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in files}
    found = unreferenced(sources, constants)
    assert not found, "unread module constants:\n" + "\n".join(found)


def test_scan_finds_an_unset_field():
    package = PACKAGE + "/m.py"
    sources = {
        package: ("from dataclasses import dataclass, field\n"
                  "from typing import ClassVar\n"
                  "@dataclass\n"
                  "class Params:\n"
                  "    name: str\n"
                  "    size: float = 1.0\n"
                  "    rate: float = 2.0\n"
                  "    tol: float = 1e-3\n"
                  "    gain: float = 3.0\n"
                  "    width: float = 4.0\n"
                  "    radius: ClassVar[float] = 0.15\n"
                  "    cache: dict = field(default_factory=dict, init=False)\n"
                  "def make(name, **overrides):\n"
                  "    return Params(name, **overrides)\n"
                  "@dataclass(frozen=True)\n"
                  "class Limits:\n"
                  "    step: float = 0.1\n"),
        "demos/m_demo.py": ("import dataclasses\n"
                            "from hypothesis import strategies as st\n"
                            "from dualnav.m import Params, make\n"
                            "Params('a', 2.0)\n"
                            "st.builds(Params, st.just('b'),"
                            " rate=st.just(1.0))\n"
                            "params = make(name='c', gain=1.0)\n"
                            "dataclasses.replace(params, width=1.0)\n"),
        # only a test sets Limits.step, so it is a knob with one value in use
        "tests/test_m.py": "from dualnav.m import Limits\nLimits(step=0.2)\n",
        # the test rig's noise is set by a test alone, and that counts
        PACKAGE + "/sim.py": ("from dataclasses import dataclass\n"
                              "@dataclass\n"
                              "class Camera:\n"
                              "    noise: float = 0.01\n"),
        "tests/test_sim.py": ("from dualnav.sim import Camera\n"
                              "Camera(noise=0.0)\n"),
    }
    assert unset_fields(sources) == [f"{package}:4: Params.tol",
                                     f"{package}:16: Limits.step"]


def test_no_unset_fields():
    files = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in files}
    found = unset_fields(sources)
    assert not found, "dataclass fields no call sets:\n" + "\n".join(found)
