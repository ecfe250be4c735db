"""Every top-level function, class and assigned name of the package is read,
every defaulted parameter of its functions and dataclasses is passed, and
every default is needed.

Program code is `src/edgescale` and `perfbench`; tests do not count, so a
name that only they read fails here. For the two parameter checks,
`perfbench/tests` counts as a caller too, because the benchmark changes
apart from the package, so what its tests pass must keep working. A name
counts as used when it is read anywhere in program code: as a name or an
attribute in Load context, or as an identifier string. Its own definition or
assignment target is not a read. Strings count because `perfbench/layertrace.py` wraps
functions by name. A re-export in `__init__.py` is not a use, so a name
exported there but called nowhere fails too. The console entry point
`cli.main` is exempt.

A dataclass's fields are the parameters of the `__init__` it generates, in
order, under the class's name; a `field(init=False)` is none. A defaulted
parameter counts as used when a caller passes it to a callable of its
function's name (a class's name for `__init__`): by keyword, by position, or
through `*` or `**`. Callees are matched by name alone. A parameter read by
name as a string key, `x["name"]`, counts too, because `perfbench/layertrace.py`
reads `find_c_homogeneous`'s `c_start` from its bound arguments. Other
strings do not count: a name in `__slots__` or in an error message passes
nothing. So a setting that only tests pass fails here, and so does run state
that is a constructor keyword nobody passes.

A default is needed when some caller's call leaves its parameter out; `**`
passes every key, and `*` may pass fewer positions than it has. A default
that every call passes is a second copy of a setting whose default lives
elsewhere, for a scenario setting in `scenario.FIELDS`, and only tests rely
on it, so it fails here. It stays when a call passes its parameter by
position behind a default that stays, since Python allows no parameter
without a default after one with it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "edgescale"
PROGRAM = [path for folder in (PACKAGE, ROOT / "perfbench") for path in sorted(folder.glob("*.py"))]
CALLERS = PROGRAM + sorted((ROOT / "perfbench" / "tests").glob("*.py"))
EXEMPT = {("cli.py", "main")}


def referenced_names(trees) -> set:
    """Name ids and attribute names read in `trees`, and identifier string constants."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    names.add(node.value)
    return names


def defined_names(statement) -> list:
    """The names a top-level function, class or assignment statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unreferenced_definitions(modules: dict, referenced: set) -> list:
    """(module, name) of each top-level definition or assigned name not in `referenced`."""
    return [
        (module, name)
        for module, tree in modules.items()
        for node in tree.body
        for name in defined_names(node)
        if name not in referenced
    ]


def dataclass_fields(node) -> list:
    """(field, position, defaulted) of each parameter of the `__init__` that a
    `@dataclass` class generates; [] for another class. A `field(init=False)`
    is no parameter."""
    if not any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in node.decorator_list):
        return []
    found = []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        defaulted = item.value is not None
        if isinstance(item.value, ast.Call) and getattr(item.value.func, "id", None) == "field":
            options = {k.arg: k.value for k in item.value.keywords}
            if getattr(options.get("init"), "value", True) is False:
                continue
            defaulted = "default" in options or "default_factory" in options
        found.append((item.target.id, len(found), defaulted))
    return found


def defaulted_parameters(tree) -> list:
    """(callee name, parameter, position) of each function's defaulted
    parameters, and of each dataclass's defaulted fields, in order.

    The callee name of `__init__`, and of a dataclass's fields, is its
    class's. Positions skip a method's `self` or `cls`, as a call through an
    attribute does; a keyword-only parameter has position None.
    """
    owners = {id(item): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              for item in node.body}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            found += [(node.name, name, i) for name, i, defaulted in dataclass_fields(node)
                      if defaulted]
        if not isinstance(node, ast.FunctionDef):
            continue
        owner = owners.get(id(node))
        callee = owner if node.name == "__init__" else node.name
        positional = node.args.posonlyargs + node.args.args
        if owner and not any(getattr(d, "id", None) == "staticmethod"
                             for d in node.decorator_list):
            positional = positional[1:]
        first = len(positional) - len(node.args.defaults)
        found += [(callee, arg.arg, i) for i, arg in enumerate(positional) if i >= first]
        found += [(callee, arg.arg, None)
                  for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                  if default is not None]
    return found


def program_calls(trees) -> dict:
    """callee name -> one (positions, keywords, starred) per call.

    `positions` counts the arguments before any `*`, and `starred` says that
    a `*` may pass more; `keywords` is None when `**` passes every key.
    """
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if callee is None:
                continue
            starred = [isinstance(a, ast.Starred) for a in node.args] + [True]
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(callee, []).append(
                (starred.index(True), None if None in keywords else keywords, any(starred[:-1])))
    return calls


def _passes(call, param, position, surely) -> bool:
    """Whether `call` passes `param`; a `*` counts only when not `surely`."""
    positions, keywords, starred = call
    return (keywords is None or param in keywords or position is not None
            and (position < positions or (starred and not surely)))


def unpassed_parameters(modules: dict, program) -> list:
    """(module, callee, parameter) of each defaulted parameter `program` never
    passes and never reads by name as a string key."""
    calls = program_calls(program)
    named = {node.slice.value for tree in program for node in ast.walk(tree)
             if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
             and isinstance(node.slice.value, str)}
    return [(module, callee, param)
            for module, tree in modules.items()
            for callee, param, position in defaulted_parameters(tree)
            if param not in named
            and not any(_passes(c, param, position, False) for c in calls.get(callee, ()))]


def unneeded_defaults(modules: dict, program) -> list:
    """(module, callee, parameter) of each default that no call in `program`
    relies on, because every call passes its parameter.

    A parameter that some call passes by position keeps its default when an
    earlier positional parameter keeps one: Python allows no parameter
    without a default after one with it, and moving it would change what the
    positional call passes.
    """
    calls = program_calls(program)
    found = []
    for module, tree in modules.items():
        kept = set()  # (callee, position) of the defaults that stay
        for callee, param, position in defaulted_parameters(tree):
            mine = calls.get(callee, ())
            pinned = any(position is not None and position < c[0] for c in mine) and any(
                (callee, p) in kept for p in range(position or 0))
            if mine and not pinned and all(_passes(c, param, position, True) for c in mine):
                found.append((module, callee, param))
            else:
                kept.add((callee, position))
    return found


def test_checker_flags_only_unreferenced_definitions():
    module = ast.parse(
        "class Used: pass\n"
        "def by_attribute(): pass\n"
        "def by_string(): pass\n"
        "def only_defined(): pass\n"
    )
    caller = ast.parse("x = Used()\nm.by_attribute()\nwrap(m, 'by_string')\n")
    referenced = referenced_names([module, caller])
    assert unreferenced_definitions({"m.py": module}, referenced) == [("m.py", "only_defined")]
    reexport = ast.parse("from .m import only_defined\n")
    assert "only_defined" not in referenced_names([reexport])


def test_checker_flags_only_unread_assignments():
    module = ast.parse(
        "READ = 1\n"
        "BY_ATTRIBUTE: int = 2\n"
        "BY_STRING = 3\n"
        "FIRST, UNREAD_PAIR = range(2)\n"
        "ONLY_ASSIGNED = 4\n"
        "ANNOTATED_ONLY: int = 6\n"
        "def f():\n"
        "    global ONLY_ASSIGNED\n"
        "    ONLY_ASSIGNED += READ + FIRST\n"
    )
    caller = ast.parse("m.BY_ATTRIBUTE\ngetattr(m, 'BY_STRING')\nm.ANNOTATED_ONLY = 7\n")
    referenced = referenced_names([module, caller])
    assert unreferenced_definitions({"m.py": module}, referenced) == [
        ("m.py", "UNREAD_PAIR"), ("m.py", "ONLY_ASSIGNED"), ("m.py", "ANNOTATED_ONLY"),
        ("m.py", "f"),
    ]


def test_every_definition_is_referenced():
    trees = {path: ast.parse(path.read_text()) for path in PROGRAM}
    referenced = referenced_names(trees.values())
    package = {path.name: tree for path, tree in trees.items() if path.parent == PACKAGE}
    found = [d for d in unreferenced_definitions(package, referenced) if d not in EXEMPT]
    assert found == []


def test_checker_flags_only_unpassed_parameters():
    module = ast.parse(
        "def find(lam, mu, target, cap=10):\n"
        "    return search(lam, mu, target, cap)\n"
        "def by_position(a, b=1): pass\n"
        "def by_keyword(a, *, b=1): pass\n"
        "def by_star(a, b=1): pass\n"
        "def by_name(a, c_start=0): pass\n"
        "def in_slots(a, lazy=False): pass\n"
        "class Box:\n"
        "    def __init__(self, size=1): pass\n"
        "    def grow(self, step=1): pass\n"
        "    def shrink(self, step=1): pass\n"
    )
    caller = ast.parse(
        "find(1, 2, 3)\n"
        "m.by_position(1, 2)\n"
        "by_keyword(1, b=2)\n"
        "by_star(*args)\n"
        "by_name(1)\n"
        "a['c_start']\n"
        "__slots__ = ('lazy',)\n"
        "Box(2).grow(3)\n"
        "Box().shrink()\n"
    )
    # `cap` is the kind of setting that only tests once passed
    assert unpassed_parameters({"m.py": module}, [module, caller]) == [
        ("m.py", "find", "cap"), ("m.py", "in_slots", "lazy"), ("m.py", "shrink", "step")]


def test_checker_reads_dataclass_fields_as_parameters():
    module = ast.parse(
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    rate: float\n"
        "    window: float = 10.0\n"
        "    alpha: float = field(default=0.7)\n"
        "    ticks: int = field(default=0, init=False)\n"
        "    seen: list = field(default_factory=list)\n"
        "    tag: str = field(repr=False)\n"
        "class Plain:\n"
        "    size: int = 1\n"
    )
    assert defaulted_parameters(module) == [
        ("Config", "window", 1), ("Config", "alpha", 2), ("Config", "seen", 3)]
    caller = ast.parse("Config(1.0, 2.0, tag='x')\n")
    # `seen` is the kind of run state that was once a constructor keyword
    assert unpassed_parameters({"m.py": module}, [module, caller]) == [
        ("m.py", "Config", "alpha"), ("m.py", "Config", "seen")]


def test_every_defaulted_parameter_is_passed():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    package = {path.name: tree for path, tree in trees.items() if path.parent == PACKAGE}
    assert unpassed_parameters(package, trees.values()) == []


def test_checker_flags_only_unneeded_defaults():
    module = ast.parse(
        "def size(lam, mu, percentile=0.99, cap=10): pass\n"
        "def fill(doc, base='.'): pass\n"
        "def pad(a, b=1): pass\n"
        "@dataclass\n"
        "class Est:\n"
        "    window: float = 1.0\n"
        "@dataclass\n"
        "class Row:\n"
        "    name: str\n"
        "    tries: int = 0\n"
        "    status: str = 'new'\n"
        "@dataclass\n"
        "class Rec:\n"
        "    seen: bool = False\n"
        "    late: bool = False\n"
    )
    caller = ast.parse(
        "size(1, 2, percentile=0.9)\n"
        "size(1, 2, 0.95, cap=3)\n"
        "fill({}, base='x')\n"
        "pad(*xs)\n"
        "Est(**params)\n"
        "Row('a', 0, 'done')\n"
        "Row(name='b', status='done')\n"
        "Rec(late=True)\n"
    )
    # `status` is pinned behind `tries` by the positional call; `late` can move
    assert unneeded_defaults({"m.py": module}, [module, caller]) == [
        ("m.py", "size", "percentile"), ("m.py", "fill", "base"), ("m.py", "Est", "window"),
        ("m.py", "Rec", "late")]


def test_every_default_is_needed():
    trees = {path: ast.parse(path.read_text()) for path in CALLERS}
    package = {path.name: tree for path, tree in trees.items() if path.parent == PACKAGE}
    assert unneeded_defaults(package, trees.values()) == []
