"""Every top-level function, class and assigned name of the package is read,
and every defaulted parameter of its functions is passed.

Program code is `src/edgescale` and `perfbench`; tests do not count, so a
name that only tests read fails here. A name counts as used when it is read
anywhere in that code: as a name or an attribute in Load context, or as an
identifier string. Its own definition or assignment target is not a read.
Strings count because `perfbench/layertrace.py` wraps functions by name. A
re-export in `__init__.py` is not a use, so a name exported there but called
nowhere fails too. The console entry point `cli.main` is exempt.

A defaulted parameter counts as used when program code passes it to a
callable of its function's name (a class's name for `__init__`): by keyword,
by position, or through `*` or `**`. Callees are matched by name alone. A
parameter read by name as a string key, `x["name"]`, counts too, because
`perfbench/layertrace.py` reads `find_c_homogeneous`'s `c_start` from its
bound arguments. Other strings do not count: a name in `__slots__` or in an
error message passes nothing. So a setting that only tests pass fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "edgescale"
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
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


def defaulted_parameters(tree) -> list:
    """(callee name, parameter, position) of each function's defaulted parameters.

    The callee name of `__init__` is its class's. Positions skip a method's
    `self` or `cls`, as a call through an attribute does; a keyword-only
    parameter has position None.
    """
    owners = {id(item): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              for item in node.body}
    found = []
    for node in ast.walk(tree):
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


def passed_parameters(trees) -> dict:
    """callee name -> (positions passed, keywords passed), or None when a call
    passes `*` or `**` and so may pass anything."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if callee is None or passed.get(callee, ()) is None:
                continue
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                passed[callee] = None
                continue
            positions, keywords = passed.setdefault(callee, (set(), set()))
            positions.update(range(len(node.args)))
            keywords.update(k.arg for k in node.keywords)
    return passed


def unpassed_parameters(modules: dict, program) -> list:
    """(module, callee, parameter) of each defaulted parameter `program` never
    passes and never reads by name as a string key."""
    passed = passed_parameters(program)
    named = {node.slice.value for tree in program for node in ast.walk(tree)
             if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
             and isinstance(node.slice.value, str)}
    unpassed = []
    for module, tree in modules.items():
        for callee, param, position in defaulted_parameters(tree):
            calls = passed.get(callee, (set(), set()))
            if calls is None or param in named:
                continue
            if position not in calls[0] and param not in calls[1]:
                unpassed.append((module, callee, param))
    return unpassed


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


def test_every_defaulted_parameter_is_passed():
    trees = {path: ast.parse(path.read_text()) for path in PROGRAM}
    package = {path.name: tree for path, tree in trees.items() if path.parent == PACKAGE}
    assert unpassed_parameters(package, trees.values()) == []
