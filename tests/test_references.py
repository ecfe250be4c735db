"""Every top-level function, class and assigned name of the package is read.

Program code is `src/edgescale` and `perfbench`; tests do not count, so a
name that only tests read fails here. A name counts as used when it is read
anywhere in that code: as a name or an attribute in Load context, or as an
identifier string. Its own definition or assignment target is not a read.
Strings count because `perfbench/layertrace.py` wraps functions by name. A
re-export in `__init__.py` is not a use, so a name exported there but called
nowhere fails too. The console entry point `cli.main` is exempt.
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
