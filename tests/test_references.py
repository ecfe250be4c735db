"""Every top-level function and class of the package is used by program code.

Program code is `src/edgescale` and `perfbench`; tests do not count, so a
name that only tests call fails here. A name counts as used when it appears
as a name, an attribute or an identifier string anywhere in that code, other
than in its own definition. Strings count because `perfbench/layertrace.py`
wraps functions by name. A re-export in `__init__.py` is not a use, so a
name exported there but called nowhere fails too. The console entry point
`cli.main` is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "edgescale"
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
EXEMPT = {("cli.py", "main")}


def referenced_names(trees) -> set:
    """Name ids, attribute names and identifier string constants in `trees`."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    names.add(node.value)
    return names


def unreferenced_definitions(modules: dict, referenced: set) -> list:
    """(module, name) of each top-level function or class not in `referenced`."""
    return [
        (module, node.name)
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in referenced
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


def test_every_definition_is_referenced():
    trees = {path: ast.parse(path.read_text()) for path in PROGRAM}
    referenced = referenced_names(trees.values())
    package = {path.name: tree for path, tree in trees.items() if path.parent == PACKAGE}
    found = [d for d in unreferenced_definitions(package, referenced) if d not in EXEMPT]
    assert found == []
