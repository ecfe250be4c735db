"""Every name a package module imports is used in that module, only
`scenario` and `cli` do file I/O, and each entry point loads only the modules
it runs.

`from __future__` imports are compiler switches, not names.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "edgescale"
MODULES = sorted(PACKAGE.glob("*.py"))
# what only the commands that simulate need
SIMULATION = [f"edgescale.{name}" for name in (
    "scenario", "simulator", "allocator", "fairshare", "reclamation", "cluster", "workload")]


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no other node of `source` uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import yaml\n"
        "from dataclasses import dataclass, field\n"
        "x: field = os.path.join(dataclass)\n"
    )
    assert unused_imports(source) == [(3, "yaml")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def file_io(source: str) -> list:
    """(line, name) of each call to an `open` and each import of `csv` in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and "open" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append((node.lineno, "open"))
        elif isinstance(node, ast.Import) and "csv" in [a.name for a in node.names] or (
                isinstance(node, ast.ImportFrom) and node.module == "csv"):
            found.append((node.lineno, "csv"))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_scenario_and_cli_do_file_io(path):
    # scenario reads every input file and cli writes every output file; the
    # model modules take and return values
    assert bool(file_io(path.read_text())) == (path.name in ("scenario.py", "cli.py"))


def modules_after(code: str) -> set:
    """The names in `sys.modules` after `code` runs in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    return set(done.stdout.splitlines()[-1].split())


def test_package_import_loads_no_submodule():
    assert sorted(m for m in modules_after("import edgescale") if m.startswith("edgescale")) == [
        "edgescale"]


def test_validate_loads_only_the_model_and_the_oracle():
    loaded = modules_after(
        "import edgescale.cli\n"
        "assert edgescale.cli.main(['validate', '--arrival-rate', '5', '--service-rate', '10',"
        " '--requests', '2000', '--replications', '2']) == 0")
    assert {"edgescale.oracle", "edgescale.queuing"} <= loaded
    assert [m for m in SIMULATION + ["yaml", "statistics"] if m in loaded] == []
