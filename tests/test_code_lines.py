"""`tools/code_lines.py` counts what the ROADMAP's design aim quotes."""

import importlib.util
import re

from scenario_builders import REPO_ROOT

spec = importlib.util.spec_from_file_location("code_lines", REPO_ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


def test_blank_comment_and_docstring_lines_are_not_code():
    source = (
        '"""Module\n'
        'docstring."""\n'
        "\n"
        "# a comment\n"
        "X = '''a string\n"
        "that is code'''  # with a comment\n"
        "def f(a,\n"
        "      b):\n"
        '    """Docstring."""\n'
        "    return a\n"
        "class C:\n"
        "    '''Docstring\n"
        "    over two lines.'''\n"
    )
    assert code_lines.code_lines(source) == 6
    assert code_lines.code_lines("") == 0


def test_prints_both_counts_of_the_package_and_each_module(capsys):
    assert code_lines.main() == 0
    total, *modules = capsys.readouterr().out.splitlines()
    assert total.startswith("edgescale: ") and "lines (wc -l)" in total
    files, code = re.fullmatch(r"edgescale: (\d+) files, .*, ([\d,]+) code lines", total).groups()
    counts = {name: int(lines.replace(",", "")) for name, lines in map(str.split, modules)}
    assert sorted(counts) == sorted(path.name for path in code_lines.PACKAGE.glob("*.py"))
    assert len(counts) == int(files)
    assert sum(counts.values()) == int(code.replace(",", ""))
