"""`tools/code_lines.py` counts what the ROADMAP's design aim quotes."""

import importlib.util

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


def test_prints_both_counts_of_the_package(capsys):
    assert code_lines.main() == 0
    out = capsys.readouterr().out
    assert out.startswith("edgescale: ") and "lines (wc -l)" in out and "code lines" in out
