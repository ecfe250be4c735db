"""Count the lines of `src/edgescale`'s `*.py` files: all of them, as `wc -l`
does, and the code lines, which are neither blank, nor comment-only, nor
docstring lines. Under the package's totals, one line per module gives its
code lines.

    python tools/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "edgescale"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of `source` that hold a token other than a comment or a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def main() -> int:
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    total = sum(source.count("\n") for source in sources.values())
    code = {name: code_lines(source) for name, source in sources.items()}
    print(f"{PACKAGE.name}: {len(sources)} files, {total:,} lines (wc -l), "
          f"{sum(code.values()):,} code lines")
    for name, lines in code.items():
        print(f"  {name:<16}{lines:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
