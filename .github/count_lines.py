"""Code lines of the halloffame package, per module and in total.

    python3 .github/count_lines.py [SRC_DIR]

A code line is a line of src/halloffame/*.py (or SRC_DIR/*.py) that holds
a token of code: blank lines, comments (per tokenize) and docstrings (per
ast: the leading string of a module, class or function body) do not count,
and a string or bracket that spans lines counts every line it spans.
Prints one "lines module" line per module, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in a parsed module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The code lines of one module's source text."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "halloffame"
    total = 0
    for path in sorted(src.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
