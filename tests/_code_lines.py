"""The code lines of each module of the package, and their total.

Run it from anywhere:

    python tests/_code_lines.py

It prints one line per ``src/blowups/*.py``, in name order, with the
number of its code lines, then the total.  A code line holds at least one
token that is not a comment; blank lines, comment lines and the lines of
docstrings (the string that opens a module, class or function body, read
with ``ast``) are left out.  A line that holds a statement and a comment
counts once, and every line of a string that is no docstring counts.

The file name starts with an underscore, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blowups"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code, docstrings left out."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5} {path.name}")
    print(f"{total:5} total")


if __name__ == "__main__":
    main()
