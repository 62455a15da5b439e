"""Lines and code lines of every ``src/cavlab`` module, and their totals.

    python3 tools/src_lines.py [directory]

prints one row per ``*.py`` file of the directory (``src/cavlab`` by
default): its lines, and its code lines, the lines that hold a token other
than a comment, a docstring or a line break, so blank lines, comment lines
and docstring lines do not count.  A docstring is the string that opens a
module, a class or a function.  The last row holds the totals.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def table(directory: Path) -> list[tuple[str, int, int]]:
    """One (name, lines, code lines) row per module, then the totals."""
    rows = [(path.name, *count(path.read_text())) for path in sorted(directory.glob("*.py"))]
    return rows + [("total", sum(r[1] for r in rows), sum(r[2] for r in rows))]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    directory = Path(args[0]) if args else ROOT / "src" / "cavlab"
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for name, lines, code in table(directory):
        print(f"{name:<16}{lines:>8}{code:>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
