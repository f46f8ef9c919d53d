"""Count the code lines and the docstring lines of Python files.

Usage::

    python3 scripts/code_lines.py src/minieg/solvers.py [more files ...]
    python3 scripts/code_lines.py src/minieg

A directory stands for the ``*.py`` files under it, recursively, in sorted
order.

A code line is a line that holds a token other than a comment, NL, NEWLINE,
INDENT or DEDENT; a token that spans several lines, such as a triple-quoted
string, holds every line it spans (the end marker, past the last line,
holds none). The docstrings of the module, its classes
and its functions are docstring lines, not code lines. Blank and
comment-only lines are neither. One line per file is printed, and a total
when several files are given. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_WITH_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers spanned by the module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, _WITH_DOCSTRING) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """``(code lines, docstring lines)`` of one Python source text."""
    docstrings = docstring_lines(source)
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings), len(docstrings)


def python_files(path: str) -> list[str]:
    """``path`` itself, or the ``*.py`` files under a directory, in sorted order."""
    root = Path(path)
    return sorted(map(str, root.rglob("*.py"))) if root.is_dir() else [path]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", help="Python files, or directories of them, to count")
    args = parser.parse_args(argv)
    paths = [found for path in args.paths for found in python_files(path)]
    totals = [0, 0]
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            code, docs = count_lines(handle.read())
        totals[0] += code
        totals[1] += docs
        print(f"{path}: {code} code lines, {docs} docstring lines")
    if len(paths) > 1:
        print(f"total: {totals[0]} code lines, {totals[1]} docstring lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
