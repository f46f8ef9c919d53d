"""List the statements of a package that a pytest run never executes.

Usage, from the root of the checkout::

    python3 scripts/untested_lines.py
    python3 scripts/untested_lines.py --package src/minieg -- tests/test_core.py -q

Everything after ``--`` goes to pytest, which runs in this process; without
it, pytest runs the checkout's configured test paths. The package's parent
directory is put first on ``sys.path``, so the tests import the package
from there. ``sys.settrace`` records the lines that run in frames whose code
lies in a ``*.py`` file under the package; frames elsewhere are not traced
line by line.

A statement is every ``ast`` statement of those files except docstrings,
``global`` and ``nonlocal`` declarations and ``if __name__ == "__main__":``
guards with their bodies. It counts as executed when any line it spans ran;
a compound statement spans its body, whose statements are listed on their
own. Each statement that never ran is printed as ``path:line: source``, then
a count. The exit code is 1 if any statement is listed or pytest fails, and
0 otherwise. Only the standard library and pytest are used; tracing slows
the run down severalfold.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_DECLARATIONS = (ast.Global, ast.Nonlocal)
_WITH_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _is_docstring(node: ast.AST, parent: ast.AST) -> bool:
    return (
        isinstance(parent, _WITH_DOCSTRING)
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _is_main_guard(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def statement_spans(source: str) -> dict[int, range]:
    """The statements of ``source``: first line -> the lines the statement spans.

    A decorated definition starts at its first decorator. Docstrings,
    ``global`` and ``nonlocal`` declarations and ``__main__`` guards with
    their bodies are left out. Statements that share a first line are one
    entry, spanning the widest of them.
    """
    spans: dict[int, range] = {}

    def visit(parent: ast.AST) -> None:
        for node in ast.iter_child_nodes(parent):
            if _is_main_guard(node):
                continue
            if isinstance(node, ast.stmt) and not (
                isinstance(node, _DECLARATIONS) or _is_docstring(node, parent)
            ):
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
                last = max(node.end_lineno, spans[first].stop - 1 if first in spans else 0)
                spans[first] = range(first, last + 1)
            visit(node)

    visit(ast.parse(source))
    return spans


def untested(source: str, executed: set[int]) -> list[int]:
    """The first lines of the statements of ``source`` none of whose lines ran."""
    return sorted(
        first for first, span in statement_spans(source).items()
        if executed.isdisjoint(span)
    )


class LineRecorder:
    """Records the lines run in code whose file lies under ``package``."""

    def __init__(self, package: Path) -> None:
        self._prefix = os.path.join(str(package.resolve()), "")
        self._inside: dict[str, bool] = {}
        self.lines: dict[str, set[int]] = {}

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        inside = self._inside.get(filename)
        if inside is None:
            inside = self._inside[filename] = os.path.abspath(filename).startswith(self._prefix)
        if not inside:
            return None
        lines = self.lines.setdefault(os.path.abspath(filename), set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def run(self, pytest_args: list[str]) -> int:
        """Run pytest on ``pytest_args`` under the tracer; return its exit code."""
        previous, previous_threads = sys.gettrace(), threading.gettrace()
        sys.settrace(self._global)
        threading.settrace(self._global)
        try:
            return int(pytest.main(pytest_args))
        finally:
            sys.settrace(previous)
            threading.settrace(previous_threads)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    ours, pytest_args = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--package", default=str(ROOT / "src" / "minieg"),
        help="the package directory to trace (default: the checkout's src/minieg)",
    )
    args = parser.parse_args(ours)
    package = Path(args.package).resolve()
    sys.path.insert(0, str(package.parent))

    recorder = LineRecorder(package)
    status = recorder.run(pytest_args)

    count = 0
    for path in sorted(package.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        shown = os.path.relpath(path)
        for line in untested(source, recorder.lines.get(str(path), set())):
            print(f"{shown}:{line}: {text[line - 1].strip()}")
            count += 1
    print(f"{count} untested statements under {os.path.relpath(package)}")
    if status != 0:
        print(f"pytest exited with {status}")
    return 1 if count or status != 0 else 0


if __name__ == "__main__":
    raise SystemExit(main())
