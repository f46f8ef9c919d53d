"""The line counts of ``scripts/code_lines.py`` on a fixed source text."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
on two lines."""

# A comment line.
import math  # a trailing comment keeps a code line


class Point:
    """One-line class docstring."""

    def norm(self):
        """Function docstring
        on two lines.
        """
        text = """a multi-line string
        that is no docstring"""
        return math.hypot(
            1,

            2,
        )


async def fetch():
    "A single-quoted docstring counts too."
    x = 1; y = 2
    return x + y
'''


def test_docstring_lines_cover_module_class_and_function_docstrings():
    assert code_lines.docstring_lines(FIXTURE) == {1, 2, 9, 12, 13, 14, 25}


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import (5), class (8), def (11), the string (15, 16), the call (17-18, 20-21),
    # async def (24) and its two statements (26, 27); line 19 is blank.
    assert code_lines.count_lines(FIXTURE) == (12, 7)


def test_a_file_without_docstrings(tmp_path, capsys):
    path = tmp_path / "plain.py"
    path.write_text("x = 1\n\n\nif x:\n    pass  # done\n")
    assert code_lines.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{path}: 3 code lines, 0 docstring lines",
        f"{path}: 3 code lines, 0 docstring lines",
        "total: 6 code lines, 0 docstring lines",
    ]


def test_a_directory_counts_its_python_files_recursively_in_sorted_order(tmp_path, capsys):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "sub" / "deep.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "b.py").write_text('"""Doc."""\ny = 2\n')
    (tmp_path / "pkg" / "a.py").write_text("z = 3\nw = 4\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    root = tmp_path / "pkg"
    assert code_lines.main([str(root)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{root / 'a.py'}: 2 code lines, 0 docstring lines",
        f"{root / 'b.py'}: 1 code lines, 1 docstring lines",
        f"{root / 'sub' / 'deep.py'}: 1 code lines, 0 docstring lines",
        "total: 4 code lines, 1 docstring lines",
    ]
