"""``scripts/untested_lines.py`` on a fixture package and its tests."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "untested_lines.py"
_SPEC = importlib.util.spec_from_file_location("untested_lines", _PATH)
untested_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(untested_lines)

MODULE = '''"""Module docstring."""

import math


def sign(x):
    """Function docstring."""
    if x < 0:
        return -1
    return 1


@staticmethod
def decorated(
    x,
):
    return x


def counter():
    count = 0

    def bump():
        nonlocal count
        count += 1
        return count

    return bump


if __name__ == "__main__":
    print(sign(-1))
'''


def test_statements_leave_out_docstrings_declarations_and_main_guards():
    # import (3), def sign (6) with its if (8) and returns (9, 10), the
    # decorated def from its decorator (13) and its return (17), def counter
    # (20), its assignment (21), def bump (23), its two statements (25, 26)
    # and counter's return (28).
    spans = untested_lines.statement_spans(MODULE)
    assert sorted(spans) == [3, 6, 8, 9, 10, 13, 17, 20, 21, 23, 25, 26, 28]
    assert spans[13] == range(13, 18)
    assert spans[8] == range(8, 10)


def test_a_statement_counts_as_run_when_any_of_its_lines_ran():
    # Line 16 lies in the decorated def's signature; line 9 in the if, and so
    # in sign too.
    assert untested_lines.untested(MODULE, {16, 9}) == [3, 10, 17, 20, 21, 23, 25, 26, 28]


def test_lists_the_statements_the_tests_never_run(tmp_path, monkeypatch, capsys):
    package = tmp_path / "fixturepkg_untested"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_fixture.py").write_text(
        "from fixturepkg_untested.mod import counter, sign\n\n\n"
        "def test_sign():\n    assert sign(2) == 1\n    assert counter()() == 1\n"
    )
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts the package parent first
    code = untested_lines.main(
        ["--package", str(package), "--", str(tests), "-q", "-p", "no:cacheprovider"]
    )
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    listed = [line for line in out if line.startswith("fixturepkg_untested")]
    assert listed == [
        f"{Path('fixturepkg_untested') / 'mod.py'}:9: return -1",
        f"{Path('fixturepkg_untested') / 'mod.py'}:17: return x",
    ]
    assert out[-1] == "2 untested statements under fixturepkg_untested"


def test_a_fully_run_package_exits_0(tmp_path, monkeypatch, capsys):
    package = tmp_path / "fixturepkg_tested"
    package.mkdir()
    (package / "__init__.py").write_text('"""Docstring only."""\n')
    (package / "one.py").write_text("def one():\n    return 1\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_one.py").write_text(
        "from fixturepkg_tested.one import one\n\n\ndef test_one():\n    assert one() == 1\n"
    )
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts the package parent first
    assert untested_lines.main(
        ["--package", str(package), "--", str(tests), "-q", "-p", "no:cacheprovider"]
    ) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 untested statements under fixturepkg_tested"
