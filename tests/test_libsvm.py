"""LIBSVM/SVMlight reader: hand-written files with known parses."""

import numpy as np
import pytest

from minieg.problems import LibsvmParseError, LogRegProblem, load_libsvm


def _write(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parses_a_small_file_by_hand(tmp_path):
    path = _write(
        tmp_path,
        "# leading comment line\n"
        "+1 1:0.5 3:-2.0\n"
        "-1 2:4.0   # trailing comment\n"
        "\n"
        "1 3:1.5 1:7.0\n",  # indices out of order
    )
    X, y = load_libsvm(path)
    np.testing.assert_array_equal(y, [1.0, -1.0, 1.0])
    expected = np.array([
        [0.5, 0.0, -2.0],
        [0.0, 4.0, 0.0],
        [7.0, 0.0, 1.5],
    ])
    np.testing.assert_array_equal(np.asarray(X.todense()), expected)


def test_zero_one_labels_are_mapped_to_signs(tmp_path):
    path = _write(tmp_path, "0 1:1.0\n1 1:2.0\n0 2:3.0\n")
    _, y = load_libsvm(path)
    np.testing.assert_array_equal(y, [-1.0, 1.0, -1.0])


def test_feature_without_separator_is_an_error(tmp_path):
    path = _write(tmp_path, "1 1:1.0\n-1 7\n")
    with pytest.raises(LibsvmParseError) as info:
        load_libsvm(path)
    assert info.value.line_number == 2


def test_unparseable_tokens_are_errors(tmp_path):
    with pytest.raises(LibsvmParseError):
        load_libsvm(_write(tmp_path, "heavy 1:1.0\n", name="a.txt"))
    with pytest.raises(LibsvmParseError):
        load_libsvm(_write(tmp_path, "1 one:1.0\n", name="b.txt"))
    with pytest.raises(LibsvmParseError):
        load_libsvm(_write(tmp_path, "1 2:zebra\n", name="c.txt"))


def test_zero_based_index_is_an_error(tmp_path):
    path = _write(tmp_path, "1 0:1.0\n")
    with pytest.raises(LibsvmParseError) as info:
        load_libsvm(path)
    assert "1-based" in str(info.value)


def test_non_binary_labels_are_errors(tmp_path):
    path = _write(tmp_path, "1 1:1.0\n2 1:2.0\n")
    with pytest.raises(LibsvmParseError):
        load_libsvm(path)


def test_empty_file_is_an_error(tmp_path):
    path = _write(tmp_path, "# nothing but comments\n\n")
    with pytest.raises(LibsvmParseError):
        load_libsvm(path)


def test_parsed_file_feeds_the_logistic_problem(tmp_path):
    path = _write(
        tmp_path,
        "+1 1:0.2 2:-1.0\n-1 1:-0.4\n+1 2:0.9 3:0.5\n-1 3:-0.7\n",
    )
    X, y = load_libsvm(path)
    problem = LogRegProblem(X, y, reg=0.1)
    assert problem.dim == 3
    assert problem.n_samples == 4
    assert np.all(problem.componentwise_lipschitz >= 0.1)
