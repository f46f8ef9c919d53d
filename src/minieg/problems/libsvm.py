"""Minimal reader for LIBSVM/SVMlight classification files.

Each line is ``<label> <index>:<value> <index>:<value> ...`` with 1-based,
not necessarily sorted indices. Only what the logistic benchmark needs is
implemented: binary labels and sparse feature parsing. Kept in-house because
the usual loader lives in scikit-learn, which would be a heavyweight
dependency for one function.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = ["LibsvmParseError", "load_libsvm"]


class LibsvmParseError(ValueError):
    """A malformed line in a LIBSVM file, with its 1-based line number."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def load_libsvm(path):
    """Parse a LIBSVM file into ``(features, labels)``.

    Returns a ``(N, n)`` CSR matrix, ``n`` the largest feature index seen,
    and a ``(N,)`` array of +-1 labels. Labels in ``{0, 1}`` are mapped to
    ``{-1, +1}``; anything non-binary is an error.
    """
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    labels: list[float] = []
    max_index = 0

    with open(Path(path), "r", encoding="utf-8") as fh:
        sample = 0
        for lineno, raw in enumerate(fh, start=1):
            # Strip trailing comments, then whitespace.
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise LibsvmParseError(lineno, f"bad label {tokens[0]!r}") from None
            labels.append(label)
            for token in tokens[1:]:
                idx_str, sep, val_str = token.partition(":")
                if not sep:
                    raise LibsvmParseError(lineno, f"expected index:value, got {token!r}")
                try:
                    index = int(idx_str)
                    value = float(val_str)
                except ValueError:
                    raise LibsvmParseError(lineno, f"bad feature token {token!r}") from None
                if index < 1:
                    raise LibsvmParseError(lineno, f"feature indices are 1-based, got {index}")
                rows.append(sample)
                cols.append(index - 1)
                vals.append(value)
                max_index = max(max_index, index)
            sample += 1

    if not labels:
        raise LibsvmParseError(0, "file contains no samples")

    y = np.asarray(labels, dtype=float)
    present = set(np.unique(y).tolist())
    if present <= {-1.0, 1.0}:
        pass
    elif present <= {0.0, 1.0}:
        y = np.where(y == 0.0, -1.0, 1.0)
    else:
        raise LibsvmParseError(0, f"labels must be binary, found values {sorted(present)}")

    X = sp.csr_matrix(
        (np.asarray(vals), (np.asarray(rows), np.asarray(cols))),
        shape=(len(y), max_index),
    )
    return X, y
