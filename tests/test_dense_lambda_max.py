"""The dense eigensolve behind a global bound on an explicit Gram matrix."""

import numpy as np
import pytest

from minieg import ConfigurationError, seeded_generator
from minieg.core import STREAM_INSTANCE
from minieg.problems import SpectralEstimate, dense_lambda_max, require_converged


@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_a_finite_gram_matrix_gives_the_eigensolver_value(seed):
    gen = seeded_generator(seed, STREAM_INSTANCE)
    G = gen.standard_normal((30, 12))
    for gram in (G @ G.T, G.T @ G, np.zeros((5, 5))):
        est = dense_lambda_max(gram)
        assert est == SpectralEstimate(float(np.linalg.eigvalsh(gram)[-1]), 0, True)
        assert require_converged(est) == 1.01 * est.value


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_a_gram_matrix_that_is_not_finite_gives_no_bound(entry):
    gram = np.eye(3)
    gram[2, 0] = entry  # in the lower triangle, which the eigensolver reads
    est = dense_lambda_max(gram)
    assert not est.converged and est.iterations == 0
    assert not np.isfinite(est.value)
    with pytest.raises(ConfigurationError, match=r"^the spectral estimate is not finite "
                       r"\((nan|inf)\) after 0 matvecs"):
        require_converged(est)
