"""The eigensolver's input rules and values.

``jacobi_eigenvalues`` is :func:`pairmoments.randmat.spectrum` under the name
the benchmark traces the eigensolver layer by, so every case here is a case
of ``spectrum``.
"""

import numpy as np
import pytest

from pairmoments import randmat as rm
from pairmoments.jacobi import jacobi_eigenvalues


class TestJacobi:
    def test_is_spectrum(self):
        assert jacobi_eigenvalues is rm.spectrum

    def test_diagonal(self):
        assert jacobi_eigenvalues([[1, 0, 0], [0, 2, 0], [0, 0, 3]]) == [1, 2, 3]

    def test_two_by_two_swap(self):
        got = jacobi_eigenvalues([[0, 1], [1, 0]])
        assert got == pytest.approx([-1, 1])

    def test_known_3x3(self):
        a = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
        # eigenvalues 2, 2 +- sqrt(2)
        expect = sorted([2.0, 2.0 + np.sqrt(2), 2.0 - np.sqrt(2)])
        assert jacobi_eigenvalues(a) == pytest.approx(expect)

    @pytest.mark.parametrize("n", [2, 3, 7, 25, 60])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_lapack_oracle(self, n, seed):
        # the general (non-symmetric) LAPACK solver, so not eigvalsh itself
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a = a + a.T
        mine = jacobi_eigenvalues(a)
        ref = np.sort(np.linalg.eigvals(a).real)
        assert np.allclose(mine, ref, atol=1e-9 * (1 + np.abs(ref).max()))

    @pytest.mark.parametrize("n", [3, 20])
    def test_trace_identity(self, n):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((n, n))
        a = a + a.T
        assert sum(jacobi_eigenvalues(a)) == pytest.approx(np.trace(a), abs=1e-9)

    def test_zero_matrix(self):
        assert jacobi_eigenvalues(np.zeros((4, 4))) == [0.0] * 4

    def test_psd_gram(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((6, 4))
        eigs = jacobi_eigenvalues(b @ b.T)  # rank 4 PSD
        assert eigs[0] >= -1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigenvalues([[1, 2], [0, 1]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            jacobi_eigenvalues([[1, 2, 3], [2, 1, 2]])
        with pytest.raises(ValueError, match="square"):
            jacobi_eigenvalues([1.0, 2.0])

    def test_empty(self):
        assert jacobi_eigenvalues(np.zeros((0, 0))) == []

    def test_integer_input(self):
        got = jacobi_eigenvalues([[4]])
        assert got == [4.0]
        assert type(got[0]) is float
