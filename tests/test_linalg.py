import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unitary
from qcorr import linalg
from qcorr.errors import DimensionMismatch, NotHermitian

SQRT2 = np.sqrt(2)


def random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


class TestKron:
    def test_identity(self):
        assert np.allclose(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_expansion(self):
        out = linalg.kron(np.diag([1, 2]), np.diag([3, 4]))
        assert np.allclose(out, np.diag([3, 4, 6, 8]))

    def test_projector_product(self):
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = linalg.kron(p0, plus)
        assert out.shape == (4, 4)
        assert abs(np.trace(out) - 1) < 1e-12
        assert np.linalg.matrix_rank(out) == 1

    def test_trace_multiplicative(self, rng):
        a = random_hermitian(3, rng)
        b = random_hermitian(2, rng)
        assert abs(np.trace(linalg.kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-10


class TestEigh:
    def test_diagonal(self):
        w, _ = linalg.eigh(np.diag([0.3, 0.7]))
        assert np.allclose(w, [0.3, 0.7])

    def test_pauli_x_spectrum(self):
        w, _ = linalg.eigh(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1, 1])

    def test_paper_marginal_spectrum(self):
        # by hand: eigenvalues of [[1/2, 1/(2 sqrt 2)], [1/(2 sqrt 2), 1/2]]
        # are 1/2 +- 1/(2 sqrt 2) = (2 -+ sqrt 2)/4
        h = np.array([[0.5, 1 / (2 * SQRT2)], [1 / (2 * SQRT2), 0.5]])
        w, _ = linalg.eigh(h)
        assert np.allclose(w, [(2 - SQRT2) / 4, (2 + SQRT2) / 4])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            linalg.eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            linalg.eigh(np.zeros((2, 3)))

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_reconstruction(self, n, rng):
        h = random_hermitian(n, rng)
        w, u = linalg.eigh(h)
        assert np.abs((u * w) @ u.conj().T - h).max() < 1e-8
        assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-10
        for k in range(n):
            assert np.abs(h @ u[:, k] - w[k] * u[:, k]).max() < 1e-9

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_hypothesis(self, seed, n):
        h = random_hermitian(n, np.random.default_rng(seed))
        w, u = linalg.eigh(h)
        assert np.abs((u * w) @ u.conj().T - h).max() < 1e-8


class TestPartialTrace:
    def test_factorized(self, rng):
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        b = b @ b.conj().T
        b /= np.trace(b)
        out = linalg.partial_trace(linalg.kron(a, b), [2, 3], {0})
        assert np.abs(out - a).max() < 1e-10

    def test_bell_marginal(self):
        # by hand: |phi+><phi+| has entries 1/2 at corners; tracing A sums
        # the (0,0) and (1,1) blocks, giving I/2
        psi = np.array([1, 0, 0, 1]) / SQRT2
        rho = np.outer(psi, psi)
        out = linalg.partial_trace(rho, [2, 2], {1})
        assert np.allclose(out, np.eye(2) / 2)

    def test_keep_all(self, rng):
        m = random_hermitian(6, rng)
        out = linalg.partial_trace(m, [2, 3], {0, 1})
        assert np.abs(out - m).max() < 1e-12

    def test_trace_preserving(self, rng):
        m = random_hermitian(8, rng)
        out = linalg.partial_trace(m, [2, 2, 2], {1})
        assert abs(np.trace(out) - np.trace(m)) < 1e-10

    def test_composition(self, rng):
        m = random_hermitian(12, rng)
        at_once = linalg.partial_trace(m, [2, 2, 3], {0})
        stepwise = linalg.partial_trace(
            linalg.partial_trace(m, [2, 2, 3], {0, 1}), [2, 2], {0})
        assert np.abs(at_once - stepwise).max() < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.partial_trace(np.eye(4), [2, 3], {0})
        with pytest.raises(DimensionMismatch):
            linalg.partial_trace(np.eye(4), [2, 2], set())


def test_random_unitary_is_unitary(rng):
    u = random_unitary(4, rng)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10
