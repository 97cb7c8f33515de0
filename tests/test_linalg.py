import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partial_trace, random_unitary
from qcorr import linalg, states
from qcorr.errors import DimensionMismatch, NotHermitian

SQRT2 = np.sqrt(2)


def random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_state_matrix(n, rng):
    h = random_hermitian(n, rng)
    m = h @ h.conj().T
    return m / np.trace(m).real


class TestKron:
    """states.tensor is np.kron in the big-endian order states.reduced reads."""

    def test_identity(self):
        mixed = states.from_dense(np.eye(2) / 2, (2,))
        assert np.allclose(states.tensor(mixed, mixed).matrix, np.eye(4) / 4)

    def test_diagonal_expansion(self):
        a = states.from_dense(np.diag([0.25, 0.75]), (2,))
        b = states.from_dense(np.diag([0.4, 0.6]), (2,))
        out = states.tensor(a, b).matrix
        assert np.allclose(out, np.diag([0.1, 0.15, 0.3, 0.45]))

    def test_projector_product(self):
        p0 = states.from_dense(np.array([[1, 0], [0, 0]]), (2,))
        plus = states.from_dense(np.full((2, 2), 0.5), (2,))
        out = states.tensor(p0, plus)
        assert out.matrix.shape == (4, 4)
        assert out.dims == (2, 2)
        assert abs(np.trace(out.matrix) - 1) < 1e-12
        assert np.linalg.matrix_rank(out.matrix) == 1

    def test_trace_multiplicative(self, rng):
        a = random_state_matrix(3, rng)
        b = random_state_matrix(2, rng)
        out = states.tensor(states.from_dense(a, (3,)), states.from_dense(b, (2,)))
        assert np.abs(states.reduced(out, {0}).matrix - a).max() < 1e-10
        assert np.abs(states.reduced(out, {1}).matrix - b).max() < 1e-10
        assert np.allclose(out.spectrum, np.sort(np.outer(
            np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)).ravel()))


class TestEigh:
    """A state is diagonalized once, in from_dense; `spectrum` is the result."""

    def test_diagonal(self):
        w = states.from_dense(np.diag([0.3, 0.7]), (2,)).spectrum
        assert np.allclose(w, [0.3, 0.7])

    def test_pauli_x_spectrum(self):
        # |+><+| = (I + X)/2, so its spectrum is (eig X + 1)/2 with eig X = -1, 1
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        w = states.from_dense((np.eye(2) + x) / 2, (2,)).spectrum
        assert np.allclose(2 * w - 1, [-1, 1])

    def test_paper_marginal_spectrum(self):
        # by hand: eigenvalues of [[1/2, 1/(2 sqrt 2)], [1/(2 sqrt 2), 1/2]]
        # are 1/2 +- 1/(2 sqrt 2) = (2 -+ sqrt 2)/4
        h = np.array([[0.5, 1 / (2 * SQRT2)], [1 / (2 * SQRT2), 0.5]])
        w = states.from_dense(h, (2,)).spectrum
        assert np.allclose(w, [(2 - SQRT2) / 4, (2 + SQRT2) / 4])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            states.from_dense(np.array([[0.5, 1], [0, 0.5]], dtype=complex), (2,))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            states.from_dense(np.zeros((2, 3)), (2,))

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_reconstruction(self, n, rng):
        rho = states.from_dense(random_state_matrix(n, rng), (n,))
        w = rho.spectrum
        assert np.all(np.diff(w) >= 0)
        _, u = np.linalg.eigh(rho.matrix)
        assert np.abs((u * w) @ u.conj().T - rho.matrix).max() < 1e-8
        for k in range(n):
            assert np.abs(rho.matrix @ u[:, k] - w[k] * u[:, k]).max() < 1e-9

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_hypothesis(self, seed, n):
        rho = states.from_dense(random_state_matrix(n, np.random.default_rng(seed)), (n,))
        _, u = np.linalg.eigh(rho.matrix)
        assert np.abs((u * rho.spectrum) @ u.conj().T - rho.matrix).max() < 1e-8


class TestPartialTrace:
    """states.reduced traces out every subsystem not kept, from the factor."""

    def test_factorized(self, rng):
        a = random_state_matrix(2, rng)
        b = random_state_matrix(3, rng)
        out = states.reduced(states.from_dense(np.kron(a, b), (2, 3)), {0})
        assert np.abs(out.matrix - a).max() < 1e-10

    def test_bell_marginal(self):
        # by hand: |phi+><phi+| has entries 1/2 at corners; tracing A sums
        # the (0,0) and (1,1) blocks, giving I/2
        psi = np.array([1, 0, 0, 1]) / SQRT2
        out = states.reduced(states.from_pure(psi, (2, 2)), {1})
        assert np.allclose(out.matrix, np.eye(2) / 2)

    def test_keep_all(self, rng):
        rho = states.from_dense(random_state_matrix(6, rng), (2, 3))
        out = states.reduced(rho, {0, 1})
        assert out.dims == (2, 3)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-12

    def test_trace_preserving(self, rng):
        rho = states.from_dense(random_state_matrix(8, rng), (2, 2, 2))
        out = states.factor_marginal(rho, [1])
        assert abs(np.trace(out) - np.trace(rho.matrix)) < 1e-10

    def test_composition(self, rng):
        rho = states.from_dense(random_state_matrix(12, rng), (2, 2, 3))
        at_once = states.reduced(rho, {0})
        stepwise = states.reduced(states.reduced(rho, {0, 1}), {0})
        assert np.abs(at_once.matrix - stepwise.matrix).max() < 1e-10

    @pytest.mark.parametrize("rank", [1, 2, 5, 12])
    def test_matches_the_dense_partial_trace(self, rng, rank):
        # every nonempty keep, the split {0, 2} too, in big-endian order
        rho = states.random_density((2, 3, 2), rng, rank=rank)
        for size in (1, 2, 3):
            for keep in itertools.combinations(range(3), size):
                out = states.reduced(rho, set(keep))
                assert out.dims == tuple(rho.dims[k] for k in keep)
                assert np.abs(out.matrix - partial_trace(rho.matrix, rho.dims, keep)
                              ).max() < 1e-12

    def test_dimension_mismatch(self):
        rho = states.named("maximally_mixed", dims=[2, 2])
        with pytest.raises(DimensionMismatch):
            states.reduced(rho, {2})
        with pytest.raises(DimensionMismatch):
            states.reduced(rho, set())

    def test_a_bare_index_is_not_a_set_to_keep(self):
        # it used to raise a bare TypeError: 'int' object is not iterable
        with pytest.raises(DimensionMismatch):
            states.reduced(states.named("maximally_mixed", dims=[2, 2]), 1)


def test_as_matrix_rejects_a_3d_array():
    with pytest.raises(DimensionMismatch):
        linalg.as_matrix(np.zeros((2, 2, 2)))


def test_random_unitary_is_unitary(rng):
    u = random_unitary(4, rng)
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10
