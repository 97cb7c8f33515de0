import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_bell_diagonal
from qcorr import states
from qcorr.errors import (DimensionMismatch, NotHermitian, NotNormalized,
                          NotPSD, ParamOutOfRange, TraceNotOne, UnknownFamily)

SQRT2 = np.sqrt(2)


class TestFromDense:
    def test_maximally_mixed(self):
        rho = states.from_dense(np.eye(4) / 4, (2, 2))
        assert rho.dims == (2, 2)
        assert abs(np.trace(rho.matrix) - 1) < 1e-12

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOne):
            states.from_dense(np.diag([1.0, 0.1]), [2])

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            states.from_dense(np.diag([1.2, -0.2]), [2])

    def test_not_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotHermitian):
            states.from_dense(m, [2])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            states.from_dense(np.eye(4) / 4, (2, 3))

    @pytest.mark.parametrize("matrix", [[[1, 0], [0]], [[1, 0], [0, "x"]]],
                             ids=["ragged", "not-a-number"])
    def test_rows_that_are_not_a_matrix(self, matrix):
        with pytest.raises(DimensionMismatch):
            states.from_dense(matrix, (2,))

    @pytest.mark.parametrize("dims", [(2, 2.5), (2.0, 2), ("2", 2)])
    def test_rejects_non_integer_dims(self, dims):
        # (2, 2.5) used to be truncated to (2, 2)
        with pytest.raises(DimensionMismatch):
            states.from_dense(np.eye(4) / 4, dims)

    def test_accepts_numpy_integer_dims(self):
        assert states.from_dense(np.eye(4) / 4, np.array([2, 2])).dims == (2, 2)

    @pytest.mark.parametrize("build", [
        lambda: states.from_dense(np.eye(4) / 4, 4),
        lambda: states.from_pure([1, 0, 0, 0], 4),
        lambda: states.random_density(2, np.random.default_rng(3)),
    ], ids=["from_dense", "from_pure", "random_density"])
    def test_a_bare_integer_is_not_dims(self, build):
        # each used to raise a bare TypeError: 'int' object is not iterable
        with pytest.raises(DimensionMismatch):
            build()


class TestFromPure:
    def test_ket00(self):
        rho = states.from_pure([1, 0, 0, 0], (2, 2))
        assert rho.matrix[0, 0] == 1

    def test_paper_example(self):
        rho = states.from_pure([1 / SQRT2, 0, 0.5, 0.5], (2, 2))
        w = rho.spectrum
        assert abs(w[-1] - 1) < 1e-9
        assert np.all(w[:-1] <= 1e-9)

    def test_bell(self):
        rho = states.from_pure([1 / SQRT2, 0, 0, 1 / SQRT2], (2, 2))
        assert abs(rho.matrix[0, 3] - 0.5) < 1e-12

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            states.from_pure([1, 1], [2])

    def test_an_amplitude_count_off_dims_is_rejected_before_the_outer_product(self):
        # 2000 amplitudes for dims (2, 2): their 2000 x 2000 projector
        # would take 64 MB, and a state file's 100k amplitudes 160 GB
        psi = np.ones(2000) / math.sqrt(2000)
        tracemalloc.start()
        try:
            with pytest.raises(DimensionMismatch):
                states.from_pure(psi, (2, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 21

    @pytest.mark.parametrize("amplitudes", [[[1, 0], [0]], ["a", 0], [math.nan, 1]],
                             ids=["ragged", "not-a-number", "nan"])
    def test_rejects_amplitudes_that_are_not_numbers(self, amplitudes):
        with pytest.raises(DimensionMismatch):
            states.from_pure(amplitudes, (2,))


class TestNamed:
    def test_paper_example(self):
        rho = states.named("paper_example")
        expected = states.from_pure([1 / SQRT2, 0, 0.5, 0.5], (2, 2))
        assert np.abs(rho.matrix - expected.matrix).max() < 1e-12

    def test_werner_zero(self):
        rho = states.named("werner", p=0.0)
        assert np.abs(rho.matrix - np.eye(4) / 4).max() < 1e-12

    def test_werner_out_of_range(self):
        with pytest.raises(ParamOutOfRange):
            states.named("werner", p=1.5)

    def test_ghz3(self):
        rho = states.named("ghz", n=3)
        psi = np.zeros(8)
        psi[0] = psi[7] = 1 / SQRT2
        assert np.abs(rho.matrix - np.outer(psi, psi)).max() < 1e-12

    def test_product(self):
        rho = states.named("product", bloch=[[0, 0, 1], [1, 0, 0]])
        expected = np.kron(np.diag([1.0, 0.0]), np.full((2, 2), 0.5))
        assert np.abs(rho.matrix - expected).max() < 1e-12

    def test_maximally_mixed(self):
        rho = states.named("maximally_mixed", dims=(2, 3))
        assert rho.dims == (2, 3)
        assert np.abs(rho.matrix - np.eye(6) / 6).max() < 1e-12

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            states.named("nope")

    def test_accepts_numpy_numbers(self):
        assert states.named("ghz", n=np.int64(3)).dims == (2, 2, 2)
        assert states.named("maximally_mixed", dims=np.array([2, 3])).dims == (2, 3)
        rho = states.named("werner", p=np.float64(0.0))
        assert np.abs(rho.matrix - np.eye(4) / 4).max() < 1e-12

    @pytest.mark.parametrize("family, params", [
        ("paper_example", {"p": 0.5}), ("ghz", {"n": True}), ("ghz", {"n": 3.0}),
        ("werner", {"p": math.nan}), ("product", {"bloch": []}),
        ("product", {"bloch": [[0, 0, "1"]]}), ("maximally_mixed", {"dims": 2}),
        # total dimension above MAX_NAMED_DIM, refused before any allocation
        ("ghz", {"n": 13}), ("ghz", {"n": 10 ** 12}), ("product", {"bloch": [[0, 0, 1]] * 13}),
        ("maximally_mixed", {"dims": (64, 65)}), ("maximally_mixed", {"dims": (2,) * 60}),
        # a Bloch vector longer than 1, and a GHZ state of one qubit
        ("product", {"bloch": [[1, 1, 0]]}), ("ghz", {"n": 1}),
    ])
    def test_rejects_malformed_params(self, family, params):
        with pytest.raises(ParamOutOfRange):
            states.named(family, **params)


class TestReducedAndTensor:
    def test_reduced_product(self, rng):
        a = states.random_density([2], rng)
        b = states.random_density([3], rng)
        out = states.reduced(states.tensor(a, b), {0})
        assert np.abs(out.matrix - a.matrix).max() < 1e-10

    def test_reduced_paper_example(self):
        # by hand: Tr_B |psi><psi| for amplitudes (1/sqrt2, 0, 1/2, 1/2)
        rho = states.reduced(states.named("paper_example"), {0})
        expected = np.array([[0.5, 1 / (2 * SQRT2)], [1 / (2 * SQRT2), 0.5]])
        assert np.abs(rho.matrix - expected).max() < 1e-12

    def test_reduced_ghz_middle(self):
        rho = states.reduced(states.named("ghz", n=3), {1})
        assert np.abs(rho.matrix - np.eye(2) / 2).max() < 1e-12

    @pytest.mark.parametrize("keep", [{True}, {0.5}, {0, 2}, set(), 0])
    def test_reduced_rejects_what_is_not_a_set_of_indices(self, keep):
        # {True} used to give subsystem 1's state, {0.5} and 0 a bare TypeError
        rho = states.random_density((2, 3), np.random.default_rng(21))
        with pytest.raises(DimensionMismatch):
            states.reduced(rho, keep)

    def test_tensor_dims(self):
        a = states.named("maximally_mixed", dims=[2])
        out = states.tensor(a, a)
        assert out.dims == (2, 2)
        assert np.abs(out.matrix - np.eye(4) / 4).max() < 1e-12
        assert abs(np.trace(out.matrix) - 1) < 1e-12

    def test_tensor_of_states_within_the_trace_tolerance_is_a_state(self):
        # the product of the two matrices had trace 0.9999999982 and was rejected
        a = states.from_dense(np.diag([0.3, 0.7 - 9e-10]), (2,))
        out = states.tensor(a, a)
        assert abs(np.trace(out.matrix).real - 1) < 1e-12
        assert np.abs(out.spectrum - np.sort(np.outer([0.3, 0.7], [0.3, 0.7]).ravel())
                      ).max() < 1e-9


def test_random_density_valid(rng):
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        rho = states.random_density(dims, rng)
        assert rho.spectrum[0] >= -1e-9
        assert abs(np.trace(rho.matrix) - 1) < 1e-9


@pytest.mark.parametrize("rank", [0, -1, 2.5, True])
def test_random_density_rejects_a_rank_that_is_not_a_positive_integer(rng, rank):
    # rank 0 used to fail in from_dense, -1 in numpy, 2.5 and True with a TypeError
    with pytest.raises(ParamOutOfRange):
        states.random_density((2, 2), rng, rank=rank)


def test_random_bell_diagonal_marginals(rng):
    rho = random_bell_diagonal(rng)
    for k in (0, 1):
        assert np.abs(states.reduced(rho, {k}).matrix - np.eye(2) / 2).max() < 1e-10
