import math

import numpy as np
import pytest

from qcorr import infotheory, states
from qcorr.errors import DimensionMismatch, NotADistribution, SinglePartyState

SQRT2 = math.sqrt(2)
# frozen from -sum(p log2 p) at p = ((2 + sqrt 2)/4, (2 - sqrt 2)/4)
PAPER_MARGINAL_ENTROPY = 0.6008760366928562


class TestShannon:
    def test_fair_coin(self):
        assert abs(infotheory.shannon_entropy([0.5, 0.5]) - 1) < 1e-12

    def test_deterministic(self):
        assert infotheory.shannon_entropy([1.0, 0.0]) == 0.0

    @pytest.mark.parametrize("entropy, w", [
        (infotheory.shannon_entropy, [1.0, 0.0]),
        (infotheory.entropy_of_spectrum, [0.0, 1.0]),
        (infotheory.entropy_of_spectrum, [-1e-12, 1.0]),
        (infotheory.entropy_of_spectrum, []),
    ])
    def test_pure_is_positive_zero(self, entropy, w):
        # negating the empty or all-zero sum gave -0.0
        assert math.copysign(1.0, entropy(w)) == 1.0

    def test_paper_spectrum(self):
        p = [(2 + SQRT2) / 4, (2 - SQRT2) / 4]
        assert abs(infotheory.shannon_entropy(p) - PAPER_MARGINAL_ENTROPY) < 1e-12

    def test_reads_a_probability_table(self):
        table = infotheory.probability_table([0.25, 0.25, 0.5, 0.0], (2, 2))
        assert abs(infotheory.shannon_entropy(table) - 1.5) < 1e-12

    def test_rejects_bad_distribution(self):
        with pytest.raises(NotADistribution):
            infotheory.shannon_entropy([0.5, 0.6])

    @pytest.mark.parametrize("p", [[math.nan, 1], [math.inf, 1], [[0.5], [0.5, 0]],
                                   ["a", 1], []],
                             ids=["nan", "inf", "ragged", "not-a-number", "empty"])
    def test_rejects_entries_that_are_not_probabilities(self, p):
        # [nan, 1] used to give -0.0
        with pytest.raises(NotADistribution):
            infotheory.shannon_entropy(p)


class TestProbabilityTable:
    def test_holds_the_flat_table(self):
        table = infotheory.probability_table([[0.25, 0.25], [0.5, 0]], (2, 2))
        assert table.probs.tolist() == [0.25, 0.25, 0.5, 0.0]

    @pytest.mark.parametrize("p, dims", [([[0.5], [0.5, 0]], (2, 2)), ([math.nan, 1], (2,)),
                                         (["a", 1], (2,)), ([0.5, 0.5], (3,)),
                                         ([0.5, 0.5], (2.5,)), ([0.5, 0.5], (True, 2)),
                                         ([0.5, 0.5], 2)],
                             ids=["ragged", "nan", "not-a-number", "wrong-size",
                                  "non-integer-dims", "bool-dims", "bare-integer-dims"])
    def test_rejects_what_is_not_a_table(self, p, dims):
        with pytest.raises(NotADistribution):
            infotheory.probability_table(p, dims)

    @pytest.mark.parametrize("k", [2, 5, -1, True, 0.5, "0"])
    def test_a_party_is_an_index_of_the_table(self, k):
        # 5, -1 and 0.5 used to sum the whole table to 1.0, and True gave party 1
        table = infotheory.probability_table([0.25, 0.25, 0.5, 0.0], (2, 2))
        with pytest.raises(DimensionMismatch):
            table.marginal(k)

    def test_marginal_of_each_party(self):
        table = infotheory.probability_table([0.25, 0.25, 0.5, 0.0], (2, 2))
        assert table.marginal(0).tolist() == [0.5, 0.5]
        assert table.marginal(np.int64(1)).tolist() == [0.75, 0.25]


class TestVonNeumann:
    def test_pure_state(self):
        rho = states.named("bell", which="phi+")
        assert abs(infotheory.von_neumann_entropy(rho)) < 1e-9

    def test_maximally_mixed_qubit(self):
        rho = states.named("maximally_mixed", dims=[2])
        assert abs(infotheory.von_neumann_entropy(rho) - 1) < 1e-12

    def test_paper_marginal(self):
        rho = states.reduced(states.named("paper_example"), {0})
        assert abs(infotheory.von_neumann_entropy(rho) - PAPER_MARGINAL_ENTROPY) < 1e-12

    def test_range_and_additivity(self, rng):
        for dims in [(2, 2), (2, 3)]:
            rho = states.random_density(dims, rng)
            sigma = states.random_density((2,), rng)
            s = infotheory.von_neumann_entropy(rho)
            assert -1e-9 <= s <= math.log2(rho.dim) + 1e-9
            both = infotheory.von_neumann_entropy(states.tensor(rho, sigma))
            assert abs(both - s - infotheory.von_neumann_entropy(sigma)) < 1e-8


class TestMutualInformation:
    def test_product_state(self, rng):
        rho = states.tensor(states.random_density([2], rng),
                            states.random_density([2], rng))
        assert abs(infotheory.mutual_information(rho)) < 1e-9

    def test_bell(self):
        assert abs(infotheory.mutual_information(states.named("bell")) - 2) < 1e-9

    def test_paper_example(self):
        info = infotheory.mutual_information(states.named("paper_example"))
        assert abs(info - 2 * PAPER_MARGINAL_ENTROPY) < 1e-12

    def test_nonnegative(self, rng):
        for _ in range(20):
            rho = states.random_density((2, 2), rng)
            assert infotheory.mutual_information(rho) >= -1e-9

    def test_single_party(self, rng):
        with pytest.raises(SinglePartyState):
            infotheory.mutual_information(states.random_density([2], rng))


class TestRelativeEntropy:
    def test_self(self, rng):
        rho = states.random_density((2, 2), rng)
        assert abs(infotheory.relative_entropy(rho, rho)) < 1e-9

    def test_equals_mutual_information(self, rng):
        for _ in range(10):
            rho = states.random_density((2, 2), rng)
            prod = states.tensor(states.reduced(rho, {0}), states.reduced(rho, {1}))
            assert abs(infotheory.relative_entropy(rho, prod)
                       - infotheory.mutual_information(rho)) < 1e-8

    def test_disjoint_support_infinite(self):
        rho = states.from_pure([1, 0], [2])
        sigma = states.from_pure([0, 1], [2])
        assert infotheory.relative_entropy(rho, sigma) == math.inf

    def test_nonnegative_when_finite(self, rng):
        for _ in range(10):
            rho = states.random_density((2,), rng)
            sigma = states.random_density((2,), rng)
            val = infotheory.relative_entropy(rho, sigma)
            if math.isfinite(val):
                assert val >= -1e-9

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            infotheory.relative_entropy(states.random_density([2], rng),
                                        states.random_density([3], rng))


def dense_relative_entropy(rho, sigma):
    """S(rho||sigma) on the dense matrices: eigh of sigma, its eigenvalues
    below 1e-12 its null space, and log2 clamped there."""
    w, u = np.linalg.eigh(sigma.matrix)
    null = u[:, w < 1e-12]
    if np.einsum('ik,ij,jk->', null.conj(), rho.matrix, null).real > 1e-9:
        return math.inf
    log_sigma = (u * np.log2(np.maximum(w, 1e-12))) @ u.conj().T
    s_rho = infotheory.entropy_of_spectrum(np.linalg.eigvalsh(rho.matrix))
    return -s_rho - float(np.trace(rho.matrix @ log_sigma).real)


def test_relative_entropy_matches_the_dense_formula():
    # random pairs of every rank; half of the rhos lie in sigma's support
    rng = np.random.default_rng(2027)
    finite = 0
    for _ in range(240):
        dims = [(2,), (3,), (2, 2), (3, 2), (2, 2, 2)][rng.integers(5)]
        d = math.prod(dims)
        sigma = states.random_density(dims, rng, rank=int(rng.integers(1, d + 1)))
        rank = int(rng.integers(1, d + 1))
        if rng.random() < 0.5:
            w, u = np.linalg.eigh(sigma.matrix)
            support = u[:, w > 1e-12]
            shape = (support.shape[1], rank)
            g = support @ (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            rho = states.from_dense(g @ g.conj().T / np.linalg.norm(g) ** 2, dims)
        else:
            rho = states.random_density(dims, rng, rank=rank)
        got, want = infotheory.relative_entropy(rho, sigma), dense_relative_entropy(rho, sigma)
        assert got == want if math.isinf(want) else abs(got - want) <= 1e-12
        finite += math.isfinite(want)
    assert 100 <= finite < 240


class TestClassicalMutualInformation:
    def test_independent_uniform(self):
        table = infotheory.probability_table(np.full(4, 0.25), (2, 2))
        assert abs(infotheory.classical_mutual_information(table)) < 1e-12

    def test_perfectly_correlated(self):
        table = infotheory.probability_table([0.5, 0, 0, 0.5], (2, 2))
        assert abs(infotheory.classical_mutual_information(table) - 1) < 1e-12

    def test_three_party_ghz_table(self):
        probs = np.zeros(8)
        probs[0] = probs[7] = 0.5
        table = infotheory.probability_table(probs, (2, 2, 2))
        assert abs(infotheory.classical_mutual_information(table) - 2) < 1e-12

    def test_single_party_rejected(self):
        table = infotheory.probability_table([0.5, 0.5], (2,))
        with pytest.raises(NotADistribution):
            infotheory.classical_mutual_information(table)
