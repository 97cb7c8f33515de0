import math

import numpy as np
import pytest

from conftest import random_unitary
from qcorr import infotheory, linalg, measurement, states
from qcorr.errors import AngleOutOfRange, DimensionMismatch, NotUnitary

SQRT2 = math.sqrt(2)


def random_qubit_measurement(rng):
    theta = math.acos(rng.uniform(-1, 1))
    phi = rng.uniform(0, 2 * math.pi)
    return measurement.qubit_measurement(theta, phi)


class TestQubitMeasurement:
    def test_computational_basis(self):
        m = measurement.qubit_measurement(0.0, 0.0)
        assert np.abs(m.projectors[0] - np.diag([1, 0])).max() < 1e-12
        assert np.abs(m.projectors[1] - np.diag([0, 1])).max() < 1e-12

    def test_paper_b_measurement(self):
        # cos(3 pi / 8) = sin(pi / 8)
        m = measurement.qubit_measurement(3 * math.pi / 4, 0.0)
        v = np.array([math.sin(math.pi / 8), math.cos(math.pi / 8)])
        assert np.abs(m.projectors[0] - np.outer(v, v)).max() < 1e-12

    def test_antipodal(self):
        m = measurement.qubit_measurement(math.pi, 0.0)
        assert np.abs(m.projectors[0] - np.diag([0, 1])).max() < 1e-12
        assert np.abs(m.projectors[1] - np.diag([1, 0])).max() < 1e-12

    def test_angle_ranges(self):
        with pytest.raises(AngleOutOfRange):
            measurement.qubit_measurement(-0.1, 0.0)
        with pytest.raises(AngleOutOfRange):
            measurement.qubit_measurement(0.1, 7.0)


class TestMeasurementFromUnitary:
    def test_identity(self):
        m = measurement.measurement_from_unitary(np.eye(3))
        for i in range(3):
            expected = np.zeros((3, 3))
            expected[i, i] = 1
            assert np.abs(m.projectors[i] - expected).max() < 1e-12

    def test_hadamard(self):
        h = np.array([[1, 1], [1, -1]]) / SQRT2
        m = measurement.measurement_from_unitary(h)
        plus = np.full((2, 2), 0.5)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.abs(m.projectors[0] - plus).max() < 1e-12
        assert np.abs(m.projectors[1] - minus).max() < 1e-12

    def test_invariants_for_random_unitary(self, rng):
        u = random_unitary(3, rng)
        m = measurement.measurement_from_unitary(u)
        total = sum(m.projectors)
        assert np.abs(total - np.eye(3)).max() < 1e-9
        # the basis rows are the columns of u, and each projector is their
        # outer product, bit for bit
        assert m.subsystem_dim == 3
        for a in range(3):
            assert np.array_equal(m.projectors[a], np.outer(u[:, a], u[:, a].conj()))

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            measurement.measurement_from_unitary(np.ones((2, 2)))

    @pytest.mark.parametrize("u", [np.zeros((0, 0)), np.eye(3)[:2]], ids=["empty", "2x3"])
    def test_rejects_empty_and_non_square(self, u):
        with pytest.raises(NotUnitary):
            measurement.measurement_from_unitary(u)

    def test_one_tolerance_for_unitarity(self):
        # a scaled Hadamard has unitarity defect (1 + eps)^2 - 1 ~ 2 eps
        h = np.array([[1, 1], [1, -1]]) / SQRT2
        m = measurement.measurement_from_unitary(h * (1 + 2e-9))
        assert np.abs(m.basis - h.T * (1 + 2e-9)).max() == 0
        with pytest.raises(NotUnitary):
            measurement.measurement_from_unitary(h * (1 + 1e-7))


class TestApplyNonselective:
    def test_paper_post_measurement_state(self, paper_state):
        m = measurement.qubit_measurement(0.0, 0.0)
        out = measurement.apply_nonselective(paper_state, 0, m)
        plus = np.full((2, 2), 0.5)
        expected = 0.5 * (np.kron(np.diag([1.0, 0]), np.diag([1.0, 0]))
                          + np.kron(np.diag([0, 1.0]), plus))
        assert np.abs(out.matrix - expected).max() < 1e-12

    def test_commuting_case_unchanged(self, rng):
        a = states.random_density([2], rng)
        b = states.random_density([2], rng)
        rho = states.tensor(a, b)
        _, u = linalg.eigh(a.matrix)
        m = measurement.measurement_from_unitary(u)
        out = measurement.apply_nonselective(rho, 0, m)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-9

    def test_trace_and_other_marginals_preserved(self, rng):
        rho = states.random_density((2, 2, 2), rng)
        m = random_qubit_measurement(rng)
        out = measurement.apply_nonselective(rho, 1, m)
        assert abs(np.trace(out.matrix) - 1) < 1e-12
        for k in (0, 2):
            assert np.abs(states.reduced(out, {k}).matrix
                          - states.reduced(rho, {k}).matrix).max() < 1e-9
        # marginal on the measured side becomes sum_i p_i Pi_i
        ens = measurement.conditionals(rho, 1, m)
        expected = sum(p * proj for p, proj in zip(ens.probabilities, m.projectors))
        assert np.abs(states.reduced(out, {1}).matrix - expected).max() < 1e-9

    def test_idempotent(self, rng):
        rho = states.random_density((2, 2), rng)
        m = random_qubit_measurement(rng)
        once = measurement.apply_nonselective(rho, 0, m)
        twice = measurement.apply_nonselective(once, 0, m)
        assert np.abs(twice.matrix - once.matrix).max() < 1e-9

    def test_dimension_mismatch(self, rng):
        rho = states.random_density((2, 3), rng)
        with pytest.raises(DimensionMismatch):
            measurement.apply_nonselective(rho, 1, random_qubit_measurement(rng))

    def test_matches_kronecker_recipe(self, rng):
        # sum_i (I x P_i x I) rho (I x P_i x I) with the embedding spelled out
        dims = (2, 3, 2)
        rho = states.random_density(dims, rng)
        for k, d in enumerate(dims):
            m = measurement.measurement_from_unitary(random_unitary(d, rng))
            left, right = np.eye(math.prod(dims[:k])), np.eye(math.prod(dims[k + 1:]))
            expected = np.zeros_like(rho.matrix)
            for p in m.projectors:
                full = np.kron(np.kron(left, p), right)
                expected += full @ rho.matrix @ full
            out = measurement.apply_nonselective(rho, k, m)
            assert np.abs(out.matrix - expected).max() < 1e-12


class TestConditionals:
    def test_paper_example_computational(self, paper_state):
        ens = measurement.conditionals(paper_state, 0,
                                       measurement.qubit_measurement(0.0, 0.0))
        assert np.allclose(ens.probabilities, [0.5, 0.5])
        assert np.abs(ens.states[0].matrix - np.diag([1.0, 0])).max() < 1e-12
        assert np.abs(ens.states[1].matrix - np.full((2, 2), 0.5)).max() < 1e-12

    @pytest.mark.parametrize("angles", [(0.0, 0.0), (math.pi / 2, 0.0),
                                        (math.pi / 2, math.pi / 2)])
    def test_bell_conditionals_pure(self, angles):
        rho = states.named("bell", which="phi+")
        ens = measurement.conditionals(rho, 0, measurement.qubit_measurement(*angles))
        assert np.allclose(ens.probabilities, [0.5, 0.5])
        for s in ens.states:
            assert abs(infotheory.von_neumann_entropy(s)) < 1e-9

    def test_zero_probability_branch(self):
        rho = states.from_pure([1, 0, 0, 0], (2, 2))
        ens = measurement.conditionals(rho, 0, measurement.qubit_measurement(0.0, 0.0))
        assert ens.probabilities[1] < 1e-12
        assert ens.states[1] is None

    def test_mixture_matches_channel_marginal(self, rng):
        rho = states.random_density((2, 2), rng)
        m = random_qubit_measurement(rng)
        ens = measurement.conditionals(rho, 0, m)
        mix = sum(p * s.matrix for p, s in zip(ens.probabilities, ens.states))
        out = measurement.apply_nonselective(rho, 0, m)
        assert np.abs(states.reduced(out, {1}).matrix - mix).max() < 1e-9

    def test_ensemble_reconstruction(self, rng):
        rho = states.random_density((2, 2), rng)
        m = random_qubit_measurement(rng)
        ens = measurement.conditionals(rho, 0, m)
        rebuilt = sum(p * np.kron(proj, s.matrix)
                      for p, proj, s in zip(ens.probabilities, m.projectors, ens.states))
        out = measurement.apply_nonselective(rho, 0, m)
        assert np.abs(rebuilt - out.matrix).max() < 1e-9


class TestInducedJ:
    def test_product_state(self, rng):
        rho = states.tensor(states.random_density([2], rng),
                            states.random_density([2], rng))
        m = random_qubit_measurement(rng)
        assert abs(measurement.induced_J(rho, 0, m)) < 1e-8

    def test_paper_example_computational(self, paper_state):
        j = measurement.induced_J(paper_state, 0,
                                  measurement.qubit_measurement(0.0, 0.0))
        assert abs(j - 0.6008760366928562) < 1e-9

    def test_bell_any_basis(self, rng):
        rho = states.named("bell")
        for _ in range(5):
            assert abs(measurement.induced_J(rho, 0, random_qubit_measurement(rng)) - 1) < 1e-8

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2)])
    def test_equals_channel_output_mutual_information(self, dims, rng):
        for _ in range(10):
            rho = states.random_density(dims, rng)
            for k in range(len(dims)):
                m = random_qubit_measurement(rng)
                j = measurement.induced_J(rho, k, m)
                out = measurement.apply_nonselective(rho, k, m)
                assert abs(j - infotheory.mutual_information(out)) < 1e-8


def test_channel_monotonicity(rng):
    # mutual information never increases under a local projective channel
    for _ in range(300):
        rho = states.random_density((2, 2), rng)
        m = random_qubit_measurement(rng)
        k = int(rng.integers(2))
        out = measurement.apply_nonselective(rho, k, m)
        assert (infotheory.mutual_information(out)
                <= infotheory.mutual_information(rho) + 1e-9)


class TestCQEnsemble:
    def test_one_leaf_is_the_state(self, rng):
        rho = states.random_density((2, 3), rng)
        ens = measurement.CQEnsemble.of(rho)
        assert abs(ens.mutual_information() - infotheory.mutual_information(rho)) < 1e-12

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 2), (2, 3, 2)])
    def test_split_matches_the_channel(self, rng, dims):
        # each step's leaves describe the dense channel output: same mutual
        # information, and the same probability for every joint outcome
        rho = states.random_density(dims, rng)
        ens, current, projectors = measurement.CQEnsemble.of(rho), rho, {}
        for k in (1, 0):
            u = random_unitary(dims[k], rng)
            m = measurement.measurement_from_unitary(u)
            ens = ens.split(k, u.T)  # outcome vectors as rows
            current = measurement.apply_nonselective(current, k, m)
            projectors[k] = m.projectors
            assert abs(ens.mutual_information()
                       - infotheory.mutual_information(current)) < 1e-12
        assert ens.measured == (1, 0)
        for (b, a), p in zip(ens.outcomes, ens.probs):
            born = np.kron(np.kron(projectors[0][a], projectors[1][b]), np.eye(dims[2]))
            assert abs(p - np.trace(born @ rho.matrix).real) < 1e-12

    def test_zero_probability_leaves_are_dropped(self):
        ghz = states.named("ghz", n=3)
        ens = measurement.CQEnsemble.of(ghz)
        for k in range(3):
            ens = ens.split(k, np.eye(2))
        assert ens.outcomes.tolist() == [[0, 0, 0], [1, 1, 1]]
        assert np.allclose(ens.probs, [0.5, 0.5])
        assert ens.blocks.shape == (2, 1, 1)
