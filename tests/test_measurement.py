import math

import numpy as np
import pytest

from conftest import partial_trace, random_unitary
from qcorr import infotheory, measurement, states
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

    # True once built theta = 1 rad; strings and None raised a bare
    # TypeError, and an array phi a ValueError
    @pytest.mark.parametrize("theta, phi", [
        (True, False), (True, 0.0), (0.0, False), ("1", 0.0), (None, 0.0), (0.0, "0"),
        (0.0, np.array([0.1, 0.2])), (np.array(0.5), 0.0), (math.nan, 0.0), (0.0, math.inf),
        (1 + 0j, 0.0)])
    def test_rejects_an_angle_that_is_not_a_finite_real(self, theta, phi):
        with pytest.raises(AngleOutOfRange):
            measurement.qubit_measurement(theta, phi)

    def test_takes_numpy_and_integer_angles(self):
        expected = measurement.qubit_measurement(1.0, 0.0).basis
        for theta, phi in [(np.float64(1.0), np.float64(0.0)), (1, 0), (np.int64(1), np.int64(0))]:
            assert (measurement.qubit_measurement(theta, phi).basis == expected).all()

    def test_basis_is_the_bloch_formula(self):
        # cos(t/2)|0> + e^{i phi} sin(t/2)|1> and -sin(t/2)|0> + e^{i phi} cos(t/2)|1>,
        # by the math module's scalar functions
        rng = np.random.default_rng(11)
        for theta, phi in [(0.0, 0.0), (math.pi / 2, math.pi), (math.pi, 1.5 * math.pi),
                           *zip(rng.uniform(0, math.pi, 20), rng.uniform(0, 2 * math.pi, 20))]:
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            e = complex(math.cos(phi), math.sin(phi))
            expected = np.array([[c, e * s], [-s, e * c]])
            assert (measurement.qubit_measurement(theta, phi).basis == expected).all()


def test_basis_vectors_of_arrays_stack_the_scalar_calls():
    rng = np.random.default_rng(12)
    thetas = np.concatenate([[0.0, math.pi / 2, math.pi], rng.uniform(0, math.pi, 60)])
    phis = np.concatenate([[0.0, math.pi, 1.5 * math.pi], rng.uniform(0, 2 * math.pi, 60)])
    v0, v1 = measurement.basis_vectors(thetas, phis)
    assert v0.shape == v1.shape == (len(thetas), 2)
    for i, (theta, phi) in enumerate(zip(thetas.tolist(), phis.tolist())):
        s0, s1 = measurement.basis_vectors(theta, phi)
        assert (v0[i].tobytes(), v1[i].tobytes()) == (s0.tobytes(), s1.tobytes())
    # one angle broadcasts against the other
    b0, _ = measurement.basis_vectors(thetas[5], phis[:4])
    assert b0.tobytes() == np.stack([measurement.basis_vectors(thetas[5], p)[0]
                                     for p in phis[:4]]).tobytes()


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

    def test_rejects_ragged_basis(self):
        with pytest.raises(DimensionMismatch):
            measurement.ProjectiveMeasurement([[1, 0], [0]])

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
        _, u = np.linalg.eigh(a.matrix)
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
        # the textbook recipe, sharing no code with the factor: each marginal
        # by partial trace of the dense matrix, every spectrum by eigvalsh
        rho = states.random_density((2, 3), rng)
        ens = measurement.CQEnsemble.of(rho)
        entropy = lambda m: infotheory.entropy_of_spectrum(np.linalg.eigvalsh(m))
        marginals = [entropy(partial_trace(rho.matrix, rho.dims, {j})) for j in (0, 1)]
        assert abs(ens.mutual_information() - (sum(marginals) - entropy(rho.matrix))) < 1e-12

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


def eigh_gradient(view, bases):
    """dJ/d conj(bases) with log2(B / q) from one eigh per outcome block, by einsum over the view."""
    blocks = np.einsum('nia,labcd,nic->inlbd', bases.conj(), view, bases)
    probs = np.einsum('...ii->...', blocks.real).sum(axis=-1)
    w, u = np.linalg.eigh(blocks)
    log_w = np.log2(np.maximum(w / np.maximum(probs, 1e-12)[..., None, None], 1e-12))
    log_w[probs <= 1e-12] = 0.0
    logs = (u * log_w[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return np.einsum('inldb,lxbyd,niy->nix', logs, view, bases)


def small_block_cases():
    """(name, view, bases): views (L, 3, b, 3, b) of b <= 2, and stacks of qutrit bases."""
    rng = np.random.default_rng(2014)
    density = lambda d, rank=None: states.random_density([d], rng, rank=rank).matrix

    def turned(m):
        u = random_unitary(len(m), rng)
        return u @ m @ u.conj().T

    def leaves(*ws):
        w = np.array(ws) / sum(np.trace(w).real for w in ws)
        return w.reshape(len(ws), 3, len(w[0]) // 3, 3, len(w[0]) // 3)

    rho_a = density(3)
    bases = np.array([random_unitary(3, rng).T for _ in range(8)])
    # bases that hold |2>, whose outcome has q < 1e-12 under `faint`
    zero_outcome = bases.copy()
    zero_outcome[:, :2, :2] = [random_unitary(2, rng) for _ in range(8)]
    zero_outcome[:, 2], zero_outcome[:, :2, 2] = np.eye(3)[2], 0
    faint = np.kron(np.diag([1, 1, 1e-6]), np.eye(2))
    coupled = np.kron(np.diag([0.5, 0.3, 0.2]), np.eye(2) / 2 + np.diag([1e-10, -1e-10]))
    coupled[:2, 2:4] = coupled[2:4, :2] = [[0.05, 0.02], [0.02, -0.05]]
    phased = np.array([np.diag(np.exp(2j * math.pi * rng.random(3))) for _ in range(8)])
    return [
        ("random_1x1", leaves(density(3), density(3)), bases),
        ("random_2x2", leaves(density(6), density(6, 3)), bases),
        # the conditional state given any outcome is I/2, or within 1e-10 of it
        ("degenerate", leaves(np.kron(rho_a, np.eye(2) / 2)), bases),
        ("nearly_degenerate",
         leaves(np.kron(rho_a, turned(np.diag([0.5 + 1e-10, 0.5 - 1e-10])))), bases),
        # in rephased computational bases the conditional states are within
        # 1e-10 of I/2, while the blocks between outcomes are not multiples of I
        ("nearly_degenerate_coupled", leaves(coupled), phased),
        # pure conditional states: the other eigenvalue is rounding dust
        ("rank1", leaves(density(6, 1)), bases),
        # a conditional eigenvalue near 1e-13, and a leaf whose blocks have
        # both below CLAMP
        ("below_clamp", leaves(density(6, 1) + 1e-13 * density(6)), bases),
        ("faint_leaf", leaves(density(6), 1e-12 * density(6)), bases),
        ("zero_probability", leaves(faint @ density(6) @ faint), zero_outcome),
    ]


SMALL_BLOCK_CASES = small_block_cases()


@pytest.mark.parametrize("name, view, bases", SMALL_BLOCK_CASES,
                         ids=[c[0] for c in SMALL_BLOCK_CASES])
def test_closed_form_gradient_matches_eigh(name, view, bases):
    # blocks of b <= 2 take log2(B / q) in closed form, with eigh's clamp and zero rule
    assert view.shape[2] <= 2
    ev = measurement._JEvaluator([view], [0.0], [0.0])
    on = np.zeros(len(bases), dtype=int)
    assert np.abs(ev.gradient(bases, on) - eigh_gradient(view, bases)).max() < 1e-12


def test_a_stack_counts_each_problems_bases(rng):
    # each basis is evaluated on the problem `on` names, as by that problem's
    # evaluator alone, and both J and its gradient count each problem's bases
    ensembles = [measurement.CQEnsemble.of(states.random_density((2, 2), rng)) for _ in range(3)]
    ev = measurement._JEvaluator(*zip(*(measurement._view(ens, 0) for ens in ensembles)))
    assert ev.evaluated == [0, 0, 0]
    bases = np.array([random_unitary(2, rng).T for _ in range(5)])
    on = np.array([0, 0, 2, 2, 2])
    j = ev.j_bases(bases, on)
    assert ev.evaluated == [2, 0, 3]
    grad = ev.gradient(bases, on)
    assert ev.evaluated == [4, 0, 6]
    for p in (0, 2):
        alone = measurement._JEvaluator.of(ensembles[p], 0)
        mine = on == p
        assert (j[mine] == alone.j_bases(bases[mine], on[mine] - p)).all()
        assert (grad[mine] == alone.gradient(bases[mine], on[mine] - p)).all()
