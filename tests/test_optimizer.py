import math

import numpy as np
import pytest

from conftest import random_unitary
from qcorr import (OptimizerConfig, correlations, infotheory, linalg,
                   measurement, optimizer, states)
from qcorr.errors import DimensionMismatch, LengthMismatch, NotAQubit

PAPER_DA = 0.6008760366928562


def reference_J(rho, k, m):
    """J by the textbook recipe, sharing no code with the optimizer's kernel.

    Each projector is embedded as I x P_a x I, the outcome block is the
    partial trace of P rho P over subsystem k, and its normalized spectrum
    comes from one eigvalsh per outcome; the marginals come from `reduced`.
    """
    rest = [j for j in range(rho.n_subsystems) if j != k]
    rest_entropy = sum(infotheory.von_neumann_entropy(states.reduced(rho, {j}))
                       for j in rest)
    left = np.eye(math.prod(rho.dims[:k]))
    right = np.eye(math.prod(rho.dims[k + 1:]))
    cond = 0.0
    for p in m.projectors:
        full = np.kron(np.kron(left, p), right)
        block = linalg.partial_trace(full @ rho.matrix @ full, rho.dims, rest)
        prob = np.trace(block).real
        if prob >= 1e-12:
            cond += prob * infotheory.entropy_of_spectrum(np.linalg.eigvalsh(block / prob))
    return rest_entropy - cond


def planted_cq_state(rng, dims, theta, phi):
    """Classical-quantum state in the qubit-0 basis at (theta, phi).

    sup J over measurements on qubit 0 is attained only along that basis.
    """
    v0, v1 = measurement.basis_vectors(theta, phi)
    tau0, tau1 = (states.random_density(dims[1:], rng).matrix for _ in range(2))
    m = (0.3 * np.kron(np.outer(v0, v0.conj()), tau0)
         + 0.7 * np.kron(np.outer(v1, v1.conj()), tau1))
    return states.from_dense(m, dims)


class TestGridSearchQubit:
    def test_paper_example(self, paper_state):
        theta, phi, j = optimizer.grid_search_qubit(paper_state, 0, 128, 128)
        assert theta == 0.0
        assert abs(j - PAPER_DA) < 1e-6

    def test_product_state_tie_break(self, rng):
        rho = states.tensor(states.random_density([2], rng),
                            states.random_density([2], rng))
        theta, phi, j = optimizer.grid_search_qubit(rho, 0, 16, 16)
        assert (theta, phi) == (0.0, 0.0)
        assert abs(j) < 1e-8

    def test_bell_flat_landscape(self):
        rho = states.named("bell")
        theta, phi, j = optimizer.grid_search_qubit(rho, 0, 16, 16)
        assert abs(j - 1) < 1e-9
        assert (theta, phi) == (0.0, 0.0)

    def test_rejects_non_qubit(self, rng):
        with pytest.raises(NotAQubit):
            optimizer.grid_search_qubit(states.random_density((3, 2), rng), 0)

    @pytest.mark.parametrize("n_theta, n_phi", [(8, 8), (7, 8), (8, 7), (7, 7)])
    @pytest.mark.parametrize("dims, k", [((2, 2), 0), ((2, 3), 0), ((2, 2, 2), 1)])
    def test_matches_brute_force_full_grid(self, rng, dims, k, n_theta, n_phi):
        # the reference J at every point of the full grid, same tie-break rule
        thetas = np.linspace(0.0, math.pi, n_theta)
        phis = np.arange(n_phi) * (2 * math.pi / n_phi)
        points = [(theta, phi) for theta in thetas for phi in phis]
        # the planted optimum sits on row n_theta // 2: the equator for odd
        # n_theta, the first row of the lower half otherwise
        planted = planted_cq_state(rng, dims, thetas[n_theta // 2], phis[1])
        for rho, kk in ((states.random_density(dims, rng), k), (planted, 0)):
            js = np.array([reference_J(rho, kk, measurement.qubit_measurement(*p))
                           for p in points])
            best = int(np.flatnonzero(js >= js.max() - 1e-12)[0])
            theta, phi, j = optimizer.grid_search_qubit(rho, kk, n_theta, n_phi)
            assert (theta, phi) == points[best]
            assert abs(j - js[best]) < 1e-12


class TestRefineLocal:
    def test_converges_to_paper_b_angle(self, paper_state, fast_config):
        after = measurement.apply_nonselective(
            paper_state, 0, measurement.qubit_measurement(0.0, 0.0))
        t0, p0, _ = optimizer.grid_search_qubit(after, 1, 64, 64)
        params, j, _ = optimizer.refine_local(after, 1, (t0, p0), fast_config)
        theta, phi = optimizer.canonical_qubit_angles(*params)
        # optimal basis is theta = 3 pi / 4 up to projector relabeling
        # (relabeled representative: theta = pi / 4, phi shifted by pi)
        dist = min(abs(theta - 3 * math.pi / 4), abs(theta - math.pi / 4))
        assert dist < 1e-3

    def test_never_decreases(self, rng, fast_config):
        rho = states.random_density((2, 2), rng)
        start = (1.0, 2.0)
        ev_start = optimizer._JEvaluator(measurement.CQEnsemble.of(rho), 0).j_qubit(*start)
        _, j, _ = optimizer.refine_local(rho, 0, start, fast_config)
        assert j >= ev_start - 1e-12

    def test_constant_landscape_terminates(self, rng, fast_config):
        rho = states.tensor(states.random_density([2], rng),
                            states.random_density([2], rng))
        params, j, evals = optimizer.refine_local(rho, 0, (0.3, 0.3), fast_config)
        assert abs(j) < 1e-8


class TestUnitaryFromGenerator:
    def test_zero_is_identity(self):
        assert np.abs(optimizer.unitary_from_generator(np.zeros(9), 3)
                      - np.eye(3)).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unitarity(self, d, rng):
        u = optimizer.unitary_from_generator(rng.uniform(-math.pi, math.pi, d * d), d)
        assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-10

    def test_off_diagonal_rotation(self):
        params = np.zeros(4)
        params[2] = math.pi / 2  # real off-diagonal entry of the generator
        u = optimizer.unitary_from_generator(params, 2)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-10
        assert abs(abs(np.linalg.det(u)) - 1) < 1e-10
        assert abs(u[1, 0]) > 0.9  # |0> maps to (close to) |1>

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            optimizer.unitary_from_generator([0.0, 0.0], 2)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_generator_layout(self, d, rng):
        # d diagonal entries, then (re, im) per upper-triangle entry, row-major
        params = rng.uniform(-math.pi, math.pi, d * d)
        h = np.diag(params[:d]).astype(complex)
        idx = d
        for i in range(d):
            for j in range(i + 1, d):
                h[i, j] = params[idx] + 1j * params[idx + 1]
                h[j, i] = np.conj(h[i, j])
                idx += 2
        w, v = np.linalg.eigh(h)
        expected = (v * np.exp(1j * w)) @ v.conj().T
        u = optimizer.unitary_from_generator(params, d)
        assert np.abs(u - expected).max() < 1e-12


class TestOptimizeMeasurement:
    def test_paper_example(self, paper_state):
        res = optimizer.optimize_measurement(paper_state, 0)
        assert abs(res.discord - PAPER_DA) < 5e-4
        assert np.abs(res.measurement.projectors[0] - np.diag([1, 0])).max() < 1e-3

    def test_paper_second_step(self, paper_state):
        res = optimizer.optimize_measurement(paper_state, 0)
        after = measurement.apply_nonselective(paper_state, 0, res.measurement)
        res_b = optimizer.optimize_measurement(after, 1)
        assert abs(res_b.discord - 0.2017520733857121) < 5e-4

    def test_classical_classical_state(self, fast_config):
        m = np.diag([0.1, 0.3, 0.4, 0.2])
        rho = states.from_dense(m, (2, 2))
        for k in (0, 1):
            assert optimizer.optimize_measurement(rho, k, fast_config).discord <= 1e-6

    def test_discord_nonnegative_and_consistent(self, rng, fast_config):
        for _ in range(10):
            rho = states.random_density((2, 2), rng)
            res = optimizer.optimize_measurement(rho, 0, fast_config)
            info = infotheory.mutual_information(rho)
            assert res.discord >= 0
            assert abs(res.discord - max(info - res.j_value, 0.0)) < 1e-12

    def test_determinism(self, rng):
        rho = states.random_density((2, 2), rng)
        config = OptimizerConfig(grid_theta=32, grid_phi=32, seed=7)
        a = optimizer.optimize_measurement(rho, 0, config)
        b = optimizer.optimize_measurement(rho, 0, config)
        assert a.params == b.params
        assert a.j_value == b.j_value
        assert a.discord == b.discord

    def test_residual_discord_zero_at_optimum(self, rng, fast_config):
        for _ in range(5):
            rho = states.random_density((2, 2), rng)
            res = optimizer.optimize_measurement(rho, 0, fast_config)
            after = measurement.apply_nonselective(rho, 0, res.measurement)
            again = optimizer.optimize_measurement(after, 0, fast_config)
            assert again.discord <= 1e-3

    def test_local_unitary_invariance(self, rng, fast_config):
        for _ in range(5):
            rho = states.random_density((2, 2), rng)
            u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            rotated = states.from_dense(u @ rho.matrix @ u.conj().T, (2, 2))
            d0 = optimizer.optimize_measurement(rho, 0, fast_config).discord
            d1 = optimizer.optimize_measurement(rotated, 0, fast_config).discord
            assert abs(d0 - d1) < 2e-4

    def test_qutrit_side_runs_restarts(self, rng):
        # qubit x qutrit state measured on the qutrit side
        rho = states.random_density((3, 2), rng, rank=2)
        config = OptimizerConfig(restarts=4, seed=3, max_refine_steps=100)
        res = optimizer.optimize_measurement(rho, 0, config)
        assert res.discord >= 0
        assert res.oracle_gap is None
        assert res.measurement.subsystem_dim == 3
        assert res.j_value <= infotheory.mutual_information(rho) + 1e-9

    @pytest.mark.parametrize("n_theta, n_phi, grid_evals", [(8, 8, 32), (7, 8, 32),
                                                            (8, 7, 56)])
    def test_iterations_count_evaluations(self, rng, n_theta, n_phi, grid_evals):
        rho = states.random_density((2, 2), rng)
        config = OptimizerConfig(grid_theta=n_theta, grid_phi=n_phi)
        t0, p0, _ = optimizer.grid_search_qubit(rho, 0, n_theta, n_phi)
        _, _, refine_evals = optimizer.refine_local(rho, 0, (t0, p0), config)
        res = optimizer.optimize_measurement(rho, 0, config)
        assert res.iterations == grid_evals + refine_evals

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_pure_state_discord_is_marginal_entropy(self, rng, dims):
        for _ in range(3):
            n = math.prod(dims)
            psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            rho = states.from_pure(psi / np.linalg.norm(psi), dims)
            res = optimizer.optimize_measurement(rho, 0)
            s0 = infotheory.von_neumann_entropy(states.reduced(rho, {0}))
            assert abs(res.discord - s0) < 1e-6

    def test_bell_diagonal_classical_matches_luo(self, rng):
        paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                  np.diag([1, -1])]
        for _ in range(5):
            rho = states.random_bell_diagonal(rng)
            c = max(abs(np.trace(rho.matrix @ np.kron(s, s)).real) for s in paulis)
            luo = ((1 + c) / 2 * math.log2(1 + c)
                   + (1 - c) / 2 * math.log2(1 - c))
            assert abs(optimizer.optimize_measurement(rho, 0).j_value - luo) < 1e-6

    def test_oracle_agreement_small(self, rng):
        for _ in range(5):
            rho = states.random_density((2, 2), rng)
            res = optimizer.optimize_measurement(rho, 0)
            _, _, j_grid = optimizer.grid_search_qubit(rho, 0, 256, 256)
            assert abs(res.j_value - j_grid) < 1e-4


class TestQuditRestarts:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("dims", [(3, 2), (3, 3), (4, 2)])
    def test_lockstep_matches_restarts_one_by_one(self, rng, dims, seed):
        rho = states.random_density(dims, rng)
        d = dims[0]
        config = OptimizerConfig(restarts=4, seed=seed, max_refine_steps=40)
        draws = np.random.default_rng(seed)
        best, best_j, evals = None, -math.inf, 0
        for _ in range(config.restarts):
            start = draws.uniform(-math.pi, math.pi, d * d)
            params, j, n = optimizer.refine_local(rho, 0, start, config)
            evals += n
            if j > best_j + 1e-12:
                best, best_j = params, j
        res = optimizer.optimize_measurement(rho, 0, config)
        assert np.abs(np.array(res.params) - best).max() < 1e-12
        assert abs(res.j_value - best_j) < 1e-12
        assert res.iterations == evals
        # the reference recipe is independent: projectors, one eigvalsh per outcome
        assert abs(res.j_value - reference_J(rho, 0, res.measurement)) < 1e-12

    def test_classical_quantum_discord_is_zero(self, rng):
        # sum_i p_i |i><i| x rho_i with the qubit turned by a random unitary
        p = rng.dirichlet(np.ones(3))
        u = random_unitary(2, rng)
        m = sum(p[i] * np.kron(np.diag(np.eye(3)[i]),
                               u @ states.random_density([2], rng).matrix @ u.conj().T)
                for i in range(3))
        rho = states.from_dense(m, (3, 2))
        assert optimizer.optimize_measurement(rho, 0).discord <= 1e-6


ENTRY_POINTS = {
    "optimize_measurement": optimizer.optimize_measurement,
    "discord": correlations.discord,
    "classical_hv": correlations.classical_hv,
    "grid_search_qubit": lambda rho, k: optimizer.grid_search_qubit(rho, k, 8, 8),
    "refine_local": lambda rho, k: optimizer.refine_local(rho, k, (0.5, 0.5),
                                                          OptimizerConfig()),
}


@pytest.mark.parametrize("k", [-1, 2])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_subsystem_out_of_range(paper_state, entry, k):
    with pytest.raises(DimensionMismatch):
        ENTRY_POINTS[entry](paper_state, k)


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", 1.5), ("grid_theta", 16.5), ("grid_phi", 8.0),
    ("restarts", 2.5), ("max_refine_steps", 10.0), ("grid_theta", 0),
    ("restarts", -3), ("refine_tolerance", 0.0), ("refine_tolerance", math.nan),
])
def test_config_rejects_bad_fields(field, value):
    with pytest.raises(ValueError):
        OptimizerConfig(**{field: value})


def test_config_accepts_numpy_integers():
    config = OptimizerConfig(grid_theta=np.int64(8), seed=np.int32(3))
    assert config.grid_theta == 8 and config.seed == 3
