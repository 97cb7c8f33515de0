import functools
import itertools
import math

import numpy as np
import pytest

from qcorr import (OptimizerConfig, correlations, infotheory, measurement,
                   optimizer, states)
from qcorr.errors import BadOrder

PAPER_DA = 0.6008760366928562
PAPER_DB_STEP2 = 0.2017520733857121
PAPER_Q = PAPER_DA + PAPER_DB_STEP2
PAPER_I = 2 * PAPER_DA


class TestDiscordAndClassical:
    def test_paper_example(self, paper_state):
        assert abs(correlations.discord(paper_state, 0) - PAPER_DA) < 5e-4

    def test_paper_example_classical(self, paper_state):
        # C_A = I - D_A; both paper values
        assert abs(correlations.classical_hv(paper_state, 0)
                   - (PAPER_I - PAPER_DA)) < 5e-4

    def test_bell(self, fast_config):
        rho = states.named("bell")
        assert abs(correlations.discord(rho, 0, fast_config) - 1) < 1e-6
        assert abs(correlations.discord(rho, 1, fast_config) - 1) < 1e-6
        assert abs(correlations.classical_hv(rho, 0, fast_config) - 1) < 1e-6

    def test_product(self, rng, fast_config):
        rho = states.tensor(states.random_density([2], rng),
                            states.random_density([2], rng))
        for k in (0, 1):
            assert correlations.discord(rho, k, fast_config) < 1e-8
            assert correlations.classical_hv(rho, k, fast_config) < 1e-8


class TestSequentialMeasure:
    def test_paper_example(self, paper_state):
        seq = correlations.sequential_measure(paper_state, (0, 1))
        assert abs(seq.step_discords[0] - PAPER_DA) < 5e-4
        assert abs(seq.step_discords[1] - PAPER_DB_STEP2) < 5e-4
        assert abs(seq.q_total - PAPER_Q) < 1e-3
        assert abs(seq.c_total - (PAPER_I - PAPER_Q)) < 1e-3
        assert seq.identity_residuals[0] <= 1e-6
        assert seq.identity_residuals[1] <= 1e-6

    def test_ghz3(self):
        seq = correlations.sequential_measure(states.named("ghz", n=3), (0, 1, 2))
        assert abs(seq.step_discords[0] - 1) < 1e-4
        assert abs(seq.step_discords[1]) < 1e-4
        assert abs(seq.step_discords[2]) < 1e-4
        assert abs(seq.q_total - 1) < 1e-4
        assert abs(seq.c_total - 2) < 1e-4

    def test_q_total_is_sum_of_steps(self, rng, fast_config):
        rho = states.random_density((2, 2), rng)
        seq = correlations.sequential_measure(rho, (0, 1), fast_config)
        assert seq.q_total == pytest.approx(sum(seq.step_discords), abs=1e-12)
        assert all(d >= -1e-9 for d in seq.step_discords)

    def test_final_state_is_classical(self, rng, fast_config):
        rho = states.random_density((2, 2), rng)
        seq = correlations.sequential_measure(rho, (0, 1), fast_config)
        current = rho
        for k, m in zip(seq.order, seq.step_measurements):
            current = measurement.apply_nonselective(current, k, m)
        for k in (0, 1):
            assert correlations.discord(current, k, fast_config) <= 1e-3

    def test_classical_preservation(self, rng, fast_config):
        # each optimal step leaves the Henderson-Vedral correlation intact
        rho = states.random_density((2, 2), rng)
        res_before = correlations.classical_hv(rho, 0, fast_config)
        seq = correlations.sequential_measure(rho, (0, 1), fast_config)
        after = measurement.apply_nonselective(rho, 0, seq.step_measurements[0])
        res_after = correlations.classical_hv(after, 0, fast_config)
        assert abs(res_before - res_after) < 2e-3

    def test_bad_order(self, paper_state):
        with pytest.raises(BadOrder):
            correlations.sequential_measure(paper_state, (0, 0))

    def test_order_discrepancy_diagnostic(self, rng, fast_config):
        # Q is order-defined; reversing the order stays close but is not
        # assumed identical (reported, not asserted, beyond a loose bound)
        rho = states.random_density((2, 2), rng)
        q01 = correlations.sequential_measure(rho, (0, 1), fast_config).q_total
        q10 = correlations.sequential_measure(rho, (1, 0), fast_config).q_total
        assert math.isfinite(q01 - q10)


def dense_sequential(rho, order, config):
    """The sequential run on dense states, as an oracle for the cq path.

    One optimize_measurement and one apply_nonselective per step, and the
    outcome table by the Born rule from the product projectors.
    """
    current, discords, params, chosen = rho, [], [], {}
    for k in order:
        res = optimizer.optimize_measurement(current, k, config)
        discords.append(res.discord)
        params.append(res.params)
        chosen[k] = res.measurement
        current = measurement.apply_nonselective(current, k, res.measurement)
    probs = np.empty(rho.dims)
    for outcome in itertools.product(*(range(d) for d in rho.dims)):
        projector = functools.reduce(
            np.kron, [chosen[k].projectors[i] for k, i in enumerate(outcome)])
        probs[outcome] = np.trace(projector @ rho.matrix).real
    table = infotheory.probability_table(probs, rho.dims)
    return discords, params, infotheory.classical_mutual_information(table), table


def _oracle_fixtures():
    rng = np.random.default_rng(2011)
    random = lambda dims: states.random_density(dims, rng)
    pure_product = states.named("product", bloch=[[0, 0, 1], [1, 0, 0], [0, 0, -1]])
    return [
        ("paper_example", states.named("paper_example"), (0, 1)),
        *((f"ghz_{n}", states.named("ghz", n=n), tuple(range(n))) for n in (3, 4, 5, 6)),
        ("random_3", random((2, 2, 2)), (0, 1, 2)),
        ("random_3_reversed", random((2, 2, 2)), (2, 1, 0)),
        ("random_4", random((2, 2, 2, 2)), (0, 1, 2, 3)),
        ("3x2", random((3, 2)), (0, 1)),
        ("3x2_reversed", random((3, 2)), (1, 0)),
        ("2x3", random((2, 3)), (0, 1)),
        ("2x2x3", random((2, 2, 3)), (0, 1, 2)),
        ("2x3x2_rank2", states.random_density((2, 3, 2), rng, rank=2), (2, 1, 0)),
        ("classical_diag", states.from_dense(np.diag([0.5, 0, 0, 0.5]), (2, 2)), (0, 1)),
        ("pure_product", pure_product, (0, 1, 2)),
    ]


ORACLE_FIXTURES = _oracle_fixtures()


class TestSequentialOracle:
    """The cq-ensemble run against the dense recipe, step by step."""

    @pytest.mark.parametrize("name, rho, order", ORACLE_FIXTURES,
                             ids=[f[0] for f in ORACLE_FIXTURES])
    def test_matches_dense_recipe(self, name, rho, order):
        config = OptimizerConfig(grid_theta=32, grid_phi=32, restarts=4,
                                 max_refine_steps=60)
        discords, params, c, table = dense_sequential(rho, order, config)
        seq = correlations.sequential_measure(rho, order, config)
        assert seq.step_params == tuple(params)
        assert np.abs(np.array(seq.step_discords) - discords).max() <= 1e-9
        assert abs(seq.q_total - sum(discords)) <= 1e-9
        assert abs(seq.c_total - c) <= 1e-9
        assert np.abs(seq.classical_table.probs - table.probs).max() <= 1e-9


def count_diagonalizations(monkeypatch, dim) -> dict:
    """Count eigh / eigvalsh calls on dim x dim matrices, and on projectors."""
    seen = {"full": 0, "projectors": 0}
    for name in ("eigh", "eigvalsh"):
        eig = getattr(np.linalg, name)

        def counting(a, *args, eig=eig, **kwargs):
            a = np.asarray(a)
            seen["full"] += a.shape[-2:] == (dim, dim)
            idempotent = np.abs(a @ a - a).max(axis=(-2, -1)) <= 1e-9
            unit_trace = np.abs(np.trace(a, axis1=-2, axis2=-1) - 1) <= 1e-9
            seen["projectors"] += int(np.count_nonzero(idempotent & unit_trace))
            return eig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return seen


@pytest.mark.parametrize("rho", [states.named("ghz", n=5),
                                 states.random_density((2, 2, 2), np.random.default_rng(8))],
                         ids=["ghz_5", "random_3"])
@pytest.mark.parametrize("run", [
    correlations.full_report,
    lambda rho, config: correlations.sequential_measure(rho, range(rho.n_subsystems),
                                                        config)],
    ids=["full_report", "sequential_measure"])
def test_state_is_diagonalized_once(monkeypatch, rho, run):
    # from_dense diagonalized rho; no grid or leaf block is D x D here
    seen = count_diagonalizations(monkeypatch, rho.dim)
    run(rho, OptimizerConfig(grid_theta=16, grid_phi=16))
    assert seen["full"] <= 1
    assert seen["projectors"] == 0


class TestOverall:
    def test_paper_example(self, paper_state):
        assert abs(correlations.overall_q(paper_state) - PAPER_Q) < 1e-3
        assert abs(correlations.overall_c(paper_state)
                   - (PAPER_I - PAPER_Q)) < 1e-3

    def test_classical_classical_state(self, fast_config):
        rho = states.from_dense(np.diag([0.5, 0, 0, 0.5]), (2, 2))
        assert correlations.overall_q(rho, fast_config) <= 1e-6
        assert abs(correlations.overall_c(rho, fast_config) - 1) < 1e-6

    def test_bell(self, fast_config):
        rho = states.named("bell")
        assert abs(correlations.overall_q(rho, fast_config) - 1) < 1e-4
        assert abs(correlations.overall_c(rho, fast_config) - 1) < 1e-4


class TestBounds:
    def test_chain_on_random_states(self, rng, fast_config):
        for _ in range(20):
            rho = states.random_density((2, 2), rng)
            info = infotheory.mutual_information(rho)
            d_a = correlations.discord(rho, 0, fast_config)
            seq = correlations.sequential_measure(rho, (0, 1), fast_config)
            assert d_a >= -1e-9
            assert d_a <= seq.q_total + 1e-6
            assert seq.q_total <= info + 1e-6
            assert seq.c_total <= correlations.classical_hv(rho, 0, fast_config) + 1e-6

    def test_bell_diagonal_corollary(self, rng, fast_config):
        for _ in range(10):
            rho = states.random_bell_diagonal(rng)
            d_a = correlations.discord(rho, 0, fast_config)
            q = correlations.overall_q(rho, fast_config)
            assert abs(q - d_a) <= 1e-3


class TestClassify:
    def test_product(self, rng):
        rho = states.tensor(states.random_density([2], rng),
                            states.random_density([2], rng))
        assert correlations.classify(rho) == "product"

    def test_classical_quantum(self, fast_config):
        plus = np.full((2, 2), 0.5)
        m = 0.5 * (np.kron(np.diag([1.0, 0]), np.diag([1.0, 0]))
                   + np.kron(np.diag([0, 1.0]), plus))
        rho = states.from_dense(m, (2, 2))
        assert correlations.classify(rho, fast_config) == "classical_quantum(0)"

    def test_classical_classical(self, fast_config):
        rho = states.from_dense(np.diag([0.4, 0.1, 0.2, 0.3]), (2, 2))
        assert correlations.classify(rho, fast_config) == "classical_classical"

    def test_discordant(self, paper_state, fast_config):
        assert correlations.classify(paper_state, fast_config) == "discordant"

    def test_rejects_multipartite(self, rng):
        with pytest.raises(BadOrder):
            correlations.classify(states.random_density((2, 2, 2), rng))


def test_full_report_consistency(paper_state, fast_config):
    report = correlations.full_report(paper_state, fast_config)
    assert report.dims == (2, 2)
    assert abs(report.mutual_info - PAPER_I) < 1e-9
    for d_k, c_k in report.per_subsystem:
        assert abs(d_k + c_k - report.mutual_info) < 1e-6
    assert report.sequential.order == (0, 1)
