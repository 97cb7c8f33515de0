import functools
import itertools
import math

import numpy as np
import pytest

from conftest import (count_evaluations, count_searches, last_round, per_round,
                      random_bell_diagonal, random_unitary)
from qcorr import (OptimizerConfig, correlations, infotheory, measurement,
                   optimizer, states)
from qcorr.errors import BadOrder, ParamOutOfRange

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

    def test_bell(self):
        rho = states.named("bell")
        assert abs(correlations.discord(rho, 0) - 1) < 1e-6
        assert abs(correlations.discord(rho, 1) - 1) < 1e-6
        assert abs(correlations.classical_hv(rho, 0) - 1) < 1e-6

    def test_product(self, rng):
        rho = states.tensor(states.random_density([2], rng),
                            states.random_density([2], rng))
        for k in (0, 1):
            assert correlations.discord(rho, k) < 1e-8
            assert correlations.classical_hv(rho, k) < 1e-8


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

    def test_q_total_is_sum_of_steps(self, rng):
        rho = states.random_density((2, 2), rng)
        seq = correlations.sequential_measure(rho, (0, 1))
        assert seq.q_total == pytest.approx(sum(seq.step_discords), abs=1e-12)
        assert all(d >= -1e-9 for d in seq.step_discords)

    def test_final_state_is_classical(self, rng):
        rho = states.random_density((2, 2), rng)
        seq = correlations.sequential_measure(rho, (0, 1))
        current = rho
        for k, m in zip(seq.order, seq.step_measurements):
            current = measurement.apply_nonselective(current, k, m)
        for k in (0, 1):
            assert correlations.discord(current, k) <= 1e-3

    def test_classical_preservation(self, rng):
        # each optimal step leaves the Henderson-Vedral correlation intact
        rho = states.random_density((2, 2), rng)
        res_before = correlations.classical_hv(rho, 0)
        seq = correlations.sequential_measure(rho, (0, 1))
        after = measurement.apply_nonselective(rho, 0, seq.step_measurements[0])
        res_after = correlations.classical_hv(after, 0)
        assert abs(res_before - res_after) < 2e-3

    def test_bad_order(self, paper_state):
        with pytest.raises(BadOrder):
            correlations.sequential_measure(paper_state, (0, 0))

    @pytest.mark.parametrize("order", [[0, 1.5], [0.0, 1], ["0", 1], [True, False]])
    def test_order_must_be_integers(self, paper_state, order):
        # [0, 1.5] used to run the order (0, 1), and [True, False] the order (1, 0)
        with pytest.raises(BadOrder):
            correlations.sequential_measure(paper_state, order)

    def test_order_discrepancy_diagnostic(self, rng):
        # Q is order-defined; reversing the order stays close but is not
        # assumed identical (reported, not asserted, beyond a loose bound)
        rho = states.random_density((2, 2), rng)
        q01 = correlations.sequential_measure(rho, (0, 1)).q_total
        q10 = correlations.sequential_measure(rho, (1, 0)).q_total
        assert math.isfinite(q01 - q10)


def dense_sequential(rho, order, config):
    """The sequential run on dense states, as an oracle for the cq path.

    One optimize_measurement and one apply_nonselective per step, and the
    outcome table by the Born rule from the product projectors.
    """
    current, discords, chosen = rho, [], {}
    for k in order:
        res = optimizer.optimize_measurement(current, k, config)
        discords.append(res.discord)
        chosen[k] = res.measurement
        current = measurement.apply_nonselective(current, k, res.measurement)
    probs = np.empty(rho.dims)
    for outcome in itertools.product(*(range(d) for d in rho.dims)):
        projector = functools.reduce(
            np.kron, [chosen[k].projectors[i] for k, i in enumerate(outcome)])
        probs[outcome] = np.trace(projector @ rho.matrix).real
    table = infotheory.probability_table(probs, rho.dims)
    return discords, chosen, infotheory.classical_mutual_information(table), table


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
        ("rank2_5", states.random_density((2,) * 5, rng, rank=2), (0, 1, 2, 3, 4)),
        ("rank3_2x2x3_reversed", states.random_density((2, 2, 3), rng, rank=3), (2, 1, 0)),
    ]


ORACLE_FIXTURES = _oracle_fixtures()


class TestSequentialOracle:
    """The cq-ensemble run against the dense recipe, step by step."""

    @pytest.mark.parametrize("name, rho, order", ORACLE_FIXTURES,
                             ids=[f[0] for f in ORACLE_FIXTURES])
    def test_matches_dense_recipe(self, name, rho, order):
        config = OptimizerConfig(restarts=4)
        discords, chosen, c, table = dense_sequential(rho, order, config)
        seq = correlations.sequential_measure(rho, order, config)
        # the two recipes sum J in different orders, so the ascents agree to rounding
        for k, m in zip(order, seq.step_measurements):
            assert np.abs(np.array(m.projectors) - chosen[k].projectors).max() <= 1e-12
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


@pytest.mark.parametrize("rho", [states.named("ghz", n=5), states.named("ghz", n=8),
                                 states.random_density((2, 2, 2), np.random.default_rng(8))],
                         ids=["ghz_5", "ghz_8", "random_3"])
@pytest.mark.parametrize("run", [
    correlations.full_report,
    lambda rho, config: correlations.sequential_measure(rho, range(rho.n_subsystems),
                                                        config)],
    ids=["full_report", "sequential_measure"])
def test_state_is_diagonalized_once(monkeypatch, rho, run):
    # from_dense diagonalized rho; no grid or leaf block is D x D here
    seen = count_diagonalizations(monkeypatch, rho.dim)
    run(rho, OptimizerConfig())
    assert seen["full"] <= 1
    assert seen["projectors"] == 0


def born_entropy(m) -> float:
    w = np.linalg.eigvalsh(m)
    w = w[w > 1e-12]
    return float(-(w * np.log2(w)).sum())


def subsystem_first(m, dims, k):
    """A D x D matrix as (d_k, d_k, rest, rest), subsystem k's indices first."""
    n = len(dims)
    t = np.moveaxis(m.reshape(tuple(dims) * 2), (k, n + k), (0, 1))
    rest = m.shape[0] // dims[k]
    return t.reshape(dims[k], dims[k], rest, rest)


def born_info(m, dims) -> float:
    """Mutual information of the dense state m: its marginals by partial trace."""
    marginals = (np.trace(subsystem_first(m, dims, j), axis1=2, axis2=3)
                 for j in range(len(dims)))
    return sum(born_entropy(r) for r in marginals) - born_entropy(m)


def born_step(m, dims, k, basis):
    """J of measuring subsystem k of the dense state m in `basis` (vectors as rows),
    and the non-selective channel output, in plain numpy.

    J = sum_{j != k} S(rho_j) - sum_a p_a S(rho_rest|a), with the conditional
    states <v_a| m |v_a> / p_a by the Born rule, each diagonalized by eigvalsh.
    """
    n = len(dims)
    rest_entropy = sum(born_entropy(np.trace(subsystem_first(m, dims, j), axis1=2, axis2=3))
                       for j in range(n) if j != k)
    t = subsystem_first(m, dims, k)
    cond, out = 0.0, np.zeros_like(t)
    for v in basis:
        block = np.einsum('x,xyrs,y->rs', v.conj(), t, v)
        p = np.trace(block).real
        if p > 1e-12:
            cond += p * born_entropy(block / p)
        out += np.einsum('x,y,rs->xyrs', v, v.conj(), block)
    # back from (d_k, d_k, rest, rest) to the layout of m
    rest_dims = [d for j, d in enumerate(dims) if j != k]
    out = out.reshape([dims[k], dims[k]] + rest_dims * 2)
    out = np.moveaxis(out, (0, 1), (k, n + k)).reshape(m.shape)
    return rest_entropy - cond, out


LOW_RANK_RUNS = [
    ("ghz_7", states.named("ghz", n=7)),
    ("ghz_8", states.named("ghz", n=8)),
    ("rank2_6", states.random_density((2,) * 6, np.random.default_rng(61), rank=2)),
    ("rank2_2x3x2", states.random_density((2, 3, 2), np.random.default_rng(62), rank=2)),
]


class TestLowRankOracle:
    """Each step of a low-rank run against J by the Born rule on the dense state."""

    @pytest.mark.parametrize("name, rho", LOW_RANK_RUNS, ids=[r[0] for r in LOW_RANK_RUNS])
    def test_every_step_matches_the_born_rule(self, name, rho):
        seq = correlations.sequential_measure(rho, range(rho.n_subsystems))
        m, dims = rho.matrix, list(rho.dims)
        assert abs(seq.mutual_info - born_info(m, dims)) < 1e-12
        for k, step in zip(seq.order, seq.steps):
            j, after = born_step(m, dims, k, step.measurement.basis)
            assert abs(step.j_value - j) < 1e-12
            assert abs(step.discord - max(born_info(m, dims) - j, 0.0)) < 1e-12
            m = after

    @pytest.mark.parametrize("n", [7, 8])
    def test_ghz_closed_forms(self, n):
        seq = correlations.sequential_measure(states.named("ghz", n=n), range(n))
        assert abs(seq.step_discords[0] - 1) < 1e-9
        assert np.abs(seq.step_discords[1:]).max() < 1e-9
        assert abs(seq.q_total - 1) < 1e-9
        assert abs(seq.c_total - (n - 1)) < 1e-9


def with_dust(rho, rng, renormalized):
    """rho with its zero eigenvalues moved into [-1e-9, 1e-14].

    Otherwise the trace drops by less than 1e-9. Renormalized, every zero
    eigenvalue goes to -9e-10 and rho is scaled to keep the trace at 1, so
    the eigenvalues the factor keeps add up to more than 1 + 1e-9.
    """
    w, u = np.linalg.eigh(rho.matrix)
    null = u[:, w < 1e-14]
    n_null = null.shape[1]
    if renormalized:
        dust, scale = np.full(n_null, -9e-10), 1 + 9e-10 * n_null
    else:
        dust = np.concatenate([[-8e-10, 1e-14], rng.uniform(-2e-12, 1e-14, n_null - 2)])
        scale = 1
    return states.from_dense(scale * rho.matrix + (null * dust) @ null.conj().T, rho.dims)


DUSTY_STATES = [
    ("ghz_5", states.named("ghz", n=5)),
    ("rank2_5", states.random_density((2,) * 5, np.random.default_rng(71), rank=2)),
    ("rank2_2x3x2", states.random_density((2, 3, 2), np.random.default_rng(72), rank=2)),
    ("rank3_3x2", states.random_density((3, 2), np.random.default_rng(73), rank=3)),
    ("rank2_2x2", states.random_density((2, 2), np.random.default_rng(74), rank=2)),
]


@pytest.mark.parametrize("renormalized", [False, True], ids=["lowered", "renormalized"])
@pytest.mark.parametrize("name, clean", DUSTY_STATES, ids=[d[0] for d in DUSTY_STATES])
def test_eigenvalue_dust_moves_nothing(name, clean, renormalized):
    # renormalized dust made the leaf probabilities add up to more than
    # 1 + 1e-9: probability_table and from_dense on apply_nonselective's
    # output rejected them
    rng = np.random.default_rng(9)
    dusty = with_dust(clean, rng, renormalized)
    assert dusty.spectrum[0] < -7e-10
    config = OptimizerConfig(restarts=4)
    order = range(clean.n_subsystems)
    for k in order:
        m = measurement.ProjectiveMeasurement(
            optimizer._haar_bases(rng, 1, clean.dims[k])[0])
        out = measurement.apply_nonselective(dusty, k, m)
        assert abs(np.trace(out.matrix).real - 1) < 1e-12
        assert np.abs(out.matrix - measurement.apply_nonselective(clean, k, m).matrix
                      ).max() < 1e-12
        assert abs(measurement.induced_J(dusty, k, m)
                   - measurement.induced_J(clean, k, m)) <= 1e-9
    seq, ref = (correlations.sequential_measure(rho, order, config) for rho in (dusty, clean))
    assert abs(seq.classical_table.probs.sum() - 1) < 1e-12
    assert np.abs(np.array([s.j_value for s in seq.steps])
                  - [s.j_value for s in ref.steps]).max() <= 1e-9
    assert np.abs(np.array(seq.step_discords) - ref.step_discords).max() <= 1e-9
    assert abs(seq.q_total - ref.q_total) <= 1e-9
    assert abs(seq.c_total - ref.c_total) <= 1e-9
    # Q and C split the ensemble's own I, which infotheory.mutual_information
    # (the dusty matrix's) misses by up to 4e-8 here
    assert seq.q_total <= seq.mutual_info
    assert abs(seq.q_total + seq.c_total - seq.mutual_info) <= 1e-12


@pytest.mark.parametrize("dims, rank", [((2, 2), None), ((2, 2), 2), ((3, 2), None),
                                        ((2, 2, 2), None), ((2, 2, 2), 2)])
def test_q_is_unchanged_under_local_unitaries(dims, rank):
    # each step's optimum of these mixed states is unique, so Q does not
    # depend on the frame of any subsystem. A rank-2 3x2 state is left out:
    # its step-0 optima are a tie, and its Q depends on which one is taken
    rng = np.random.default_rng([2016, *dims, rank or 0])
    rho = states.random_density(dims, rng, rank=rank)
    qs = [correlations.overall_q(rho)]
    for _ in range(4):
        u = functools.reduce(np.kron, [random_unitary(d, rng) for d in dims])
        qs.append(correlations.overall_q(states.from_dense(u @ rho.matrix @ u.conj().T, dims)))
    assert max(qs) - min(qs) <= 1e-9


class TestOverall:
    def test_paper_example(self, paper_state):
        assert abs(correlations.overall_q(paper_state) - PAPER_Q) < 1e-3
        assert abs(correlations.overall_c(paper_state)
                   - (PAPER_I - PAPER_Q)) < 1e-3

    def test_classical_classical_state(self):
        rho = states.from_dense(np.diag([0.5, 0, 0, 0.5]), (2, 2))
        assert correlations.overall_q(rho) <= 1e-6
        assert abs(correlations.overall_c(rho) - 1) < 1e-6

    def test_bell(self):
        rho = states.named("bell")
        assert abs(correlations.overall_q(rho) - 1) < 1e-4
        assert abs(correlations.overall_c(rho) - 1) < 1e-4


class TestBounds:
    def test_chain_on_random_states(self, rng):
        for _ in range(20):
            rho = states.random_density((2, 2), rng)
            info = infotheory.mutual_information(rho)
            d_a = correlations.discord(rho, 0)
            seq = correlations.sequential_measure(rho, (0, 1))
            assert d_a >= -1e-9
            assert d_a <= seq.q_total + 1e-6
            assert seq.q_total <= info + 1e-6
            assert seq.c_total <= correlations.classical_hv(rho, 0) + 1e-6

    def test_bell_diagonal_corollary(self, rng):
        for _ in range(10):
            rho = random_bell_diagonal(rng)
            d_a = correlations.discord(rho, 0)
            q = correlations.overall_q(rho)
            assert abs(q - d_a) <= 1e-3


class TestClassify:
    def test_product(self, rng):
        rho = states.tensor(states.random_density([2], rng),
                            states.random_density([2], rng))
        assert correlations.classify(rho) == "product"

    def test_classical_quantum(self):
        plus = np.full((2, 2), 0.5)
        m = 0.5 * (np.kron(np.diag([1.0, 0]), np.diag([1.0, 0]))
                   + np.kron(np.diag([0, 1.0]), plus))
        rho = states.from_dense(m, (2, 2))
        assert correlations.classify(rho) == "classical_quantum(0)"

    def test_classical_classical(self):
        rho = states.from_dense(np.diag([0.4, 0.1, 0.2, 0.3]), (2, 2))
        assert correlations.classify(rho) == "classical_classical"

    def test_discordant(self, paper_state):
        assert correlations.classify(paper_state) == "discordant"

    def test_classical_classical_builds_one_ensemble(self, monkeypatch):
        # the conditional states come from the ensemble the searches used
        rho = states.from_dense(np.diag([0.4, 0.1, 0.2, 0.3]), (2, 2))
        built, of = [], measurement.CQEnsemble.of
        monkeypatch.setattr(measurement.CQEnsemble, "of",
                            staticmethod(lambda rho: built.append(rho) or of(rho)))
        assert correlations.classify(rho) == "classical_classical"
        assert built == [rho]

    def test_rejects_multipartite(self, rng):
        with pytest.raises(BadOrder):
            correlations.classify(states.random_density((2, 2, 2), rng))

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, True, "1e-6"])
    def test_rejects_a_tol_that_is_not_a_finite_real_at_least_zero(self, tol):
        # a product state was labelled "discordant" at nan and at -1
        rho = states.named("product", bloch=[[0, 0, 1], [1, 0, 0]])
        with pytest.raises(ParamOutOfRange):
            correlations.classify(rho, tol=tol)


def test_full_report_takes_subsystem_zero_from_step_zero(monkeypatch, rng):
    rho = states.random_density((2, 2, 2), rng)
    config = OptimizerConfig()
    calls = count_searches(monkeypatch)
    report = correlations.full_report(rho, config)
    step0 = report.sequential.steps[0]
    assert report.per_subsystem[0] == (step0.discord, step0.j_value)
    # the sequential steps 0, 1, 2, then D_1 and D_2: 2n - 1 searches
    assert calls == [0, 1, 2, 1, 2]


def record_batches(monkeypatch) -> list:
    """Record every `_optimize` batch of `correlations` as its (problems, results)."""
    batches, batched = [], correlations._optimize

    def recording(problems, config):
        results = batched(problems, config)
        batches.append((problems, results))
        return results

    monkeypatch.setattr(correlations, "_optimize", recording)
    return batches


def assert_same_search(a, b):
    assert (a.measurement.basis == b.measurement.basis).all()
    assert (a.j_value, a.discord, a.iterations, a.params, a.oracle_gap) == \
        (b.j_value, b.discord, b.iterations, b.params, b.oracle_gap)


def assert_batches_equal_solo_searches(batches, config):
    for problems, results in batches:
        for problem, result in zip(problems, results):
            (solo,) = optimizer._optimize([problem], config)
            assert_same_search(result, solo)


def _batch_states():
    rng = np.random.default_rng(2027)
    return {
        "2x2": states.random_density((2, 2), rng),
        "rank2_2x2x2": states.random_density((2, 2, 2), rng, rank=2),
        # both qutrit searches ascend their waves in one batch
        "3x3": states.random_density((3, 3), rng),
        # a qubit and a qutrit search: no shared batch
        "2x3": states.random_density((2, 3), rng),
    }


BATCH_STATES = _batch_states()


# A grid chunk bound of 100 half-block entries gives the rank2_2x2x2
# state's start grids, 57 bases per problem, chunks of 6 bases at step 0
# (2 x 2 Gram blocks of one leaf) and 3 at step 1 (2 x 2 blocks of two
# leaves): chunks that split a problem's grid and, at step 0, chunks that
# span two problems.
@pytest.mark.parametrize("name, chunk", [(name, None) for name in BATCH_STATES]
                         + [("rank2_2x2x2", 100)],
                         ids=list(BATCH_STATES) + ["rank2_2x2x2-chunk_100"])
def test_full_report_batches_equal_solo_searches(monkeypatch, name, chunk):
    if chunk is not None:
        monkeypatch.setattr(optimizer, "_GRID_CHUNK_ELEMENTS", chunk)
    rho, config = BATCH_STATES[name], OptimizerConfig(restarts=16)
    batches = record_batches(monkeypatch)
    report = correlations.full_report(rho, config)
    assert len(batches[0][0]) == rho.n_subsystems
    assert_batches_equal_solo_searches(batches, config)
    for k, (d_k, c_k) in enumerate(report.per_subsystem):
        solo = optimizer.optimize_measurement(rho, k, config)
        assert (d_k, c_k) == (solo.discord, solo.j_value)
    alone = correlations.sequential_measure(rho, range(rho.n_subsystems), config)
    for step, solo in zip(report.sequential.steps, alone.steps):
        assert_same_search(step, solo)


# Random 2x2 states of default_rng(seed) whose full_report batch holds two
# qubit searches that end in different rounds: alone, subsystems 0 and 1
# take these rounds, so a round of the batch ends one search while the
# other goes on.
@pytest.mark.parametrize("seed, rounds", [(1, (4, 5)), (2, (4, 3))])
def test_batched_searches_ending_in_different_rounds_report_their_solo_iterations(
        monkeypatch, seed, rounds):
    rho = states.random_density((2, 2), np.random.default_rng(seed))
    config = OptimizerConfig()
    batches = record_batches(monkeypatch)
    counted = count_evaluations(monkeypatch)
    correlations.full_report(rho, config)
    assert sum(res.iterations for _, results in batches for res in results) == sum(counted)
    problems, results = batches[0]
    solo = [optimizer._optimize([problem], config)[0] for problem in problems]
    grid = len(optimizer._start_points(*optimizer._START_GRID)[1])
    assert [res.iterations for res in solo] == [grid + (n - 1) * per_round(2) + last_round(2)
                                                for n in rounds]
    for res, alone in zip(results, solo):
        assert_same_search(res, alone)


def test_classify_batch_equals_solo_searches(monkeypatch, rng):
    config = OptimizerConfig()
    batches = record_batches(monkeypatch)
    assert correlations.classify(states.random_density((2, 2), rng), config) == "discordant"
    assert [k for _, k in batches[0][0]] == [0, 1]
    assert_batches_equal_solo_searches(batches, config)


@pytest.mark.parametrize("rho", [states.named("ghz", n=4),
                                 states.random_density((2,) * 4, np.random.default_rng(4))],
                         ids=["ghz_4", "random_4"])
def test_all_orders_equal_separate_sequential_runs(rho):
    config = OptimizerConfig()
    orders = list(itertools.permutations(range(4)))
    reports, _ = correlations._sequential_reports(measurement.CQEnsemble.of(rho), orders, config)
    for order, report in zip(orders, reports):
        alone = correlations.sequential_measure(rho, order, config)
        assert report.order == alone.order == order
        assert (report.q_total, report.c_total, report.identity_residuals) == \
            (alone.q_total, alone.c_total, alone.identity_residuals)
        assert (report.classical_table.probs == alone.classical_table.probs).all()
        for step, solo in zip(report.steps, alone.steps):
            assert_same_search(step, solo)


def test_a_batch_takes_the_rounds_of_its_longest_search(monkeypatch, rng):
    # full_report's depth-1 batch searches subsystems 0, 1 and 2 of the
    # unmeasured state in lockstep, so it makes one _directions call per
    # round of its longest search, not one per round of each
    rho = states.random_density((2, 2, 2), rng)
    config = OptimizerConfig()
    rounds, directions = [0], optimizer._directions

    def counting(*args):
        rounds[0] += 1
        return directions(*args)

    monkeypatch.setattr(optimizer, "_directions", counting)
    alone = []
    for k in range(3):
        rounds[0] = 0
        optimizer.optimize_measurement(rho, k, config)
        alone.append(rounds[0])
    per_batch, batched = [], correlations._optimize

    def counting_batches(problems, config):
        before = rounds[0]
        results = batched(problems, config)
        per_batch.append(rounds[0] - before)
        return results

    monkeypatch.setattr(correlations, "_optimize", counting_batches)
    correlations.full_report(rho, config)
    assert per_batch[0] == max(alone) < sum(alone)


def test_sequential_report_steps_carry_each_search(rng):
    rho = states.random_density((2, 3), rng)
    config = OptimizerConfig(restarts=4)
    seq = correlations.sequential_measure(rho, (1, 0), config)
    assert seq.step_discords == tuple(step.discord for step in seq.steps)
    assert seq.step_params == tuple(step.params for step in seq.steps)
    assert all(a is step.measurement
               for a, step in zip(seq.step_measurements, seq.steps))
    assert seq.steps[0].oracle_gap is None and seq.steps[1].oracle_gap is not None
    assert all(step.iterations > 0 for step in seq.steps)


def _bell_instances():
    bell = states.named("bell")
    config = OptimizerConfig()
    m = measurement.qubit_measurement(0.0, 0.0)
    return {
        "DensityMatrix": lambda: states.named("bell"),
        "ProjectiveMeasurement": lambda: measurement.qubit_measurement(0.0, 0.0),
        "ConditionalEnsemble": lambda: measurement.conditionals(bell, 0, m),
        "CQEnsemble": lambda: measurement.CQEnsemble.of(bell),
        "ProbabilityTable": lambda: infotheory.probability_table([0.5, 0.5], [2]),
        "OptimalMeasurementResult": lambda: optimizer.optimize_measurement(bell, 0, config),
        "SequentialReport": lambda: correlations.sequential_measure(bell, (0, 1), config),
        "CorrelationReport": lambda: correlations.full_report(bell, config),
    }


BELL_INSTANCES = _bell_instances()


@pytest.mark.parametrize("cls", BELL_INSTANCES)
def test_results_compare_by_identity(cls):
    # ndarray members make value equality ill-defined; == and hash are identity's
    x, y = BELL_INSTANCES[cls](), BELL_INSTANCES[cls]()
    assert type(x).__name__ == cls
    assert x == x
    assert x != y
    assert len({x, x, y}) == 2


def test_config_compares_by_value():
    assert OptimizerConfig(seed=3) == OptimizerConfig(seed=3) != OptimizerConfig()
    assert len({OptimizerConfig(), OptimizerConfig()}) == 1


def test_pure_product_marginal_entropies_are_exactly_zero():
    rho = states.named("product", bloch=[[0, 0, 1], [1, 0, 0]])
    assert correlations.full_report(rho).marginal_entropies == (0.0, 0.0)


def test_full_report_consistency(paper_state):
    report = correlations.full_report(paper_state)
    assert report.dims == (2, 2)
    assert abs(report.mutual_info - PAPER_I) < 1e-9
    for d_k, c_k in report.per_subsystem:
        assert abs(d_k + c_k - report.mutual_info) < 1e-6
    assert report.sequential.order == (0, 1)
