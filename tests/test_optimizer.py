import dataclasses
import math

import numpy as np
import pytest

from conftest import (count_evaluations, last_round, multiqubit_random_states, per_round,
                      qubit_pairs_states, random_bell_diagonal, random_unitary,
                      sequential_shortfalls)
from qcorr import (OptimizerConfig, correlations, infotheory, linalg,
                   measurement, optimizer, states)
from qcorr.errors import DimensionMismatch, NotAQubit, ParamOutOfRange

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


def alone(bases):
    """The problem counts of a stack of bases that are all one problem's."""
    return [len(bases)]


def ascend(rho, k, starts):
    """The (bases, J) of the ascent from a stack of bases, and the bases it evaluated.

    The count is the evaluator's, less the J of the starts.
    """
    ev = optimizer._JEvaluator.of(measurement.CQEnsemble.of(rho), k)
    starts = np.asarray(starts, dtype=complex)
    bases, j = optimizer._ascend(ev, starts, ev.j_bases(starts, alone(starts)), alone(starts))
    return bases, j, ev.evaluated[0] - len(starts)


def qubit_basis(theta, phi):
    return np.array(measurement.basis_vectors(theta, phi))


def full_grid(rows, cols):
    """Every (theta, phi) of the rows x cols grid over [0, pi] x [0, 2 pi), theta major."""
    return [a.ravel() for a in np.meshgrid(np.linspace(0, math.pi, rows),
                                           np.arange(cols) * (2 * math.pi / cols), indexing='ij')]


def grid_best(ev, rows, cols):
    """The first basis of the rows x cols `_grid_points` within 1e-12 of its best J, and that J."""
    _, bases = optimizer._grid_points(rows, cols)
    (j,) = optimizer._grid_j(ev, bases)
    best = optimizer._first_best(j)
    return bases[best], j[best]


def skew_hermitian(d, rng):
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return h - h.conj().T


def expm_series(a):
    """exp(a) by a Taylor series after scaling and squaring; no eigendecomposition."""
    squarings = max(0, int(np.ceil(np.log2(max(np.abs(a).sum(axis=1).max(), 1e-300)))) + 1)
    a = a / 2 ** squarings
    term, total = np.eye(len(a), dtype=complex), np.eye(len(a), dtype=complex)
    for i in range(1, 20):
        term = term @ a / i
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def planted_cq_state(rng, dims, theta, phi):
    """Classical-quantum state in the qubit-0 basis at (theta, phi).

    sup J over measurements on qubit 0 is attained only along that basis.
    """
    v0, v1 = measurement.basis_vectors(theta, phi)
    tau0, tau1 = (states.random_density(dims[1:], rng).matrix for _ in range(2))
    m = (0.3 * np.kron(np.outer(v0, v0.conj()), tau0)
         + 0.7 * np.kron(np.outer(v1, v1.conj()), tau1))
    return states.from_dense(m, dims)


def random_x_state(rng):
    """A random two-qubit X-state: nonzero only on the diagonal and anti-diagonal.

    Its X pattern is the direct sum of a state's principal 2 x 2 blocks on
    |00>, |11> and on |01>, |10>, so it is a state too.
    """
    x = np.eye(4) + np.eye(4)[::-1]
    return states.from_dense(states.random_density((2, 2), rng).matrix * x, (2, 2))


class TestGridSearchQubit:
    def test_paper_example(self, paper_state):
        theta, phi, j = optimizer.grid_search_qubit(paper_state, 0, 128)
        assert theta == 0.0
        assert abs(j - PAPER_DA) < 1e-6

    def test_product_state_tie_break(self, rng):
        rho = states.tensor(states.random_density([2], rng),
                            states.random_density([2], rng))
        theta, phi, j = optimizer.grid_search_qubit(rho, 0, 16)
        assert (theta, phi) == (0.0, 0.0)
        assert abs(j) < 1e-8

    def test_bell_flat_landscape(self):
        rho = states.named("bell")
        theta, phi, j = optimizer.grid_search_qubit(rho, 0, 16)
        assert abs(j - 1) < 1e-9
        assert (theta, phi) == (0.0, 0.0)

    def test_rejects_non_qubit(self, rng):
        with pytest.raises(NotAQubit):
            optimizer.grid_search_qubit(states.random_density((3, 2), rng), 0)

    def test_start_grid_bases_are_the_basis_vectors_of_its_angles(self):
        angles, bases = optimizer._start_points(*optimizer._START_GRID)
        for (theta, phi), basis in zip(angles.tolist(), bases):
            assert np.array(measurement.basis_vectors(theta, phi)).tobytes() == basis.tobytes()

    def test_start_grid_directions_are_distinct_and_not_antipodal(self):
        _, bases = optimizer._start_points(*optimizer._START_GRID)
        assert len(bases) == 57
        v0, v1 = bases[:, 0, 0], bases[:, 0, 1]
        bloch = np.stack([2 * (v0.conj() * v1).real, 2 * (v0.conj() * v1).imag,
                          abs(v0) ** 2 - abs(v1) ** 2], axis=1)
        overlaps = np.abs(bloch @ bloch.T)
        np.fill_diagonal(overlaps, 0.0)
        assert overlaps.max() < 1 - 1e-9

    @pytest.mark.parametrize("cols, kept", [(16, 8), (15, 15)])
    def test_the_equator_drops_its_antipodal_half_when_even(self, cols, kept):
        phis = np.arange(cols) * (2 * math.pi / cols)
        angles, _ = optimizer._grid_points(5, cols)
        equator = angles[angles[:, 0] == math.pi / 2]
        assert equator.tolist() == [[math.pi / 2, phi] for phi in phis[:kept]]

    @pytest.mark.parametrize("rows, cols", [(9, 16), (8, 8), (7, 7), (6, 5), (5, 6),
                                            (2, 3), (1, 4), (3, 1)])
    def test_the_grid_drops_exactly_its_repeated_directions_and_antipodes(self, rows, cols):
        # the whole rows x cols grid, theta major: a point is kept iff no
        # earlier point has its Bloch direction or its antipode
        tt, pp = full_grid(rows, cols)
        bloch = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=1)
        overlaps = np.abs(bloch @ bloch.T)
        repeats = np.tril(overlaps > 1 - 1e-9, k=-1).any(axis=1)
        angles, bases = optimizer._grid_points(rows, cols)
        assert angles.tolist() == np.stack([tt, pp], axis=1)[~repeats].tolist()
        assert bases.tobytes() == np.stack(measurement.basis_vectors(*angles.T),
                                           axis=1).tobytes()

    @pytest.mark.parametrize("n", [5, 7, 129])
    def test_an_odd_grid_evaluates_its_south_pole_once(self, monkeypatch, n):
        # the south pole's row repeats the antipode of the north pole, so an
        # odd n x n grid evaluates the pole and n - 2 full rows, and its best
        # is that of every point of the grid
        rho = states.random_density((2, 3), np.random.default_rng([21, n]), rank=2)
        ev = optimizer._JEvaluator.of(measurement.CQEnsemble.of(rho), 0)
        tt, pp = full_grid(n, n)
        (j,) = optimizer._grid_j(ev, np.stack(measurement.basis_vectors(tt, pp), axis=1))
        best = optimizer._first_best(j)
        counted = count_evaluations(monkeypatch)
        assert optimizer.grid_search_qubit(rho, 0, n) == (tt[best], pp[best], j[best])
        assert sum(counted) == 1 + n * (n - 2)

    def test_dropped_equator_points_match_their_antipodes(self):
        # column j + cols/2 of the equator is the antipode of column j
        rng = np.random.default_rng(18)
        cols = optimizer._START_GRID[1]
        phis = np.arange(cols) * (2 * math.pi / cols)
        equator = np.stack(measurement.basis_vectors(np.full(cols, math.pi / 2), phis), axis=1)
        for _ in range(5):
            ev = optimizer._JEvaluator.of(
                measurement.CQEnsemble.of(states.random_density((2, 2), rng)), 0)
            (j,) = optimizer._grid_j(ev, equator)
            assert np.abs(j[cols // 2:] - j[:cols // 2]).max() < 1e-14

    def test_grid_chunks_bound_their_half_blocks(self, monkeypatch):
        rho = states.random_density((2, 2, 2), np.random.default_rng(5))
        whole = optimizer.grid_search_qubit(rho, 0, 64)
        sizes = []
        half_blocks = optimizer._JEvaluator._half_blocks

        def spy(self, bases, counts):
            out = half_blocks(self, bases, counts)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(optimizer._JEvaluator, "_half_blocks", spy)
        monkeypatch.setattr(optimizer, "_GRID_CHUNK_ELEMENTS", 4096)
        assert optimizer.grid_search_qubit(rho, 0, 64) == whole
        assert len(sizes) > 1 and max(sizes) <= 4096

    @pytest.mark.parametrize("n", [8, 7])
    @pytest.mark.parametrize("dims, k", [((2, 2), 0), ((2, 3), 0), ((2, 2, 2), 1)])
    def test_matches_brute_force_full_grid(self, rng, dims, k, n):
        # the reference J at every point of the full grid, same tie-break rule
        thetas = np.linspace(0.0, math.pi, n)
        phis = np.arange(n) * (2 * math.pi / n)
        points = [(theta, phi) for theta in thetas for phi in phis]
        # the planted optimum sits on row n // 2: the equator for odd n, the
        # first skipped row for even n, whose antipode is the last row kept
        planted = planted_cq_state(rng, dims, thetas[n // 2], phis[1])
        for rho, kk in ((states.random_density(dims, rng), k), (planted, 0)):
            js = np.array([reference_J(rho, kk, measurement.qubit_measurement(*p))
                           for p in points])
            best = int(np.flatnonzero(js >= js.max() - 1e-12)[0])
            theta, phi, j = optimizer.grid_search_qubit(rho, kk, n)
            assert (theta, phi) == points[best]
            assert abs(j - js[best]) < 1e-12


class TestRefineLocal:
    """The ascent from one start (qubit bases built from Bloch angles)."""

    def test_converges_to_paper_b_angle(self, paper_state):
        after = measurement.apply_nonselective(
            paper_state, 0, measurement.qubit_measurement(0.0, 0.0))
        t0, p0, _ = optimizer.grid_search_qubit(after, 1, 64)
        bases, _, _ = ascend(after, 1, [qubit_basis(t0, p0)])
        theta, phi = optimizer._bloch_angles(bases[0])
        # optimal basis is theta = 3 pi / 4 up to projector relabeling
        # (relabeled representative: theta = pi / 4, phi shifted by pi)
        dist = min(abs(theta - 3 * math.pi / 4), abs(theta - math.pi / 4))
        assert dist < 1e-3

    def test_never_decreases(self, rng):
        rho = states.random_density((2, 2), rng)
        start = (1.0, 2.0)
        ev_start = measurement.induced_J(rho, 0, measurement.qubit_measurement(*start))
        _, j, _ = ascend(rho, 0, [qubit_basis(*start)])
        assert j[0] >= ev_start - 1e-12

    def test_constant_landscape_terminates(self, rng):
        rho = states.tensor(states.random_density([2], rng),
                            states.random_density([2], rng))
        _, j, evals = ascend(rho, 0, [qubit_basis(0.3, 0.3)])
        assert abs(j[0]) < 1e-8
        # the model predicts no gain, so the search ends in its first round
        # on its one evaluated trial, long before the cap
        assert evals == last_round(2)

    def test_qubit_searches_end_within_five_rounds(self):
        # Newton steps from the start grid; gradient steps alone ran to the
        # 500-round cap on the rank-2 2x2x2 state of seed 170
        grid = len(optimizer._start_points(*optimizer._START_GRID)[1])
        for seed in range(160, 180):
            rng = np.random.default_rng(seed)
            for dims, rank in (((2, 2), None), ((2, 2), 2), ((2, 2), 1), ((2, 3), None),
                               ((2, 2, 2), 2)):
                rho = states.random_density(dims, rng, rank=rank)
                res = optimizer.optimize_measurement(rho, 0)
                assert res.iterations - grid <= 5 * per_round(2)
                assert res.j_value >= optimizer.grid_search_qubit(rho, 0, 64)[2] - 1e-12


class TestUnitaryFromGenerator:
    """exp(t A) for the skew-Hermitian generators A of the ascent."""

    def test_zero_is_identity(self):
        u = optimizer._rotations(np.zeros((1, 3, 3), dtype=complex), np.ones((1, 1)))
        assert np.abs(u[0, 0] - np.eye(3)).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unitarity(self, d, rng):
        u = optimizer._rotations(skew_hermitian(d, rng)[None], np.array([[0.7]]))[0, 0]
        assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-10

    def test_off_diagonal_rotation(self):
        # real antisymmetric generator: a rotation by pi / 2 in the 0-1 plane
        a = np.array([[0, -math.pi / 2], [math.pi / 2, 0]], dtype=complex)
        u = optimizer._rotations(a[None], np.ones((1, 1)))[0, 0]
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-10
        assert abs(abs(np.linalg.det(u)) - 1) < 1e-10
        assert abs(u[1, 0]) > 0.9  # |0> maps to (close to) |1>

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_generator_layout(self, d, rng):
        # entry (m, r) is exp(t[m, r] a[m]): one generator per row of steps
        a = np.array([skew_hermitian(d, rng) for _ in range(3)])
        t = rng.uniform(-2, 2, (3, 5))
        u = optimizer._rotations(a, t)
        assert u.shape == (3, 5, d, d)
        for m in range(3):
            for r in range(5):
                assert np.abs(u[m, r] - expm_series(t[m, r] * a[m])).max() < 1e-10


# pure states whose first step measures subsystem k: (dims, k)
PURE_FIRST_STEPS = [((2, 2), 0), ((2, 3), 0), ((2, 3), 1), ((3, 2), 0), ((2, 2, 2), 1)]


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

    def test_classical_classical_state(self):
        m = np.diag([0.1, 0.3, 0.4, 0.2])
        rho = states.from_dense(m, (2, 2))
        for k in (0, 1):
            assert optimizer.optimize_measurement(rho, k).discord <= 1e-6

    def test_discord_nonnegative_and_consistent(self, rng):
        for _ in range(10):
            rho = states.random_density((2, 2), rng)
            res = optimizer.optimize_measurement(rho, 0)
            info = infotheory.mutual_information(rho)
            assert res.discord >= 0
            assert abs(res.discord - max(info - res.j_value, 0.0)) < 1e-12

    def test_determinism(self, rng):
        rho = states.random_density((2, 2), rng)
        config = OptimizerConfig(seed=7)
        a = optimizer.optimize_measurement(rho, 0, config)
        b = optimizer.optimize_measurement(rho, 0, config)
        assert a.params == b.params
        assert a.j_value == b.j_value
        assert a.discord == b.discord

    def test_residual_discord_zero_at_optimum(self, rng):
        for _ in range(5):
            rho = states.random_density((2, 2), rng)
            res = optimizer.optimize_measurement(rho, 0)
            after = measurement.apply_nonselective(rho, 0, res.measurement)
            again = optimizer.optimize_measurement(after, 0)
            assert again.discord <= 1e-3

    def test_local_unitary_invariance(self, rng):
        for _ in range(5):
            rho = states.random_density((2, 2), rng)
            u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            rotated = states.from_dense(u @ rho.matrix @ u.conj().T, (2, 2))
            d0 = optimizer.optimize_measurement(rho, 0).discord
            d1 = optimizer.optimize_measurement(rotated, 0).discord
            assert abs(d0 - d1) < 2e-4

    def test_qutrit_side_runs_restarts(self, rng):
        # qubit x qutrit state measured on the qutrit side
        rho = states.random_density((3, 2), rng, rank=2)
        config = OptimizerConfig(restarts=4, seed=3)
        res = optimizer.optimize_measurement(rho, 0, config)
        assert res.discord >= 0
        assert res.oracle_gap is None
        assert res.measurement.subsystem_dim == 3
        assert res.j_value <= infotheory.mutual_information(rho) + 1e-9

    @pytest.mark.parametrize("n, grid_evals", [(8, 25), (7, 36), (None, 57)])
    def test_iterations_count_evaluations(self, rng, monkeypatch, n, grid_evals):
        # the start grid's directions (the points `_grid_points` keeps: the
        # pole once, then of an even column count the rows above the equator
        # and the equator's first half, of an odd one every row but the
        # poles'), then the ascent; an n x n start grid is the oracle's
        if n is None:
            grid = optimizer._START_GRID
        else:
            grid = (n, n)
            monkeypatch.setattr(optimizer, "_START_GRID", grid)
        rho = states.random_density((2, 2), rng)
        ev = optimizer._JEvaluator.of(measurement.CQEnsemble.of(rho), 0)
        start, _ = grid_best(ev, *grid)
        _, _, ascent_evals = ascend(rho, 0, [start])
        res = optimizer.optimize_measurement(rho, 0)
        assert ascent_evals > 0
        assert res.iterations == grid_evals + ascent_evals

    @pytest.mark.parametrize("dims, k", PURE_FIRST_STEPS,
                             ids=[f"{'x'.join(map(str, dims))}-k{k}" for dims, k in PURE_FIRST_STEPS])
    def test_a_pure_state_first_step_is_not_searched(self, monkeypatch, dims, k):
        # one leaf of 1 x 1 blocks: every basis gives J = S(rho_rest), so the
        # result is the one the search returns, with no basis evaluated
        rho = states.random_density(dims, np.random.default_rng([19, *dims, k]), rank=1)
        ev = optimizer._JEvaluator.of(measurement.CQEnsemble.of(rho), k)
        assert ev.shape[1:] == (1, 1, 1)
        config = OptimizerConfig()
        search = optimizer._qubit_searches if ev.dk == 2 else optimizer._qudit_searches
        (bases,), (js,), j_grid = search(ev, config)
        assert ev.evaluated[0] > 0
        best = optimizer._first_best(js)
        counted = count_evaluations(monkeypatch)
        res = optimizer.optimize_measurement(rho, k, config)
        assert res.iterations == 0 and counted == []
        assert (res.measurement.basis == bases[best]).all()
        assert res.j_value == js[best] == ev.rest_entropy[0]
        if ev.dk == 2:
            assert res.params == optimizer._bloch_angles(bases[best])
            assert res.oracle_gap == js[best] - j_grid[0] == 0.0
        else:
            assert res.params is None and res.oracle_gap is None

    @pytest.mark.parametrize("dims, k, rank", [((2, 2), 0, None), ((2, 3), 0, 2),
                                               ((3, 2), 0, None), ((4, 2), 0, 2),
                                               ((2, 2), 0, 1), ((3, 2), 0, 1)],
                             ids=["qubit", "qubit_rank2", "qutrit", "ququart_rank2",
                                  "pure_qubit", "pure_qutrit"])
    def test_iterations_are_the_bases_evaluated(self, monkeypatch, dims, k, rank):
        rho = states.random_density(dims, np.random.default_rng([1901, *dims]), rank=rank)
        counted = count_evaluations(monkeypatch)
        res = optimizer.optimize_measurement(rho, k)
        assert res.iterations == sum(counted)
        assert (res.iterations == 0) == (rank == 1)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3)])
    def test_batched_iterations_are_the_bases_evaluated(self, monkeypatch, dims):
        # every subsystem of one state, in one batch of problems
        rho = states.random_density(dims, np.random.default_rng([1902, *dims]))
        ens = measurement.CQEnsemble.of(rho)
        config = OptimizerConfig(restarts=8)
        counted = count_evaluations(monkeypatch)
        results = optimizer._optimize([(ens, k) for k in range(len(dims))], config)
        assert sum(res.iterations for res in results) == sum(counted)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
    def test_qubit_params_are_canonical_angles_of_the_basis(self, rng, dims):
        for _ in range(5):
            rho = states.random_density(dims, rng)
            res = optimizer.optimize_measurement(rho, 0)
            theta, phi = res.params
            assert 0 <= theta <= math.pi and 0 <= phi < 2 * math.pi
            expected = measurement.qubit_measurement(theta, phi).projectors
            assert np.abs(np.array(res.measurement.projectors) - expected).max() < 1e-12
            assert res.oracle_gap >= 0

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
            rho = random_bell_diagonal(rng)
            c = max(abs(np.trace(rho.matrix @ np.kron(s, s)).real) for s in paulis)
            luo = ((1 + c) / 2 * math.log2(1 + c)
                   + (1 - c) / 2 * math.log2(1 - c))
            assert abs(optimizer.optimize_measurement(rho, 0).j_value - luo) < 1e-6

    def test_oracle_agreement_small(self, rng):
        for _ in range(5):
            rho = states.random_density((2, 2), rng)
            res = optimizer.optimize_measurement(rho, 0)
            _, _, j_grid = optimizer.grid_search_qubit(rho, 0, 256)
            assert abs(res.j_value - j_grid) < 1e-4

    @pytest.mark.parametrize("k", [0, 1])
    def test_x_states_reach_the_fine_grid(self, k):
        # J of an X-state can have competing local maxima; the ascent from the
        # coarse start grid must still reach the best of the fine grid
        rng = np.random.default_rng(2008)
        for _ in range(40):
            rho = random_x_state(rng)
            j_grid = optimizer.grid_search_qubit(rho, k, 256)[2]
            assert optimizer.optimize_measurement(rho, k).j_value >= j_grid - 1e-12


# qubit_pairs searches that a failed round once ended short of the 256^2
# grid: (seed, state, step), and how far short they fell (bits)
QUBIT_SHORTFALLS = [
    (32, "pure_1", 1),       # 2.2e-5
    (103, "pure_1", 1),      # 6.6e-4
    (106, "pure_0", 1),      # 8.0e-3
    (141, "pure_0", 1),      # 1.7e-2
    (299, "ginibre_0", 0),   # 3.5e-3
    (299, "pure_1", 1),      # 4.2e-5
    # a ridge about 0.015 rad wide, which a retry turning by pi/4 times the
    # ladder (down to pi/64) missed by 1.5e-5
    (69, "pure_1", 1),
]


@pytest.mark.parametrize("seed, label, step", QUBIT_SHORTFALLS)
def test_benchmark_qubit_steps_reach_the_fine_grid(seed, label, step):
    assert sequential_shortfalls(qubit_pairs_states(seed)[label], 256)[step] <= 1e-9


# The qubit grid's blocks of 8 x 8 and 16 x 16: every step of the
# multiqubit_seq benchmark's random full-rank 4- and 5-qubit states.
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("label", ["random_4", "random_5"])
def test_multiqubit_steps_reach_the_fine_grid(seed, label):
    rho = multiqubit_random_states(seed)[label]
    assert max(sequential_shortfalls(rho, 128)) <= 1e-9


# The hemisphere of these states holds two separated maxima of J, and the
# start grid's best direction lies in the basin of the lower one, so the
# ascent ends there: 7.9e-5 and 2.6e-4 bits short of the 256^2 grid.
@pytest.mark.xfail(strict=True, reason="the start grid's best direction is in the basin "
                                       "of the lower of two maxima")
@pytest.mark.parametrize("seed", [1217, 1653])
def test_two_maxima_qubit_searches_reach_the_fine_grid(seed):
    rho = states.random_density((2, 3), np.random.default_rng(seed))
    j_grid = optimizer.grid_search_qubit(rho, 0, 256)[2]
    assert optimizer.optimize_measurement(rho, 0).j_value >= j_grid - 1e-9


# sup J at the default config as plain gradient steps found it, on seeded
# states: (dims, measured subsystem, rank) -> J. The conjugate-gradient
# ascent reaches each within 1e-12 with about half the evaluations.
GRADIENT_ASCENT_J = {
    ((3, 2), 0, None): 0.27066408708603507,
    ((3, 2), 0, 2): 0.6533043140327285,
    ((2, 3), 1, None): 0.29578725169639963,
    ((2, 3), 1, 2): 0.38765240260272027,
    ((3, 3), 0, None): 0.3831464132041724,
    ((3, 3), 0, 2): 0.8555674147135024,
    ((4, 2), 0, None): 0.24952340912260695,
    ((4, 2), 0, 2): 0.9621964183236134,
    ((4, 4), 0, None): 0.21390725661816168,
    ((4, 4), 0, 2): 1.3383007012201518,
    ((5, 2), 0, None): 0.3074809672387444,
    ((5, 2), 0, 2): 0.9075895400753439,
}


def wave_shortfall(rho, k):
    """How far the default search's J falls short of the best of all 32 default starts ascended."""
    _, j, _ = ascend(rho, k, optimizer._haar_bases(np.random.default_rng(0), 32, rho.dims[k]))
    return j.max() - optimizer.optimize_measurement(rho, k).j_value


# (dims, measured subsystem) of the wave-stop oracle suite
WAVE_SHAPES = [((3, 2), 0), ((2, 3), 1), ((3, 3), 0), ((3, 3), 1), ((4, 2), 0),
               ((4, 4), 0), ((5, 2), 0), ((3, 3, 3), 0), ((3, 3, 3), 1)]


class TestQuditRestarts:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("dims", [(3, 2), (3, 3), (4, 2)])
    def test_lockstep_matches_restarts_one_by_one(self, rng, dims, seed):
        # the restarts ascend in lockstep, one batched call per round; each
        # must take the path it takes alone
        rho = states.random_density(dims, rng)
        config = OptimizerConfig(restarts=4, seed=seed)
        starts = optimizer._haar_bases(np.random.default_rng(seed), config.restarts, dims[0])
        best, best_j, evals = None, -math.inf, config.restarts
        for start in starts:
            (basis,), (j,), n = ascend(rho, 0, start[None])
            evals += n
            if j > best_j + 1e-12:
                best, best_j = basis, j
        res = optimizer.optimize_measurement(rho, 0, config)
        assert res.params is None
        assert np.abs(res.measurement.basis - best).max() < 1e-12
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

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
    def test_qubit_ascent_without_grid_reaches_grid_path(self, rng, dims):
        # the qudit path on a qubit: seeded Haar starts, no grid
        for _ in range(3):
            rho = states.random_density(dims, rng)
            starts = optimizer._haar_bases(np.random.default_rng(5), 8, 2)
            _, j, _ = ascend(rho, 0, starts)
            res = optimizer.optimize_measurement(rho, 0)
            assert abs(j.max() - res.j_value) < 1e-9

    @pytest.mark.parametrize("dims, k, rank", GRADIENT_ASCENT_J)
    def test_reaches_the_gradient_ascent(self, dims, k, rank):
        rng = np.random.default_rng([2009, *dims, rank or 0])
        rho = states.random_density(dims, rng, rank=rank)
        res = optimizer.optimize_measurement(rho, k)
        assert res.j_value >= GRADIENT_ASCENT_J[dims, k, rank] - 1e-12

    @pytest.mark.parametrize("state, max_evals", [("classical_quantum", 420), ("mixed", 475)])
    def test_benchmark_qutrit_searches_take_few_evaluations(self, state, max_evals):
        # the qutrit sides of the benchmark's qutrit_qubit states, whose
        # searches take 374 and 426 evaluations
        catalog = np.random.default_rng(2011)
        ginibre = lambda d, rank: states.random_density([d], catalog, rank=rank).matrix
        p = catalog.dirichlet(np.ones(3))
        cq = sum(p[i] * np.kron(np.diag(np.eye(3)[i]), ginibre(2, 2)) for i in range(3))
        rho = {"classical_quantum": cq, "mixed": ginibre(6, 6)}[state]
        res = optimizer.optimize_measurement(states.from_dense(rho, (3, 2)), 0)
        assert res.iterations <= max_evals

    def test_a_failed_newton_round_retries_along_the_x_it_computed(self, monkeypatch):
        # a round whose ladder gains nothing retries in itself along the
        # gradient it computed, so some turned bases take no gradient of their
        # own; each gradient counts with the d(d-1) of its Hessian, each trial
        # once. On this rank-2 4x2 state two of the four default starts fail
        # one round
        rho = states.random_density((4, 2), np.random.default_rng([2016, 4]), rank=2)
        ev = optimizer._JEvaluator.of(measurement.CQEnsemble.of(rho), 0)
        starts = optimizer._haar_bases(np.random.default_rng(0), 4, 4)
        j0 = ev.j_bases(starts, alone(starts))
        gradients, rounds, trials = [], [], []
        directions, rotations, j_bases = optimizer._directions, optimizer._rotations, ev.j_bases
        monkeypatch.setattr(optimizer, "_directions",
                            lambda ev, v, counts: gradients.append(len(v))
                            or directions(ev, v, counts))
        # every round turns each live search along its direction, and each
        # failed one again along its X
        monkeypatch.setattr(optimizer, "_rotations",
                            lambda a, t: rounds.append(len(a)) or rotations(a, t))
        monkeypatch.setattr(ev, "j_bases",
                            lambda b, counts: trials.append(len(b)) or j_bases(b, counts))
        optimizer._ascend(ev, starts, j0, alone(starts))
        assert sum(gradients) < sum(rounds)
        assert ev.evaluated == [len(starts) + (1 + 4 * 3) * sum(gradients) + sum(trials)]

    def test_every_round_takes_the_directions_of_every_live_search(self, monkeypatch):
        # a failed round retries in itself, so each round's one `_directions`
        # call takes every live search, and the round's first turn, its
        # Newton ladder, turns those same bases; only the retries of the two
        # starts that fail a round turn bases that call did not take
        rho = states.random_density((4, 2), np.random.default_rng([2016, 4]), rank=2)
        ev = optimizer._JEvaluator.of(measurement.CQEnsemble.of(rho), 0)
        starts = optimizer._haar_bases(np.random.default_rng(0), 4, 4)
        calls = []
        directions, rotations = optimizer._directions, optimizer._rotations
        monkeypatch.setattr(optimizer, "_directions",
                            lambda ev, v, counts: calls.append(("directions", len(v)))
                            or directions(ev, v, counts))
        monkeypatch.setattr(optimizer, "_rotations",
                            lambda a, t: calls.append(("rotations", len(a))) or rotations(a, t))
        optimizer._ascend(ev, starts, ev.j_bases(starts, alone(starts)), alone(starts))
        rounds = [i for i, (name, _) in enumerate(calls) if name == "directions"]
        assert calls[0] == ("directions", len(starts))
        assert all(calls[i + 1] == ("rotations", calls[i][1]) for i in rounds)
        retried = [n for i, (name, n) in enumerate(calls)
                   if name == "rotations" and i - 1 not in rounds]
        assert sum(retried) == 2

    @pytest.mark.parametrize("rank", [None, 2])
    @pytest.mark.parametrize("dims, k", WAVE_SHAPES)
    def test_waves_reach_every_restart(self, dims, k, rank):
        # the waves stop once two restarts agree; ascending all 32 default
        # starts is the oracle
        rng = np.random.default_rng([2013, *dims, k, rank or 0])
        for _ in range(2):
            assert wave_shortfall(states.random_density(dims, rng, rank=rank), k) <= 1e-11

    def test_restarts_that_reach_one_maximum_end_together(self):
        # the eighth rank-2 5x2 state of that suite's streams: its 32 restarts
        # reach one maximum, but conjugate steps alone ended them up to
        # 7.5e-11 apart and the waves 1.9e-11 short of the best
        rng = np.random.default_rng([2013, 5, 2, 0, 2])
        for _ in range(8):
            rho = states.random_density((5, 2), rng, rank=2)
        assert wave_shortfall(rho, 0) <= 1e-11

    def test_a_rank_two_3x3_search_reaches_every_restart(self):
        # the last of five Ginibre draws of default_rng([4, 77]), of shapes
        # (6, 6), (6, 2), (6, 6), (9, 9) and (9, 2): measured on k = 1 its
        # waves once ended 1.6e-2 bits short of the best restart
        rng = np.random.default_rng([4, 77])
        for shape in [(6, 6), (6, 2), (6, 6), (9, 9), (9, 2)]:
            g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m = g @ g.conj().T
        assert wave_shortfall(states.from_dense(m / np.trace(m).real, (3, 3)), 1) <= 1e-11

    # The rank-3 5x2 state of default_rng([91, 350]): 28 of its 32 default
    # starts creep along a nearly flat ridge, gaining about 1e-9 bits a round
    # against a predicted gain of about 5e-10, above _MODEL_FLOOR, and run
    # to the round cap; its search ends 1.44e-8 bits below the best of all
    # 32 starts ascended.
    @pytest.mark.xfail(strict=True, reason="the ascent creeps along a nearly flat ridge "
                                           "to the round cap")
    def test_a_rank_three_5x2_start_ends_before_the_round_cap(self):
        rho = states.random_density((5, 2), np.random.default_rng([91, 350]), rank=3)
        _, _, evals = ascend(rho, 0, optimizer._haar_bases(np.random.default_rng(0), 32, 5)[:1])
        assert evals < optimizer._MAX_ROUNDS * per_round(5)

    def test_waves_continue_until_two_restarts_agree(self, rng, monkeypatch):
        # every basis attains sup J on a pure state, so with waves of one
        # start the waves stop after the second, the first that can agree,
        # and each start ends in its first round. `_optimize` searches no
        # pure state's first step, so the waves are run directly
        monkeypatch.setattr(optimizer, "_WAVE", 1)
        rho = states.random_density((3, 2), rng, rank=1)
        ev = optimizer._JEvaluator.of(measurement.CQEnsemble.of(rho), 0)
        _, (js,), _ = optimizer._qudit_searches(ev, OptimizerConfig())
        # starts not ascended read J = -inf
        assert np.isfinite(js).sum() == 2 and np.isfinite(js[:2]).all()
        assert ev.evaluated == [2 + 2 * last_round(3)]


def dense_evaluator(rho, k):
    """A _JEvaluator on subsystem k of rho that reads the dense view.

    The view is rho's matrix with subsystem k first, built from the matrix
    rather than the factor.
    """
    n = rho.n_subsystems
    perm = [k] + [j for j in range(n) if j != k]
    t = rho.matrix.reshape(rho.dims * 2).transpose(perm + [n + j for j in perm])
    dk = rho.dims[k]
    rest_entropy = sum(infotheory.von_neumann_entropy(states.reduced(rho, {j}))
                       for j in range(n) if j != k)
    return optimizer._JEvaluator(t.reshape(1, dk, rho.dim // dk, dk, rho.dim // dk),
                                 rest_entropy)


def _low_rank_states():
    rng = np.random.default_rng(2026)
    return [
        ("ghz_5", states.named("ghz", n=5), 0),
        ("rank2_6", states.random_density((2,) * 6, rng, rank=2), 2),
        ("rank2_2x3x2", states.random_density((2, 3, 2), rng, rank=2), 1),
        ("pure_3x2", states.random_density((3, 2), rng, rank=1), 0),
        ("rank3_2x2x2", states.random_density((2, 2, 2), rng, rank=3), 0),
    ]


LOW_RANK_STATES = _low_rank_states()


class TestGramView:
    """Below d_rest columns the kernel reads F_c^dagger F_a, not the dense blocks."""

    # shape: (d_k, L, b, b), b = r in the Gram view and d_rest in the dense one
    @pytest.mark.parametrize("dims, rank, k, shape", [
        ((2, 2, 2, 2, 2), 1, 0, (2, 1, 1, 1)),
        ((2, 2, 2), 2, 1, (2, 1, 2, 2)),
        ((2, 2, 2), 3, 1, (2, 1, 3, 3)),
        ((2, 2, 2), 4, 1, (2, 1, 4, 4)),
        ((2, 2, 2), 8, 2, (2, 1, 4, 4)),
        ((3, 2), 2, 0, (3, 1, 2, 2)),
        ((3, 2), 1, 0, (3, 1, 1, 1)),
    ])
    def test_view_follows_the_smaller_side(self, rng, dims, rank, k, shape):
        rho = states.random_density(dims, rng, rank=rank)
        assert optimizer._JEvaluator.of(measurement.CQEnsemble.of(rho), k).shape == shape

    @pytest.mark.parametrize("name, rho, k", LOW_RANK_STATES,
                             ids=[c[0] for c in LOW_RANK_STATES])
    def test_gram_and_dense_views_agree(self, name, rho, k):
        ev = optimizer._JEvaluator.of(measurement.CQEnsemble.of(rho), k)
        dense = dense_evaluator(rho, k)
        assert ev.shape[2] < dense.shape[2]
        bases = optimizer._haar_bases(np.random.default_rng(4), 16, rho.dims[k])
        assert np.abs(ev.j_bases(bases, alone(bases))
                      - dense.j_bases(bases, alone(bases))).max() < 1e-12
        assert np.abs(ev.gradient(bases, alone(bases))
                      - dense.gradient(bases, alone(bases))).max() < 1e-10
        for basis in bases[:3]:
            m = measurement.ProjectiveMeasurement(basis)
            assert abs(ev.j_bases(basis[None], alone([basis]))[0] - reference_J(rho, k, m)) < 1e-12
        if rho.dims[k] == 2:
            _, grid = optimizer._grid_points(32, 32)
            j, j_d = optimizer._grid_j(ev, grid), optimizer._grid_j(dense, grid)
            assert optimizer._first_best(j) == optimizer._first_best(j_d)
            assert np.abs(j - j_d).max() < 1e-12


def gradient_cases():
    rng = np.random.default_rng(99)
    random = lambda dims: measurement.CQEnsemble.of(states.random_density(dims, rng))
    leaves = random((2, 2, 3)).split(0, random_unitary(2, rng).T)
    # the qutrit is supported on |0>, |1> only, so outcome |2> has probability 0
    correlated = np.zeros((6, 6), dtype=complex)
    correlated[:4, :4] = states.random_density((2, 2), rng).matrix
    zero_outcome = np.eye(3, dtype=complex)
    zero_outcome[:2, :2] = random_unitary(2, rng)
    rank1 = lambda dims: measurement.CQEnsemble.of(states.random_density(dims, rng, rank=1))
    rank2 = lambda dims: measurement.CQEnsemble.of(states.random_density(dims, rng, rank=2))
    return [
        ("2x2", random((2, 2)), 0, random_unitary(2, rng)),
        ("3x2", random((3, 2)), 0, random_unitary(3, rng)),
        ("3x2_rest", random((3, 2)), 1, random_unitary(2, rng)),
        ("leaves", leaves, 2, random_unitary(3, rng)),
        ("zero_probability_outcome",
         measurement.CQEnsemble.of(states.from_dense(correlated, (3, 2))), 0, zero_outcome),
        # Gram views: fewer factor columns than d_rest
        ("gram_pure_3x2", rank1((3, 2)), 0, random_unitary(3, rng)),
        ("gram_rank2_2x2x3", rank2((2, 2, 3)), 2, random_unitary(3, rng)),
        ("gram_leaves", rank1((2, 2, 3)).split(0, random_unitary(2, rng).T), 2,
         random_unitary(3, rng)),
        ("gram_rank2_2x2x2", rank2((2, 2, 2)), 1, random_unitary(2, rng)),
        ("gram_qubit_leaves", rank1((3, 2, 2)).split(0, random_unitary(3, rng).T), 2,
         random_unitary(2, rng)),
    ]


GRADIENT_CASES = gradient_cases()


@pytest.mark.parametrize("name, ens, k, basis", GRADIENT_CASES,
                         ids=[c[0] for c in GRADIENT_CASES])
def test_gradient_matches_finite_differences(name, ens, k, basis):
    ev = optimizer._JEvaluator.of(ens, k)
    grad = ev.gradient(basis[None], alone([basis]))[0]
    rng = np.random.default_rng(3)
    eps = 1e-5
    for _ in range(4):
        x = skew_hermitian(len(basis), rng)
        along = lambda s: ev.j_bases((basis @ expm_series(s * x))[None], alone([basis]))[0]
        numeric = (along(eps) - along(-eps)) / (2 * eps)
        # dJ = 2 Re Tr(G^dagger dV) with dV = V X
        analytic = 2 * np.real(np.vdot(grad, basis @ x))
        assert abs(analytic - numeric) < 1e-7


def reference_view(ens, k):
    """The view (L, d_k, b, d_k, b) of subsystem k of `ens` by matrix products of its factors.

    With F_a the rows of subsystem k of a leaf factor, entry [a, :, c, :] is
    F_c^dagger F_a (b = r) when r < d_rest, else F_a F_c^dagger (b = d_rest).
    """
    f = ens.factor_view(k)  # (L, d_k, d_rest, r)
    f_dag = f.conj().swapaxes(-1, -2)
    if f.shape[3] < f.shape[2]:
        return (f_dag[:, :, None] @ f[:, None]).transpose(0, 2, 3, 1, 4)
    return (f[:, :, None] @ f_dag[:, None]).transpose(0, 1, 3, 2, 4)


def einsum_blocks(view, bases):
    """The outcome blocks by one three-operand einsum over the view, as (d_k, n, L, b, b)."""
    return np.einsum('nia,labcd,nic->inlbd', bases.conj(), view, bases)


def einsum_gradient(view, bases):
    """dJ/d conj(bases) by a three-operand einsum of the blocks' logs with the view."""
    blocks = einsum_blocks(view, bases)
    probs = np.einsum('...ii->...', blocks.real).sum(axis=-1)
    w, u = np.linalg.eigh(blocks)
    log_w = np.log2(np.maximum(w / np.maximum(probs, 1e-12)[..., None, None], 1e-12))
    log_w[probs <= 1e-12] = 0.0
    logs = (u * log_w[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return np.einsum('inldb,lxbyd,niy->nix', logs, view, bases)


@pytest.mark.parametrize("name, ens, k, basis", GRADIENT_CASES,
                         ids=[c[0] for c in GRADIENT_CASES])
def test_gemm_kernel_matches_the_einsums(name, ens, k, basis):
    ev = optimizer._JEvaluator.of(ens, k)
    bases = np.concatenate([basis[None],
                            optimizer._haar_bases(np.random.default_rng(6), 7, len(basis))])
    view = reference_view(ens, k)
    blocks = ev._blocks(bases, ev._half_blocks(bases, alone(bases)))
    assert np.abs(blocks - einsum_blocks(view, bases)).max() < 1e-14
    assert np.abs(ev.gradient(bases, alone(bases)) - einsum_gradient(view, bases)).max() < 1e-14

ENTRY_POINTS = {
    "optimize_measurement": optimizer.optimize_measurement,
    "discord": correlations.discord,
    "classical_hv": correlations.classical_hv,
    "grid_search_qubit": lambda rho, k: optimizer.grid_search_qubit(rho, k, 8),
    "induced_J": lambda rho, k: measurement.induced_J(rho, k,
                                                      measurement.qubit_measurement(0.0, 0.0)),
}


# 1.0 used to raise a TypeError, and True to be taken as subsystem 1
@pytest.mark.parametrize("k", [-1, 2, 1.0, True])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_subsystem_out_of_range(paper_state, entry, k):
    with pytest.raises(DimensionMismatch):
        ENTRY_POINTS[entry](paper_state, k)


@pytest.mark.parametrize("n", [0, -1, 2.5, True])
def test_grid_size_must_be_a_positive_integer(paper_state, n):
    with pytest.raises(ParamOutOfRange):
        optimizer.grid_search_qubit(paper_state, 0, n)


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", 1.5), ("seed", False), ("restarts", 2.5), ("restarts", -3),
    ("restarts", True),
    # the start grid and the round cap are constants, no longer fields
    ("grid", 16.5), ("grid", 8.0), ("grid", 0), ("max_refine_steps", 10.0),
])
def test_config_rejects_bad_fields(field, value):
    known = {f.name for f in dataclasses.fields(OptimizerConfig)}
    with pytest.raises(ValueError if field in known else TypeError):
        OptimizerConfig(**{field: value})


def test_config_accepts_numpy_integers():
    config = OptimizerConfig(restarts=np.int64(8), seed=np.int32(3))
    assert config.restarts == 8 and config.seed == 3
