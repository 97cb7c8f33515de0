import math

import numpy as np
import pytest

from qcorr import correlations, from_dense, measurement, named, optimizer


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_bell_diagonal(rng: np.random.Generator):
    """Random mixture of the four Bell projectors (maximally mixed marginals)."""
    weights = rng.random(4)
    weights /= weights.sum()
    s = 1 / math.sqrt(2)
    m = np.zeros((4, 4), dtype=np.complex128)
    for w, v in zip(weights, ([s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0])):
        v = np.array(v, dtype=np.complex128)
        m += w * np.outer(v, v.conj())
    return from_dense(m, (2, 2))


def qubit_pairs_states(seed: int) -> dict:
    """The states of the qubit_pairs benchmark round of `seed`, by label, rebuilt by its recipe.

    The paper example, then, from default_rng([seed, 1]) and for i = 0, 1,
    a Ginibre state of rank 4 and of rank 2, a pure state and a
    Bell-diagonal state, named ginibre_i, rank2_i, pure_i and
    bell_diagonal_i.
    """
    rng = np.random.default_rng([seed, 1])
    bells = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2)
    found = {"paper_example": named("paper_example")}
    for i in range(2):
        for family in ("ginibre", "rank2", "pure", "bell_diagonal"):
            if family == "bell_diagonal":
                w = rng.random(4)
                m = np.einsum('i,ia,ib->ab', w / w.sum(), bells, bells).astype(complex)
            else:
                cols = {"ginibre": 4, "rank2": 2, "pure": 1}[family]
                g = rng.standard_normal((4, cols)) + 1j * rng.standard_normal((4, cols))
                m = g @ g.conj().T
                m /= np.trace(m).real
            found[f"{family}_{i}"] = from_dense(m, (2, 2))
    return found


def multiqubit_random_states(seed: int) -> dict:
    """The random mixed states of the multiqubit_seq benchmark round of `seed`, rebuilt by its recipe.

    From default_rng([seed, 3]), G G^dagger / Tr with G a complex Ginibre
    2^n x 2^n matrix: random_4 first, then random_5.
    """
    rng = np.random.default_rng([seed, 3])
    found = {}
    for n in (4, 5):
        g = rng.standard_normal((2 ** n, 2 ** n)) + 1j * rng.standard_normal((2 ** n, 2 ** n))
        m = g @ g.conj().T
        found[f"random_{n}"] = from_dense(m / np.trace(m).real, (2,) * n)
    return found


def per_round(d: int) -> int:
    """Evaluations of an ascent round in dimension d: a gradient, the d(d-1)
    of its Hessian's forward differences, and the trials."""
    return 1 + d * (d - 1) + optimizer._LADDER.size


def last_round(d: int) -> int:
    """Evaluations of the round a search ends in, in dimension d: a gradient,
    the d(d-1) of its Hessian's forward differences, and the t = 1 trial it keeps."""
    return 1 + d * (d - 1) + 1


def oracle_j(ens, k: int, n: int) -> float:
    """The best J of the n x n `grid_search_qubit` grid on qubit k of a cq ensemble."""
    _, bases = optimizer._grid_points(n, n)
    return float(optimizer._grid_j(optimizer._JEvaluator.of(ens, k), bases).max())


def sequential_shortfalls(rho, n: int) -> list[float]:
    """How far each step of `sequential_measure` over every qubit in order
    falls short of the n x n grid on the ensemble that step measures."""
    seq = correlations.sequential_measure(rho, range(rho.n_subsystems))
    ens = measurement.CQEnsemble.of(rho)
    short = []
    for k, step in enumerate(seq.steps):
        short.append(oracle_j(ens, k, n) - step.j_value)
        ens = ens.split(k, step.measurement.basis)
    return short


def count_searches(monkeypatch) -> list:
    """Record the subsystem of every measurement search that is started.

    A public search goes through `optimize_measurement`; `full_report`,
    `classify` and the steps of a sequential run search classical-quantum
    ensembles through `_optimize`, whose batch of (ensemble, k) problems
    counts one search per problem, in batch order.
    """
    calls = []
    for module in (optimizer, correlations):
        search = module.optimize_measurement

        def counting(state, k, *args, search=search, **kwargs):
            calls.append(k)
            return search(state, k, *args, **kwargs)

        monkeypatch.setattr(module, "optimize_measurement", counting)
    batched = correlations._optimize

    def counting_batch(problems, *args, **kwargs):
        calls.extend(k for _, k in problems)
        return batched(problems, *args, **kwargs)

    monkeypatch.setattr(correlations, "_optimize", counting_batch)
    return calls


def count_evaluations(monkeypatch) -> list:
    """Record the number of bases of every `_JEvaluator.j_bases` and `gradient` call.

    Its sum is the number of bases whose J or gradient was evaluated, which
    a search reports as `iterations`.
    """
    counted = []
    for name in ("j_bases", "gradient"):
        method = getattr(measurement._JEvaluator, name)

        def counting(self, bases, counts, method=method):
            counted.append(len(bases))
            return method(self, bases, counts)

        monkeypatch.setattr(measurement._JEvaluator, name, counting)
    return counted


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def paper_state():
    return named("paper_example")
