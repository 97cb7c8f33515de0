import math

import numpy as np
import pytest

from qcorr import correlations, from_dense, named, optimizer


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def paper_state():
    return named("paper_example")
