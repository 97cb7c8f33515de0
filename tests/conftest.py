import numpy as np
import pytest

from qcorr import correlations, named, optimizer


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def count_searches(monkeypatch) -> list:
    """Record the subsystem of every measurement search that is started.

    A public search goes through `optimize_measurement`; `full_report` and
    the steps of a sequential run search a shared classical-quantum ensemble
    through `_optimize`.
    """
    calls = []
    for module, name in ((optimizer, "optimize_measurement"),
                         (correlations, "optimize_measurement"),
                         (correlations, "_optimize")):
        search = getattr(module, name)

        def counting(state, k, *args, search=search, **kwargs):
            calls.append(k)
            return search(state, k, *args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def paper_state():
    return named("paper_example")
