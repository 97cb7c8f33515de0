import numpy as np
import pytest

from qcorr import OptimizerConfig, named


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def paper_state():
    return named("paper_example")


@pytest.fixture
def fast_config():
    # coarser grid keeps the unit tests quick; acceptance uses defaults
    return OptimizerConfig(grid_theta=64, grid_phi=64)
