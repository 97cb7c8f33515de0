"""Entropies and mutual informations, all in bits (log base 2)."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotADistribution, SinglePartyState
from .states import DensityMatrix, factor_marginal

CLAMP = 1e-12
INFINITE = math.inf  # distinguished relative-entropy result, not a failure


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Joint outcome distribution over a product outcome space.

    `probs` is indexed row-major by the per-party outcome counts in `dims`.
    """
    dims: tuple[int, ...]
    probs: np.ndarray

    def marginal(self, k: int) -> np.ndarray:
        """Party k's outcome distribution; k is an integer in 0..n-1, else DimensionMismatch."""
        if not (linalg.is_integer(k) and 0 <= k < len(self.dims)):
            raise DimensionMismatch(f"party {k!r} is not an index in 0..{len(self.dims) - 1}")
        t = self.probs.reshape(self.dims)
        axes = tuple(i for i in range(len(self.dims)) if i != k)
        return t.sum(axis=axes)


def _distribution(probs) -> np.ndarray:
    """Flat float array of finite entries >= -1e-12 that sum to 1 within 1e-9."""
    p = linalg.as_array(probs, float, NotADistribution).ravel()
    if p.size == 0:
        raise NotADistribution("empty distribution")
    if p.min() < -CLAMP or abs(p.sum() - 1.0) > 1e-9:
        raise NotADistribution(f"invalid distribution (sum {p.sum()!r}, min {p.min()!r})")
    return p


def probability_table(probs, dims: Sequence[int]) -> ProbabilityTable:
    """A validated joint distribution of `probs` over outcome counts `dims`.

    `probs` must have prod(dims) finite entries, none below -1e-12, that sum
    to 1 within 1e-9; negative dust is clamped to 0. Raises NotADistribution.
    """
    dims = linalg.as_tuple(dims, "outcome dims", NotADistribution)
    if not all(linalg.is_integer(d) and d >= 1 for d in dims):
        raise NotADistribution(f"outcome dims must be integers >= 1, got {dims}")
    dims = tuple(int(d) for d in dims)
    p = _distribution(probs)
    if p.size != int(np.prod(dims)):
        raise NotADistribution(f"{p.size} entries for outcome dims {dims}")
    return ProbabilityTable(dims, np.maximum(p, 0.0))


def shannon_entropy(p) -> float:
    """H = -sum p log2 p with the 0 log 0 = 0 convention."""
    if isinstance(p, ProbabilityTable):
        p = p.probs
    return entropy_of_spectrum(_distribution(p))


def entropy_of_spectrum(w: np.ndarray) -> float:
    """Shannon entropy of an eigenvalue spectrum, clamping negative dust.

    A pure spectrum gives +0.0: the sum is subtracted from 0.0, not negated.
    """
    w = np.asarray(w, dtype=float)
    w = w[w > CLAMP]
    return 0.0 - float((w * np.log2(w)).sum())


def marginal_entropies(rho: DensityMatrix) -> tuple[float, ...]:
    """S(rho_j) of every subsystem j, in bits, of the reduced states F_j F_j^dagger of rho's factor.

    Each over its trace, which is 1 up to the rounding of the factor's norm,
    so that a pure product state's entropies read exactly 0.
    """
    grams = (factor_marginal(rho, [j]) for j in range(rho.n_subsystems))
    return tuple(entropy_of_spectrum(np.linalg.eigvalsh(m / np.trace(m).real)) for m in grams)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) in bits, of rho's factor: its eigenvalues above 1e-14, rescaled to unit trace."""
    w = rho.spectrum[-rho.factor.shape[1]:]
    return entropy_of_spectrum(w / w.sum())


def mutual_information(rho: DensityMatrix) -> float:
    """Total correlations: marginal_entropies summed, minus von_neumann_entropy."""
    if rho.n_subsystems < 2:
        raise SinglePartyState("mutual information needs at least 2 subsystems")
    return sum(marginal_entropies(rho)) - von_neumann_entropy(rho)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho||sigma) = -S(rho) - Tr(rho log2 sigma), in bits, on the two factors.

    With F_sigma = U sqrt(p), the cross term is sum_i log2(p_i) |u_i^dagger F_rho|^2
    over sigma's support, the eigenvalues its factor keeps. Returns math.inf
    when more than 1e-9 of rho's weight lies outside that support.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dimension {rho.dim} vs {sigma.dim}")
    w = sigma.spectrum[-sigma.factor.shape[1]:]
    p = w / w.sum()
    # rho's weight on each eigenvector u_i = f_i / sqrt(p_i) of sigma
    weight = (np.abs(sigma.factor.conj().T @ rho.factor) ** 2).sum(axis=1) / p
    if 1.0 - weight.sum() > 1e-9:
        return INFINITE
    return -von_neumann_entropy(rho) - float(weight @ np.log2(p))


def classical_mutual_information(p: ProbabilityTable) -> float:
    """Sum of marginal entropies minus the joint entropy of the table."""
    if len(p.dims) < 2:
        raise NotADistribution("classical mutual information needs >= 2 parties")
    h_marg = sum(shannon_entropy(p.marginal(k)) for k in range(len(p.dims)))
    return h_marg - shannon_entropy(p.probs)
