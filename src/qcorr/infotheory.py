"""Entropies and mutual informations, all in bits (log base 2)."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotADistribution, SinglePartyState
from .states import DensityMatrix, reduced

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
    dims = tuple(dims)
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


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -Tr(rho log2 rho), in bits."""
    return entropy_of_spectrum(rho.spectrum)


def mutual_information(rho: DensityMatrix) -> float:
    """Total correlations of the matrix as given: sum of marginal entropies minus joint entropy.

    The marginals come from `reduced` and the joint entropy from rho's own
    spectrum, eigenvalue dust included. Q, C, discord and `qcorr info` use
    `CQEnsemble.mutual_information` instead, taken on rho's dust-free factor
    rescaled to unit trace; on a state with dust the two differ (by up to
    4e-8 bits where the dust is near -1e-9).
    """
    if rho.n_subsystems < 2:
        raise SinglePartyState("mutual information needs at least 2 subsystems")
    marginals = sum(von_neumann_entropy(reduced(rho, {k}))
                    for k in range(rho.n_subsystems))
    return marginals - von_neumann_entropy(rho)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho||sigma) = -S(rho) - Tr(rho log2 sigma), in bits.

    Returns math.inf when the support of rho is not contained in the
    support of sigma.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dimension {rho.dim} vs {sigma.dim}")
    w, u = np.linalg.eigh(sigma.matrix)
    # rho-weight carried by the near-null eigenspace of sigma
    null = w < CLAMP
    if null.any():
        un = u[:, null]
        weight = float(np.einsum('ik,ij,jk->', un.conj(), rho.matrix, un).real)
        if weight > 1e-9:
            return INFINITE
    log_sigma = (u * np.log2(np.maximum(w, CLAMP))) @ linalg.dag(u)
    cross = float(np.trace(rho.matrix @ log_sigma).real)
    return -von_neumann_entropy(rho) - cross


def classical_mutual_information(p: ProbabilityTable) -> float:
    """Sum of marginal entropies minus the joint entropy of the table."""
    if len(p.dims) < 2:
        raise NotADistribution("classical mutual information needs >= 2 parties")
    h_marg = sum(shannon_entropy(p.marginal(k)) for k in range(len(p.dims)))
    return h_marg - shannon_entropy(p.probs)
