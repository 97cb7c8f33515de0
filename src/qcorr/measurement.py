"""Complete rank-1 projective measurements on one subsystem.

Provides the non-selective channel M(rho) = sum_i (I x Pi_i x I) rho (...),
conditional post-measurement ensembles, the measurement-induced mutual
information J, and the classical-quantum ensemble that a run measuring one
subsystem after another carries.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, states
from .errors import (AngleOutOfRange, DimensionMismatch, NotUnitary,
                     SinglePartyState)
from .infotheory import entropy_of_spectrum, von_neumann_entropy
from .states import DensityMatrix, from_dense, reduced

PROJ_TOL = 1e-9
ZERO_PROB = 1e-12


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """A complete set of d orthogonal rank-1 projectors on a d-dim subsystem."""
    subsystem_dim: int
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        d = self.subsystem_dim
        if len(self.projectors) != d:
            raise DimensionMismatch(f"{len(self.projectors)} projectors for dim {d}")
        total = np.zeros((d, d), dtype=np.complex128)
        for i, p in enumerate(self.projectors):
            if p.shape != (d, d):
                raise DimensionMismatch(f"projector {i} has shape {p.shape}")
            if linalg.hermitian_defect(p) > PROJ_TOL:
                raise DimensionMismatch(f"projector {i} is not Hermitian")
            if np.abs(p @ p - p).max() > PROJ_TOL:
                raise DimensionMismatch(f"projector {i} is not idempotent")
            if abs(np.trace(p).real - 1.0) > PROJ_TOL:
                raise DimensionMismatch(f"projector {i} is not rank 1")
            for q in self.projectors[i + 1:]:
                if np.abs(p @ q).max() > PROJ_TOL:
                    raise DimensionMismatch("projectors are not pairwise orthogonal")
            total += p
        if np.abs(total - np.eye(d)).max() > PROJ_TOL:
            raise DimensionMismatch("projectors do not sum to the identity")


@dataclass(frozen=True)
class ConditionalEnsemble:
    """Outcome probabilities and conditional states on the unmeasured part.

    Outcomes with probability below 1e-12 carry None instead of a state and
    contribute 0 to conditional-entropy sums.
    """
    probabilities: np.ndarray
    states: tuple[DensityMatrix | None, ...]


def basis_vectors(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal qubit basis at Bloch angles (theta, phi)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    e = complex(math.cos(phi), math.sin(phi))
    v0 = np.array([c, e * s], dtype=np.complex128)
    v1 = np.array([-s, e * c], dtype=np.complex128)
    return v0, v1


def qubit_measurement(theta: float, phi: float) -> ProjectiveMeasurement:
    """Projectors onto cos(t/2)|0> + e^{i phi} sin(t/2)|1> and its complement."""
    if not 0.0 <= theta <= math.pi:
        raise AngleOutOfRange(f"theta={theta} outside [0, pi]")
    if not 0.0 <= phi < 2 * math.pi:
        raise AngleOutOfRange(f"phi={phi} outside [0, 2 pi)")
    v0, v1 = basis_vectors(theta, phi)
    return ProjectiveMeasurement(
        2, (np.outer(v0, v0.conj()), np.outer(v1, v1.conj())))


def measurement_from_unitary(u: np.ndarray) -> ProjectiveMeasurement:
    """Measurement whose projectors are onto the columns of a unitary."""
    u = linalg.as_matrix(u)
    d = u.shape[0]
    if u.shape[1] != d or np.abs(linalg.dag(u) @ u - np.eye(d)).max() > 1e-8:
        raise NotUnitary("input is not unitary within 1e-8")
    projs = tuple(np.outer(u[:, i], u[:, i].conj()) for i in range(d))
    return ProjectiveMeasurement(d, projs)


def _check_dims(rho: DensityMatrix, k: int, m: ProjectiveMeasurement):
    if not 0 <= k < rho.n_subsystems:
        raise DimensionMismatch(f"subsystem index {k} out of range")
    if m.subsystem_dim != rho.dims[k]:
        raise DimensionMismatch(
            f"measurement dim {m.subsystem_dim} vs subsystem dim {rho.dims[k]}")


def _measured_view(blocks: np.ndarray, dims, k: int) -> np.ndarray:
    """Blocks (..., D, D) over `dims` as (..., d_k, d_rest, d_k, d_rest), k first."""
    n = len(dims)
    lead = blocks.shape[:-2]
    b = len(lead)
    perm = [k] + [i for i in range(n) if i != k]
    t = blocks.reshape(lead + tuple(dims) * 2).transpose(
        list(range(b)) + [b + p for p in perm] + [b + n + p for p in perm])
    dk = dims[k]
    dr = math.prod(dims) // dk
    return t.reshape(lead + (dk, dr, dk, dr))


def raw_conditionals(rho: DensityMatrix, k: int, vectors: np.ndarray):
    """Unnormalized conditional blocks <v_i| rho |v_i>_k for basis `vectors`.

    `vectors` has shape (d_k, d_k), one outcome vector per row. Returns
    (probabilities, blocks) where blocks[i] is d_rest x d_rest and has
    trace p_i.
    """
    t = _measured_view(rho.matrix, rho.dims, k)
    blocks = np.einsum('ia,abcd,ic->ibd', vectors.conj(), t, vectors)
    probs = np.einsum('ibb->i', blocks).real
    return probs, blocks


def _outcome_vectors(m: ProjectiveMeasurement) -> np.ndarray:
    """One unit vector per projector (the rank-1 range), as rows."""
    vecs = []
    for p in m.projectors:
        w, u = np.linalg.eigh((p + linalg.dag(p)) / 2)
        vecs.append(u[:, -1])
    return np.array(vecs)


def apply_nonselective(rho: DensityMatrix, k: int, m: ProjectiveMeasurement) -> DensityMatrix:
    """Non-selective channel: sum_i P_i rho P_i with P_i acting on subsystem k."""
    _check_dims(rho, k, m)
    v = _outcome_vectors(m)
    out = np.einsum('ix,ia,abcd,ic,iy->xbyd', v, v.conj(),
                    _measured_view(rho.matrix, rho.dims, k), v, v.conj())
    # back from (d_k, rest..., d_k, rest...) to the tensor order of rho
    n = rho.n_subsystems
    perm = [k] + [i for i in range(n) if i != k]
    dims = [rho.dims[i] for i in perm]
    inv = list(np.argsort(perm))
    out = out.reshape(dims + dims).transpose(inv + [n + i for i in inv])
    return from_dense(out.reshape(rho.dim, rho.dim), rho.dims)


def conditionals(rho: DensityMatrix, k: int, m: ProjectiveMeasurement) -> ConditionalEnsemble:
    """Outcome probabilities and renormalized conditional states on the rest."""
    _check_dims(rho, k, m)
    rest_dims = [d for i, d in enumerate(rho.dims) if i != k]
    probs, blocks = raw_conditionals(rho, k, _outcome_vectors(m))
    out_states = []
    for p, b in zip(probs, blocks):
        if p < ZERO_PROB:
            out_states.append(None)
        else:
            out_states.append(from_dense(b / p, rest_dims))
    return ConditionalEnsemble(np.maximum(probs, 0.0), tuple(out_states))


def induced_J(rho: DensityMatrix, k: int, m: ProjectiveMeasurement) -> float:
    """Measurement-induced mutual information, in bits.

    J = sum_{j != k} S(rho_j) - sum_i p_i S(rho_rest|i). Equals the mutual
    information of the non-selective channel output.
    """
    _check_dims(rho, k, m)
    rest_entropy = sum(von_neumann_entropy(reduced(rho, {j}))
                       for j in range(rho.n_subsystems) if j != k)
    probs, blocks = raw_conditionals(rho, k, _outcome_vectors(m))
    cond = 0.0
    for p, b in zip(probs, blocks):
        if p >= ZERO_PROB:
            cond += p * entropy_of_spectrum(np.linalg.eigvalsh(b / p))
    return rest_entropy - cond


@dataclass(frozen=True)
class CQEnsemble:
    """The state sum_i |i><i| x W_i of a run that measures subsystems in turn.

    Leaf i holds its outcome indices on the subsystems measured so far
    (`outcomes[i]`, in the order of `measured`) and its weighted block
    W_i = p_i rho_i on the unmeasured subsystems, which keep increasing
    subsystem order; `probs[i]` = p_i = Tr W_i. A state before any
    measurement is the single leaf {1, rho}.
    """
    dims: tuple[int, ...]
    measured: tuple[int, ...]
    outcomes: np.ndarray  # (L, len(measured)) outcome indices
    blocks: np.ndarray    # (L, d_u, d_u) weighted blocks W_i
    probs: np.ndarray     # (L,) leaf probabilities p_i

    @classmethod
    def of(cls, rho: DensityMatrix) -> CQEnsemble:
        return cls(rho.dims, (), np.zeros((1, 0), dtype=int), rho.matrix[None],
                   np.ones(1))

    @property
    def unmeasured(self) -> tuple[int, ...]:
        return tuple(j for j in range(len(self.dims)) if j not in self.measured)

    def view(self, k: int) -> np.ndarray:
        """The weighted blocks as (L, d_k, d_rest, d_k, d_rest), subsystem k first."""
        u = self.unmeasured
        return _measured_view(self.blocks, [self.dims[j] for j in u], u.index(k))

    def split(self, k: int, vectors: np.ndarray) -> CQEnsemble:
        """The ensemble after measuring subsystem k in the basis `vectors` (rows).

        Leaf i and outcome a make the leaf <v_a| W_i |v_a>_k; leaves of
        probability <= 1e-12 are dropped.
        """
        blocks = np.einsum('ia,labcd,ic->libd', vectors.conj(), self.view(k), vectors)
        n_leaves, dk, dr = blocks.shape[:3]
        blocks = blocks.reshape(n_leaves * dk, dr, dr)
        probs = np.trace(blocks, axis1=1, axis2=2).real
        outcomes = np.column_stack([np.repeat(self.outcomes, dk, axis=0),
                                    np.tile(np.arange(dk), n_leaves)])
        keep = probs > ZERO_PROB
        return CQEnsemble(self.dims, self.measured + (k,), outcomes[keep],
                          blocks[keep], probs[keep])

    def outcome_table(self) -> np.ndarray:
        """Leaf probabilities by outcome, measured subsystems in increasing order.

        Outcomes of dropped leaves read 0.
        """
        table = np.zeros([self.dims[j] for j in sorted(self.measured)])
        table[tuple(self.outcomes[:, np.argsort(self.measured)].T)] = self.probs
        return table

    @functools.cached_property
    def marginal_entropies(self) -> tuple[float, ...]:
        """S(rho_j) of every subsystem; a measured one's from the leaf table."""
        u = self.unmeasured
        u_dims = [self.dims[j] for j in u]
        total = self.blocks.sum(axis=0)
        out = []
        for j, d in enumerate(self.dims):
            if j in self.measured:
                column = self.outcomes[:, self.measured.index(j)]
                out.append(entropy_of_spectrum(np.bincount(column, self.probs, d)))
            else:
                marginal = linalg.partial_trace(total, u_dims, [u.index(j)])
                out.append(entropy_of_spectrum(np.linalg.eigvalsh(marginal)))
        return tuple(out)

    def mutual_information(self) -> float:
        """sum_j S(rho_j) - H(p) - sum_i p_i S(rho_i).

        The last two terms are the entropy of the spectra of all W_i together.
        """
        if len(self.dims) < 2:
            raise SinglePartyState("mutual information needs at least 2 subsystems")
        joint = entropy_of_spectrum(np.linalg.eigvalsh(self.blocks).ravel())
        return sum(self.marginal_entropies) - joint
