"""Complete rank-1 projective measurements on one subsystem.

A measurement is an orthonormal basis {v_a} of the measured subsystem, and
everything it induces comes from the outcome blocks <v_a| rho |v_a>. Provides
the non-selective channel M(rho) = sum_a (I x |v_a><v_a| x I) rho (...),
conditional post-measurement ensembles, the classical-quantum ensemble that a
run measuring one subsystem after another carries, and the one kernel for the
measurement-induced mutual information J on that ensemble.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (AngleOutOfRange, DimensionMismatch, NotUnitary,
                     SinglePartyState)
from .infotheory import entropy_of_spectrum, von_neumann_entropy
from .states import DensityMatrix, from_dense

UNITARY_TOL = 1e-8
ZERO_PROB = 1e-12
_CLAMP = 1e-12


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """A complete rank-1 projective measurement on a d-dim subsystem.

    `basis` is d x d with one outcome vector per row: outcome a projects
    onto basis[a]. The rows must be orthonormal within 1e-8.
    """
    basis: np.ndarray

    def __post_init__(self):
        b = linalg.as_matrix(self.basis)
        if (not 0 < b.shape[0] == b.shape[1]
                or np.abs(b @ linalg.dag(b) - np.eye(len(b))).max() > UNITARY_TOL):
            raise NotUnitary(f"basis is not orthonormal within {UNITARY_TOL:.0e}")
        object.__setattr__(self, "basis", b)

    @property
    def subsystem_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return tuple(np.outer(v, v.conj()) for v in self.basis)


@dataclass(frozen=True)
class ConditionalEnsemble:
    """Outcome probabilities and conditional states on the unmeasured part.

    Outcomes with probability at most 1e-12 read probability 0 and carry
    None instead of a state.
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
    """The basis cos(t/2)|0> + e^{i phi} sin(t/2)|1> and its complement."""
    if not 0.0 <= theta <= math.pi:
        raise AngleOutOfRange(f"theta={theta} outside [0, pi]")
    if not 0.0 <= phi < 2 * math.pi:
        raise AngleOutOfRange(f"phi={phi} outside [0, 2 pi)")
    return ProjectiveMeasurement(np.array(basis_vectors(theta, phi)))


def measurement_from_unitary(u: np.ndarray) -> ProjectiveMeasurement:
    """Measurement in the basis of the columns of a unitary (within 1e-8)."""
    return ProjectiveMeasurement(linalg.as_matrix(u).T)


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


def apply_nonselective(rho: DensityMatrix, k: int, m: ProjectiveMeasurement) -> DensityMatrix:
    """Non-selective channel: sum_a P_a rho P_a with P_a = |v_a><v_a| on subsystem k."""
    _check_dims(rho, k, m)
    v = m.basis
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
    ens = CQEnsemble.of(rho).split(k, m.basis)
    rest_dims = [d for i, d in enumerate(rho.dims) if i != k]
    out_states = [None] * m.subsystem_dim
    for (a,), block, p in zip(ens.outcomes, ens.blocks, ens.probs):
        out_states[a] = from_dense(block / p, rest_dims)
    return ConditionalEnsemble(ens.outcome_table(), tuple(out_states))


def induced_J(rho: DensityMatrix, k: int, m: ProjectiveMeasurement) -> float:
    """Measurement-induced mutual information, in bits.

    J = sum_{j != k} S(rho_j) - sum_a p_a S(rho_rest|a). Equals the mutual
    information of the non-selective channel output.
    """
    _check_dims(rho, k, m)
    return float(_JEvaluator(CQEnsemble.of(rho), k).j_bases(m.basis[None])[0])


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
        ens = cls(rho.dims, (), np.zeros((1, 0), dtype=int), rho.matrix[None],
                  np.ones(1))
        # from_dense has diagonalized rho already
        ens.__dict__["joint_entropy"] = von_neumann_entropy(rho)
        return ens

    @property
    def unmeasured(self) -> tuple[int, ...]:
        return tuple(j for j in range(len(self.dims)) if j not in self.measured)

    def view(self, k: int) -> np.ndarray:
        """The weighted blocks as (L, d_k, d_rest, d_k, d_rest), subsystem k first."""
        u = self.unmeasured
        if k not in u:
            raise DimensionMismatch(f"subsystem {k} is not one of the unmeasured {u}")
        return _measured_view(self.blocks, [self.dims[j] for j in u], u.index(k))

    def split(self, k: int, basis: np.ndarray) -> CQEnsemble:
        """The ensemble after measuring subsystem k in `basis` (vectors as rows).

        Leaf i and outcome a make the leaf <v_a| W_i |v_a>_k; leaves of
        probability <= 1e-12 are dropped.
        """
        blocks = np.einsum('ia,labcd,ic->libd', basis.conj(), self.view(k), basis)
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

    @functools.cached_property
    def joint_entropy(self) -> float:
        """H(p) + sum_i p_i S(rho_i): the entropy of the spectra of all W_i together."""
        return entropy_of_spectrum(np.linalg.eigvalsh(self.blocks).ravel())

    def mutual_information(self) -> float:
        """sum_j S(rho_j) - H(p) - sum_i p_i S(rho_i)."""
        if len(self.dims) < 2:
            raise SinglePartyState("mutual information needs at least 2 subsystems")
        return sum(self.marginal_entropies) - self.joint_entropy


def _conditional_entropy(blocks: np.ndarray) -> np.ndarray:
    """sum_a q_a S(rest | a) over the leading outcome axis of `blocks`.

    `blocks` has shape (outcomes, ..., L, dr, dr): block (a, ..., i) is
    <v_a| W_i |v_a> for leaf i, unnormalized. Given outcome a the rest is
    block diagonal over the leaves, so its spectrum is the union of the leaf
    blocks' spectra divided by q_a = sum_i Tr B_{a,i}. Outcomes with
    q_a <= 1e-12 contribute 0.
    """
    dr = blocks.shape[-1]
    traces = np.einsum('...ii->...', blocks.real)
    probs = traces.sum(axis=-1)
    safe = np.maximum(probs, ZERO_PROB)[..., None]
    if dr == 1:
        lam = (traces / safe)[..., None]
    elif dr == 2:
        # closed-form 2x2 Hermitian spectrum (t -+ sqrt(t^2 - 4 det)) / 2
        det4 = 4.0 * (blocks[..., 0, 0] * blocks[..., 1, 1]
                      - blocks[..., 0, 1] * blocks[..., 1, 0]).real
        disc = np.sqrt(np.maximum(traces * traces - det4, 0.0))
        lam = np.empty(traces.shape + (2,))
        np.subtract(traces, disc, out=lam[..., 0])
        np.add(traces, disc, out=lam[..., 1])
        lam *= (0.5 / safe)[..., None]
    else:
        # spectrum of blocks / q_a without a normalized copy of the blocks
        lam = np.linalg.eigvalsh(blocks) / safe[..., None]
    plogp = np.where(lam > _CLAMP, lam * np.log2(np.maximum(lam, _CLAMP)), 0.0)
    cond_entropy = -plogp.sum(axis=(-2, -1))
    return np.where(probs > ZERO_PROB, probs * cond_entropy, 0.0).sum(axis=0)


class _JEvaluator:
    """J for measurements on one unmeasured subsystem k of a cq ensemble.

    `view` holds the leaves' weighted blocks as (L, d_k, d_rest, d_k, d_rest),
    where d_rest counts only the unmeasured subsystems other than k. A state
    nobody has measured is L = 1.
    """

    def __init__(self, ens: CQEnsemble, k: int):
        self.view = ens.view(k)
        self.dk = ens.dims[k]
        self.rest_entropy = sum(s for j, s in enumerate(ens.marginal_entropies)
                                if j != k)

    def j_bases(self, bases: np.ndarray) -> np.ndarray:
        """J for every basis of the stack `bases` (n, d_k, d_k), vectors as rows.

        Every outcome block of every basis comes from one einsum.
        """
        blocks = np.einsum('nia,labcd,nic->inlbd', bases.conj(), self.view, bases)
        return self.rest_entropy - _conditional_entropy(blocks)

    def j_qubit(self, theta: float, phi: float) -> float:
        return float(self.j_bases(np.array([basis_vectors(theta, phi)]))[0])
