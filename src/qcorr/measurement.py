"""Complete rank-1 projective measurements on one subsystem.

A measurement is an orthonormal basis {v_a} of the measured subsystem, and
everything it induces comes from the outcome blocks <v_a| rho |v_a>. Provides
the non-selective channel M(rho) = sum_a (I x |v_a><v_a| x I) rho (...),
conditional post-measurement ensembles, the classical-quantum ensemble that a
run measuring one subsystem after another carries, and the one kernel for the
measurement-induced mutual information J on that ensemble and its gradient.

The ensemble holds factors, not blocks: a leaf's block is W = F F^dagger
with F of r columns (r the rank of the state), and an outcome block is
Phi Phi^dagger with Phi = <v_a| F. Since Phi Phi^dagger and Phi^dagger Phi
have the same nonzero spectrum, the kernel diagonalizes whichever is
smaller: r x r when r < d_rest, the dense d_rest x d_rest blocks otherwise.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (AngleOutOfRange, DimensionMismatch, NotUnitary,
                     SinglePartyState)
from .infotheory import CLAMP, entropy_of_spectrum, marginal_entropies, von_neumann_entropy
from .states import DensityMatrix, _number, from_dense

UNITARY_TOL = 1e-8
ZERO_PROB = 1e-12
# Outcome blocks of at most this size take their spectrum and log in closed
# form (`_small_spectrum`, `_small_log`), larger ones through LAPACK.
_CLOSED_FORM_BLOCK = 2


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class ConditionalEnsemble:
    """Outcome probabilities and conditional states on the unmeasured part.

    Outcomes with probability at most 1e-12 read probability 0 and carry
    None instead of a state.
    """
    probabilities: np.ndarray
    states: tuple[DensityMatrix | None, ...]


def basis_vectors(theta: float | np.ndarray,
                  phi: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal qubit basis at Bloch angles (theta, phi).

    Arrays of angles give a stack: v0 and v1 then have the angles'
    broadcast shape followed by 2, each entry that of the scalar call.
    """
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    e = np.cos(phi) + 1j * np.sin(phi)
    v0 = np.stack(np.broadcast_arrays(c, e * s), axis=-1)
    v1 = np.stack(np.broadcast_arrays(-s, e * c), axis=-1)
    return v0, v1


def qubit_measurement(theta: float, phi: float) -> ProjectiveMeasurement:
    """The basis cos(t/2)|0> + e^{i phi} sin(t/2)|1> and its complement.

    Each angle must be a finite real, not a bool, in its range, else
    AngleOutOfRange.
    """
    for name, value in (("theta", theta), ("phi", phi)):
        _number(name, value, error=AngleOutOfRange)
    if not 0.0 <= theta <= math.pi:
        raise AngleOutOfRange(f"theta={theta} outside [0, pi]")
    if not 0.0 <= phi < 2 * math.pi:
        raise AngleOutOfRange(f"phi={phi} outside [0, 2 pi)")
    return ProjectiveMeasurement(np.array(basis_vectors(theta, phi)))


def measurement_from_unitary(u: np.ndarray) -> ProjectiveMeasurement:
    """Measurement in the basis of the columns of a unitary (within 1e-8)."""
    return ProjectiveMeasurement(linalg.as_matrix(u).T)


def _subsystem(k, among: tuple[int, ...]) -> int:
    """k as an int, if it is an integer (`linalg.is_integer`) in `among`; else DimensionMismatch."""
    if not linalg.is_integer(k) or k not in among:
        raise DimensionMismatch(f"subsystem {k!r} is not one of {among}")
    return int(k)


def _check_dims(rho: DensityMatrix, k: int, m: ProjectiveMeasurement):
    k = _subsystem(k, tuple(range(rho.n_subsystems)))
    if m.subsystem_dim != rho.dims[k]:
        raise DimensionMismatch(
            f"measurement dim {m.subsystem_dim} vs subsystem dim {rho.dims[k]}")


def apply_nonselective(rho: DensityMatrix, k: int, m: ProjectiveMeasurement) -> DensityMatrix:
    """Non-selective channel: sum_a P_a rho P_a with P_a = |v_a><v_a| on subsystem k.

    That is sum_a |v_a><v_a| x W_a, with W_a the leaf blocks of the ensemble
    split by the measurement.
    """
    _check_dims(rho, k, m)
    ens = CQEnsemble.of(rho).split(k, m.basis)
    v = m.basis[ens.outcomes[:, 0]]
    out = np.einsum('ax,abd,ay->xbyd', v, ens.blocks, v.conj())
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
    return float(_JEvaluator.of(CQEnsemble.of(rho), k).j_bases(m.basis[None], [0])[0])


@dataclass(frozen=True, eq=False)
class CQEnsemble:
    """The state sum_i |i><i| x W_i of a run that measures subsystems in turn.

    Leaf i holds its outcome indices on the subsystems measured so far
    (`outcomes[i]`, in the order of `measured`) and a factor F_i of its
    weighted block W_i = F_i F_i^dagger = p_i rho_i on the unmeasured
    subsystems, which keep increasing subsystem order; `probs[i]` = p_i =
    Tr W_i. Every leaf's factor has the r columns of the state's factor,
    since a split maps F_i to <v_a| F_i. A state before any measurement is
    the single leaf {1, rho}, with rho's factor: its eigenvalue dust is
    dropped and the rest rescaled to unit trace, so every entropy of the
    ensemble and the leaf probabilities (which add up to 1) are those of
    that dust-free state. `marginal_entropies` holds S(rho_j) of every
    subsystem, taken once from rho's factor; a split replaces only the
    measured subsystem's, by the entropy of its outcome distribution.
    """
    dims: tuple[int, ...]
    measured: tuple[int, ...]
    outcomes: np.ndarray  # (L, len(measured)) outcome indices
    factors: np.ndarray   # (L, d_u, r) leaf factors F_i
    probs: np.ndarray     # (L,) leaf probabilities p_i
    marginal_entropies: tuple[float, ...]

    @classmethod
    def of(cls, rho: DensityMatrix) -> CQEnsemble:
        ens = cls(rho.dims, (), np.zeros((1, 0), dtype=int), rho.factor[None],
                  np.ones(1), marginal_entropies(rho))
        # from_dense has diagonalized rho already; the property would do it again
        ens.__dict__["joint_entropy"] = von_neumann_entropy(rho)
        return ens

    @property
    def unmeasured(self) -> tuple[int, ...]:
        return tuple(j for j in range(len(self.dims)) if j not in self.measured)

    @property
    def blocks(self) -> np.ndarray:
        """The weighted blocks W_i = F_i F_i^dagger, as (L, d_u, d_u)."""
        return self.factors @ self.factors.conj().swapaxes(-1, -2)

    def factor_view(self, k: int) -> np.ndarray:
        """The leaf factors as (L, d_k, d_rest, r), the rows of subsystem k first."""
        u = self.unmeasured
        k = _subsystem(k, u)
        n_leaves, _, r = self.factors.shape
        f = self.factors.reshape((n_leaves, *(self.dims[j] for j in u), r))
        return np.moveaxis(f, 1 + u.index(k), 1).reshape(n_leaves, self.dims[k], -1, r)

    def split(self, k: int, basis: np.ndarray) -> CQEnsemble:
        """The ensemble after measuring subsystem k in `basis` (vectors as rows).

        Leaf i and outcome a make the leaf of factor <v_a| F_i; leaves of
        probability <= 1e-12 are dropped. The new factors are one batched
        matmul of conj(basis) with each leaf's factor, its rows of k first.
        """
        f = self.factor_view(k)
        n_leaves, dk, dr, r = f.shape
        factors = (basis.conj() @ f.reshape(n_leaves, dk, dr * r)).reshape(n_leaves * dk, dr, r)
        probs = (factors.real ** 2 + factors.imag ** 2).sum(axis=(1, 2))
        outcomes = np.column_stack([np.repeat(self.outcomes, dk, axis=0),
                                    np.tile(np.arange(dk), n_leaves)])
        keep = probs > ZERO_PROB
        # measuring k leaves every other subsystem's reduced state as it was
        marginals = list(self.marginal_entropies)
        marginals[k] = entropy_of_spectrum(np.bincount(outcomes[keep, -1], probs[keep], dk))
        return CQEnsemble(self.dims, self.measured + (k,), outcomes[keep],
                          factors[keep], probs[keep], tuple(marginals))

    def outcome_table(self) -> np.ndarray:
        """Leaf probabilities by outcome, measured subsystems in increasing order.

        Outcomes of dropped leaves read 0.
        """
        table = np.zeros([self.dims[j] for j in sorted(self.measured)])
        table[tuple(self.outcomes[:, np.argsort(self.measured)].T)] = self.probs
        return table

    @functools.cached_property
    def joint_entropy(self) -> float:
        """H(p) + sum_i p_i S(rho_i): the entropy of the spectra of all W_i together.

        The nonzero spectrum of W_i = F_i F_i^dagger is that of F_i^dagger F_i,
        so it is taken on the smaller side of the factors.
        """
        f, f_dag = self.factors, self.factors.conj().swapaxes(-1, -2)
        gram = f_dag @ f if f.shape[2] < f.shape[1] else f @ f_dag
        return entropy_of_spectrum(np.linalg.eigvalsh(gram).ravel())

    def mutual_information(self) -> float:
        """sum_j S(rho_j) - H(p) - sum_i p_i S(rho_i)."""
        if len(self.dims) < 2:
            raise SinglePartyState("mutual information needs at least 2 subsystems")
        return sum(self.marginal_entropies) - self.joint_entropy


def _small_spectrum(blocks: np.ndarray, traces: np.ndarray, safe: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the 1 x 1 or 2 x 2 Hermitian blocks / q_a, in closed form.

    `traces` holds the blocks' traces and `safe` the q_a clamped at 1e-12,
    broadcast over the leaf axis: (..., L) and (..., 1).
    """
    if blocks.shape[-1] == 1:
        return (traces / safe)[..., None]
    # (t -+ sqrt(t^2 - 4 det)) / 2
    det4 = 4.0 * (blocks[..., 0, 0] * blocks[..., 1, 1]
                  - blocks[..., 0, 1] * blocks[..., 1, 0]).real
    disc = np.sqrt(np.maximum(traces * traces - det4, 0.0))
    lam = np.empty(traces.shape + (2,))
    np.subtract(traces, disc, out=lam[..., 0])
    np.add(traces, disc, out=lam[..., 1])
    lam *= (0.5 / safe)[..., None]
    return lam


def _conditional_entropy(blocks: np.ndarray) -> np.ndarray:
    """sum_a q_a S(rest | a) over the leading outcome axis of `blocks`.

    `blocks` has shape (outcomes, ..., L, dr, dr): block (a, ..., i) is
    <v_a| W_i |v_a> for leaf i, unnormalized. Given outcome a the rest is
    block diagonal over the leaves, so its spectrum is the union of the leaf
    blocks' spectra divided by q_a = sum_i Tr B_{a,i}. Outcomes with
    q_a <= 1e-12 contribute 0.
    """
    traces = np.einsum('...ii->...', blocks.real)
    probs = traces.sum(axis=-1)
    safe = np.maximum(probs, ZERO_PROB)[..., None]
    if blocks.shape[-1] <= _CLOSED_FORM_BLOCK:
        lam = _small_spectrum(blocks, traces, safe)
    else:
        # spectrum of blocks / q_a without a normalized copy of the blocks
        lam = np.linalg.eigvalsh(blocks) / safe[..., None]
    plogp = np.where(lam > CLAMP, lam * np.log2(np.maximum(lam, CLAMP)), 0.0)
    cond_entropy = -plogp.sum(axis=(-2, -1))
    return np.where(probs > ZERO_PROB, probs * cond_entropy, 0.0).sum(axis=0)


def _small_log(blocks: np.ndarray, traces: np.ndarray, safe: np.ndarray) -> np.ndarray:
    """log2(B / q_a) of 1 x 1 or 2 x 2 blocks B, eigenvalues clamped at 1e-12, in closed form.

    Arguments as for `_small_spectrum`. For 2 x 2, f(B / q) = m I + s N,
    with N = (B - t/2 I) / q the traceless part, m the mean of f at the two
    eigenvalues and s their divided difference, which log1p keeps exact
    however close the eigenvalues are (its limit f' where they meet).
    """
    lam = _small_spectrum(blocks, traces, safe)
    c = np.maximum(lam, CLAMP)
    f = np.log2(c)
    if blocks.shape[-1] == 1:
        return f[..., None]
    gap = lam[..., 1] - lam[..., 0]
    slope = np.where(gap > 0, np.log1p((c[..., 1] - c[..., 0]) / c[..., 0])
                     / (math.log(2) * np.where(gap > 0, gap, 1.0)),
                     np.where(lam[..., 0] > CLAMP, 1 / (math.log(2) * c[..., 0]), 0.0))
    out = blocks / safe[..., None, None]
    half_diff = (out[..., 0, 0] - out[..., 1, 1]) / 2
    mean = (f[..., 0] + f[..., 1]) / 2
    out *= slope[..., None, None]
    out[..., 0, 0] = mean + slope * half_diff
    out[..., 1, 1] = mean - slope * half_diff
    return out


def _view(ens: CQEnsemble, k: int) -> tuple[np.ndarray, float, float]:
    """The view of subsystem k of `ens` that `_JEvaluator` reads, S of the rest, and I.

    The view is the Gram one when the factors have fewer columns than
    d_rest, the dense one otherwise, each one batched matmul of a leaf
    factor's reshape with its adjoint; S of the rest is the sum of the other
    subsystems' marginal entropies, and I is the ensemble's mutual
    information, which bounds every J of the view.
    """
    f = ens.factor_view(k)
    n_leaves, dk, dr, r = f.shape
    if r < dr:
        # g[l, :, (a, y)] = F_a[:, y], so entry ((a, y), (c, x)) of g^T conj(g)
        # is (F_c^dagger F_a)[x, y]: the view with its two r axes swapped
        g = f.transpose(0, 2, 1, 3).reshape(n_leaves, dr, dk * r)
        view = (g.swapaxes(-1, -2) @ g.conj()).reshape(n_leaves, dk, r, dk, r).swapaxes(2, 4)
    else:
        m = f.reshape(n_leaves, dk * dr, r)
        view = (m @ m.conj().swapaxes(-1, -2)).reshape(n_leaves, dk, dr, dk, dr)
    return (view, sum(s for j, s in enumerate(ens.marginal_entropies) if j != k),
            ens.mutual_information())


# Bound on the entries of the `_half_blocks` of one `j_bases` or `gradient`
# chunk, (d_k, chunk, d_k, L b b): d_k times its outcome blocks, the largest
# array of the chunk. It keeps the working set of any stack of bases flat as
# the leaves L and their size b grow.
_CHUNK_ELEMENTS = 1 << 20


class _JEvaluator:
    """J for measurements on an unmeasured subsystem k of a cq ensemble, for P such problems.

    Each problem's view is linear in the outcome vector's outer product: the
    outcome block of leaf i and vector v is sum_{a,c} conj(v_a) view[i, a,
    :, c, :] v_c. With the leaf factors split by the rows of subsystem k
    into F_a (d_rest x r), where d_rest counts only the unmeasured
    subsystems other than k, it is one of two views of the same spectra:

    - dense, (L, d_k, d_rest, d_k, d_rest): view[a, :, c, :] = F_a F_c^dagger,
      so the block is <v| W_i |v>;
    - Gram, (L, d_k, r, d_k, r): view[a, :, c, :] = F_c^dagger F_a, so the
      block is Phi^dagger Phi for Phi = <v| F_i, whose nonzero spectrum is
      that of the dense block Phi Phi^dagger.

    `_view` takes the Gram view when r < d_rest, the dense one otherwise. J
    and its gradient read either alike. A state nobody has measured is L =
    1. The P views share one `shape` (d_k, L, b, b), and the evaluator keeps
    each only in the layout of its one GEMM, (c, (a, L, b, b)), with its
    problem's `rest_entropy` and `mutual_info` I; `of` is the evaluator of
    one problem. No basis gives a J above I (Ollivier & Zurek, PRL
    88:017901, 2001), so a search that reaches I has reached the maximum.

    A stack of bases given to `j_bases` or `gradient` comes with `on`, the
    problem of each basis, non-decreasing: problem 0's bases first. Each
    problem's bases take one GEMM against its own layout, the GEMM of its
    bases alone. `j_bases` and `gradient` take a stack in chunks of at most
    `_chunk` bases, whose `_half_blocks` hold at most `_CHUNK_ELEMENTS`
    entries; a chunk may span problems. `evaluated[p]` counts the bases of
    problem p whose J or gradient the evaluator has taken.
    """

    def __init__(self, views: list[np.ndarray], rest_entropies: list[float],
                 mutual_infos: list[float]):
        n_leaves, self.dk, b = views[0].shape[:3]
        self._leaf_shape = (n_leaves, b, b)
        self._by_c = [np.ascontiguousarray(view.transpose(3, 1, 0, 2, 4)).reshape(self.dk, -1)
                      for view in views]
        self.rest_entropy = np.array(rest_entropies, dtype=float)
        self.mutual_info = np.array(mutual_infos, dtype=float)
        self.evaluated = [0] * len(views)
        self._chunk = max(1, _CHUNK_ELEMENTS // (self.dk * math.prod(self.shape)))

    @classmethod
    def of(cls, ens: CQEnsemble, k: int) -> _JEvaluator:
        """The evaluator of the one problem of subsystem k of `ens`."""
        return cls(*zip(_view(ens, k)))

    @property
    def shape(self) -> tuple[int, ...]:
        """(d_k, L, b, b), the shape of every problem's view."""
        return (self.dk,) + self._leaf_shape

    @property
    def closed_form(self) -> bool:
        """Whether the outcome blocks, b x b, take closed forms: b <= `_CLOSED_FORM_BLOCK`."""
        return self._leaf_shape[-1] <= _CLOSED_FORM_BLOCK

    def marginals(self) -> np.ndarray:
        """The measured marginal rho_k of each problem, as (P, d_k, d_k).

        rho_k[a, c] = sum_i Tr view[i, a, :, c, :], in the dense and the
        Gram view alike, as Tr F_a F_c^dagger = Tr F_c^dagger F_a. Measuring
        other subsystems leaves it as it is.
        """
        shape = (self.dk,) + self.shape
        return np.array([np.einsum('calxx->ac', by_c.reshape(shape)) for by_c in self._by_c])

    def _half_blocks(self, bases: np.ndarray, on: np.ndarray) -> np.ndarray:
        """T[a, n, x] = sum_c v_{n,a,c} view[:, x, :, c, :], as (d_k, n, d_k, L b b).

        One GEMM per problem of its slice of the stacked outcome vectors
        (n, d_k, d_k), vectors as rows, against that problem's layout; `on`
        holds each basis's problem. Each problem's bases are added to
        `evaluated`.
        """
        dk = bases.shape[1]
        parts, lo = [], 0
        for p, count in enumerate(np.bincount(on, minlength=len(self._by_c)).tolist()):
            self.evaluated[p] += count
            if count:
                rows = bases[lo:lo + count].swapaxes(0, 1).reshape(dk * count, dk)
                parts.append((rows @ self._by_c[p]).reshape(dk, count, dk, -1))
                lo += count
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def _blocks(self, bases: np.ndarray, half: np.ndarray) -> np.ndarray:
        """Outcome blocks of every basis and leaf, as (d_k, n, L, b, b).

        `bases` is a stack (n, d_k, d_k) with vectors as rows and `half`
        its `_half_blocks`. Block (a, n) is sum_x conj(v_{n,a,x}) T[a, n, x].
        b is d_rest in the dense view and r in the Gram view.
        """
        dk, n = half.shape[:2]
        blocks = bases.conj().swapaxes(0, 1)[:, :, None] @ half
        return blocks.reshape((dk, n) + self._leaf_shape)

    def _by_chunk(self, method, bases: np.ndarray, on: np.ndarray) -> np.ndarray:
        """`method` on each run of `_chunk` consecutive bases of the stack, concatenated."""
        step = self._chunk
        return np.concatenate([method(bases[lo:lo + step], on[lo:lo + step])
                               for lo in range(0, len(bases), step)])

    def j_bases(self, bases: np.ndarray, on: np.ndarray) -> np.ndarray:
        """J for every basis of the stack `bases` (n, d_k, d_k), vectors as rows, of problem `on`."""
        if len(bases) > self._chunk:
            return self._by_chunk(self.j_bases, bases, on)
        blocks = self._blocks(bases, self._half_blocks(bases, on))
        return self.rest_entropy[on] - _conditional_entropy(blocks)

    def gradient(self, bases: np.ndarray, on: np.ndarray) -> np.ndarray:
        """dJ/d conj(bases) for every basis of the stack, in its layout.

        Row a is sum_i Tr_rest[log2(B_ai / q_a) W_i] v_a, with B_ai the
        outcome block of leaf i and q_a = sum_i Tr B_ai; in the Gram view
        the trace and W_i are taken on its r x r blocks. The 1/ln 2 terms of
        the entropy derivatives cancel. Outcomes with q_a <= 1e-12 contribute
        0, and eigenvalues of B_ai / q_a are clamped at 1e-12. Blocks that
        take closed forms (`closed_form`) take their log from `_small_log`,
        larger ones from `eigh`. The trace reuses the blocks' `_half_blocks`:
        row a is T[a] contracted with the transpose of log2(B_a / q_a), one
        matrix-vector product per (a, n). A stack is taken in chunks as by
        `j_bases`.
        """
        if len(bases) > self._chunk:
            return self._by_chunk(self.gradient, bases, on)
        half = self._half_blocks(bases, on)
        blocks = self._blocks(bases, half)
        traces = np.einsum('...ii->...', blocks.real)
        probs = traces.sum(axis=-1)
        safe = np.maximum(probs, ZERO_PROB)[..., None]
        # log2(B_a / q_a), transposed (B^T has the spectrum of B)
        if self.closed_form:
            logs_t = _small_log(blocks.swapaxes(-1, -2), traces, safe)
        else:
            w, u = np.linalg.eigh(blocks)
            log_w = np.log2(np.maximum(w / safe[..., None], CLAMP))
            logs_t = (u.conj() * log_w[..., None, :]) @ u.swapaxes(-1, -2)
        logs_t[probs <= ZERO_PROB] = 0.0
        dk, n = half.shape[:2]
        return (half @ logs_t.reshape(dk, n, -1, 1))[..., 0].swapaxes(0, 1)
