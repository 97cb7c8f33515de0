"""Validated density matrices over multipartite Hilbert spaces.

Subsystem index 0 is the leftmost tensor factor (the paper-style A or A1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (DimensionMismatch, NotNormalized, NotPSD, ParamOutOfRange,
                     TraceNotOne, UnknownFamily)

TRACE_TOL = 1e-9
EIG_TOL = 1e-9


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state over subsystems of dimensions `dims`.

    Invariants (checked in from_dense): Hermitian within 1e-9, unit trace
    within 1e-9, smallest eigenvalue >= -1e-9. Eigenvalues in [-1e-9, 0)
    are harmless numerical dust and are clamped to 0 by entropy code.
    `spectrum` holds the ascending eigenvalues from_dense computed to check
    the last invariant, so the state is diagonalized once.
    """
    dims: tuple[int, ...]
    matrix: np.ndarray = field(repr=False)
    spectrum: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def eigenvalues(self) -> np.ndarray:
        return self.spectrum


def from_dense(matrix, dims: Sequence[int]) -> DensityMatrix:
    """Validate and wrap a dense matrix as a density matrix."""
    dims = tuple(int(d) for d in dims)
    if any(d < 2 for d in dims):
        raise DimensionMismatch(f"subsystem dimensions must be >= 2, got {dims}")
    total = int(np.prod(dims))
    m = linalg.as_matrix(matrix, total, total)
    if linalg.hermitian_defect(m) > linalg.HERMITICITY_TOL:
        raise linalg.NotHermitian(
            f"hermiticity defect {linalg.hermitian_defect(m):.3e}")
    m = (m + linalg.dag(m)) / 2
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(f"trace is {tr!r}")
    w = np.linalg.eigvalsh(m)
    if w[0] < -EIG_TOL:
        raise NotPSD(f"smallest eigenvalue {w[0]:.3e}")
    w.flags.writeable = False
    return DensityMatrix(dims, m, w)


def from_pure(amplitudes, dims: Sequence[int]) -> DensityMatrix:
    """Rank-1 projector |psi><psi| from a normalized amplitude vector."""
    psi = np.asarray(amplitudes, dtype=np.complex128).ravel()
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-9:
        raise NotNormalized(f"amplitude norm is {norm!r}")
    return from_dense(np.outer(psi, psi.conj()), dims)


def reduced(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept subsystems."""
    keep = sorted(set(keep))
    sub = linalg.partial_trace(rho.matrix, rho.dims, keep)
    return from_dense(sub, [rho.dims[k] for k in keep])


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Tensor product state; dims concatenate."""
    return from_dense(linalg.kron(a.matrix, b.matrix), a.dims + b.dims)


def _bell_vector(which: str) -> np.ndarray:
    s = 1 / math.sqrt(2)
    table = {
        "phi+": [s, 0, 0, s],
        "phi-": [s, 0, 0, -s],
        "psi+": [0, s, s, 0],
        "psi-": [0, s, -s, 0],
    }
    if which not in table:
        raise ParamOutOfRange(f"unknown Bell state {which!r}; choose from {sorted(table)}")
    return np.array(table[which], dtype=np.complex128)


def _qubit_from_bloch(vec) -> np.ndarray:
    x, y, z = (float(v) for v in vec)
    r = math.sqrt(x * x + y * y + z * z)
    if r > 1 + 1e-9:
        raise ParamOutOfRange(f"Bloch vector length {r} exceeds 1")
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])


def named(family: str, **params) -> DensityMatrix:
    """Named benchmark states.

    Families: paper_example, bell(which), ghz(n), werner(p),
    product(bloch=[...]), maximally_mixed(dims).

    Convention: werner(p) = p |psi-><psi-| + (1-p) I/4 with
    |psi-> = (|01> - |10>)/sqrt(2).
    """
    if family == "paper_example":
        s = 1 / math.sqrt(2)
        return from_pure([s, 0, 0.5, 0.5], (2, 2))
    if family == "bell":
        return from_pure(_bell_vector(params.get("which", "phi+")), (2, 2))
    if family == "ghz":
        n = int(params.get("n", 3))
        if n < 2:
            raise ParamOutOfRange("ghz needs n >= 2")
        psi = np.zeros(2 ** n, dtype=np.complex128)
        psi[0] = psi[-1] = 1 / math.sqrt(2)
        return from_pure(psi, (2,) * n)
    if family == "werner":
        p = float(params.get("p", 0.0))
        if not 0.0 <= p <= 1.0:
            raise ParamOutOfRange(f"werner p={p} outside [0, 1]")
        singlet = np.outer(_bell_vector("psi-"), _bell_vector("psi-").conj())
        return from_dense(p * singlet + (1 - p) * np.eye(4) / 4, (2, 2))
    if family == "product":
        blochs = params.get("bloch")
        if not blochs:
            raise ParamOutOfRange("product needs a nonempty list of Bloch vectors")
        m = np.array([[1.0]])
        for vec in blochs:
            m = linalg.kron(m, _qubit_from_bloch(vec))
        return from_dense(m, (2,) * len(blochs))
    if family == "maximally_mixed":
        dims = tuple(int(d) for d in params.get("dims", (2, 2)))
        total = int(np.prod(dims))
        return from_dense(np.eye(total) / total, dims)
    raise UnknownFamily(f"unknown state family {family!r}")


def random_density(dims: Sequence[int], rng: np.random.Generator,
                   rank: int | None = None) -> DensityMatrix:
    """Random full-rank (or rank-limited) state from a Ginibre ensemble."""
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    rank = total if rank is None else rank
    g = rng.standard_normal((total, rank)) + 1j * rng.standard_normal((total, rank))
    m = g @ g.conj().T
    return from_dense(m / np.trace(m).real, dims)


def random_bell_diagonal(rng: np.random.Generator) -> DensityMatrix:
    """Random mixture of the four Bell projectors (maximally mixed marginals)."""
    weights = rng.random(4)
    weights /= weights.sum()
    m = np.zeros((4, 4), dtype=np.complex128)
    for w, which in zip(weights, ("phi+", "phi-", "psi+", "psi-")):
        v = _bell_vector(which)
        m += w * np.outer(v, v.conj())
    return from_dense(m, (2, 2))
