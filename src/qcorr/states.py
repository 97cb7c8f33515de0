"""Validated density matrices over multipartite Hilbert spaces.

Subsystem index 0 is the leftmost tensor factor (the paper-style A or A1).
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (DimensionMismatch, NotHermitian, NotNormalized, NotPSD,
                     ParamOutOfRange, TraceNotOne, UnknownFamily)

TRACE_TOL = 1e-9
EIG_TOL = 1e-9
FACTOR_CUTOFF = 1e-14  # eigenvalues at or below this are left out of the factor
# Largest total dimension `named` builds: at 2^12 the dense matrix alone is
# 256 MB, and from_dense diagonalizes it.
MAX_NAMED_DIM = 1 << 12


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated quantum state over subsystems of dimensions `dims`.

    Invariants (checked in from_dense): Hermitian within 1e-9, unit trace
    within 1e-9, smallest eigenvalue >= -1e-9. Eigenvalues in [-1e-9, 0)
    are harmless numerical dust and are clamped to 0 by entropy code.
    `spectrum` holds the ascending eigenvalues from_dense computed to check
    the last invariant, and `factor` the D x r matrix F = U sqrt(w / sum(w))
    of the r eigenpairs (w, U) with w > 1e-14, so Tr F F^dagger = 1 and
    matrix = F F^dagger up to that dust and the trace tolerance. The state
    is diagonalized once.
    """
    dims: tuple[int, ...]
    matrix: np.ndarray = field(repr=False)
    spectrum: np.ndarray = field(repr=False)
    factor: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)


def _dims(dims: Sequence[int]) -> tuple[int, ...]:
    """`dims` as a tuple of ints, each an integer >= 2."""
    dims = linalg.as_tuple(dims, "subsystem dimensions")
    if not all(linalg.is_integer(d) and d >= 2 for d in dims):
        raise DimensionMismatch(f"subsystem dimensions must be integers >= 2, got {dims}")
    return tuple(int(d) for d in dims)


def from_dense(matrix, dims: Sequence[int]) -> DensityMatrix:
    """Validate and wrap a dense matrix as a density matrix."""
    dims = _dims(dims)
    total = math.prod(dims)
    m = linalg.as_matrix(matrix, total, total)
    if linalg.hermitian_defect(m) > linalg.HERMITICITY_TOL:
        raise NotHermitian(f"hermiticity defect {linalg.hermitian_defect(m):.3e}")
    m = (m + linalg.dag(m)) / 2
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(f"trace is {tr!r}")
    w, u = np.linalg.eigh(m)
    if w[0] < -EIG_TOL:
        raise NotPSD(f"smallest eigenvalue {w[0]:.3e}")
    kept = w > FACTOR_CUTOFF
    # rescaled to Tr F F^dagger = 1, so leaf probabilities add up to 1
    # whatever dust is dropped
    factor = u[:, kept] * np.sqrt(w[kept] / w[kept].sum())
    w.flags.writeable = factor.flags.writeable = False
    return DensityMatrix(dims, m, w, factor)


def from_pure(amplitudes, dims: Sequence[int]) -> DensityMatrix:
    """Rank-1 projector |psi><psi| from a normalized vector of prod(dims) amplitudes."""
    psi, dims = linalg.as_array(amplitudes).ravel(), _dims(dims)
    if psi.size != math.prod(dims):
        raise DimensionMismatch(f"{psi.size} amplitudes for dims {dims}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-9:
        raise NotNormalized(f"amplitude norm is {norm!r}")
    return from_dense(np.outer(psi, psi.conj()), dims)


def factor_marginal(rho: DensityMatrix, keep: Sequence[int]) -> np.ndarray:
    """F_K F_K^dagger, rho's reduced matrix on the ascending subsystems `keep`.

    F_K holds the kept subsystems' rows of rho's factor, the other
    subsystems and the rank side by side as its columns, so the trace over
    the rest is one product and leaves rho's eigenvalue dust out.
    """
    f = np.moveaxis(rho.factor.reshape(rho.dims + (-1,)), keep, range(len(keep)))
    f_k = f.reshape(math.prod(rho.dims[k] for k in keep), -1)
    return f_k @ f_k.conj().T


def reduced(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept subsystems, a nonempty set of indices (else DimensionMismatch)."""
    keep = set(linalg.as_tuple(keep, "keep"))
    n = rho.n_subsystems
    if not keep or not all(linalg.is_integer(k) and 0 <= k < n for k in keep):
        raise DimensionMismatch(f"keep={keep} is not a nonempty subset of 0..{n - 1}")
    keep = sorted(int(k) for k in keep)
    return from_dense(factor_marginal(rho, keep), [rho.dims[k] for k in keep])


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Tensor product state, f f^dagger of the factors' product f; dims concatenate."""
    f = np.kron(a.factor, b.factor)
    return from_dense(f @ f.conj().T, a.dims + b.dims)


def _bell_vector(which: str) -> np.ndarray:
    s = 1 / math.sqrt(2)
    table = {
        "phi+": [s, 0, 0, s],
        "phi-": [s, 0, 0, -s],
        "psi+": [0, s, s, 0],
        "psi-": [0, s, -s, 0],
    }
    if not isinstance(which, str) or which not in table:
        raise ParamOutOfRange(f"unknown Bell state {which!r}; choose from {sorted(table)}")
    return np.array(table[which], dtype=np.complex128)


def _number(name: str, value, kind=numbers.Real, error=ParamOutOfRange):
    """`value` if it is a finite real (kind=Integral: an integer), else `error`; bools are not."""
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not (isinstance(value, numbers.Integral) or math.isfinite(value))):
        raise error(f"{name} must be a finite "
                    f"{'integer' if kind is numbers.Integral else 'number'}, got {value!r}")
    return value


def _sequence(name: str, value) -> list:
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not isinstance(value, (list, tuple)) or len(value) == 0:
        raise ParamOutOfRange(f"{name} must be a nonempty list, got {value!r}")
    return list(value)


def _qubit_from_bloch(vec) -> np.ndarray:
    vec = _sequence("a Bloch vector", vec)
    if len(vec) != 3:
        raise ParamOutOfRange(f"a Bloch vector has 3 components, got {vec!r}")
    x, y, z = (float(_number("a Bloch component", v)) for v in vec)
    r = math.sqrt(x * x + y * y + z * z)
    if r > 1 + 1e-9:
        raise ParamOutOfRange(f"Bloch vector length {r} exceeds 1")
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])


def _named_dim(family: str, dims) -> int:
    """The product of `dims`; ParamOutOfRange as soon as it exceeds MAX_NAMED_DIM."""
    total = 1
    for d in dims:
        total *= d
        if total > MAX_NAMED_DIM:
            raise ParamOutOfRange(f"{family} state of dimension above {MAX_NAMED_DIM}")
    return total


_FAMILY_PARAMS = {"paper_example": (), "bell": ("which",), "ghz": ("n",),
                  "werner": ("p",), "product": ("bloch",), "maximally_mixed": ("dims",)}


def named(family: str, **params) -> DensityMatrix:
    """Named benchmark states.

    Families: paper_example, bell(which), ghz(n), werner(p),
    product(bloch=[...]), maximally_mixed(dims). A parameter of the wrong
    type or shape, or one the family does not take, raises ParamOutOfRange,
    as does a state of total dimension above MAX_NAMED_DIM.

    Convention: werner(p) = p |psi-><psi-| + (1-p) I/4 with
    |psi-> = (|01> - |10>)/sqrt(2).
    """
    if family not in _FAMILY_PARAMS:
        raise UnknownFamily(f"unknown state family {family!r}")
    unknown = sorted(set(params) - set(_FAMILY_PARAMS[family]))
    if unknown:
        raise ParamOutOfRange(f"{family} takes no parameter {', '.join(unknown)}; "
                              f"it takes {list(_FAMILY_PARAMS[family])}")
    if family == "paper_example":
        s = 1 / math.sqrt(2)
        return from_pure([s, 0, 0.5, 0.5], (2, 2))
    if family == "bell":
        return from_pure(_bell_vector(params.get("which", "phi+")), (2, 2))
    if family == "ghz":
        n = int(_number("ghz n", params.get("n", 3), numbers.Integral))
        if n < 2:
            raise ParamOutOfRange("ghz needs n >= 2")
        psi = np.zeros(_named_dim("ghz", itertools.repeat(2, n)), dtype=np.complex128)
        psi[0] = psi[-1] = 1 / math.sqrt(2)
        return from_pure(psi, (2,) * n)
    if family == "werner":
        p = float(_number("werner p", params.get("p", 0.0)))
        if not 0.0 <= p <= 1.0:
            raise ParamOutOfRange(f"werner p={p} outside [0, 1]")
        singlet = np.outer(_bell_vector("psi-"), _bell_vector("psi-").conj())
        return from_dense(p * singlet + (1 - p) * np.eye(4) / 4, (2, 2))
    if family == "product":
        blochs = _sequence("product bloch", params.get("bloch"))
        _named_dim("product", [2] * len(blochs))
        m = np.array([[1.0]])
        for vec in blochs:
            m = np.kron(m, _qubit_from_bloch(vec))
        return from_dense(m, (2,) * len(blochs))
    # maximally_mixed
    dims = _dims(int(_number("maximally_mixed dims entry", d, numbers.Integral))
                 for d in _sequence("maximally_mixed dims", params.get("dims", (2, 2))))
    total = _named_dim("maximally_mixed", dims)
    return from_dense(np.eye(total) / total, dims)


def random_density(dims: Sequence[int], rng: np.random.Generator,
                   rank: int | None = None) -> DensityMatrix:
    """Random state from a Ginibre ensemble, of full rank or of `rank`, an integer >= 1."""
    dims = _dims(dims)
    total = math.prod(dims)
    if rank is not None and not (linalg.is_integer(rank) and rank >= 1):
        raise ParamOutOfRange(f"rank must be an integer >= 1, got {rank!r}")
    rank = total if rank is None else int(rank)
    g = rng.standard_normal((total, rank)) + 1j * rng.standard_normal((total, rank))
    m = g @ g.conj().T
    return from_dense(m / np.trace(m).real, dims)

