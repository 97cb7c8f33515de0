"""Dense complex matrix primitives for small Hilbert spaces (total dim <= ~64).

Matrices are plain numpy arrays of complex128. All functions are pure.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, NotHermitian

HERMITICITY_TOL = 1e-9


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # orthonormal columns


def as_matrix(entries, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting non-finite entries."""
    m = np.asarray(entries, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {m.shape}")
    if rows is not None and m.shape != (rows, cols):
        raise DimensionMismatch(f"expected shape {(rows, cols)}, got {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise DimensionMismatch("matrix entries must be finite")
    return m


def dag(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor (Kronecker) product; dimensions multiply."""
    return np.kron(a, b)


def hermitian_defect(h: np.ndarray) -> float:
    """Max entrywise modulus of h - h^dagger."""
    return float(np.abs(h - dag(h)).max())


def eigh(h: np.ndarray, tol: float = HERMITICITY_TOL) -> EigenDecomposition:
    """Hermitian eigendecomposition with ascending eigenvalues.

    The input is symmetrized as (H + H^dagger)/2 before decomposition to
    suppress roundoff from channel arithmetic.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"matrix is {h.shape}, not square")
    if hermitian_defect(h) > tol:
        raise NotHermitian(f"hermiticity defect {hermitian_defect(h):.3e} exceeds {tol:.0e}")
    w, u = np.linalg.eigh((h + dag(h)) / 2)
    return EigenDecomposition(w, u)


def partial_trace(m: np.ndarray, dims: Sequence[int], keep) -> np.ndarray:
    """Trace out every subsystem not in `keep`.

    Subsystem 0 is the leftmost (most significant) tensor factor; the row
    index decomposes big-endian over `dims`.
    """
    dims = list(dims)
    keep = sorted(set(keep))
    n = len(dims)
    total = int(np.prod(dims))
    m = as_matrix(m)
    if m.shape != (total, total):
        raise DimensionMismatch(f"matrix is {m.shape}, dims product is {total}")
    if not keep or any(k < 0 or k >= n for k in keep):
        raise DimensionMismatch(f"keep={keep} is not a nonempty subset of 0..{n - 1}")
    t = m.reshape(dims + dims)
    # trace axis pairs for discarded subsystems, highest index first so
    # earlier axis numbers stay valid
    traced = 0
    for k in sorted(set(range(n)) - set(keep), reverse=True):
        cur = n - traced
        t = np.trace(t, axis1=k, axis2=k + cur)
        traced += 1
    d_keep = int(np.prod([dims[k] for k in keep]))
    return t.reshape(d_keep, d_keep)
