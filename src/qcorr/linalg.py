"""Dense complex matrix primitives.

Matrices are plain numpy arrays of complex128. All functions are pure. A
state is held as one dense D x D matrix, so D is bounded by memory (GHZ-10,
D = 1024, is 16 MB), not by the J kernel: that works on the state's factor
and takes each spectrum on the factor's smaller side.
"""
from __future__ import annotations

import numbers

import numpy as np

from .errors import DimensionMismatch

HERMITICITY_TOL = 1e-9


def is_integer(k) -> bool:
    """Whether k is an integer and not a bool, as an index or a dimension must be."""
    return isinstance(k, numbers.Integral) and not isinstance(k, bool)


def as_tuple(items, what: str, error=DimensionMismatch) -> tuple:
    """`items` as a tuple; a bare value that is not iterable, such as an int, raises `error`."""
    try:
        items = iter(items)
    except TypeError:
        raise error(f"{what} must be a sequence, got {items!r}") from None
    return tuple(items)


def as_array(entries, dtype=np.complex128, error=DimensionMismatch) -> np.ndarray:
    """Coerce to an array of `dtype`; ragged, non-numeric or non-finite entries raise `error`."""
    try:
        a = np.asarray(entries, dtype=dtype)
    except (ValueError, TypeError) as e:
        raise error(f"not an array of numbers: {e}") from None
    if not np.all(np.isfinite(a)):
        raise error("entries must be finite")
    return a


def as_matrix(entries, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting ragged and non-finite entries."""
    m = as_array(entries)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {m.shape}")
    if rows is not None and m.shape != (rows, cols):
        raise DimensionMismatch(f"expected shape {(rows, cols)}, got {m.shape}")
    return m


def dag(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def hermitian_defect(h: np.ndarray) -> float:
    """Max entrywise modulus of h - h^dagger."""
    return float(np.abs(h - dag(h)).max())
