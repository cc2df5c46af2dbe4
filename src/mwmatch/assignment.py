"""Exact maximum-weight linear assignment.

Permutation convention used package-wide: a map array holds
map[p] = sigma(p), and its matrix is [P(sigma)]_{p,q} = 1 iff sigma(p) = q.
Under that convention P(a) @ P(b) = P(p -> b(a(p))), which the gather
b[a] realizes without ever forming a matrix, and P(a)^T is the matrix of
the inverse map argsort(a). The convention is pinned by
tests/test_matchmodel.py::TestSolution::test_pairwise_map_matches_matrices,
which checks Solution.pairwise against an explicit matrix product.

_numbers is the package's one rule for numeric input, from caller
arrays, permutation maps and file fields alike; _reals, _checked_reals
and _checked_maps add only casts, finiteness, range and bijection.

lap_max solves max_P tr(P^T C) exactly with scipy's Hungarian-family
solver in its maximizing mode and returns the argmax map, trusting the
solver's output to be a bijection. It is public, so it checks its
input in one pass (_checked_square); the solve itself is
_lap_max, which the package's own callers run unchecked on matrices
summed, sliced or gathered from an already-checked SimilarityTensor, or
on products of eigenvectors. _assignment_value values any map.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ValidationError


def _numbers(a, kinds: str, name: str) -> np.ndarray:
    """a as an array of numpy dtype kind in kinds, "iu" for integers or
    "iuf" for reals, not copied if it is one. Ragged rows and string, bool,
    complex or None entries raise ValidationError naming name; nothing is
    parsed or read as 1 and 0. For reals, integers beyond uint64 are read
    as floats. An empty array is left to the caller's shape check."""
    if type(a) is np.ndarray and a.dtype.kind in kinds:
        return a
    try:
        arr = np.asarray(a)
    except ValueError:  # ragged rows
        raise ValidationError(f"{name} must be a rectangular array of numbers") from None
    if "f" in kinds and arr.dtype.kind == "O" and all(
            type(x) in (int, float) for x in arr.ravel().tolist()):
        try:
            arr = arr.astype(np.float64)
        except OverflowError:
            raise ValidationError(f"{name}: an integer is too large for a float") from None
    bad = arr.size and arr.dtype.kind not in kinds
    if not bad and type(a) is not np.ndarray and ((arr == 0) | (arr == 1)).any():
        # numpy reads a bool among numbers as 1 or 0, so only then are the
        # leaves scanned; an ndarray's dtype has already said
        flat = [a]
        for _ in range(arr.ndim):
            flat = [x for row in flat for x in row]
        bad = any(isinstance(x, (bool, np.bool_)) for x in flat)
    if bad:
        raise ValidationError(f"{name} must be {'integers' if kinds == 'iu' else 'real numbers'}")
    return arr


def _checked_maps(maps) -> np.ndarray:
    """maps, under the integer rule of _numbers, copied into a read-only
    non-empty 2-D int64 array whose rows are each a bijection on
    {0..m-1}, checked in one vectorized pass."""
    arr = _numbers(maps, "iu", "permutation maps")
    if arr.ndim != 2 or arr.size < 1:
        raise ValidationError(f"permutation maps must form a non-empty 2-D array, got {arr.shape}")
    n, m = arr.shape
    if arr.min() < 0 or arr.max() >= m:
        raise ValidationError("permutation map entries out of range")
    seen = np.zeros(arr.shape, dtype=bool)
    seen[np.arange(n)[:, None], arr] = True
    if not seen.all():
        raise ValidationError("permutation map is not a bijection")
    arr = arr.astype(np.int64)  # always a copy: the caller's array stays writable
    arr.setflags(write=False)
    return arr


def _reals(a, name: str) -> np.ndarray:
    """a under the real-number rule of _numbers, as a float64 array, not
    copied if it is one."""
    return _numbers(a, "iuf", name).astype(np.float64, copy=False)


def _checked_reals(a, name: str) -> np.ndarray:
    """_reals(a, name) with every entry finite, checked in one pass that,
    unlike a sum, can neither overflow nor warn."""
    arr = _reals(a, name)
    if not np.isfinite(arr).all():
        raise ValidationError(f"non-finite entries in {name}")
    return arr


def _checked_square(c) -> np.ndarray:
    mat = _checked_reals(c, "assignment input")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise ValidationError(f"assignment input must be square and non-empty, got shape {mat.shape}")
    return mat


def _assignment_value(c: np.ndarray, mapping: np.ndarray) -> float:
    """sum_p c[p, mapping[p]], the one gather and sum that values a map."""
    return float(c[np.arange(c.shape[0]), mapping].sum())


def lap_max(c) -> np.ndarray:
    """argmax_P tr(P^T C) over permutation matrices, solved exactly.

    Returns the argmax map sigma as a 1-D int64 array, sigma[p] the
    column assigned to row p; f_score gives its value. Ties are broken
    arbitrarily but deterministically (fixed solver).
    """
    return _lap_max(_checked_square(c))


def _lap_max(c: np.ndarray) -> np.ndarray:
    """lap_max on a square, non-empty, finite float32 or float64 array,
    unchecked; the solver reads either as float64, exactly."""
    _, cols = linear_sum_assignment(c, maximize=True)
    return cols.astype(np.int64, copy=False)


def f_score(t) -> float:
    """Best-assignment similarity of one block: max_P tr(P^T T)."""
    mapping = lap_max(t)
    return _assignment_value(_reals(t, "assignment input"), mapping)
