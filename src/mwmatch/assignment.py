"""Exact maximum-weight linear assignment and the permutation type.

Permutation convention used package-wide: a map array holds
map[p] = sigma(p), and its matrix is [P(sigma)]_{p,q} = 1 iff sigma(p) = q.
Under that convention P(a) @ P(b) = P(p -> b(a(p))), which the gather
b[a] realizes without ever forming a matrix, and P(a)^T is the matrix of
the inverse map argsort(a). The convention is pinned by
tests/test_matchmodel.py::TestSolution::test_pairwise_map_matches_matrices,
which checks Solution.pairwise against an explicit matrix product.

lap_max solves max_P tr(P^T C) exactly with scipy's Hungarian-family
solver in its maximizing mode and returns the argmax map. It sits on
every solver's inner loop, so it checks its input in one pass
(_checked_reals, the package's rule for real arrays) and trusts the
solver's output to be a bijection. _assignment_value values any map.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ValidationError


def _checked_maps(maps, ndim: int) -> np.ndarray:
    """maps copied into a read-only non-empty int64 array of ndim
    dimensions whose rows along the last axis are each a bijection on
    {0..m-1}, checked in one vectorized pass. Ragged rows, and float,
    bool and object entries, raise ValidationError rather than being cast.
    """
    try:
        arr = np.array(maps)
    except ValueError as exc:  # ragged rows
        raise ValidationError(f"permutation maps must form a rectangular array: {exc}") from None
    if arr.ndim != ndim or arr.size < 1:
        raise ValidationError(f"permutation maps must form a non-empty {ndim}-D array, got {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise ValidationError(
            f"permutation map entries must be integers in int64 range, got dtype {arr.dtype}"
        )
    m = arr.shape[-1]
    if arr.min() < 0 or arr.max() >= m:
        raise ValidationError("permutation map entries out of range")
    rows = arr.reshape(-1, m)
    seen = np.zeros(rows.shape, dtype=bool)
    seen[np.arange(rows.shape[0])[:, None], rows] = True
    if not seen.all():
        raise ValidationError("permutation map is not a bijection")
    arr = arr.astype(np.int64, copy=False)
    arr.setflags(write=False)
    return arr


def _reals(a, name: str) -> np.ndarray:
    """a as a float64 array, not copied if it is one: the package's one rule
    for real-array input. Ragged rows and string, bool, complex or object
    (None) entries raise ValidationError naming name; nothing is parsed."""
    try:
        arr = np.asarray(a)
    except ValueError:  # ragged rows
        raise ValidationError(f"{name} must be a rectangular array of numbers") from None
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must be real numbers, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)


def _checked_reals(a, name: str) -> np.ndarray:
    """_reals(a, name) with every entry finite, checked in one pass that,
    unlike a sum, can neither overflow nor warn."""
    arr = _reals(a, name)
    if not np.isfinite(arr).all():
        raise ValidationError(f"non-finite entries in {name}")
    return arr


class Perm:
    """Immutable bijection on {0..m-1}. map[p] = sigma(p)."""

    __slots__ = ("map",)

    def __init__(self, mapping):
        object.__setattr__(self, "map", _checked_maps(mapping, 1))

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "Perm":
        """Adopt an int64 array known to be a bijection, without checking it."""
        arr.setflags(write=False)
        perm = object.__new__(cls)
        object.__setattr__(perm, "map", arr)
        return perm

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    def __len__(self) -> int:
        return int(self.map.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Perm):
            return NotImplemented
        return bool(np.array_equal(self.map, other.map))

    def __hash__(self) -> int:
        return hash(self.map.tobytes())

    def __repr__(self) -> str:
        return f"Perm({self.map.tolist()})"


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
    _, cols = linear_sum_assignment(_checked_square(c), maximize=True)
    return cols.astype(np.int64, copy=False)


def f_score(t) -> float:
    """Best-assignment similarity of one block: max_P tr(P^T T)."""
    mapping = lap_max(t)
    return _assignment_value(_reals(t, "assignment input"), mapping)
