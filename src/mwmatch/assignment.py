"""Exact maximum-weight linear assignment and the permutation type.

Permutation convention used package-wide: a Perm stores map with
map[p] = sigma(p), and its matrix is [P(sigma)]_{p,q} = 1 iff sigma(p) = q.
Under that convention P(a) @ P(b) = P(p -> b(a(p))), which the gather
b[a] realizes without ever forming a matrix, and P(a)^T is the matrix of
the inverse map argsort(a). The convention is pinned by
tests/test_matchmodel.py::TestSolution::test_pairwise_map_matches_matrices,
which checks Solution.pairwise against an explicit matrix product.

lap_max solves max_P tr(P^T C) exactly by running the Hungarian-family
solver from scipy in its maximizing mode. It is the one assignment
entry point of the package and sits on every solver's inner loop, so it
checks its input cheaply (shape, then one sum whose finiteness decides
unless it overflowed) and trusts the solver's output to be a bijection:
the result's Perm skips the bijection check that public Perm(...) makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ValidationError


def _checked_maps(arr: np.ndarray) -> np.ndarray:
    """arr as a read-only int64 array whose rows along the last axis are
    each a bijection on {0..m-1}, checked in one vectorized pass. Float,
    bool and object entries raise ValidationError rather than being cast.
    Callers pass an array they own: an int64 one is adopted, not copied.
    """
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


class Perm:
    """Immutable bijection on {0..m-1}. map[p] = sigma(p)."""

    __slots__ = ("map",)

    def __init__(self, mapping):
        arr = np.array(mapping)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("permutation map must be a non-empty 1-D sequence")
        object.__setattr__(self, "map", _checked_maps(arr))

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


@dataclass(frozen=True)
class AssignmentResult:
    perm: Perm
    value: float


def _checked_square(c) -> np.ndarray:
    mat = np.asarray(c, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise ValidationError(f"assignment input must be square and non-empty, got shape {mat.shape}")
    # a finite sum proves every entry finite; an overflowed one decides nothing
    if not np.isfinite(mat.sum()) and not np.isfinite(mat).all():
        raise ValidationError("assignment input contains non-finite entries")
    return mat


def _assignment_value(c: np.ndarray, mapping: np.ndarray) -> float:
    # lap_max's own gather and sum, so a map and the LAP answer are valued alike
    return float(c[np.arange(c.shape[0]), mapping].sum())


def lap_max(c) -> AssignmentResult:
    """argmax_P tr(P^T C) over permutation matrices, solved exactly.

    Ties are broken arbitrarily but deterministically (fixed solver).
    The value equals sum_p C[p, sigma(p)] for the returned sigma.
    """
    mat = _checked_square(c)
    rows, cols = linear_sum_assignment(mat, maximize=True)
    # rows is arange(m), so this is _assignment_value's gather and sum
    return AssignmentResult(perm=Perm._trusted(cols.astype(np.int64, copy=False)),
                            value=float(mat[rows, cols].sum()))


def f_score(t) -> float:
    """Best-assignment similarity of one block: max_P tr(P^T T)."""
    return lap_max(t).value
