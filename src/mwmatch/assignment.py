"""Exact maximum-weight linear assignment plus permutation arithmetic.

Permutation convention used package-wide: a Perm stores map with
map[p] = sigma(p), and its matrix is [P(sigma)]_{p,q} = 1 iff sigma(p) = q.
Under that convention P(a) @ P(b) = P(p -> b(a(p))), which Perm.then
realizes without ever forming a matrix. The convention is pinned by a unit
test against an explicit 3x3 matrix product.

lap_max solves max_P tr(P^T C) exactly by running the Hungarian-family
solver from scipy in its maximizing mode. It is the one assignment
entry point of the package and sits on every solver's inner loop, so it
checks its input cheaply (shape, then one sum whose finiteness decides
unless it overflowed) and trusts the solver's output to be a bijection:
the result's Perm skips the bijection check that public Perm(...) makes.
lap_brute enumerates all m! permutations and exists as an independent
oracle for small m.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import SizeError, ValidationError

BRUTE_MAX_SIZE = 8


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

    @classmethod
    def identity(cls, m: int) -> "Perm":
        return cls(np.arange(m, dtype=np.int64))

    @classmethod
    def random(cls, m: int, rng: np.random.Generator) -> "Perm":
        return cls(rng.permutation(m))

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

    def then(self, other: "Perm") -> "Perm":
        """Perm c with matrix P(self) @ P(other); c(p) = other(self(p))."""
        if len(other) != len(self):
            raise ValidationError("cannot compose permutations of different sizes")
        return Perm(other.map[self.map])

    def inverse(self) -> "Perm":
        inv = np.empty_like(self.map)
        inv[self.map] = np.arange(self.map.size, dtype=np.int64)
        return Perm(inv)

    def matrix(self) -> np.ndarray:
        """The m x m permutation matrix P(sigma) as float64."""
        m = self.map.size
        p = np.zeros((m, m), dtype=np.float64)
        p[np.arange(m), self.map] = 1.0
        return p


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
    # single shared reduction so lap_max and lap_brute values agree bitwise
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


@lru_cache(maxsize=None)
def _perm_table(m: int) -> np.ndarray:
    # all permutations of range(m) in lexicographic order, one per row
    table = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    table.setflags(write=False)
    return table


def lap_brute(c) -> AssignmentResult:
    """Exhaustive assignment maximum for m <= 8.

    Among tied optima returns the lexicographically smallest map. Exists as
    an independent check on lap_max; do not use beyond toy sizes.
    """
    mat = _checked_square(c)
    m = mat.shape[0]
    if m > BRUTE_MAX_SIZE:
        raise SizeError(f"brute-force assignment capped at m = {BRUTE_MAX_SIZE}, got {m}")
    table = _perm_table(m)
    values = mat[np.arange(m), table].sum(axis=1)
    best = int(np.argmax(values))  # first maximum = lexicographically smallest map
    mapping = table[best].copy()
    return AssignmentResult(perm=Perm(mapping), value=_assignment_value(mat, mapping))


def f_score(t) -> float:
    """Best-assignment similarity of one block: max_P tr(P^T T)."""
    return lap_max(t).value
