"""Dense real-matrix kernel: top-k eigenpairs of a symmetric matrix.

Matrices throughout are plain 2-D float64 numpy arrays ("dense matrix" in
the rest of the package means exactly that), save sync's private float32
stacked matrix. Everything here targets desk scale, up to a few thousand
rows; no sparsity, no out-of-core paths.

sym_eigs_topk checks the matrix, k and symmetry within SYMMETRY_TOL,
symmetrizes, and computes only the top-k eigenpairs asked for with
LAPACK's subset driver (dsyevr through scipy.linalg.eigh with
subset_by_index): eigenvalues descending, orthonormal columns, canonical
signs. LAPACK failure surfaces as ConvergenceError. Sync runs its own
Lanczos iteration on its stacked matrix and falls back to _lapack_topk
(see syncbaseline).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .assignment import _checked_reals
from .errors import ConvergenceError, DimensionError, ValidationError, _is_int

# max |M - M^T| entry allowed before a matrix is rejected as asymmetric
SYMMETRY_TOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-D float64 array with finite entries.

    Raises DimensionError for wrong rank, ValidationError for anything else.
    """
    m = _checked_reals(a, name)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got {m.ndim}-D")
    return m


def sym_eigs_topk(m, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of a symmetric matrix.

    Returns (values, vectors) with values shape (k,) sorted descending and
    vectors shape (d, k), orthonormal columns, column c paired with
    values[c]. Signs are canonicalized: the largest-magnitude entry of each
    vector is positive, so repeated calls on equal input agree bitwise.

    The input must be symmetric within SYMMETRY_TOL; it is symmetrized
    exactly ((M + M^T)/2) before factorization. For eigenvalues with
    multiplicity the individual vectors are basis-dependent; only the
    spanned subspace is contractual.

    The pairs come from LAPACK's subset driver; a LAPACK failure raises
    ConvergenceError.
    """
    mat = as_matrix(m)
    d = mat.shape[0]
    if mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"matrix must be square, got {mat.shape}")
    if not _is_int(k):
        raise DimensionError("k must be an integer")
    if k < 0 or k > d:
        raise DimensionError(f"k must lie in [0, {d}], got {k}")
    # one d x d buffer holds |M - M^T| and then the symmetrized matrix
    diff = mat - mat.T
    np.abs(diff, out=diff)
    if mat.size and diff.max() > SYMMETRY_TOL:
        raise ValidationError("matrix is not symmetric within tolerance")

    if k == 0:
        return np.empty(0), np.empty((d, 0))
    sym = np.add(mat, mat.T, out=diff)
    sym *= 0.5
    return _descending(*_lapack_topk(sym, k))


def _descending(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending pairs as sym_eigs_topk returns them: descending, with
    canonical signs."""
    k = w.shape[0]
    vectors = v[:, ::-1]
    signs = np.sign(vectors[np.abs(vectors).argmax(axis=0), np.arange(k)])
    return w[::-1], vectors * signs


def _lapack_topk(sym: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs, ascending, from LAPACK's subset driver."""
    d = sym.shape[0]
    try:
        return scipy.linalg.eigh(sym, subset_by_index=[d - k, d - 1], driver="evr")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc

