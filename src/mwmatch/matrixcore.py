"""Dense real-matrix kernel: symmetric eigenpairs and PCA.

Matrices throughout are plain 2-D float64 numpy arrays ("dense matrix" in
the rest of the package means exactly that). Everything here targets desk
scale, up to a few thousand rows; no sparsity, no out-of-core paths.

The symmetric eigensolver is LAPACK's subset driver (dsyevr through
scipy.linalg.eigh with subset_by_index), which computes only the top-k
eigenpairs asked for, behind a fixed contract: eigenvalues descending,
orthonormal columns, canonical signs. Solver failure surfaces as
ConvergenceError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DimensionError, ValidationError, _is_int

# max |M - M^T| entry allowed before a matrix is rejected as asymmetric
SYMMETRY_TOL = 1e-10
# orthonormality slack accepted when validating a PcaModel basis
ORTHO_TOL = 1e-8


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-D float64 array with finite entries.

    Raises DimensionError for wrong rank, ValidationError for NaN/inf.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got {m.ndim}-D")
    if m.size and not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
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
    """
    mat = as_matrix(m)
    d = mat.shape[0]
    if mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"matrix must be square, got {mat.shape}")
    if not _is_int(k):
        raise DimensionError("k must be an integer")
    if k < 0 or k > d:
        raise DimensionError(f"k must lie in [0, {d}], got {k}")
    if mat.size and np.max(np.abs(mat - mat.T)) > SYMMETRY_TOL:
        raise ValidationError("matrix is not symmetric within tolerance")

    if k == 0:
        return np.empty(0), np.empty((d, 0))
    sym = (mat + mat.T) / 2.0
    try:
        w, v = scipy.linalg.eigh(sym, subset_by_index=[d - k, d - 1], driver="evr")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc

    # LAPACK returns the subset ascending
    values = w[::-1].copy()
    vectors = v[:, ::-1].copy()
    for c in range(vectors.shape[1]):
        col = vectors[:, c]
        if col[int(np.argmax(np.abs(col)))] < 0:
            vectors[:, c] = -col
    return values, vectors


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Affine PCA model: sample mean plus an orthonormal row basis.

    mean has shape (d,); basis has shape (k, d) with orthonormal rows,
    ordered by decreasing captured variance. k may be 0 (mean-only model).
    Instances compare and hash by identity.
    """

    mean: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        basis = as_matrix(self.basis, "basis")
        if mean.ndim != 1:
            raise DimensionError("mean must be 1-D")
        if basis.shape[1] != mean.shape[0]:
            raise DimensionError("basis width must match mean length")
        if basis.shape[0] > basis.shape[1]:
            raise DimensionError("basis cannot have more vectors than dimensions")
        gram = basis @ basis.T
        if basis.shape[0] and np.max(np.abs(gram - np.eye(basis.shape[0]))) > ORTHO_TOL:
            raise ValidationError("basis rows are not orthonormal")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "basis", basis)

    @property
    def k(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def pca_fit(samples, k: int) -> PcaModel:
    """Fit a k-component PCA model to row-vector samples.

    The covariance is normalized by the sample count (divide by n, not
    n - 1). Components are the top-k eigenvectors of that covariance,
    from sym_eigs_topk, which refuses a k outside [0, d].
    """
    x = as_matrix(samples, "samples")
    n = x.shape[0]
    if n < 1:
        raise DimensionError("at least one sample required")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = (centered.T @ centered) / n
    _, vectors = sym_eigs_topk(cov, k)
    return PcaModel(mean=mean, basis=vectors.T)


def pca_reconstruction_error(samples, model: PcaModel) -> float:
    """Mean squared residual norm of samples under the model.

    For each sample x: residual = (x - mean) - B^T B (x - mean) with B the
    (k, d) basis; returns the average of ||residual||^2 over samples.
    """
    x = as_matrix(samples, "samples")
    if x.shape[0] < 1:
        raise DimensionError("at least one sample required")
    if x.shape[1] != model.dim:
        raise DimensionError(
            f"sample dimension {x.shape[1]} does not match model dimension {model.dim}"
        )
    centered = x - model.mean
    proj = (centered @ model.basis.T) @ model.basis
    resid = centered - proj
    return float(np.mean(np.sum(resid * resid, axis=1)))
