"""Dense real-matrix kernel: symmetric eigenpairs and PCA.

Matrices throughout are plain 2-D float64 numpy arrays ("dense matrix" in
the rest of the package means exactly that). Everything here targets desk
scale, up to a few thousand rows; no sparsity, no out-of-core paths.

The symmetric eigensolver computes only the top-k eigenpairs asked for.
For 0 < k < d it runs implicitly restarted Lanczos (ARPACK, through
scipy.sparse.linalg.eigsh), which costs a few hundred matrix-vector
products, each reading one triangle of the matrix (BLAS dsymv), rather
than a reduction of the whole matrix to tridiagonal form. That is cheaper
when d is well above k or the gap after the k-th eigenvalue is clear.
Measured with tools/eig_timing.py on sync's stacked matrices, on one
Intel Xeon core, over eta_off 0.1-1.0: 0.17-0.83x the dense time at
d=1200, k=20 and 0.27-1.13x at d=600, k=20, but 1.4-1.8x at d=300, k=10
once the relative gap falls near 1e-3; at d=60 and below ARPACK's overhead
costs a few tenths of a millisecond more than the dense route. LAPACK's
subset driver (dsyevr through scipy.linalg.eigh with subset_by_index)
serves k = d, which ARPACK cannot do, and any ARPACK failure: the zero
starting vector an all-zero matrix gives, or 2d products spent without
converging. Both sit behind one contract: eigenvalues descending,
orthonormal columns, canonical signs. LAPACK failure surfaces as
ConvergenceError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.sparse.linalg

from .assignment import _checked_reals
from .errors import ConvergenceError, DimensionError, ValidationError, _is_int

# max |M - M^T| entry allowed before a matrix is rejected as asymmetric
SYMMETRY_TOL = 1e-10
# orthonormality slack accepted when validating a PcaModel basis
ORTHO_TOL = 1e-8


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

    For 0 < k < d the pairs come from ARPACK's Lanczos iteration at full
    machine precision (tol=0). Its random starting and restart vectors are
    drawn from a generator seeded with 0: unseeded, a Krylov breakdown on
    a degenerate spectrum restarts from operating-system entropy and
    repeated calls return different bases. ARPACK may spend 2d
    matrix-vector products, twice what an unrestarted run needs to span
    the whole space; a tight cluster of eigenvalues straddling k would
    otherwise keep it restarting up to ARPACK's limit of 10d restarts
    (at d=600, eigenvalues 1e-12 apart took 22 s on one Intel Xeon core,
    against LAPACK's 20 ms). If ARPACK fails or runs out of products, and
    always for k = d, LAPACK's subset driver computes the pairs instead;
    a LAPACK failure raises ConvergenceError.
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
    if k < d:
        try:
            w, v = _lanczos_topk(sym, k)
        except (scipy.sparse.linalg.ArpackError, _OutOfProducts):
            w, v = _lapack_topk(sym, k)
    else:
        w, v = _lapack_topk(sym, k)

    # both solvers return the pairs ascending
    vectors = v[:, ::-1]
    signs = np.sign(vectors[np.abs(vectors).argmax(axis=0), np.arange(k)])
    return w[::-1], vectors * signs


class _OutOfProducts(Exception):
    """Lanczos spent its matrix-vector product budget without converging."""


def _lanczos_topk(sym: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs, ascending, from ARPACK; _OutOfProducts past 2d products."""
    d = sym.shape[0]
    # sym is exactly symmetric, so sym.T is the same matrix in Fortran order
    # and dsymv reads one triangle of it in place: half the memory traffic
    # of a full matrix-vector product
    upper = sym.T
    products = 0

    def matvec(x):
        nonlocal products
        products += 1
        if products > 2 * d:
            raise _OutOfProducts
        return scipy.linalg.blas.dsymv(1.0, upper, x)

    op = scipy.sparse.linalg.LinearOperator(sym.shape, matvec=matvec, dtype=sym.dtype)
    return scipy.sparse.linalg.eigsh(op, k=k, which="LA", rng=0)


def _lapack_topk(sym: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs, ascending, from LAPACK's subset driver."""
    d = sym.shape[0]
    try:
        return scipy.linalg.eigh(sym, subset_by_index=[d - k, d - 1], driver="evr")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc


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
        mean = _checked_reals(self.mean, "mean")
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
