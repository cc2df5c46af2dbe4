"""Dense real-matrix kernel: top-k eigenpairs of a symmetric matrix.

Matrices throughout are plain 2-D float64 numpy arrays ("dense matrix" in
the rest of the package means exactly that), save sync's private float32
stacked matrix below. Everything here targets desk scale, up to a few
thousand rows; no sparsity, no out-of-core paths.

The symmetric eigensolver computes only the top-k eigenpairs asked for.
For 0 < k < d it runs implicitly restarted Lanczos (ARPACK, through
scipy.sparse.linalg.eigsh), which costs a few hundred matrix-vector
products, each reading one triangle of the matrix (BLAS symv), rather
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

sym_eigs_topk is the public entry point: it checks the matrix, k and
symmetry within SYMMETRY_TOL, then symmetrizes, and solves in float64 at
full machine precision (Lanczos at tol=0, float64 dsymv products). The
solve itself is _eigs_topk. The Lanczos step, _lanczos_topk, also takes a
relative tolerance and a float32 matrix, whose products run in BLAS ssymv
while ARPACK iterates in float64; only sync uses that variant, on its
float32 stacked matrix, and checks its answer in float64 before trusting
it, falling back to _eigs_topk on the float64 matrix (see syncbaseline).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.sparse.linalg

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
    return _eigs_topk(sym, k)


def _eigs_topk(sym: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """sym_eigs_topk on an exactly symmetric float64 array and 0 < k <= d,
    unchecked and not symmetrized again."""
    d = sym.shape[0]
    if k < d:
        try:
            w, v = _lanczos_topk(sym, k)
        except (scipy.sparse.linalg.ArpackError, _OutOfProducts):
            w, v = _lapack_topk(sym, k)
    else:
        w, v = _lapack_topk(sym, k)
    return _descending(w, v)


def _descending(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending pairs from either solver as sym_eigs_topk returns them:
    descending, with canonical signs."""
    k = w.shape[0]
    vectors = v[:, ::-1]
    signs = np.sign(vectors[np.abs(vectors).argmax(axis=0), np.arange(k)])
    return w[::-1], vectors * signs


class _OutOfProducts(Exception):
    """Lanczos spent its matrix-vector product budget without converging."""


def _lanczos_topk(sym: np.ndarray, k: int, tol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs, ascending, from ARPACK to relative residual tol (0:
    machine precision); _OutOfProducts past 2d products.

    ARPACK iterates and returns in float64 whatever sym's dtype; a float32
    sym gets float32 products (BLAS ssymv), which read half the bytes of
    float64 ones and bound the residual near float32's rounding of sym.
    """
    d = sym.shape[0]
    # sym is exactly symmetric, so sym.T is the same matrix in Fortran order
    # and symv reads one triangle of it in place: half the memory traffic
    # of a full matrix-vector product
    upper = sym.T
    symv = scipy.linalg.blas.get_blas_funcs("symv", (upper,))
    products = 0

    def matvec(x):
        nonlocal products
        products += 1
        if products > 2 * d:
            raise _OutOfProducts
        return symv(1.0, upper, x)

    op = scipy.sparse.linalg.LinearOperator(sym.shape, matvec=matvec, dtype=np.float64)
    return scipy.sparse.linalg.eigsh(op, k=k, which="LA", tol=tol, rng=0)


def _lapack_topk(sym: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs, ascending, from LAPACK's subset driver."""
    d = sym.shape[0]
    try:
        return scipy.linalg.eigh(sym, subset_by_index=[d - k, d - 1], driver="evr")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc

