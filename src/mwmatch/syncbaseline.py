"""Spectral synchronization baseline.

Stacks all blocks into one nm x nm symmetric matrix (identity on the
diagonal blocks), takes the top-m eigenvectors U, and rounds each m-row
panel U_i against the anchor panel U_1 with one assignment solve per set:

    A_i = argmax_P tr(P^T U_1 U_i^T)

On a noiseless consistent tensor the top eigenspace is spanned by the
stacked ground-truth permutations, U_1 U_i^T is a scaled permutation
matrix, and every pairwise map A_i^T A_j is recovered exactly; rounding
the anchor against itself maximizes the trace of a PSD Gram matrix, so
A_1 is the identity. The dense stacked matrix caps the size at
n * m <= 4000.

Only the top-m eigenpairs are computed, and only to the precision the
rounding needs, since it depends on U only through the spanned subspace.
The stacked matrix is built once, in float32 (half the bytes), with its
off-diagonal blocks divided by a power of two that brings max|T| into
(0.5, 1]; that leaves the eigenvectors as they are. ARPACK's Lanczos
iteration runs in float64 on float32 products (BLAS ssymv) to relative
residual LANCZOS_TOL. Each column's relative residual on that scaled
matrix A, |A u - l u| / l, is then computed in float64 from the packed
blocks, without a float64 copy of the stacked matrix, and the vectors are
rounded only if every one is under RESIDUAL_TOL. Otherwise, or if ARPACK
fails or runs out of products, LAPACK's subset driver solves the float64
stacked matrix (matrixcore._lapack_topk), so the float32 matrix never
reaches LAPACK.

The tensor was checked when it was built, the stacked matrix is exactly
symmetric, and each U_1 U_i^T is a product of eigenvectors, so the
eigensolve and the roundings run the unchecked kernels of matrixcore and
assignment._lap_max.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg.blas
import scipy.sparse.linalg

from .assignment import _lap_max as lap_max  # public name: perfbench's tracer wraps it
from .errors import SizeError
from .matchmodel import SimilarityTensor, Solution
from .matrixcore import _descending, _lapack_topk

SYNC_SIZE_CAP = 4000

# ARPACK's relative residual target on float32 products, and the float64
# relative residual under which every column must fall before rounding.
# Products rounded to float32 leave residuals near 1e-6 at n=60, m=20.
LANCZOS_TOL = 1e-6
RESIDUAL_TOL = 1e-5


def _block_rows(t: SimilarityTensor):
    """(i, the blocks T_ij for j > i) for each block row i < n - 1, as
    views of the packed pairs."""
    start = 0
    for i in range(t.n - 1):
        yield i, t.packed[start:start + t.n - 1 - i]
        start += t.n - 1 - i


def _stacked(t: SimilarityTensor, dtype=np.float64, scale: float = 1.0) -> np.ndarray:
    """I + B / scale, exactly symmetric, where B is the nm x nm block matrix
    with T_ij as block (i, j), T_ij^T as block (j, i) and zero diagonal
    blocks. Each entry is divided in float64, then rounded to dtype once."""
    n, m = t.n, t.m
    big = np.eye(n * m, dtype=dtype)
    # block (i, j) of big is big.reshape(n, m, n, m)[i, :, j, :]
    panels = big.reshape(n, m, n, m)
    for i, blocks in _block_rows(t):
        row = (blocks / scale).astype(dtype, copy=False)
        panels[i, :, i + 1:, :] = row.transpose(1, 0, 2)
        panels[i + 1:, :, i, :] = row.transpose(0, 2, 1)
    return big


def _residual(t: SimilarityTensor, values: np.ndarray, vectors: np.ndarray,
              scale: float = 1.0) -> np.ndarray:
    """(I + B / scale) V - V diag(values) for B as in _stacked, in float64
    from the packed blocks, one block row at a time."""
    n, m = t.n, t.m
    panels = vectors.reshape(n, m, -1)
    out = np.zeros_like(panels)
    for i, blocks in _block_rows(t):
        out[i] += np.matmul(blocks, panels[i + 1:]).sum(axis=0)
        out[i + 1:] += np.matmul(blocks.transpose(0, 2, 1), panels[i])
    out /= scale
    out += panels * (1.0 - values)
    return out.reshape(n * m, -1)


class _OutOfProducts(Exception):
    """Lanczos spent its matrix-vector product budget without converging."""


def _lanczos_topk(sym: np.ndarray, k: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of an exactly symmetric matrix, ascending, from
    ARPACK to relative residual tol (0: machine precision);
    _OutOfProducts past 2d products.

    ARPACK iterates and returns in float64 whatever sym's dtype; a float32
    sym gets float32 products (BLAS ssymv), which read half the bytes of
    float64 ones and bound the residual near float32's rounding of sym.
    Its random starting and restart vectors come from a generator seeded
    with 0, so repeated calls on equal input agree bitwise.
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


def _float32_topk(t: SimilarityTensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-m eigenpairs of t's stacked matrix A = I + B, ascending, from
    float32 products, and each column's relative residual in float64.

    Lanczos runs on I + B / s, s the power of two that puts max|T| / s in
    (0.5, 1]: the same eigenvectors, with eigenvalues 1 + (l - 1) / s, but
    entries that float32 holds without overflow and that the identity does
    not swamp, whatever the tensor's scale. The residuals are that
    matrix's, |(I + B/s) u - l u| / l, scale-free as ARPACK's tolerance is;
    by Cauchy interlacing with the identity anchor block each of the top m
    eigenvalues is at least 1.
    """
    top = max(-t.packed.min(), t.packed.max())
    scale = 2.0 ** math.ceil(math.log2(top)) if top > 0 else 1.0
    values, vectors = _lanczos_topk(_stacked(t, np.float32, scale), t.m, LANCZOS_TOL)
    residuals = np.linalg.norm(_residual(t, values, vectors, scale), axis=0) / values
    return 1.0 + scale * (values - 1.0), vectors, residuals


def _sync_eigs_topk(t: SimilarityTensor) -> tuple[np.ndarray, np.ndarray]:
    """Top-m eigenpairs of t's stacked matrix, as matrixcore.sym_eigs_topk
    returns them: from float32 products when every float64 residual is
    under RESIDUAL_TOL, else from LAPACK on the float64 stacked matrix."""
    if t.n > 1:
        try:
            values, vectors, residuals = _float32_topk(t)
        except (scipy.sparse.linalg.ArpackError, _OutOfProducts):
            pass
        else:
            if (residuals < RESIDUAL_TOL).all():
                return _descending(values, vectors)
    return _descending(*_lapack_topk(_stacked(t), t.m))


sym_eigs_topk = _sync_eigs_topk  # public name: perfbench's tracer wraps it


def permutation_synchronization(t: SimilarityTensor) -> Solution:
    """Top-m eigenvector rounding of the stacked block matrix."""
    n, m = t.n, t.m
    if n * m > SYNC_SIZE_CAP:
        raise SizeError(f"stacked matrix would be {n * m} x {n * m}, cap is {SYNC_SIZE_CAP}")
    _, vectors = sym_eigs_topk(t)
    anchor = vectors[0:m, :]
    return Solution(np.array([lap_max(anchor @ vectors[i * m:(i + 1) * m, :].T) for i in range(n)]))
