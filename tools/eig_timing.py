"""Lanczos (ARPACK) against LAPACK's subset driver on the package's matrices.

    python3 tools/eig_timing.py

prints three Markdown tables of the two paths sym_eigs_topk can take, on
one BLAS thread, each time the best of three calls:

1. the star60 benchmark pool (n=60, m=20, star 0.01/0.30, seeds 0-39):
   the share of sync calls where Lanczos is faster, and the spread;
2. sync's stacked matrices at n, m = 60, 20 / 30, 20 / 30, 10 over three
   layouts and eta_off 0.1 to 1.0 (seed 0);
3. PCA covariances of point sets shaped like the c09 acceptance test.

Each row gives the relative gap (l_k - l_{k+1}) / l_1 after the k-th
eigenvalue, the matrix-vector products Lanczos used, both times and their
ratio. Lanczos needs more products the smaller that gap, so it wins by
most where d is large against k and the gap is clear.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy.sparse.linalg  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mwmatch import EtaTopology, gen_ground_truth, make_instance  # noqa: E402
from mwmatch.matrixcore import _lanczos_topk, _lapack_topk  # noqa: E402
from mwmatch.syncbaseline import _stacked  # noqa: E402

LAYOUTS = (("star", 0.01), ("uniform", 0.0), ("random_tree", 0.01))
ETA_OFF = (0.1, 0.3, 0.5, 0.7, 1.0)
SIZES = ((60, 20), (30, 20), (30, 10))
PCA_SHAPES = ((50, 10, 2), (30, 20, 3), (60, 100, 3), (200, 100, 3))


def covariance(n: int, m: int, d: int) -> np.ndarray:
    """Covariance of n shuffled noisy copies of one m-point set in R^d."""
    rng = np.random.default_rng(9000)
    template = rng.standard_normal((m, d))
    pts = np.stack([template[np.argsort(row)] for row in gen_ground_truth(n, m, 9001).maps])
    x = (pts + 0.01 * np.std(template) * rng.standard_normal(pts.shape)).reshape(n, m * d)
    centered = x - x.mean(axis=0)
    return centered.T @ centered / n


def best_ms(f) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        f()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


def products(a: np.ndarray, k: int) -> int:
    """Matrix-vector products _lanczos_topk spends on a."""
    count = 0
    eigsh = scipy.sparse.linalg.eigsh

    def counting(op, **kwargs):
        def matvec(x):
            nonlocal count
            count += 1
            return op.matvec(x)

        return eigsh(scipy.sparse.linalg.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype),
                     **kwargs)

    scipy.sparse.linalg.eigsh = counting
    try:
        _lanczos_topk(a, k)
    finally:
        scipy.sparse.linalg.eigsh = eigsh
    return count


def measure(a: np.ndarray, k: int) -> tuple:
    """(relative gap, products, LAPACK ms, Lanczos ms) for the top k of a."""
    w = np.linalg.eigvalsh(a)[::-1]
    lapack = best_ms(lambda: _lapack_topk(a, k))
    lanczos = best_ms(lambda: _lanczos_topk(a, k))
    return (w[k - 1] - w[k]) / abs(w[0]), products(a, k), lapack, lanczos


def row(label: str, a: np.ndarray, k: int) -> str:
    gap, count, lapack, lanczos = measure(a, k)
    return (f"| {label} | {a.shape[0]} | {k} | {gap:.1e} | {count} | {lapack:.2f} | "
            f"{lanczos:.2f} | {lanczos / lapack:.2f} |")


HEAD = ("| matrix | d | k | relative gap | products | LAPACK ms | Lanczos ms | ratio |\n"
        "|---|---|---|---|---|---|---|---|")


def main() -> int:
    print("star60 pool (n=60, m=20, star 0.01/0.30, seeds 0-39), Lanczos / LAPACK time\n")
    pool = [measure(_stacked(make_instance(60, 20, EtaTopology("star", 0.01, 0.30), seed)[2]), 20)
            for seed in range(40)]
    ratios = [lanczos / lapack for _, _, lapack, lanczos in pool]
    print(f"Lanczos faster on {sum(r < 1 for r in ratios)} of {len(pool)}; ratio median "
          f"{statistics.median(ratios):.2f}, range {min(ratios):.2f}-{max(ratios):.2f}; relative gap "
          f"{min(p[0] for p in pool):.1e}-{max(p[0] for p in pool):.1e}; products "
          f"{min(p[1] for p in pool)}-{max(p[1] for p in pool)}\n")
    print("sync stacked matrices, seed 0\n")
    print(HEAD)
    for n, m in SIZES:
        for kind, eta_tree in LAYOUTS:
            for eta_off in ETA_OFF:
                _, _, t = make_instance(n, m, EtaTopology(kind, eta_tree, eta_off), 0)
                print(row(f"n={n} m={m} {kind} {eta_off}", _stacked(t), m))
    print("\nPCA covariances (n sets of m points in R^dim, d = m * dim)\n")
    print(HEAD)
    for n, m, dim in PCA_SHAPES:
        cov = covariance(n, m, dim)
        for k in sorted({1, 5, min(n, m * dim) - 1}):
            print(row(f"n={n} m={m} dim={dim}", cov, k))
    return 0


if __name__ == "__main__":
    sys.exit(main())
