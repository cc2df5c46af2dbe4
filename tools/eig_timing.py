"""Lanczos (ARPACK) against LAPACK's dense subset solve (dsyevr) on the
package's matrices, and sync's float32-product eigensolve next to both.

    python3 tools/eig_timing.py

prints three Markdown tables of float64 Lanczos at machine precision
(syncbaseline._lanczos_topk at tol=0) against LAPACK's subset driver, the
solver behind sym_eigs_topk and sync's fallback, on one BLAS thread, each
time the best of three calls:

1. the star60 benchmark pool (n=60, m=20, star 0.01/0.30, seeds 0-39):
   the share of sync calls where Lanczos is faster, and the spread;
2. sync's stacked matrices at n, m = 60, 20 / 30, 20 / 30, 10 over three
   layouts and eta_off 0.1 to 1.0 (seed 0);
3. PCA covariances of point sets shaped like the c09 acceptance test.

Each row gives the relative gap (l_k - l_{k+1}) / l_1 after the k-th
eigenvalue, the matrix-vector products Lanczos used, both times and their
ratio. Lanczos needs more products the smaller that gap, so it wins by
most where d is large against k and the gap is clear.

On sync's matrices (tables 1 and 2) each row also gives sync's own solve,
syncbaseline._sync_eigs_topk from the tensor: its time (float32 build,
float32-product Lanczos at LANCZOS_TOL and the float64 residual check, plus
LAPACK on the float64 matrix when the check fails), the products of its
float32 Lanczos run and the largest relative residual of that run
(syncbaseline._float32_topk). Sync falls back to LAPACK when a residual
reaches RESIDUAL_TOL.
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
from mwmatch.matrixcore import _lapack_topk  # noqa: E402
from mwmatch.syncbaseline import _float32_topk, _lanczos_topk, _stacked, _sync_eigs_topk  # noqa: E402

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


def products(solve) -> tuple:
    """Matrix-vector products ARPACK spends in solve(), and its result."""
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
        result = solve()
    finally:
        scipy.sparse.linalg.eigsh = eigsh
    return count, result


def measure(a: np.ndarray, k: int) -> tuple:
    """(relative gap, products, LAPACK ms, Lanczos ms) for the top k of a."""
    w = np.linalg.eigvalsh(a)[::-1]
    lapack = best_ms(lambda: _lapack_topk(a, k))
    lanczos = best_ms(lambda: _lanczos_topk(a, k, 0.0))
    return (w[k - 1] - w[k]) / abs(w[0]), products(lambda: _lanczos_topk(a, k, 0.0))[0], lapack, lanczos


def measure_sync(t) -> tuple:
    """(ms, products, max relative residual) of sync's eigensolve on t."""
    ms = best_ms(lambda: _sync_eigs_topk(t))
    count, (_, _, residuals) = products(lambda: _float32_topk(t))
    return ms, count, residuals.max()


def row(label: str, a: np.ndarray, k: int, t=None) -> str:
    gap, count, lapack, lanczos = measure(a, k)
    line = (f"| {label} | {a.shape[0]} | {k} | {gap:.1e} | {count} | {lapack:.2f} | "
            f"{lanczos:.2f} | {lanczos / lapack:.2f} |")
    if t is None:
        return line
    sync_ms, sync_count, residual = measure_sync(t)
    return line + f" {sync_ms:.2f} | {sync_count} | {residual:.1e} |"


HEAD = ("| matrix | d | k | relative gap | products | LAPACK ms | Lanczos ms | ratio |\n"
        "|---|---|---|---|---|---|---|---|")
SYNC_HEAD = HEAD.replace("ratio |\n", "ratio | sync ms | sync products | max residual |\n") + "---|---|---|"


def main() -> int:
    print("star60 pool (n=60, m=20, star 0.01/0.30, seeds 0-39), Lanczos / LAPACK time\n")
    pool = []
    for seed in range(40):
        t = make_instance(60, 20, EtaTopology("star", 0.01, 0.30), seed)[2]
        pool.append(measure(_stacked(t), 20) + measure_sync(t))
    ratios = [lanczos / lapack for _, _, lapack, lanczos, *_ in pool]
    print(f"Lanczos faster on {sum(r < 1 for r in ratios)} of {len(pool)}; ratio median "
          f"{statistics.median(ratios):.2f}, range {min(ratios):.2f}-{max(ratios):.2f}; relative gap "
          f"{min(p[0] for p in pool):.1e}-{max(p[0] for p in pool):.1e}; products "
          f"{min(p[1] for p in pool)}-{max(p[1] for p in pool)}\n")
    sync = [p[4] / p[3] for p in pool]
    print(f"sync's solve / Lanczos time: median {statistics.median(sync):.2f}, range "
          f"{min(sync):.2f}-{max(sync):.2f}; products {min(p[5] for p in pool)}-"
          f"{max(p[5] for p in pool)}; max residual {max(p[6] for p in pool):.1e}\n")
    print("sync stacked matrices, seed 0\n")
    print(SYNC_HEAD)
    for n, m in SIZES:
        for kind, eta_tree in LAYOUTS:
            for eta_off in ETA_OFF:
                _, _, t = make_instance(n, m, EtaTopology(kind, eta_tree, eta_off), 0)
                print(row(f"n={n} m={m} {kind} {eta_off}", _stacked(t), m, t))
    print("\nPCA covariances (n sets of m points in R^dim, d = m * dim)\n")
    print(HEAD)
    for n, m, dim in PCA_SHAPES:
        cov = covariance(n, m, dim)
        for k in sorted({1, 5, min(n, m * dim) - 1}):
            print(row(f"n={n} m={m} dim={dim}", cov, k))
    return 0


if __name__ == "__main__":
    sys.exit(main())
