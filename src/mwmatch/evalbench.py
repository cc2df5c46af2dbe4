"""Evaluation metrics, seeded noise sweeps, and the PCA downstream task.

The error metric compares two solutions only through their pairwise maps
A_i^T A_j, so it is blind to the common-left-composition gauge freedom.
Synthetic sweeps assemble instances from three independent seeded streams
(ground truth, tree shape, noise draws) derived from one integer seed,
and report per-run records suitable for CSV export.
"""

from __future__ import annotations

import heapq
import math
import numbers
import operator
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .assignment import _numbers
from .errors import DimensionError, ParameterError, ValidationError, _is_finite_real, _is_int
from .matchmodel import (
    EtaGraph,
    SimilarityTensor,
    Solution,
    _check_seed,
    _check_sizes,
    _pair_maps,
    check_tensor_size,
    gen_ground_truth,
    gen_noisy_tensor,
    objective,
    validate_point_sets,
)
from .matrixcore import sym_eigs_topk
from .solver import (
    SolveReport,
    SolverConfig,
    coordinate_ascent,
    pairwise_alignment,
    solve_alg1,
    solve_alg2,
)
from .spantree import min_bottleneck_weight
from .syncbaseline import permutation_synchronization

TOPOLOGY_KINDS = ("star", "path", "random_tree", "uniform")


def _one_shot(t: SimilarityTensor, sol: Solution) -> SolveReport:
    """Report for a solver without an ascent phase."""
    return SolveReport(sol, (objective(t, sol),), 0, True)


# The one map from algorithm names to code. "coord" starts from a seeded
# uniform-random solution (no tree seeding), which is the motivating
# failure mode for plain ascent; the alg2 entries override cfg.order.
SOLVERS = {
    "pairwise": lambda t, cfg: _one_shot(t, pairwise_alignment(t)),
    "coord": lambda t, cfg: coordinate_ascent(t, gen_ground_truth(t.n, t.m, cfg.seed), cfg),
    "alg1": solve_alg1,
    "alg2-prim": lambda t, cfg: solve_alg2(t, replace(cfg, order="prim")),
    "alg2-kruskal": lambda t, cfg: solve_alg2(t, replace(cfg, order="kruskal")),
    "sync": lambda t, cfg: _one_shot(t, permutation_synchronization(t)),
}
ALGO_NAMES = tuple(SOLVERS)


@dataclass(frozen=True)
class EtaTopology:
    """Noise layout over set pairs: a designated tree at eta_tree, all
    remaining pairs at eta_off. kind "uniform" has no tree; every pair
    gets eta_off. The star's hub sits at vertex n - 1 (deliberately not
    at the anchor vertex 0 that pairwise alignment uses)."""

    kind: str
    eta_tree: float
    eta_off: float

    def __post_init__(self):
        if self.kind not in TOPOLOGY_KINDS:
            raise ParameterError(f"kind must be one of {TOPOLOGY_KINDS}, got {self.kind!r}")
        for name, v in (("eta_tree", self.eta_tree), ("eta_off", self.eta_off)):
            if not (_is_finite_real(v) and v >= 0.0):
                raise ParameterError(f"{name} must be a finite non-negative number, got {v!r}")


@dataclass(frozen=True)
class BenchRecord:
    """One algorithm run on one seeded instance.

    Numeric and boolean fields are stored as builtin float, int and bool,
    so numpy scalars passed in never reach CSV or JSON output.
    """

    algo: str
    n: int
    m: int
    topology: str
    eta_tree: float
    eta_off: float
    seed: int
    error_rate: float
    objective: float
    exact_recovery: bool
    wall_time_ms: float
    theorem2_bound: float
    theorem2_satisfied: bool

    def __post_init__(self):
        for name in ("eta_tree", "eta_off", "error_rate", "objective",
                     "wall_time_ms", "theorem2_bound"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("n", "m", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        for name in ("exact_recovery", "theorem2_satisfied"):
            object.__setattr__(self, name, bool(getattr(self, name)))
        if not (0.0 <= self.error_rate <= 1.0):
            raise ValidationError(f"error_rate out of [0, 1]: {self.error_rate}")
        if self.exact_recovery != (self.error_rate == 0.0):
            raise ValidationError("exact_recovery must equal (error_rate == 0)")
        if self.wall_time_ms < 0.0:
            raise ValidationError("wall_time_ms cannot be negative")


def avg_error_rate(s: Solution, truth: Solution) -> float:
    """Mean pairwise-map disagreement fraction over ordered pairs.

    For each ordered pair (i, j), i != j, the fraction of positions where
    the two solutions' maps A_i^T A_j differ, averaged over all n(n-1)
    pairs. A transposed pair disagrees at exactly the same count, so i < j
    pairs are counted once and doubled. The doubled fractions are added
    one at a time in lexicographic pair order (np.cumsum, where np.sum
    would add pairwise), so the rate equals a running-total loop bit for
    bit.
    """
    if s.n != truth.n or s.m != truth.m:
        raise DimensionError(
            f"solutions differ in shape: (n={s.n}, m={s.m}) vs (n={truth.n}, m={truth.m})"
        )
    n, m = s.n, s.m
    if n < 2:
        return 0.0
    counts = np.count_nonzero(_pair_maps(s.maps) != _pair_maps(truth.maps), axis=1)
    return float(np.cumsum(2.0 * (counts / m))[-1] / (n * (n - 1)))


def theorem2_bound(n: int, m: int) -> float:
    """Recovery threshold on the tree bottleneck noise level.

    1 / (4 (3 + gamma) ln m + 4) with gamma = ln n / ln m. Degenerates to
    +inf for m < 2 (a single element admits only the trivial map).
    """
    _check_sizes(n=n, m=m)
    if m < 2:
        return float("inf")
    gamma = math.log(n) / math.log(m)
    return 1.0 / (4.0 * (3.0 + gamma) * math.log(m) + 4.0)


def _regime_failures(n: int, m: int, etas: EtaGraph) -> list:
    """One message per sufficient recovery condition this noise layout
    fails, of: n >= 20 ln m; every eta <= 1/3; some spanning tree of the
    eta graph has bottleneck at most theorem2_bound(n, m)."""
    _check_sizes(n=n, m=m)
    if etas.n != n:
        raise DimensionError(f"eta graph has n={etas.n}, expected n={n}")
    failed = []
    if n < 20.0 * math.log(m):
        failed.append(f"n={n} below the recovery regime floor 20 ln m = {20.0 * math.log(m):.2f}")
    if float(etas.eta.max()) > 1.0 / 3.0:
        failed.append("an eta value exceeds 1/3; recovery guarantees do not apply")
    if n >= 2 and min_bottleneck_weight(etas) > theorem2_bound(n, m):
        failed.append("tree bottleneck noise exceeds the recovery bound")
    return failed


def theorem2_satisfied(n: int, m: int, etas: EtaGraph) -> bool:
    """All sufficient recovery conditions hold for this noise layout:
    n >= 20 ln m, max eta <= 1/3, and some spanning tree of the eta graph
    has bottleneck at most theorem2_bound(n, m).

    n and m must be integers >= 1 (ParameterError) and etas must cover n
    sets (DimensionError)."""
    return not _regime_failures(n, m, etas)


def _prufer_edges(seq, n):
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def tree_edges(topology: EtaTopology, n: int, seed: int) -> list:
    """The designated low-noise tree edges; empty for kind "uniform".

    n must be an integer >= 1 and seed an integer >= 0, whatever the
    kind (ParameterError)."""
    _check_seed(seed)
    _check_sizes(n=n)
    if n < 2:
        return []
    if topology.kind == "star":
        return [(j, n - 1) for j in range(n - 1)]
    if topology.kind == "path":
        return [(j, j + 1) for j in range(n - 1)]
    if topology.kind == "random_tree":
        rng = np.random.default_rng(seed)
        seq = rng.integers(0, n, size=n - 2)
        return _prufer_edges(seq.tolist(), n)
    return []


def build_eta_graph(topology: EtaTopology, n: int, seed: int) -> EtaGraph:
    """Materialize the noise layout as a symmetric variance matrix."""
    edges = tree_edges(topology, n, seed)  # checks n and seed before the n x n allocation
    eta = np.full((n, n), topology.eta_off, dtype=np.float64)
    for i, j in edges:
        eta[i, j] = topology.eta_tree
        eta[j, i] = topology.eta_tree
    np.fill_diagonal(eta, 0.0)
    return EtaGraph(eta)


def _sub_seeds(seed: int):
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(3)]


def make_instance(n: int, m: int, topology: EtaTopology, seed: int):
    """(truth, etas, tensor) from one integer seed.

    Three independent streams are derived from the seed so that truth
    permutations, random tree shape, and noise draws never share bits.
    A bad seed or an oversized n, m raises before any of them is drawn.
    """
    _check_seed(seed)
    check_tensor_size(n, m)
    s_truth, s_tree, s_noise = _sub_seeds(seed)
    truth = gen_ground_truth(n, m, s_truth)
    etas = build_eta_graph(topology, n, s_tree)
    tensor = gen_noisy_tensor(truth, etas, s_noise)
    return truth, etas, tensor


def _check_algos(names) -> None:
    for name in names:
        if name not in SOLVERS:
            raise ParameterError(f"unknown algorithm {name!r}; choose from {ALGO_NAMES}")


def run_algorithm(name: str, t: SimilarityTensor, seed: int = 0) -> Solution:
    """Run one named solver from SOLVERS with the default config."""
    _check_algos([name])
    return SOLVERS[name](t, SolverConfig(seed=seed)).solution


def _seed_records(args):
    n, m, topology, algos, seed = args
    truth, etas, tensor = make_instance(n, m, topology, seed)
    bound = theorem2_bound(n, m)
    satisfied = theorem2_satisfied(n, m, etas)
    cfg = SolverConfig(seed=seed)
    records = []
    for algo in algos:
        t0 = time.perf_counter()
        report = SOLVERS[algo](tensor, cfg)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        err = avg_error_rate(report.solution, truth)
        records.append(BenchRecord(
            algo=algo,
            n=n,
            m=m,
            topology=topology.kind,
            eta_tree=topology.eta_tree,
            eta_off=topology.eta_off,
            seed=seed,
            error_rate=err,
            objective=report.objective_trace[-1],
            exact_recovery=(err == 0.0),
            wall_time_ms=elapsed_ms,
            theorem2_bound=bound,
            theorem2_satisfied=satisfied,
        ))
    return records


def sort_records(records) -> list:
    """Sort by (algo, n, m, eta_tree, eta_off, seed), topology as tiebreak."""
    return sorted(records, key=lambda r: (
        r.algo, r.n, r.m, r.eta_tree, r.eta_off, r.seed, r.topology,
    ))


def _worker_count(jobs: int, tasks: int) -> int:
    """Processes worth starting: no more than the jobs asked for, the
    tasks to run or the CPUs present. A pool forks all its workers at
    once, so an unclamped jobs value forks that many processes."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def noise_sweep(topology: EtaTopology, n: int, m: int, algos, seeds, jobs: int = 1) -> list:
    """Run each algorithm on seeded instances; one BenchRecord per run.

    seeds may be an integer count (seeds 0..count-1) or an iterable of
    seed values; the count and each value must pass _check_seed. Each
    recovery condition of theorem2_satisfied that the first seed's eta
    graph fails warns once; the sweep still runs. With jobs > 1 the
    per-seed work fans out to a pool of at most min(jobs, seeds, CPUs)
    processes; records are sorted identically either way.
    """
    check_tensor_size(n, m)  # before the n x n eta graph, and checks both sizes
    if isinstance(seeds, numbers.Number):
        _check_seed(seeds, "seed count")
        seed_list = range(seeds)
    else:
        seed_list = list(seeds)
        for seed in seed_list:
            _check_seed(seed)
    if not seed_list:
        raise ParameterError("at least one seed required")
    algos = list(algos)
    _check_algos(algos)
    if not _is_int(jobs) or jobs < 1:
        raise ParameterError(f"jobs must be an integer >= 1, got {jobs!r}")
    for message in _regime_failures(n, m, build_eta_graph(topology, n, seed_list[0])):
        warnings.warn(message)
    work = [(n, m, topology, algos, seed) for seed in seed_list]
    workers = _worker_count(jobs, len(work))
    records = []
    if workers == 1:
        for item in work:
            records.extend(_seed_records(item))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for batch in pool.map(_seed_records, work):
                records.extend(batch)
    return sort_records(records)


def reorder_points(points: np.ndarray, sol: Solution) -> np.ndarray:
    """Permute each set's rows into slot order: row r takes element
    sigma_i(r). Sets reordered by a common-gauge family of permutations
    end up row-aligned with each other."""
    pts = validate_point_sets(points)
    if sol.n != pts.shape[0] or sol.m != pts.shape[1]:
        raise DimensionError("solution shape does not match point sets")
    return pts[np.arange(sol.n)[:, None], sol.maps]


def pca_experiment(points, solutions: dict, k_values) -> list:
    """Reconstruction error of vectorized aligned sets, per method and k.

    solutions maps a method name to a Solution or None (None = leave rows
    as stored). Each set is reordered and flattened row-major to length
    m*d. Per method the n vectors are centred, their covariance
    (normalized by n, not n - 1) is formed, and its top max(k) eigenvectors
    are taken once; the error for k is the mean squared residual norm of
    the centred vectors after projection onto the first k of them. Rows
    come back as (method, k, error) in method order with k ascending.
    """
    pts = validate_point_sets(points)
    n, m, d = pts.shape
    ks = _numbers(k_values, "iu", "k values")
    if ks.ndim != 1 or not ks.size:
        raise ParameterError("k values must be a non-empty flat list")
    ks = sorted(ks.tolist())
    cap = min(n, d * m)
    for k in ks:
        if k < 1 or k > cap:
            raise ParameterError(f"k must lie in [1, {cap}], got {k}")
    rows = []
    for method, sol in solutions.items():
        if sol is None:
            aligned = pts
        else:
            aligned = reorder_points(pts, sol)
        vectors = aligned.reshape(n, m * d)
        centered = vectors - vectors.mean(axis=0)
        _, basis = sym_eigs_topk((centered.T @ centered) / n, ks[-1])
        for k in ks:
            top = basis[:, :k]
            resid = centered - (centered @ top) @ top.T
            rows.append((method, k, float(np.mean(np.sum(resid * resid, axis=1)))))
    return rows
