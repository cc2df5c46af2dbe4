"""Shared builders and independent oracles for the test suite.

Oracles here deliberately avoid the package's own code paths:
- perm_matrix builds the 0/1 matrix of a map, and matrix_map reads a map
  back off one; ideal blocks are perm_matrix of a pairwise map
- lap_brute, the one brute-force assignment, scans every permutation
  in lexicographic order and keeps the first maximum
- objectives come from full matrix products (naive_objective) or the
  inner products of trace_of_product, and one slot's best replacement
  from trying every permutation in it (enumerate_best_slot)
- the alignment graph comes from scoring every block with f_score over
  the package's block norm (the one routine the lazy graph divides by, so
  that ties agree bit for bit), spanning trees from sequence-coded tree enumeration, Kruskal's order
  from a sort of edge tuples and a union-find, Prim's order from a scan
  of every crossing edge
- the solvers come from a loop that rebuilds each coefficient matrix from
  the blocks on every visit, synchronization from a full
  eigendecomposition
- the matrices the global ascent solves come from the package's own
  per-visit rebuild, solver._coefficients, in a plain sweep loop
  (coefficient_ascent), since they must agree bit for bit
- the median bandwidth comes from an explicit list of set pairs
- the error rate, pairwise maps, left-composition and point reordering
  come from products of permutation matrices
"""

from __future__ import annotations

import contextlib
import itertools
import json
import signal
from functools import lru_cache

import numpy as np

from mwmatch.assignment import f_score, lap_max
from mwmatch.errors import SizeError
from mwmatch.matchmodel import (
    _MEDIAN_MAX_PAIRS,
    _MEDIAN_SAMPLE_SEED,
    EtaGraph,
    SimilarityTensor,
    Solution,
    gen_ground_truth,
    gen_noisy_tensor,
)
from mwmatch import solver
from mwmatch.solver import IMPROVE_TOL
from mwmatch.spantree import AlignGraph, _block_norms


@contextlib.contextmanager
def within_seconds(seconds: int, what: str):
    """Raise TimeoutError in the block after the given wall seconds, so an
    input that should be refused at once cannot run on to exhaust memory."""
    def too_slow(signum, frame):
        raise TimeoutError(f"{what} was not rejected within {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def instance_file(path, header, payload=b"") -> str:
    """Write a format 4 instance by hand: header as one compact JSON line,
    then payload, raw bytes as given or numbers as little-endian float32.
    Returns the path as a str."""
    if not isinstance(payload, bytes):
        payload = np.asarray(payload, dtype="<f4").tobytes()
    path.write_bytes(json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n" + payload)
    return str(path)


# the largest |T| SimilarityTensor accepts: the largest finite float32
LARGEST_ENTRY = float(np.finfo(np.float32).max)


def one_shot_noise(truth, etas, seed: int) -> np.ndarray:
    """gen_noisy_tensor's blocks before rounding, from one float64 draw of
    the whole stream: Z^2 off the ideal ones and 1 - Z^2 on them."""
    n, m = truth.n, truth.m
    first, second = np.triu_indices(n, 1)
    z = np.random.default_rng(seed).standard_normal((first.size, m, m))
    z *= np.sqrt(etas.eta[first, second])[:, None, None]
    z *= z
    for k, (i, j) in enumerate(zip(first.tolist(), second.tolist())):
        ones = (np.arange(m), truth.pairwise(i, j))
        z[k][ones] = 1.0 - z[k][ones]
    return z


def uniform_tensor(n: int, m: int, seed: int) -> SimilarityTensor:
    """Generic asymmetric blocks with entries uniform on [0, 1)."""
    rng = np.random.default_rng(seed)
    return SimilarityTensor(n, rng.random((n * (n - 1) // 2, m, m)))


def noiseless_instance(n: int, m: int, seed: int):
    truth = gen_ground_truth(n, m, seed)
    tensor = gen_noisy_tensor(truth, EtaGraph(np.zeros((n, n))), seed + 1)
    return truth, tensor


def noisy_instance(n: int, m: int, eta: float, seed: int):
    truth = gen_ground_truth(n, m, seed)
    etas = EtaGraph(np.full((n, n), eta) - np.diag([eta] * n))
    tensor = gen_noisy_tensor(truth, etas, seed + 1)
    return truth, tensor


def perm_matrix(mapping) -> np.ndarray:
    """The float64 matrix P of a map: P[p, q] = 1 iff mapping[p] = q."""
    m = len(mapping)
    p = np.zeros((m, m))
    for row, col in enumerate(mapping):
        p[row, col] = 1.0
    return p


def matrix_map(p: np.ndarray) -> np.ndarray:
    """The map of a permutation matrix: row r is one-hot at column map[r]."""
    rows, cols = np.nonzero(p)
    assert np.array_equal(rows, np.arange(p.shape[0])) and np.all(p[rows, cols] == 1.0)
    return cols


def trace_of_product(a: np.ndarray, b: np.ndarray) -> float:
    """tr(A^T B) as the sum of the elementwise product."""
    return float(np.sum(a * b))


def naive_objective(t: SimilarityTensor, s: Solution) -> float:
    """Objective by explicit matrix products over all ordered pairs."""
    total = 0.0
    for i in range(t.n):
        for j in range(t.n):
            if i == j:
                continue
            prod = perm_matrix(s.maps[i]) @ t.block(i, j) @ perm_matrix(s.maps[j]).T
            total += float(np.trace(prod))
    return total


BRUTE_MAX_SIZE = 8


@lru_cache(maxsize=None)
def _perm_table(m: int) -> np.ndarray:
    # all permutations of range(m) in lexicographic order, one per row
    table = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    table.setflags(write=False)
    return table


def lap_brute(c) -> tuple[np.ndarray, float]:
    """(map, value) of the assignment maximum over all m! maps, for
    m <= BRUTE_MAX_SIZE.

    Among tied optima the lexicographically smallest map wins. The value
    is the gather and sum that values a map in the package, so the two compare bit for bit.
    """
    mat = np.asarray(c, dtype=np.float64)
    m = mat.shape[0]
    if m > BRUTE_MAX_SIZE:  # the table would take m! * m * 8 bytes
        raise SizeError(f"brute-force assignment capped at m = {BRUTE_MAX_SIZE}, got {m}")
    table = _perm_table(m)
    best = int(np.argmax(mat[np.arange(m), table].sum(axis=1)))  # first maximum
    mapping = table[best]
    return mapping, float(mat[np.arange(m), mapping].sum())


def replace_row(s: Solution, i: int, mapping) -> Solution:
    """s with the map of A_i replaced."""
    maps = s.maps.copy()
    maps[i] = mapping
    return Solution(maps)


def enumerate_best_slot(t: SimilarityTensor, s: Solution, i: int, objective_fn):
    """Exhaustive best replacement for one solution slot.

    Returns (best value, best perms in lexicographic order achieving it
    within 1e-9). objective_fn is injected so this stays independent of
    the solver's coefficient shortcut.
    """
    m = s.m
    best_val = -np.inf
    values = []
    for cand in itertools.permutations(range(m)):
        val = objective_fn(t, replace_row(s, i, cand))
        values.append((cand, val))
        best_val = max(best_val, val)
    winners = [cand for cand, val in values if val >= best_val - 1e-9]
    return best_val, winners


def prufer_to_edges(seq, n: int):
    """Sequence-coded labeled tree decode, O(n^2) scan variant."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    removed = [False] * n
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1 and not removed[v])
        edges.append((min(leaf, x), max(leaf, x)))
        removed[leaf] = True
        degree[x] -= 1
    u, v = [w for w in range(n) if not removed[w]]
    edges.append((min(u, v), max(u, v)))
    return edges


def all_spanning_trees(n: int):
    """Every labeled spanning tree on n vertices as an edge list."""
    if n == 1:
        return [[]]
    if n == 2:
        return [[(0, 1)]]
    return [prufer_to_edges(seq, n) for seq in itertools.product(range(n), repeat=n - 2)]


def align_graph_reference(t: SimilarityTensor) -> AlignGraph:
    """The exact alignment graph: every block scored with f_score over its
    Frobenius norm, an all-zero block with 0. Pair {i, j} is scored as
    f_score(T_ji), on the transposed block, the orientation in which
    build_align_graph's keys bound the score."""
    w = np.zeros((t.n, t.n), dtype=np.float64)
    # packed holds the i < j blocks in the lexicographic order of triu_indices
    i, j = np.triu_indices(t.n, 1)
    w[i, j] = [f_score(block.T) / norm if norm else 0.0
               for block, norm in zip(t.packed, _block_norms(t.packed).tolist())]
    w[j, i] = w[i, j]
    return AlignGraph(n=t.n, weights=w)


def max_spanning_tree_reference(g) -> tuple:
    """Kruskal over a sorted list of edge tuples: heaviest first, ties to
    the smaller (i, j); a union-find with path halving accepts an edge
    whose endpoints have different roots."""
    n = g.n
    edges = sorted(((i, j) for i in range(n) for j in range(i + 1, n)),
                   key=lambda e: (-g.weights[e[0], e[1]], e[0], e[1]))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = []
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
            out.append((i, j))
    return tuple(out)


def prim_order_reference(g) -> tuple:
    """Prim from vertex 0 by scanning every crossing edge at every step:
    heaviest first, ties to the smaller (i, j). O(n^3)."""
    n = g.n
    in_tree = [False] * n
    in_tree[0] = True
    out = []
    for _ in range(n - 1):
        best = None
        for u in range(n):
            if not in_tree[u]:
                continue
            for v in range(n):
                if in_tree[v]:
                    continue
                e = (min(u, v), max(u, v))
                key = (-g.weights[e[0], e[1]], e[0], e[1])
                if best is None or key < best[0]:
                    best = (key, e, v)
        _, edge, newv = best
        in_tree[newv] = True
        out.append(edge)
    return tuple(out)


# The solvers below rebuild C_i = sum_{j in group, j != i} A_j T_ji block
# by block on every visit. They return (maps, objective trace, sweeps_run,
# converged) for comparison with the solvers' SolveReport.

def reference_objective(t: SimilarityTensor, maps) -> float:
    total = 0.0
    for i, j in t.pairs():
        total += 2.0 * float(t.block(i, j)[maps[i], maps[j]].sum(dtype=np.float64))
    return total


def reference_visit(t, maps, i, group) -> bool:
    c = np.zeros((t.m, t.m))
    for j in group:
        if j != i:
            c += t.block(j, i)[maps[j], :]
    best = lap_max(c)
    gain = float(c[np.arange(t.m), best].sum()) - float(c[np.arange(t.m), maps[i]].sum())
    if 2.0 * gain > IMPROVE_TOL:
        maps[i] = best
        return True
    return False


def _reference_ascent(t, maps, group, cfg, trace=None):
    """Sweep group in order until every index has been visited since the
    last accepted update, or for cfg.max_sweeps sweeps; (sweeps, converged)."""
    sweeps, settled = 0, set()
    while len(settled) < len(group):
        if sweeps == cfg.max_sweeps:
            return sweeps, False
        for i in group:
            if reference_visit(t, maps, i, group):
                settled = set()
            settled.add(i)
        sweeps += 1
        if trace is not None:
            trace.append(reference_objective(t, maps))
    return sweeps, True


def reference_ascent(t, s: Solution, cfg):
    maps = list(s.maps)
    trace = [reference_objective(t, maps)]
    sweeps, converged = _reference_ascent(t, maps, list(range(t.n)), cfg, trace)
    return maps, trace, sweeps, converged


def coefficient_ascent(t, s: Solution, cfg):
    """The global ascent with C_i rebuilt by solver._coefficients on every
    stale visit, in index order; (the matrices it hands to the LAP, maps,
    sweeps_run, converged)."""
    maps = s.maps.copy()
    stale = np.ones(t.n, dtype=bool)
    solved, sweeps = [], 0
    while stale.any():
        if sweeps == cfg.max_sweeps:
            return solved, maps, sweeps, False
        for i in range(t.n):
            if stale[i]:
                stale[i] = False
                solved.append(solver._coefficients(t, np.delete(np.arange(t.n), i), i, maps))
                best = solver._best_response(solved[-1], maps[i])
                if best is not None:
                    maps[i] = best
                    stale[:] = True
                    stale[i] = False
        sweeps += 1
    return solved, maps, sweeps, True


def _reference_edges(t, order):
    g = align_graph_reference(t)
    return prim_order_reference(g) if order == "prim" else max_spanning_tree_reference(g)


def _reference_merge(t, maps, label, u, v):
    """Solve edge (u, v), re-label the side without the smaller minimum
    vertex, merge the labels; returns the merged members, sorted."""
    side = {x: [w for w in range(t.n) if label[w] == label[x]] for x in (u, v)}
    a, b = (u, v) if min(side[u]) < min(side[v]) else (v, u)
    phat = lap_max(t.block(a, b)[np.ix_(maps[a], maps[b])])
    for w in side[b]:
        maps[w] = maps[w][phat]
        label[w] = label[a]
    return sorted(side[a] + side[b])


def reference_alg1(t, cfg):
    maps = [np.arange(t.m) for _ in range(t.n)]
    label = list(range(t.n))
    for u, v in _reference_edges(t, "kruskal"):
        _reference_merge(t, maps, label, u, v)
    return reference_ascent(t, Solution(np.array(maps)), cfg)


def reference_alg2(t, cfg):
    maps = [np.arange(t.m) for _ in range(t.n)]
    label = list(range(t.n))
    converged = True
    for u, v in _reference_edges(t, cfg.order):
        merged = _reference_merge(t, maps, label, u, v)
        _, settled = _reference_ascent(t, maps, merged, cfg)
        converged = converged and settled
    return maps, [reference_objective(t, maps)], 0, converged


def reference_sync(t: SimilarityTensor) -> Solution:
    """Spectral synchronization from a full np.linalg.eigh of the stacked
    block matrix: round each panel of the top-m eigenvectors against the
    first."""
    n, m = t.n, t.m
    if n == 1:
        return Solution(np.arange(m)[None])
    big = np.eye(n * m)
    for i, j in t.pairs():
        big[i * m:(i + 1) * m, j * m:(j + 1) * m] = t.block(i, j)
        big[j * m:(j + 1) * m, i * m:(i + 1) * m] = t.block(i, j).T
    w, v = np.linalg.eigh(big)
    top = v[:, np.argsort(-w, kind="stable")[:m]]
    return Solution(np.array([lap_max(top[:m] @ top[i * m:(i + 1) * m].T) for i in range(n)]))


# Permutation-matrix versions of code that works on a solution's (n, m)
# map array.

def reference_pairwise(s: Solution, i: int, j: int) -> np.ndarray:
    """The map of A_i^T A_j."""
    return matrix_map(perm_matrix(s.maps[i]).T @ perm_matrix(s.maps[j]))


def reference_left_compose(s: Solution, g) -> Solution:
    """Every A_i replaced by P(g) A_i."""
    return Solution(np.array([matrix_map(perm_matrix(g) @ perm_matrix(row)) for row in s.maps]))


def reference_reorder_points(pts: np.ndarray, sol: Solution) -> np.ndarray:
    """Set i's points multiplied by P(A_i): row p becomes point A_i(p)."""
    return np.stack([perm_matrix(sol.maps[i]) @ pts[i] for i in range(pts.shape[0])])


def reference_error_rate(s: Solution, truth: Solution) -> float:
    """Pairwise-map disagreement by a double loop over i < j, each pair's
    term added to a running total in that order."""
    n, m = s.n, s.m
    if n < 2:
        return 0.0
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            pred = reference_pairwise(s, i, j)
            true = reference_pairwise(truth, i, j)
            total += 2.0 * (np.count_nonzero(pred != true) / m)
    return float(total / (n * (n - 1)))


def median_heuristic_sigma_sampled_reference(pts: np.ndarray) -> float:
    """The median bandwidth's subsample path through an explicit list of
    every set pair, with the same seed and draws as the package."""
    n, m, _ = pts.shape
    pair_sets = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng = np.random.default_rng(_MEDIAN_SAMPLE_SEED)
    first = np.array([ij[0] for ij in pair_sets])
    second = np.array([ij[1] for ij in pair_sets])
    t = rng.integers(0, len(pair_sets), size=_MEDIAN_MAX_PAIRS)
    p = rng.integers(0, m, size=_MEDIAN_MAX_PAIRS)
    q = rng.integers(0, m, size=_MEDIAN_MAX_PAIRS)
    diff = pts[first[t], p] - pts[second[t], q]
    return float(np.median(np.sqrt(np.sum(diff * diff, axis=1))))
