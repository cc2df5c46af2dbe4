"""Solvers: single-anchor alignment, coordinate ascent, tree-seeded search.

All solvers maximize the consistency objective

    sum over ordered pairs (i, j), i != j, of tr(A_i T_ij A_j^T)

over per-set permutations A_i. The building blocks:

  * pairwise_alignment: anchor set 0, solve each block (0, i) once.
    Consistent by construction but uses only n - 1 of the blocks.
  * coordinate_update / coordinate_ascent: block-coordinate maximization.
    Updating A_i with the rest fixed is one assignment problem on the
    coefficient matrix sum_{j != i} A_j T_ji; the objective changes by
    exactly twice the assignment-value gain, so ascent is monotone and
    every accepted step improves by more than IMPROVE_TOL.
  * mst_initialize: walk a spanning-tree edge order, any iterable of
    (i, j) pairs, solving one block per edge and re-labeling the smaller
    component so every tree edge's pairwise map is single-block optimal.
  * solve_alg1: tree initialization along Kruskal's acceptance order,
    then global coordinate ascent.
  * solve_alg2: tree initialization interleaved with coordinate ascent
    restricted to the merged component after every edge; the last merge
    spans all n sets, so no outer ascent follows. It alone reads
    SolverConfig.order, Prim's or Kruskal's walk of the same tree.

Inside the solvers the permutations are one (n, m) int64 array of maps.
A coordinate visit is one assignment solve on C_i = sum_{j in group,
j != i} A_j T_ji, where the group is all sets for the global ascent and
i's merged component in solve_alg2. A Solution holds the same kind of
array, read-only, so a solver works on a writable copy of its input's
maps and wraps its final maps in a new one.

The global ascent builds each C_i during its sweep, from the block rows
of packed: row i, the contiguous pairs (i, i+1), ..., (i, n-1), holds
T_ij for every j > i. At i's visit C_i is lower[i] plus the sum over row
i of A_j T_ji, T_ij's columns in A_j's order; the sweep has visited no
j > i yet, so those maps are current. lower[i] holds sum_{j<i} A_j T_ji:
after each visit of j, one gather of row j in A_j's order, with the map
the visit left, adds j's terms to lower of every later index. Both
halves add in the order of j, as _coefficients does, so every C_i is
bit for bit the per-visit rebuild's, and each row is read by one visit
and one gather per sweep, back to back. A sweep reads no more rows once
no later index is stale.

solve_alg2's walk keeps a cache of every C_i, shape (n, m, m): an
accepted update of A_k changes only the rows p where its map moved, so
it adds T_ki[new(p), :] - T_ki[old(p), :] to row p of every other C_i in
the group, gathered from the packed blocks in one step. The walk keeps,
per vertex, the smallest vertex of its component; a merge re-labels the
moving side, which permutes the rows of that side's C_i, then adds the
blocks that cross the new edge.

A stale flag per index records whether C_i may have changed since i was
last visited. Right after a visit, A_i is the assignment argmax of C_i
(or within IMPROVE_TOL of it), so while C_i stays the same a new visit
would solve the same problem and reject again; a visit to an index that
is not stale returns at once, without an assignment solve. An accepted
update of A_k marks every other index of the group stale, a merge marks
the whole merged group stale, and a global ascent starts with every
index stale. An ascent sweeps its group in index order and stops when
no index of the group is stale, so every A_i is then the assignment
argmax of its C_i and no single update improves. solve_alg2, whose C_i
are all at hand, starts each sweep with one pass over the group's stale
members in a batch: it clears the flag of each whose C_i's row maxima
sum to within IMPROVE_TOL of A_i's assignment value. The argmax's value
is at most that sum, both summed in the same order, so that visit would
reject; a flag an accept sets again later in the sweep is visited.

Inputs are checked once, at the public entry points: the tensor when it
was built, a Solution on construction, and an index, tree walk or config
where it is passed in. A tree walk is a plain tuple of (i, j) pairs;
solve_alg2 merges along the walks max_spanning_tree and prim_order
return as they are, and mst_initialize checks any walk it is given.
Blocks are read from t.packed directly, transposed where i > j, not
through the index checks of t.block(). Every assignment solve inside, on
a block, a re-labelled block or a coefficient sum of the checked tensor,
runs the unchecked kernel assignment._lap_max. Lazy Kruskal's f_score
on the tensor's blocks still checks: it reads assignment.lap_max at call
time, and that is where perfbench's tracer counts graph-scoring solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import _assignment_value, _numbers
from .assignment import _lap_max as lap_max  # public name: perfbench's tracer wraps it
from .errors import ParameterError, ValidationError, _is_int
from .matchmodel import (
    SimilarityTensor,
    Solution,
    _check_compatible,
    _check_seed,
    _objective_perms,
)
from .spantree import build_align_graph, max_spanning_tree, prim_order

# minimum objective gain for a coordinate step to count as an improvement
IMPROVE_TOL = 1e-9

_ORDERS = ("prim", "kruskal")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the solvers.

    order: tree-edge order of solve_alg2's walk, the only reader of it.
      "prim" (the default) is the attachment order from vertex 0,
      "kruskal" the sorted acceptance order. Both walk the same tree, and
      solve_alg2, which runs ascent after every merge, tells them apart;
      solve_alg1 always walks Kruskal's acceptance order.
    max_sweeps: cap on the sweeps of one ascent loop: the global ascent,
      and each of solve_alg2's per-merge restricted ascents.
    seed: the random start of the "coord" solver, the only reader of it.
      Every rule on a seed is matchmodel._check_seed's.
    """

    order: str = "prim"
    max_sweeps: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.order not in _ORDERS:
            raise ParameterError(f"order must be one of {_ORDERS}, got {self.order!r}")
        if not _is_int(self.max_sweeps) or self.max_sweeps < 1:
            raise ParameterError(f"max_sweeps must be an integer >= 1, got {self.max_sweeps!r}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class SolveReport:
    """Solver outcome: solution, per-phase objective values, bookkeeping.

    objective_trace holds, for coordinate_ascent and solve_alg1, the
    objective after initialization and after each completed sweep, and
    for solve_alg2 the single final objective; it is non-decreasing, as
    an ascent accepts only a step that gains more than IMPROVE_TOL.
    """

    solution: Solution
    objective_trace: tuple
    sweeps_run: int
    converged: bool


def pairwise_alignment(t: SimilarityTensor) -> Solution:
    """Anchor at set 0 and solve each block (0, i) independently.

    A_0 is the identity and A_i the best assignment for T_0i, so every
    pairwise map is a composition through the anchor. Ignores all blocks
    not touching set 0.
    """
    # the first n - 1 stored blocks are (0, 1), ..., (0, n - 1)
    return Solution(np.array([np.arange(t.m)] + [lap_max(block) for block in t.packed[:t.n - 1]]))


def _rows_from(t, i, others, rows):
    """T_ij[rows, :] for each j in the sorted array others: (len(others), len(rows), m).

    Blocks with j < i are stored as T_ji, so their rows are its columns.
    """
    k = t.pair_index[i, others]
    split = np.searchsorted(others, i)
    return np.concatenate((t.packed[k[:split, None], :, rows], t.packed[k[split:, None], rows]))


def _coefficients(t, others, i, maps):
    """C_i, the sum of A_j T_ji = T_ji[maps[j], :] over the sorted array
    others, which lacks i. T_ji with j > i is stored as T_ij, so its rows
    are T_ij's columns."""
    k = t.pair_index[others, i]
    split = np.searchsorted(others, i)
    return (t.packed[k[:split, None], maps[others[:split]]].sum(axis=0)
            + t.packed[k[split:, None], :, maps[others[split:]]].sum(axis=0))


def _add_cross_terms(t, maps, cache, left, right):
    """Add to each C_i of two disjoint sorted index sets the terms of the other set."""
    small, big = (left, right) if len(left) <= len(right) else (right, left)
    for w in small:
        cache[w] += _coefficients(t, big, w, maps)
        cache[big] += _rows_from(t, w, big, maps[w])


def _best_response(c, current):
    """The assignment argmax map of c if it beats the map current by more
    than IMPROVE_TOL in objective (twice the assignment gain), else None."""
    best = lap_max(c)
    if 2.0 * (_assignment_value(c, best) - _assignment_value(c, current)) > IMPROVE_TOL:
        return best
    return None


def _bounds(c, maps):
    """(sum of row maxima, assignment value of the map) of each of a stack
    of coefficient matrices c, shape (k, m, m), and its k maps; each row
    sum adds in the order of _assignment_value's, bit for bit."""
    bound = c.max(axis=2).sum(axis=1)
    cur = c[np.arange(len(c))[:, None], np.arange(c.shape[1]), maps].sum(axis=1)
    return bound, cur


def _visit(t, maps, stale, i, group, cache):
    """One coordinate step of solve_alg2's walk on index i in place,
    skipped unless i is stale; True if it accepted. C_i is cache[i], and
    an accept adds its moved rows' change to every other C_i of group."""
    if not stale[i]:
        return False
    stale[i] = False
    new = _best_response(cache[i], maps[i])
    if new is None:
        return False
    others = group[group != i]
    moved = np.flatnonzero(new != maps[i])
    cache[others[:, None], moved] += (_rows_from(t, i, others, new[moved])
                                      - _rows_from(t, i, others, maps[i][moved]))
    stale[others] = True
    maps[i] = new
    return True


def coordinate_update(t: SimilarityTensor, s: Solution, i: int) -> tuple[np.ndarray, bool]:
    """Best-response update of A_i with all other permutations fixed.

    Returns (map, improved). The map, a fresh writable 1-D int64 array,
    is the assignment argmax of the coefficient matrix when that strictly
    improves the objective by more than IMPROVE_TOL, else a copy of the
    incumbent s.maps[i].
    """
    if not (_is_int(i) and 0 <= i < s.n):
        raise ParameterError(f"index {i!r} must be an integer in [0, {s.n})")
    _check_compatible(t, s)
    maps = s.maps
    best = _best_response(_coefficients(t, np.delete(np.arange(s.n), i), i, maps), maps[i])
    if best is None:
        return maps[i].copy(), False
    return best, True


def _ascend(t, maps, stale, group, max_sweeps, cache):
    """Sweep group while any of its indices is stale; (sweeps, converged).

    A sweep first clears the flags the row-max bound settles (see the
    module docstring), then visits each index of group once, in order.
    converged is False if max_sweeps sweeps leave an index stale.
    """
    sweeps = 0
    while stale[group].any():
        if sweeps == max_sweeps:
            return sweeps, False
        g = group[stale[group]]
        bound, cur = _bounds(cache[g], maps[g])
        stale[g[2.0 * (bound - cur) <= IMPROVE_TOL]] = False
        for i in group:
            _visit(t, maps, stale, i, group, cache)
        sweeps += 1
    return sweeps, True


def _sweep(maps, stale, rows, lower):
    """One sweep of the global ascent, every index in order, building each
    C_i from the block rows rows[i] and the accumulators lower as the
    module docstring describes; True if a visit accepted."""
    lower.fill(0.0)
    last = np.flatnonzero(stale)[-1]
    accepted = False
    for i, row in enumerate(rows):
        if i > last:
            break
        if stale[i]:
            stale[i] = False
            upper = row[np.arange(len(row))[:, None], :, maps[i + 1:]].sum(axis=0)
            new = _best_response(lower[i] + upper, maps[i])
            if new is not None:
                stale[:] = True
                stale[i] = False
                maps[i] = new
                accepted = True
                last = len(rows) - 1
        if i < last:
            lower[i + 1:] += np.take(row, maps[i], axis=1)
    return accepted


def coordinate_ascent(t: SimilarityTensor, s: Solution, cfg: SolverConfig) -> SolveReport:
    """Repeated coordinate updates until no single update improves.

    Every index starts stale, and the ascent sweeps until none is, so a
    converged report has every A_i at the assignment argmax of its C_i;
    converged is False if max_sweeps sweeps leave an index stale. The
    trace starts at the objective of the given initial solution.
    """
    _check_compatible(t, s)
    n = t.n
    maps = s.maps.copy()
    stale = np.ones(n, dtype=bool)
    ends = np.cumsum(np.arange(n - 1, -1, -1)).tolist()  # row i ends after pair (i, n - 1)
    rows = [t.packed[end - (n - 1 - i):end] for i, end in enumerate(ends)]
    lower = np.empty((n, t.m, t.m))
    trace = [_objective_perms(t, maps)]
    sweeps, converged = 0, True
    while stale.any():
        if sweeps == cfg.max_sweeps:
            converged = False
            break
        accepted = _sweep(maps, stale, rows, lower)
        sweeps += 1
        trace.append(_objective_perms(t, maps) if accepted else trace[-1])
    return SolveReport(
        solution=Solution(maps),
        objective_trace=tuple(trace),
        sweeps_run=sweeps,
        converged=converged,
    )


def _merge_edge(t, maps, label, u, v):
    """Solve one tree edge and re-label the moving side.

    label[x] is the smallest vertex of x's component. The component with
    the smaller one keeps its permutations (a fixed side); the block
    assignment argmax of A_a T_ab A_b^T is applied on the left of every
    permutation in b's component, making the edge's pairwise map
    single-block optimal while leaving all maps inside each component
    untouched. Returns (phat map, fixed-side members, moving-side
    members), both sorted. An edge inside one component raises
    ValidationError, so n - 1 edges that all merge span the n vertices.
    """
    if label[u] == label[v]:
        raise ValidationError(f"edge ({u}, {v}) closes a cycle")
    a, b = (u, v) if label[u] < label[v] else (v, u)
    block = t.packed[t.pair_index[a, b]]
    mat = (block if a < b else block.T)[np.ix_(maps[a], maps[b])]
    phat = lap_max(mat)
    fixed = np.flatnonzero(label == label[a])
    moving = np.flatnonzero(label == label[b])
    maps[moving] = maps[moving][:, phat]
    label[moving] = label[a]
    return phat, fixed, moving


def mst_initialize(t: SimilarityTensor, order) -> Solution:
    """Seed a solution by walking a spanning-tree edge order.

    Starts from all-identity permutations. After processing, every tree
    edge (i, j) satisfies A_i^T A_j = argmax_P tr(P^T T_ij). The order is
    any iterable of n - 1 (i, j) pairs of distinct vertices in [0, n), in
    either orientation, that spans all n vertices acyclically; the pairs
    are read as one array under the integer rule of
    assignment._numbers, and anything else raises ValidationError.
    """
    try:
        edges = tuple(order)
    except TypeError:
        raise ValidationError(f"edge order must be iterable, got {order!r}") from None
    walk = _numbers(edges or np.empty((0, 2), np.int64), "iu", "edge order")  # n = 1: no edges
    if walk.shape != (t.n - 1, 2):
        raise ValidationError(f"edge order has shape {walk.shape}, need {t.n - 1} two-vertex edges")
    if ((walk < 0) | (walk >= t.n)).any():
        raise ValidationError(f"edge order has a vertex out of range for n={t.n}")
    loops = walk[:, 0] == walk[:, 1]
    if loops.any():
        raise ValidationError(f"edge {tuple(walk[loops][0].tolist())} is a self-loop")
    maps = np.tile(np.arange(t.m, dtype=np.int64), (t.n, 1))
    label = np.arange(t.n)
    for u, v in walk.tolist():
        _merge_edge(t, maps, label, u, v)
    return Solution(maps)


def solve_alg1(t: SimilarityTensor, cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Tree-seeded global coordinate ascent.

    Builds the alignment graph, initializes along Kruskal's acceptance
    order of its maximum spanning tree (cfg.order is not read), then runs
    coordinate_ascent to convergence. The trace covers both phases:
    entry 0 is the objective right after initialization.
    """
    s0 = mst_initialize(t, max_spanning_tree(build_align_graph(t)))
    return coordinate_ascent(t, s0, cfg)


def solve_alg2(t: SimilarityTensor, cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Tree walk with coordinate ascent folded into every merge.

    Walks the maximum spanning tree in cfg.order: Prim's attachment order
    by default, or Kruskal's acceptance order, which is solve_alg1's.
    After each edge is solved and the components merged, coordinate
    ascent runs restricted to the merged component (coefficients sum over
    that component only) until none of its indices is stale, or for
    max_sweeps sweeps; converged is False if any merge stops at the cap.
    The last merge spans all n sets, so a converged report has every A_i
    at the assignment argmax of its global C_i, and the trace is the
    single final objective.
    """
    g = build_align_graph(t)
    order = prim_order(g) if cfg.order == "prim" else max_spanning_tree(g)
    maps = np.tile(np.arange(t.m, dtype=np.int64), (t.n, 1))
    cache = np.zeros((t.n, t.m, t.m), dtype=np.float64)
    stale = np.ones(t.n, dtype=bool)
    label = np.arange(t.n)
    converged = True
    for u, v in order:
        phat, fixed, moving = _merge_edge(t, maps, label, u, v)
        cache[moving] = cache[moving][:, phat]
        _add_cross_terms(t, maps, cache, fixed, moving)
        merged = np.sort(np.concatenate((fixed, moving)))
        stale[merged] = True
        _, settled = _ascend(t, maps, stale, merged, cfg.max_sweeps, cache=cache)
        converged = converged and settled
    return SolveReport(
        solution=Solution(maps),
        objective_trace=(_objective_perms(t, maps),),
        sweeps_run=0,
        converged=converged,
    )
