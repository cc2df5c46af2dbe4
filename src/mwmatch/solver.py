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
  * mst_initialize: walk a spanning-tree edge order, solving one block
    per edge and re-labeling the smaller component so every tree edge's
    pairwise map is single-block optimal.
  * solve_alg1: tree initialization, then global coordinate ascent.
  * solve_alg2: tree initialization interleaved with coordinate ascent
    restricted to the merged component after every edge; no outer ascent
    afterwards unless final_polish is set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import Perm, lap_max, _assignment_value
from .errors import ParameterError, ValidationError
from .matchmodel import SimilarityTensor, Solution, _check_compatible, _objective_perms
from .spantree import (
    AlignGraph,
    DisjointSets,
    EdgeOrder,
    build_align_graph,
    max_spanning_tree,
    prim_order,
)

# minimum objective gain for a coordinate step to count as an improvement
IMPROVE_TOL = 1e-9

_ORDERS = ("prim", "kruskal")
_SCHEDULES = ("sweep", "random")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the solvers.

    order: tree-edge order for the initialization walk. "kruskal" is the
      sorted acceptance order, "prim" the attachment order from vertex 0.
      With distinct edge weights and unique block optima both walk the
      same tree to the same initialization, so only solve_alg2, which
      runs ascent after every merge, tells them apart.
    schedule: "sweep" visits indices round-robin; "random" draws n seeded
      uniform picks per sweep.
    max_sweeps: cap on the sweeps of one ascent loop: the global ascent,
      and each of solve_alg2's per-merge restricted ascents.
    seed: drives the random schedule only; solvers are deterministic
      given the config.
    final_polish: run a global ascent after solve_alg2's merge phase.
    """

    order: str = "kruskal"
    schedule: str = "sweep"
    max_sweeps: int = 1000
    seed: int = 0
    final_polish: bool = False

    def __post_init__(self):
        if self.order not in _ORDERS:
            raise ParameterError(f"order must be one of {_ORDERS}, got {self.order!r}")
        if self.schedule not in _SCHEDULES:
            raise ParameterError(f"schedule must be one of {_SCHEDULES}, got {self.schedule!r}")
        if self.max_sweeps < 1:
            raise ParameterError("max_sweeps must be at least 1")


@dataclass(frozen=True)
class SolveReport:
    """Solver outcome: solution, per-phase objective values, bookkeeping.

    objective_trace holds the objective after initialization and after
    each completed sweep; it is non-decreasing by construction and that
    is re-checked here on every instantiation.
    """

    solution: Solution
    objective_trace: tuple
    sweeps_run: int
    converged: bool

    def __post_init__(self):
        trace = tuple(float(v) for v in self.objective_trace)
        if len(trace) < 1:
            raise ValidationError("objective_trace cannot be empty")
        for a, b in zip(trace, trace[1:]):
            if b < a - IMPROVE_TOL:
                raise ValidationError(f"objective_trace decreased: {a} -> {b}")
        if self.sweeps_run < 0:
            raise ValidationError("sweeps_run cannot be negative")
        object.__setattr__(self, "objective_trace", trace)


def pairwise_alignment(t: SimilarityTensor) -> Solution:
    """Anchor at set 0 and solve each block (0, i) independently.

    A_0 is the identity and A_i the best assignment for T_0i, so every
    pairwise map is a composition through the anchor. Ignores all blocks
    not touching set 0.
    """
    perms = [Perm.identity(t.m)]
    for i in range(1, t.n):
        perms.append(lap_max(t.block(0, i)).perm)
    return Solution(tuple(perms))


def _coefficient(t, maps, i, group):
    """sum over j in group, j != i, of A_j T_ji: the gradient in A_i."""
    c = np.zeros((t.m, t.m), dtype=np.float64)
    for j in group:
        if j == i:
            continue
        c += t.block(j, i)[maps[j], :]
    return c


def _update_index(t, maps, i, group):
    """One coordinate step on index i in place; True if accepted."""
    c = _coefficient(t, maps, i, group)
    res = lap_max(c)
    cur = _assignment_value(c, maps[i])
    if 2.0 * (res.value - cur) > IMPROVE_TOL:
        maps[i] = res.perm.map
        return True
    return False


def coordinate_update(t: SimilarityTensor, s: Solution, i: int) -> tuple[Perm, bool]:
    """Best-response update of A_i with all other permutations fixed.

    Returns (perm, improved). The permutation is the assignment argmax of
    the coefficient matrix when that strictly improves the objective by
    more than IMPROVE_TOL, else the incumbent A_i unchanged.
    """
    if not (0 <= i < s.n):
        raise ParameterError(f"index {i} out of range for n={s.n}")
    _check_compatible(t, s)
    maps = [p.map for p in s.perms]
    improved = _update_index(t, maps, i, range(s.n))
    return (Perm(maps[i]) if improved else s.perms[i], improved)


def _sweep_indices(group, schedule, rng):
    if schedule == "sweep":
        return list(group)
    picks = rng.integers(0, len(group), size=len(group))
    seq = list(group)
    return [seq[k] for k in picks]


def _sweep(t, maps, group, schedule, rng) -> bool:
    """One pass of coordinate steps over group; True if any was accepted."""
    any_accepted = False
    for i in _sweep_indices(group, schedule, rng):
        if _update_index(t, maps, i, group):
            any_accepted = True
    return any_accepted


def coordinate_ascent(t: SimilarityTensor, s: Solution, cfg: SolverConfig) -> SolveReport:
    """Repeated coordinate updates until an improvement-free sweep.

    One sweep touches n indices (round-robin or seeded uniform picks).
    Terminates when a full sweep accepts nothing, or at max_sweeps.
    The trace starts at the objective of the given initial solution.
    """
    _check_compatible(t, s)
    maps = [p.map for p in s.perms]
    group = range(t.n)
    rng = np.random.default_rng(cfg.seed)
    trace = [_objective_perms(t, maps)]
    sweeps = 0
    converged = False
    while sweeps < cfg.max_sweeps:
        any_accepted = _sweep(t, maps, group, cfg.schedule, rng)
        sweeps += 1
        trace.append(_objective_perms(t, maps))
        if not any_accepted:
            converged = True
            break
    return SolveReport(
        solution=Solution(tuple(Perm(mp) for mp in maps)),
        objective_trace=tuple(trace),
        sweeps_run=sweeps,
        converged=converged,
    )


class _Components:
    """Union-find plus explicit member lists and per-component minima."""

    def __init__(self, n):
        self.dsu = DisjointSets(n)
        self.members = {i: [i] for i in range(n)}
        self.min_vertex = {i: i for i in range(n)}

    def split_sides(self, u, v):
        """(fixed_endpoint, moving_endpoint): the component holding the
        smaller minimum vertex keeps its permutations."""
        ru, rv = self.dsu.find(u), self.dsu.find(v)
        if ru == rv:
            raise ValidationError(f"edge ({u}, {v}) closes a cycle")
        if self.min_vertex[ru] < self.min_vertex[rv]:
            return u, v
        return v, u

    def moving_members(self, endpoint):
        return self.members[self.dsu.find(endpoint)]

    def merge(self, u, v):
        ru, rv = self.dsu.find(u), self.dsu.find(v)
        self.dsu.union(u, v)
        root = self.dsu.find(u)
        other = rv if root == ru else ru
        self.members[root].extend(self.members.pop(other))
        self.min_vertex[root] = min(self.min_vertex[root], self.min_vertex.pop(other))
        return self.members[root]


def _validate_spanning(order: EdgeOrder, n: int) -> None:
    if len(order) != n - 1:
        raise ValidationError(f"edge order has {len(order)} edges, need {n - 1} for n={n}")
    dsu = DisjointSets(n)
    for i, j in order.edges:
        if i >= n or j >= n:
            raise ValidationError(f"edge ({i}, {j}) out of range for n={n}")
        if not dsu.union(i, j):
            raise ValidationError(f"edge ({i}, {j}) closes a cycle")
    if dsu.n_components != 1:
        raise ValidationError("edge order does not span all vertices")


def _merge_edge(t, maps, comp, u, v):
    """Solve one tree edge and re-label the moving side.

    The block assignment argmax of A_a T_ab A_b^T (a fixed side, b moving
    side) is applied on the left of every permutation in b's component,
    making the edge's pairwise map single-block optimal while leaving all
    maps inside each component untouched. Returns the merged member list.
    """
    a, b = comp.split_sides(u, v)
    mat = t.block(a, b)[np.ix_(maps[a], maps[b])]
    phat = lap_max(mat).perm
    for w in comp.moving_members(b):
        maps[w] = maps[w][phat.map]
    return comp.merge(u, v)


def mst_initialize(t: SimilarityTensor, order: EdgeOrder) -> Solution:
    """Seed a solution by walking a spanning-tree edge order.

    Starts from all-identity permutations. After processing, every tree
    edge (i, j) satisfies A_i^T A_j = argmax_P tr(P^T T_ij). The order
    must span all n vertices acyclically.
    """
    _validate_spanning(order, t.n)
    maps = [Perm.identity(t.m).map for _ in range(t.n)]
    comp = _Components(t.n)
    for u, v in order.edges:
        _merge_edge(t, maps, comp, u, v)
    return Solution(tuple(Perm(mp) for mp in maps))


def _edge_order(g: AlignGraph, order: str) -> EdgeOrder:
    return prim_order(g) if order == "prim" else max_spanning_tree(g)


def solve_alg1(t: SimilarityTensor, cfg: SolverConfig = SolverConfig()) -> SolveReport:
    """Tree-seeded global coordinate ascent.

    Builds the alignment graph, initializes along the spanning-tree edge
    order chosen by cfg.order, then runs coordinate_ascent to
    convergence. The trace covers both phases: entry 0 is the objective
    right after initialization.
    """
    g = build_align_graph(t)
    s0 = mst_initialize(t, _edge_order(g, cfg.order))
    return coordinate_ascent(t, s0, cfg)


def solve_alg2(t: SimilarityTensor, cfg: SolverConfig = SolverConfig(order="prim")) -> SolveReport:
    """Tree walk with coordinate ascent folded into every merge.

    After each edge is solved and the components merged, coordinate
    ascent runs restricted to the merged component (coefficients sum over
    that component only) until an improvement-free pass or max_sweeps;
    converged is False if any merge stops at the cap. There is no outer
    ascent phase afterwards, so the trace is the single final objective,
    unless final_polish appends a global ascent.
    """
    g = build_align_graph(t)
    order = _edge_order(g, cfg.order)
    _validate_spanning(order, t.n)
    maps = [Perm.identity(t.m).map for _ in range(t.n)]
    comp = _Components(t.n)
    rng = np.random.default_rng(cfg.seed)
    converged = True
    for u, v in order.edges:
        merged = sorted(_merge_edge(t, maps, comp, u, v))
        for _ in range(cfg.max_sweeps):
            if not _sweep(t, maps, merged, cfg.schedule, rng):
                break
        else:
            converged = False
    solution = Solution(tuple(Perm(mp) for mp in maps))
    trace = [_objective_perms(t, maps)]
    sweeps = 0
    if cfg.final_polish:
        polish = coordinate_ascent(t, solution, cfg)
        solution = polish.solution
        trace.extend(polish.objective_trace[1:])
        sweeps = polish.sweeps_run
        converged = converged and polish.converged
    return SolveReport(
        solution=solution,
        objective_trace=tuple(trace),
        sweeps_run=sweeps,
        converged=converged,
    )
