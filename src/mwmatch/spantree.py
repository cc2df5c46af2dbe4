"""Alignment graph and spanning-tree machinery.

The alignment graph over n sets weights each pair (i, j) by the best
single-block assignment score f_score(T_ij). Maximum spanning trees of
that graph seed the solvers; the edge ORDER matters downstream, so both
producers here fix deterministic tie-breaks:

  * edges compare by (larger weight, then smaller i, then smaller j);
  * Kruskal emits accepted edges in that sorted order;
  * Prim grows from vertex 0 and emits edges in attachment order.

Edges are always reported as normalized (i, j) pairs with i < j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import f_score
from .errors import DimensionError, ParameterError, ValidationError
from .matchmodel import SimilarityTensor


@dataclass(frozen=True)
class AlignGraph:
    """Complete weighted graph over the n sets; weights[i, j] symmetric."""

    n: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        if w.shape != (self.n, self.n):
            raise DimensionError(f"weights must be ({self.n}, {self.n}), got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights contain non-finite entries")
        if not np.array_equal(w, w.T):
            raise ValidationError("weights must be symmetric")
        np.fill_diagonal(w, 0.0)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class EdgeOrder:
    """An ordered tuple of normalized (i, j) edges, i < j."""

    edges: tuple

    def __post_init__(self):
        norm = []
        for e in self.edges:
            i, j = int(e[0]), int(e[1])
            if i == j or i < 0 or j < 0:
                raise ValidationError(f"bad edge ({i}, {j})")
            norm.append((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", tuple(norm))

    def __len__(self) -> int:
        return len(self.edges)


class DisjointSets:
    """Union-find with path compression and union by rank."""

    def __init__(self, n: int):
        if n < 1:
            raise ParameterError("need at least one element")
        self._parent = list(range(n))
        self._rank = [0] * n
        self.n_components = n

    def find(self, x: int) -> int:
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the two components; False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        self.n_components -= 1
        return True


def build_align_graph(t: SimilarityTensor) -> AlignGraph:
    """Score every stored block with f_score and mirror into a graph."""
    w = np.zeros((t.n, t.n), dtype=np.float64)
    # packed holds the i < j blocks in the lexicographic order of triu_indices
    i, j = np.triu_indices(t.n, 1)
    w[i, j] = [f_score(block) for block in t.packed]
    w[j, i] = w[i, j]
    return AlignGraph(n=t.n, weights=w)


def _edges_by_weight(g: AlignGraph, descending: bool):
    sign = -1.0 if descending else 1.0
    edges = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    edges.sort(key=lambda e: (sign * g.weights[e[0], e[1]], e[0], e[1]))
    return edges


def max_spanning_tree(g: AlignGraph) -> EdgeOrder:
    """Kruskal's maximum spanning tree; edges in acceptance order."""
    dsu = DisjointSets(g.n)
    out = []
    for i, j in _edges_by_weight(g, descending=True):
        if dsu.union(i, j):
            out.append((i, j))
            if len(out) == g.n - 1:
                break
    return EdgeOrder(tuple(out))


def prim_order(g: AlignGraph) -> EdgeOrder:
    """Prim's maximum spanning tree grown from vertex 0.

    At every step the heaviest edge crossing the cut is attached; ties go
    to the smaller (i, j) pair. Every emitted edge has exactly one
    endpoint already connected. Each outside vertex keeps its best
    crossing edge under that order, so a step costs O(n).
    """
    n = g.n
    w = g.weights
    verts = np.arange(n)
    outside = verts > 0
    best_w = w[0].copy()  # weight of each vertex's best edge into the tree
    best_u = np.zeros(n, dtype=np.int64)  # its tree endpoint
    out = []
    for _ in range(n - 1):
        cand = np.flatnonzero(outside)
        lo = np.minimum(best_u[cand], cand)
        hi = np.maximum(best_u[cand], cand)
        k = np.lexsort((hi, lo, -best_w[cand]))[0]
        v = cand[k]
        outside[v] = False
        out.append((int(lo[k]), int(hi[k])))
        # does edge (v, x) beat x's incumbent (best_u[x], x)?
        new_lo, new_hi = np.minimum(v, verts), np.maximum(v, verts)
        old_lo, old_hi = np.minimum(best_u, verts), np.maximum(best_u, verts)
        better = outside & ((w[v] > best_w) | ((w[v] == best_w) & (
            (new_lo < old_lo) | ((new_lo == old_lo) & (new_hi < old_hi)))))
        best_w[better] = w[v][better]
        best_u[better] = v
    return EdgeOrder(tuple(out))


def min_bottleneck_weight(etas) -> float:
    """Smallest possible maximum edge weight over spanning trees.

    Computed as the maximum edge of a minimum spanning tree (Kruskal
    ascending with the mirrored tie-break), which attains the bottleneck
    optimum. Accepts an EtaGraph or a symmetric weight matrix; needs
    n >= 2.
    """
    w = np.array(getattr(etas, "eta", etas), dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DimensionError(f"weights must be square, got shape {w.shape}")
    n = w.shape[0]
    if n < 2:
        raise ParameterError("bottleneck needs at least two vertices")
    g = AlignGraph(n=n, weights=(w + w.T) / 2.0)
    dsu = DisjointSets(n)
    bottleneck = -np.inf
    taken = 0
    for i, j in _edges_by_weight(g, descending=False):
        if dsu.union(i, j):
            bottleneck = max(bottleneck, float(g.weights[i, j]))
            taken += 1
            if taken == n - 1:
                break
    return bottleneck
