"""Alignment graph and spanning-tree machinery.

The alignment graph over n sets weights each pair (i, j) by the best
single-block assignment score f_score(T_ij). Maximum spanning trees of
that graph seed the solvers; the edge ORDER matters downstream, so both
orders here are deterministic:

  * edges compare by (larger weight, then smaller i, then smaller j);
  * Kruskal emits accepted edges in that sorted order;
  * Prim grows from vertex 0 and emits edges in attachment order.

That comparison is a strict total order on the edges, so the maximum
spanning tree under it is unique, ties in weight included. By the cut
property, the best edge crossing any cut lies in that tree. Prim's pick
at each step is the best edge crossing the cut around the grown part,
so it is the first edge of Kruskal's tree, in acceptance order, with
exactly one endpoint inside. prim_order reads its order off that tree.

Edges are always reported as normalized (i, j) pairs with i < j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import f_score
from .errors import DimensionError, ParameterError, ValidationError, _is_int
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
            if not (_is_int(e[0]) and _is_int(e[1])):
                raise ValidationError(f"edge vertices must be integers, got {e!r}")
            i, j = int(e[0]), int(e[1])
            if i == j or i < 0 or j < 0:
                raise ValidationError(f"bad edge ({i}, {j})")
            norm.append((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", tuple(norm))

    def __len__(self) -> int:
        return len(self.edges)


def build_align_graph(t: SimilarityTensor) -> AlignGraph:
    """Score every stored block with f_score and mirror into a graph."""
    w = np.zeros((t.n, t.n), dtype=np.float64)
    # packed holds the i < j blocks in the lexicographic order of triu_indices
    i, j = np.triu_indices(t.n, 1)
    w[i, j] = [f_score(block) for block in t.packed]
    w[j, i] = w[i, j]
    return AlignGraph(n=t.n, weights=w)


def max_spanning_tree(g: AlignGraph) -> EdgeOrder:
    """Kruskal's maximum spanning tree; edges in acceptance order.

    label[x] names x's component; an accepted edge gives j's component
    the label of i's.
    """
    first, second = np.triu_indices(g.n, 1)
    rank = np.lexsort((second, first, -g.weights[first, second]))
    label = list(range(g.n))
    out = []
    for i, j in zip(first[rank].tolist(), second[rank].tolist()):
        a, b = label[i], label[j]
        if a != b:
            label = [a if x == b else x for x in label]
            out.append((i, j))
            if len(out) == g.n - 1:
                break
    return EdgeOrder(tuple(out))


def prim_order(g: AlignGraph) -> EdgeOrder:
    """Prim's maximum spanning tree grown from vertex 0.

    At every step the heaviest edge crossing the cut is attached; ties go
    to the smaller (i, j) pair. That edge is always the first remaining
    edge of Kruskal's tree with exactly one endpoint inside (see the
    module docstring), so the order is read off that tree.
    """
    edges = list(max_spanning_tree(g).edges)
    inside = [True] + [False] * (g.n - 1)
    out = []
    while edges:
        k = next(k for k, (i, j) in enumerate(edges) if inside[i] != inside[j])
        i, j = edges.pop(k)
        inside[i] = inside[j] = True
        out.append((i, j))
    return EdgeOrder(tuple(out))


def min_bottleneck_weight(etas) -> float:
    """Smallest possible maximum edge weight over spanning trees.

    Computed as the maximum edge of a minimum spanning tree, which
    attains the bottleneck optimum: the maximum spanning tree of the
    negated weights, whose heaviest-first order is lightest-first with
    the same (i, j) tie-break. Accepts an EtaGraph or a symmetric weight
    matrix; needs n >= 2.
    """
    w = np.array(getattr(etas, "eta", etas), dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DimensionError(f"weights must be square, got shape {w.shape}")
    n = w.shape[0]
    if n < 2:
        raise ParameterError("bottleneck needs at least two vertices")
    w = (w + w.T) / 2.0
    tree = max_spanning_tree(AlignGraph(n=n, weights=-w))
    return max(float(w[i, j]) for i, j in tree.edges)
