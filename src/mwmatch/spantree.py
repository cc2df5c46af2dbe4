"""Alignment graph and spanning-tree machinery.

The alignment graph over n sets weights each pair (i, j) by the best
single-block assignment score over the block's Frobenius norm,
f_score(T_ij) / ||T_ij||_F, and an all-zero block by 0. By Cauchy-Schwarz
the weight is at most sqrt(m), whatever the scale of the block. The raw
f_score is not used: the noise model does not clip, so an unclipped noisy
block's best assignment collects squared-noise energy, and its raw score
measures that energy rather than agreement. On the star layout with
eta 0.01/0.30 the raw score puts about 1 of the 59 clean edges into the
tree at n=60; the normalized weight puts all of them in.

Maximum spanning trees of that graph seed the solvers; the edge ORDER
matters downstream, so both orders here are deterministic:

  * edges compare by (larger weight, then smaller i, then smaller j);
  * Kruskal emits accepted edges in that sorted order;
  * Prim grows from vertex 0 and emits edges in attachment order.

That comparison is a strict total order on the edges, so the maximum
spanning tree under it is unique, ties in weight included. By the cut
property, the best edge crossing any cut lies in that tree. Prim's pick
at each step is the best edge crossing the cut around the grown part,
so it is the first edge of Kruskal's tree, in acceptance order, with
exactly one endpoint inside. prim_order reads its order off that tree.

Only n - 1 edges enter the tree, so build_align_graph does not solve
every block. It keys each pair by the sum of its block's column maxima
over the block's norm. A pair it does solve is scored on the transposed
block, as f_score(T_ij^T) = f_score(T_ji), the same real number as
f_score(T_ij). The sum is an upper bound on that float score:
assignment._assignment_value adds the terms T_ij[sigma(q), q] of the
transposed block's assignment in column order q = 0..m-1, each term is
at most column q's maximum, and the key adds the column maxima in the
same order by the same reduction, so by monotone rounding the float sum
is at least the float f_score, with no slack term. Both sums add float64
values: f_score upcasts the float32 block, and the key takes its maxima
from the slab upcast to float64, and the upcast is exact, so the two add
the same floats. (Row maxima bound
f_score(T_ij) the same way, but a maximum along the contiguous last axis
takes about twice as long.) Both are divided by the same stored float
norm (_block_norms, computed once per graph), and division by one
positive float is monotone too, so the float key is at least the float
weight; an all-zero block has key and weight 0. On such a graph
max_spanning_tree is a lazy Kruskal, taking entries in the order (larger
key, unsolved before solved at an equal key, smaller i, smaller j):

  * a pair whose endpoints are already in one component is dropped, and
    if it was never solved it never is;
  * an unsolved pair that comes first is solved with f_score and goes
    back in as solved, keyed by its exact weight, which is at most its
    key, so it comes back no earlier than where its key stood;
  * a solved pair that comes first joins the tree.

Every exact weight is thus taken in the (weight, i, j) order of the
eager algorithm, so the tree and its acceptance order are the same as if
every block had been solved; unsolved-first at an equal key keeps an
exact weight equal to another's from being passed over. A graph built
from exact weights, AlignGraph(n, weights), is the case where every pair
is solved; only build_align_graph makes a lazy graph.

Both orders are plain tuples of (i, j) pairs with i < j. A caller's own
walk is checked where it is used, by solver.mst_initialize.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from .assignment import _checked_reals, f_score
from .errors import DimensionError, ParameterError, ValidationError
from .matchmodel import EtaGraph, SimilarityTensor, _check_sizes


@dataclass(frozen=True, eq=False)
class AlignGraph:
    """Complete weighted graph over the n sets; weights[i, j] symmetric.

    AlignGraph(n, weights) is a graph of exact weights, and its blocks
    and norms are None. Only build_align_graph makes a lazy graph: it
    sets blocks to the tensor's packed blocks, in the lexicographic pair
    order of triu_indices, and norms to their Frobenius norms from
    _block_norms. The weight of each pair is then only an upper bound,
    the block's column-maxima sum over its norm, on f_score(block.T) /
    norm, which max_spanning_tree solves, over the same stored norm, if
    it needs to. n must be an integer >= 1
    (ParameterError). Instances compare and hash by identity.
    """

    n: int
    weights: np.ndarray
    blocks: np.ndarray | None = field(default=None, init=False)
    norms: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        _check_sizes(n=self.n)
        w = _checked_reals(self.weights, "weights").copy()
        if w.shape != (self.n, self.n):
            raise DimensionError(f"weights must be ({self.n}, {self.n}), got {w.shape}")
        if not np.array_equal(w, w.T):
            raise ValidationError("weights must be symmetric")
        np.fill_diagonal(w, 0.0)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


# blocks per slab of build_align_graph's pass: 256 blocks of 30 x 30
# floats are 1.8 MB in float64, within a 2 MB per-core L2, so the sums of
# squares read the upcast slab from cache after the maxima have read it
_SLAB = 256


def _block_norms(packed: np.ndarray, squares: np.ndarray | None = None) -> np.ndarray:
    """The Frobenius norm of each block of packed, the root of its sum of
    squares in float64.

    squares holds each block's sum of squares, from one einsum pass over
    packed upcast to float64 unless given; build_align_graph gives those
    of its slab pass, which are the same floats. A float32 entry's square
    in float64 is exact and lies between about 2e-90 and 1.2e77, so no
    sum of them overflows or goes subnormal, and the root is taken as it
    is. An all-zero block has norm 0.
    """
    if squares is None:
        wide = packed.astype(np.float64)
        squares = np.einsum("kij,kij->k", wide, wide)
    return np.sqrt(squares)


def build_align_graph(t: SimilarityTensor) -> AlignGraph:
    """The lazy alignment graph of t: each pair keyed by the sum of its
    block's column maxima over the block's norm (see the module docstring).

    One pass walks packed in slabs of _SLAB blocks, each upcast to
    float64 once, taking each block's column-maxima sum and its sum of
    squares while the slab is in cache. Each block's einsum sum is the
    same float as in _block_norms' one pass over the whole tensor.
    """
    packed = t.packed
    bounds = np.empty(len(packed))
    squares = np.empty(len(packed))
    for start in range(0, len(packed), _SLAB):
        slab = packed[start:start + _SLAB].astype(np.float64)
        slab.max(axis=1).sum(axis=1, out=bounds[start:start + _SLAB])
        np.einsum("kij,kij->k", slab, slab, out=squares[start:start + _SLAB])
    norms = _block_norms(packed, squares)
    norms.setflags(write=False)
    keys = np.divide(bounds, norms, out=np.zeros_like(norms), where=norms > 0.0)
    w = np.zeros((t.n, t.n), dtype=np.float64)
    # packed holds the i < j blocks in the lexicographic order of triu_indices
    i, j = np.triu_indices(t.n, 1)
    w[i, j] = w[j, i] = keys
    g = AlignGraph(n=t.n, weights=w)
    object.__setattr__(g, "blocks", packed)
    object.__setattr__(g, "norms", norms)
    return g


def max_spanning_tree(g: AlignGraph) -> tuple:
    """Kruskal's maximum spanning tree; edges in acceptance order.

    Entries (-key, solved, k) come off the pairs sorted once, merged with
    a heap of the pairs a lazy graph has solved on the way (see the module
    docstring). label[x] names x's component; an accepted edge gives j's
    component the label of i's.
    """
    first, second = np.triu_indices(g.n, 1)
    keys = g.weights[first, second]
    rank = np.argsort(-keys, kind="stable")
    # converted as the walk reaches them: lists of all n(n-1)/2 keys and
    # ranks raised a later peak RSS by about 1 MB at n=200
    sorted_entries = zip(map(float, -keys[rank]), itertools.repeat(g.blocks is None), map(int, rank))
    ahead = next(sorted_entries, None)
    heap = []
    first, second = first.tolist(), second.tolist()
    label = list(range(g.n))
    out = []
    while len(out) < g.n - 1:
        if heap and (ahead is None or heap[0] < ahead):
            _, solved, k = heapq.heappop(heap)
        else:
            _, solved, k = ahead
            ahead = next(sorted_entries, None)
        i, j = first[k], second[k]
        a, b = label[i], label[j]
        if a == b:
            continue
        if not solved:
            # f_score reads assignment.lap_max at call time, where perfbench's
            # tracer counts graph-scoring solves
            norm = float(g.norms[k])
            weight = f_score(g.blocks[k].T) / norm if norm else 0.0
            heapq.heappush(heap, (-weight, True, k))
            continue
        label = [a if x == b else x for x in label]
        out.append((i, j))
    return tuple(out)


def prim_order(g: AlignGraph) -> tuple:
    """Prim's maximum spanning tree grown from vertex 0.

    At every step the heaviest edge crossing the cut is attached; ties go
    to the smaller (i, j) pair. That edge is always the first remaining
    edge of Kruskal's tree with exactly one endpoint inside (see the
    module docstring), so the order is read off that tree.
    """
    edges = list(max_spanning_tree(g))
    inside = [True] + [False] * (g.n - 1)
    out = []
    while edges:
        k = next(k for k, (i, j) in enumerate(edges) if inside[i] != inside[j])
        i, j = edges.pop(k)
        inside[i] = inside[j] = True
        out.append((i, j))
    return tuple(out)


def min_bottleneck_weight(etas: EtaGraph) -> float:
    """Smallest possible maximum edge weight over spanning trees of an
    EtaGraph with n >= 2.

    Computed as the maximum edge of a minimum spanning tree, which
    attains the bottleneck optimum: the maximum spanning tree of the
    negated weights, whose heaviest-first order is lightest-first with
    the same (i, j) tie-break.
    """
    if not isinstance(etas, EtaGraph):
        raise ValidationError(f"etas must be an EtaGraph, got {type(etas).__name__}")
    if etas.n < 2:
        raise ParameterError("bottleneck needs at least two vertices")
    w = etas.eta
    tree = max_spanning_tree(AlignGraph(n=etas.n, weights=-w))
    return max(float(w[i, j]) for i, j in tree)
