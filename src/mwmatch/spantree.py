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
every block. It keys each pair by the sum of its block's row maxima over
the block's norm. The sum is an upper bound on f_score: each term
c[p, sigma(p)] of an assignment is at most row p's maximum, and the bound
adds the maxima in the same order as assignment._assignment_value adds
the terms, so by monotone rounding the float sum is at least the float
f_score. Both are divided by the same stored float norm (_block_norms,
computed once per graph), and division by one positive float is
monotone too, so the float key is at least the float weight; an all-zero
block has key and weight 0. On such a graph max_spanning_tree is a lazy
Kruskal, taking entries in the order (larger key, unsolved before solved
at an equal key, smaller i, smaller j):

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
from exact weights is the case where every pair is solved.

Edges are always reported as normalized (i, j) pairs with i < j.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .assignment import _checked_reals, f_score
from .errors import DimensionError, ParameterError, ValidationError, _is_int
from .matchmodel import SimilarityTensor

_SMALLEST_NORMAL = np.finfo(np.float64).tiny


@dataclass(frozen=True, eq=False)
class AlignGraph:
    """Complete weighted graph over the n sets; weights[i, j] symmetric.

    A graph of exact weights leaves blocks and norms as None. A lazy
    graph, as build_align_graph makes, also holds the tensor's packed
    blocks, in the lexicographic pair order of triu_indices, and their
    Frobenius norms from _block_norms. The weight of each pair is then
    only an upper bound on f_score(block) / norm, which max_spanning_tree
    solves, over the same stored norm, if it needs to. Instances compare
    and hash by identity.
    """

    n: int
    weights: np.ndarray
    blocks: np.ndarray | None = None
    norms: np.ndarray | None = None

    def __post_init__(self):
        w = _checked_reals(self.weights, "weights").copy()
        if w.shape != (self.n, self.n):
            raise DimensionError(f"weights must be ({self.n}, {self.n}), got {w.shape}")
        if not np.array_equal(w, w.T):
            raise ValidationError("weights must be symmetric")
        np.fill_diagonal(w, 0.0)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        pairs = self.n * (self.n - 1) // 2
        for name in ("blocks", "norms"):
            held = getattr(self, name)
            if held is not None and len(held) != pairs:
                raise DimensionError(f"{name} must hold {pairs} pairs for n={self.n}")
        if (self.blocks is None) != (self.norms is None):
            raise ValidationError("a lazy graph needs both blocks and their norms")


@dataclass(frozen=True)
class EdgeOrder:
    """An ordered tuple of normalized (i, j) edges, i < j."""

    edges: tuple

    def __post_init__(self):
        try:
            edges = iter(self.edges)
        except TypeError:
            raise ValidationError(f"edges must be iterable, got {self.edges!r}") from None
        norm = []
        for e in edges:
            try:
                i, j = e
            except (TypeError, ValueError):
                raise ValidationError(f"each edge must be two vertices, got {e!r}") from None
            if not (_is_int(i) and _is_int(j)):
                raise ValidationError(f"edge vertices must be integers, got {e!r}")
            i, j = int(i), int(j)
            if i == j or i < 0 or j < 0:
                raise ValidationError(f"bad edge ({i}, {j})")
            norm.append((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", tuple(norm))

    def __len__(self) -> int:
        return len(self.edges)


def _block_norms(packed: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each block of packed, finite for every
    tensor SimilarityTensor accepts.

    The squares are summed in one einsum pass. A block whose sum
    overflows (max|T| above about 1.3e154 / m) or falls below the
    smallest normal float is summed again, scaled by 2^-e with 2^e just
    above its largest |entry|, and its root scaled back by 2^e. Powers of
    two scale exactly, so while no subnormal is involved the norm of 2^k T
    is 2^k times the norm of T, on either path. An all-zero block has
    norm 0.
    """
    with np.errstate(over="ignore", under="ignore"):
        squares = np.einsum("kij,kij->k", packed, packed)
        norms = np.sqrt(squares)
        odd = np.flatnonzero(~np.isfinite(squares) | (squares < _SMALLEST_NORMAL))
        if odd.size:
            exp = np.frexp(np.abs(packed[odd]).max(axis=(1, 2)))[1]
            scaled = np.ldexp(packed[odd], -exp[:, None, None])
            norms[odd] = np.ldexp(np.sqrt(np.einsum("kij,kij->k", scaled, scaled)), exp)
    return norms


def build_align_graph(t: SimilarityTensor) -> AlignGraph:
    """The lazy alignment graph of t: each pair keyed by the sum of its
    block's row maxima over the block's norm (see the module docstring)."""
    norms = _block_norms(t.packed)
    norms.setflags(write=False)
    keys = np.divide(t.packed.max(axis=2).sum(axis=1), norms,
                     out=np.zeros_like(norms), where=norms > 0.0)
    w = np.zeros((t.n, t.n), dtype=np.float64)
    # packed holds the i < j blocks in the lexicographic order of triu_indices
    i, j = np.triu_indices(t.n, 1)
    w[i, j] = w[j, i] = keys
    return AlignGraph(n=t.n, weights=w, blocks=t.packed, norms=norms)


def max_spanning_tree(g: AlignGraph) -> EdgeOrder:
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
            norm = float(g.norms[k])
            weight = f_score(g.blocks[k]) / norm if norm else 0.0
            heapq.heappush(heap, (-weight, True, k))
            continue
        label = [a if x == b else x for x in label]
        out.append((i, j))
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
    w = _checked_reals(getattr(etas, "eta", etas), "etas")
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DimensionError(f"weights must be square, got shape {w.shape}")
    n = w.shape[0]
    if n < 2:
        raise ParameterError("bottleneck needs at least two vertices")
    tree = max_spanning_tree(AlignGraph(n=n, weights=-w))
    return max(float(w[i, j]) for i, j in tree.edges)
