import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwmatch import EtaTopology, make_instance, spantree
from mwmatch.assignment import _assignment_value, f_score
from mwmatch.errors import DimensionError, ParameterError, ValidationError
from mwmatch.matchmodel import EtaGraph, SimilarityTensor
from mwmatch.solver import mst_initialize
from mwmatch.spantree import (
    AlignGraph,
    _block_norms,
    build_align_graph,
    max_spanning_tree,
    min_bottleneck_weight,
    prim_order,
)

import util


def graph_from_upper(n, entries):
    w = np.zeros((n, n))
    for (i, j), v in entries.items():
        w[i, j] = v
        w[j, i] = v
    return AlignGraph(n=n, weights=w)


def tree_total(g, edges):
    return sum(g.weights[i, j] for i, j in edges)


def star_tensor(n, m, seed):
    return make_instance(n, m, EtaTopology(kind="star", eta_tree=0.01, eta_off=0.30), seed)[2]


def lazy_graph(t, exact):
    """t's lazy graph with the pairs flagged in exact keyed by their
    weight, which is a bound too, so that unsolved keys tie with exact
    weights. It is set up as build_align_graph sets up its own graph."""
    built = build_align_graph(t)
    w = np.array(built.weights)
    i, j = np.triu_indices(t.n, 1)
    i, j = i[exact], j[exact]
    w[i, j] = w[j, i] = util.align_graph_reference(t).weights[i, j]
    g = AlignGraph(n=t.n, weights=w)
    object.__setattr__(g, "blocks", t.packed)
    object.__setattr__(g, "norms", built.norms)
    return g


class TestAlignGraph:
    def test_rejects_asymmetric(self):
        w = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError):
            AlignGraph(n=2, weights=w)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            AlignGraph(n=3, weights=np.zeros((2, 2)))

    @pytest.mark.parametrize("n,w", [
        (2.0, [[0, 1], [1, 0]]),
        (np.float64(2.0), [[0, 1], [1, 0]]),
        (True, [[0]]),
    ], ids=["float", "numpy-float", "bool"])
    def test_refuses_a_size_that_is_not_an_integer(self, n, w):
        with pytest.raises(ParameterError):
            AlignGraph(n=n, weights=w)

    def test_diagonal_zeroed(self):
        g = AlignGraph(n=2, weights=np.array([[5.0, 1.0], [1.0, 5.0]]))
        assert g.weights[0, 0] == 0.0

    def test_weights_read_only(self):
        g = graph_from_upper(2, {(0, 1): 1.0})
        with pytest.raises(ValueError):
            g.weights[0, 1] = 3.0

    def test_only_build_align_graph_makes_a_lazy_graph(self):
        t = util.uniform_tensor(3, 2, seed=90)
        for held in ({"blocks": t.packed, "norms": np.ones(3)},
                     {"blocks": t.packed}, {"norms": np.ones(3)}):
            with pytest.raises(TypeError):
                AlignGraph(n=3, weights=np.ones((3, 3)), **held)
        eager = AlignGraph(n=3, weights=np.ones((3, 3)))
        assert eager.blocks is None and eager.norms is None
        g = build_align_graph(t)
        assert g.blocks is t.packed
        assert np.array_equal(g.norms, _block_norms(t.packed))
        with pytest.raises(ValueError):
            g.norms[0] = 1.0
        for name in ("blocks", "norms"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, name, None)


class TestEdgeOrder:
    """A tree walk is a plain tuple of (i, j) pairs; its one check is
    mst_initialize's, where the walk is used."""

    TENSOR = util.noisy_instance(4, 3, eta=0.25, seed=101)[1]

    def test_normalizes(self):
        # numpy integer vertices walk the same tree as the plain ints of
        # max_spanning_tree's tuple, whose pairs all have i < j
        order = max_spanning_tree(build_align_graph(self.TENSOR))
        assert all(type(v) is int for e in order for v in e) and all(i < j for i, j in order)
        walk = tuple((np.int64(i), np.int32(j)) for i, j in order)
        assert np.array_equal(mst_initialize(self.TENSOR, walk).maps,
                              mst_initialize(self.TENSOR, order).maps)

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError, match="self-loop"):
            mst_initialize(self.TENSOR, ((0, 1), (1, 2), (3, 3)))

    def test_rejects_negative_vertex(self):
        with pytest.raises(ValidationError, match="out of range"):
            mst_initialize(self.TENSOR, ((0, 1), (1, 2), (-1, 3)))

    @pytest.mark.parametrize("edge", [(0.9, 1.5), (True, 2), (0, 2.0), (np.bool_(False), 1)])
    def test_rejects_non_integer_vertex(self, edge):
        with pytest.raises(ValidationError, match="integers"):
            mst_initialize(self.TENSOR, ((1, 3), (2, 3), edge))

    @pytest.mark.parametrize("edge", [(0, 1, 2), (0,), 5], ids=["three", "one", "scalar"])
    def test_rejects_edge_that_is_not_two_vertices(self, edge):
        # a ragged walk is not an array; one of uniform length is, and has
        # the wrong shape
        with pytest.raises(ValidationError, match="rectangular array"):
            mst_initialize(self.TENSOR, ((1, 3), (2, 3), edge))
        with pytest.raises(ValidationError, match="two-vertex"):
            mst_initialize(self.TENSOR, (edge,) * 3)

    @pytest.mark.parametrize("edges", [5, None], ids=["int", "none"])
    def test_rejects_edges_that_are_not_iterable(self, edges):
        with pytest.raises(ValidationError, match="iterable"):
            mst_initialize(self.TENSOR, edges)


class TestBuildAlignGraph:
    def test_noiseless_weights_all_m(self):
        # permutation blocks: the column-max bound is the weight itself, and
        # f = m over a norm of sqrt(m) is the Cauchy-Schwarz maximum sqrt(m)
        _, tensor = util.noiseless_instance(5, 4, seed=91)
        off = ~np.eye(5, dtype=bool)
        for g in (build_align_graph(tensor), util.align_graph_reference(tensor)):
            assert np.all(g.weights[off] == 2.0)
            assert np.all(np.diag(g.weights) == 0.0)

    def test_weights_match_brute_assignment(self):
        _, tensor = util.noisy_instance(4, 4, eta=0.2, seed=92)
        g = util.align_graph_reference(tensor)
        norms = _block_norms(tensor.packed)
        for k, (i, j) in enumerate(tensor.pairs()):
            assert g.weights[i, j] == util.lap_brute(tensor.block(j, i))[1] / norms[k]
            assert g.weights[j, i] == g.weights[i, j]

    def test_two_sets(self):
        _, tensor = util.noisy_instance(2, 3, eta=0.1, seed=93)
        g = util.align_graph_reference(tensor)
        assert g.weights[0, 1] == util.lap_brute(tensor.block(1, 0))[1] / _block_norms(tensor.packed)[0]

    def test_weight_is_scale_free_and_at_most_sqrt_m(self):
        t = util.uniform_tensor(6, 5, seed=98)
        g = util.align_graph_reference(t)
        # the scaled tensor is rounded to float32, 2^-24 relative per entry
        scaled = util.align_graph_reference(SimilarityTensor(6, t.packed * 3.0))
        np.testing.assert_allclose(scaled.weights, g.weights, rtol=1e-6)
        assert np.all(g.weights <= np.sqrt(5.0))
        assert np.all(build_align_graph(t).weights >= g.weights)

    def test_zero_block_weighs_zero(self):
        packed = util.uniform_tensor(3, 2, seed=99).packed.copy()
        packed[1] = 0.0
        t = SimilarityTensor(3, packed)
        for g in (build_align_graph(t), util.align_graph_reference(t)):
            assert g.weights[0, 2] == 0.0 and g.weights[0, 1] > 0.0

    def test_all_zero_blocks_give_the_tie_break_tree(self):
        t = SimilarityTensor(5, np.zeros((10, 3, 3)))
        g = build_align_graph(t)
        assert np.all(g.weights == 0.0)
        star = ((0, 1), (0, 2), (0, 3), (0, 4))
        assert max_spanning_tree(g) == prim_order(g) == star
        oracle = util.align_graph_reference(t)
        assert max_spanning_tree(g) == util.max_spanning_tree_reference(oracle)

    def test_scoring_calls_lap_max_through_its_module(self, monkeypatch):
        # perfbench counts graph-scoring LAPs by wrapping mwmatch.assignment.lap_max,
        # which f_score must read from its module at call time; the lazy
        # Kruskal solves each pair at most once, and on this cell only the
        # n - 1 tree blocks
        import mwmatch.assignment
        tensor = star_tensor(60, 20, seed=0)
        base, stride = tensor.packed.ctypes.data, tensor.packed.strides[0]
        solved = []
        real = mwmatch.assignment.lap_max

        def counted(c):
            solved.append((c.ctypes.data - base) // stride)
            return real(c)

        monkeypatch.setattr(mwmatch.assignment, "lap_max", counted)
        max_spanning_tree(build_align_graph(tensor))
        assert len(set(solved)) == len(solved) < len(tensor.packed)
        assert len(solved) == 59


class TestBlockNorms:
    def test_matches_linalg_norm(self):
        rng = np.random.default_rng(100)
        for packed in (util.uniform_tensor(5, 7, seed=101).packed,
                       SimilarityTensor(5, _spread_blocks(rng, (10, 7, 7))).packed):
            want = np.linalg.norm(packed.astype(np.float64), axis=(1, 2))
            np.testing.assert_allclose(_block_norms(packed), want, rtol=1e-14)

    @pytest.mark.parametrize("where", ["near_value_limit", "below_smallest_normal_square"])
    def test_power_of_two_scaling_keeps_graph_and_tree(self, where):
        # scaling by 2^k is exact, so keys, weights and both orders must
        # come out bit-identical, although sums of squares in float32
        # overflow (or underflow) at the scaled size: they are float64
        n, m = 8, 5
        t = star_tensor(n, m, seed=3)
        top = float(np.abs(t.packed).max())
        target = util.LARGEST_ENTRY if where == "near_value_limit" else 1e-30
        k = int(np.floor(np.log2(target / top)))
        big = SimilarityTensor(n, np.ldexp(t.packed, k))
        assert target / 2 < np.abs(big.packed).max() <= target
        with np.errstate(over="ignore", under="ignore"):
            squares = np.einsum("kij,kij->k", big.packed, big.packed)
        assert squares.dtype == np.float32
        assert np.all(np.isinf(squares) | (squares < np.finfo(np.float32).tiny))
        g, gk = build_align_graph(t), build_align_graph(big)
        assert np.array_equal(gk.norms, np.ldexp(g.norms, k))
        assert np.array_equal(gk.weights, g.weights)
        assert np.array_equal(util.align_graph_reference(big).weights,
                              util.align_graph_reference(t).weights)
        assert max_spanning_tree(gk) == max_spanning_tree(g)
        assert prim_order(gk) == prim_order(g)

    @pytest.mark.parametrize("entry", [util.LARGEST_ENTRY, 1e-45], ids=["largest", "subnormal"])
    def test_keys_and_weights_finite_at_the_extremes(self, entry):
        rng = np.random.default_rng(102)
        packed = rng.choice([-entry, 0.0, entry], size=(6, 3, 3))
        packed[0] = 0.0
        packed[1] = np.eye(3) * entry
        t = SimilarityTensor(4, packed)
        g, oracle = build_align_graph(t), util.align_graph_reference(t)
        assert np.all(np.isfinite(g.norms)) and np.all(g.norms[1:] > 0.0)
        assert np.all(np.isfinite(g.weights)) and np.all(np.isfinite(oracle.weights))
        # a scaled permutation block: weight sqrt(3), up to the rounding of
        # its norm, which is a normal float64 for float32's smallest subnormal too
        assert oracle.weights[0, 2] == pytest.approx(np.sqrt(3.0), rel=1e-15)
        assert max_spanning_tree(g) == util.max_spanning_tree_reference(oracle)


# entries of widely spread magnitudes, so rounding in the sums matters
def _spread_blocks(rng, shape):
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, size=shape)


def _tie_blocks(rng, shape):
    return rng.integers(-2, 3, size=shape).astype(float)


def _rounding_edge_blocks(rng, shape):
    # float32 neighbours of 1 and of 2^24, where a float32 sum of a column
    # would round and the float64 sum does not
    ulps = rng.integers(-3, 4, size=shape)
    base = np.where(rng.random(shape) < 0.2, np.float32(2.0 ** 24), np.float32(1.0))
    return base + ulps * np.spacing(base)


def _permutation_blocks(rng, shape):
    pairs, m, _ = shape
    out = np.zeros(shape)
    for k in range(pairs):
        out[k] = util.perm_matrix(rng.permutation(m)) * rng.uniform(0.1, 10.0)
    return out


class TestColumnMaxBound:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([_spread_blocks, _tie_blocks, _rounding_edge_blocks, _permutation_blocks]),
           st.integers(2, 5), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_bound_is_at_least_the_score(self, kind, n, m, seed):
        rng = np.random.default_rng(seed)
        tensor = SimilarityTensor(n, kind(rng, (n * (n - 1) // 2, m, m)))
        self.check_bound(tensor, exact=kind is _permutation_blocks)

    def test_bound_across_slabs_with_rescaled_norms(self):
        # n = 24 has 276 blocks, two slabs; the blocks scaled far down and
        # up sit on both sides of the slab boundary, where sums of their
        # squares in float32 would overflow or underflow, so the float64
        # sums of both slabs meet in _block_norms
        n, m = 24, 6
        assert n * (n - 1) // 2 > spantree._SLAB
        rng = np.random.default_rng(103)
        packed = _spread_blocks(rng, (n * (n - 1) // 2, m, m))
        edge = spantree._SLAB
        for k, e in ((edge - 2, -100), (edge - 1, 100), (edge, -100), (edge + 1, 100)):
            packed[k] = np.ldexp(packed[k], e)
        tensor = SimilarityTensor(n, packed)
        with np.errstate(over="ignore", under="ignore"):
            squares = np.einsum("kij,kij->k", tensor.packed, tensor.packed)
        odd = ~np.isfinite(squares) | (squares < np.finfo(np.float32).tiny)
        assert odd[edge - 2:edge + 2].all() and odd.sum() == 4
        self.check_bound(tensor)

    @staticmethod
    def check_bound(tensor, exact=False):
        m = tensor.m
        g = build_align_graph(tensor)
        assert g.blocks is tensor.packed
        # the slab pass gives the norms of the whole-tensor pass bit for bit
        assert np.array_equal(g.norms, _block_norms(tensor.packed))
        oracle = util.align_graph_reference(tensor)
        for k, (i, j) in enumerate(tensor.pairs()):
            block, norm = tensor.packed[k], g.norms[k]
            bound, weight = g.weights[i, j], oracle.weights[i, j]
            assert bound >= weight  # no tolerance
            if norm == 0.0:  # an all-zero block
                assert bound == weight == 0.0
                continue
            assert weight == f_score(block.T) / norm
            # the column maxima are added in _assignment_value's order on
            # the transposed block, then divided by the same stored norm
            colmax = np.repeat(block.max(axis=0).astype(np.float64)[:, None], m, axis=1)
            assert bound == _assignment_value(colmax, np.arange(m)) / norm
            if exact:
                assert bound == weight
        # the lazy Kruskal over the keys walks the eager tree of the weights
        assert max_spanning_tree(g) == util.max_spanning_tree_reference(oracle)


@pytest.mark.parametrize("make", [
    lambda: AlignGraph(n=2, weights=np.ones((2, 2))),
], ids=["AlignGraph"])
def test_array_holding_dataclasses_compare_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, a, b}) == 2


class TestMaxSpanningTree:
    def test_three_vertex_example(self):
        g = graph_from_upper(3, {(0, 1): 5.0, (0, 2): 4.0, (1, 2): 3.0})
        order = max_spanning_tree(g)
        assert order == ((0, 1), (0, 2))
        assert tree_total(g, order) == 9.0

    def test_acceptance_order_by_weight(self):
        g = graph_from_upper(4, {(0, 1): 1.0, (0, 2): 9.0, (0, 3): 2.0,
                                 (1, 2): 7.0, (1, 3): 8.0, (2, 3): 3.0})
        order = max_spanning_tree(g)
        # edges accepted in descending weight: 9, 8, 7
        assert order == ((0, 2), (1, 3), (1, 2))

    def test_all_equal_tie_breaks_to_star(self):
        g = AlignGraph(n=4, weights=np.ones((4, 4)) - np.eye(4))
        order = max_spanning_tree(g)
        assert order == ((0, 1), (0, 2), (0, 3))

    def test_single_vertex(self):
        g = AlignGraph(n=1, weights=np.zeros((1, 1)))
        assert max_spanning_tree(g) == ()

    def test_matches_enumeration(self):
        rng = np.random.default_rng(94)
        for n in (2, 3, 4, 5):
            for _ in range(20):
                w = rng.random((n, n))
                g = AlignGraph(n=n, weights=(w + w.T) / 2.0)
                got = tree_total(g, max_spanning_tree(g))
                want = max(tree_total(g, e) for e in util.all_spanning_trees(n))
                assert got == pytest.approx(want, abs=1e-12)


class TestLazyKruskal:
    def test_unsolved_key_tied_with_solved_weight_goes_first(self):
        # every block has norm 5. (0, 2) comes first on its column-max
        # bound 7/5 and is solved at 4/5; the unsolved (0, 1) then has key
        # 4/5 = its weight, and the oracle takes it first
        t = SimilarityTensor(3, np.array([[[4.0, 0.0], [-3.0, 0.0]],
                                          [[3.0, 4.0], [0.0, 0.0]],
                                          [[3.0, 0.0], [-4.0, 0.0]]]))
        g, oracle = build_align_graph(t), util.align_graph_reference(t)
        assert np.array_equal(g.norms, [5.0, 5.0, 5.0])
        assert (g.weights[0, 1], g.weights[0, 2], g.weights[1, 2]) == (4 / 5, 7 / 5, 3 / 5)
        assert (oracle.weights[0, 1], oracle.weights[0, 2]) == (4 / 5, 4 / 5)
        assert max_spanning_tree(g) == ((0, 1), (0, 2))
        assert max_spanning_tree(g) == util.max_spanning_tree_reference(oracle)
        assert prim_order(g) == util.prim_order_reference(oracle)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_matches_oracle_under_ties(self, n, m, levels, seed):
        # few integer levels make bounds tie with each other and with exact
        # weights; a random subset of the pairs is keyed by its weight
        rng = np.random.default_rng(seed)
        pairs = n * (n - 1) // 2
        t = SimilarityTensor(n, rng.integers(0, levels + 1, size=(pairs, m, m)).astype(float))
        g = lazy_graph(t, rng.random(pairs) < 0.5)
        oracle = util.align_graph_reference(t)
        assert max_spanning_tree(g) == util.max_spanning_tree_reference(oracle)
        assert prim_order(g) == util.prim_order_reference(oracle)

    def test_star60_orders_match_oracle(self):
        for seed in range(40):
            t = star_tensor(60, 20, seed)
            g, oracle = build_align_graph(t), util.align_graph_reference(t)
            assert max_spanning_tree(g) == util.max_spanning_tree_reference(oracle), seed
            assert prim_order(g) == util.prim_order_reference(oracle), seed


class TestPrimOrder:
    def test_three_vertex_example(self):
        g = graph_from_upper(3, {(0, 1): 5.0, (0, 2): 4.0, (1, 2): 3.0})
        assert prim_order(g) == ((0, 1), (0, 2))

    def test_growth_from_zero(self):
        g = graph_from_upper(3, {(0, 1): 1.0, (0, 2): 9.0, (1, 2): 5.0})
        # vertex 0 first attaches 2 (weight 9), then 2 attaches 1 (weight 5)
        assert prim_order(g) == ((0, 2), (1, 2))

    def test_prefix_connectivity(self):
        rng = np.random.default_rng(95)
        for n in (3, 5, 8):
            for _ in range(10):
                w = rng.random((n, n))
                g = AlignGraph(n=n, weights=(w + w.T) / 2.0)
                order = prim_order(g)
                seen = {0}
                for i, j in order:
                    assert (i in seen) != (j in seen)
                    seen.update((i, j))
                assert seen == set(range(n))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 15), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_matches_scan_reference_under_ties(self, n, levels, seed):
        # few integer weight levels force ties, so the (i, j) tie-break decides
        rng = np.random.default_rng(seed)
        w = np.triu(rng.integers(-levels, levels + 1, size=(n, n)), 1).astype(float)
        g = AlignGraph(n=n, weights=w + w.T)
        assert prim_order(g) == util.prim_order_reference(g)
        assert max_spanning_tree(g) == util.max_spanning_tree_reference(g)

    def test_same_tree_as_kruskal_for_distinct_weights(self):
        # the (weight, i, j) order is strict, so the tree is unique under ties too
        rng = np.random.default_rng(96)
        for _ in range(10):
            w = rng.random((6, 6))
            g = AlignGraph(n=6, weights=(w + w.T) / 2.0)
            assert set(prim_order(g)) == set(max_spanning_tree(g))
        for _ in range(30):
            w = np.triu(rng.integers(0, 3, size=(7, 7)), 1).astype(float)
            g = AlignGraph(n=7, weights=w + w.T)
            assert set(prim_order(g)) == set(max_spanning_tree(g))


class TestMinBottleneck:
    def test_path_layout(self):
        # path tree at 0.01, everything else 0.3
        n = 5
        eta = np.full((n, n), 0.3)
        for j in range(n - 1):
            eta[j, j + 1] = eta[j + 1, j] = 0.01
        np.fill_diagonal(eta, 0.0)
        assert min_bottleneck_weight(EtaGraph(eta)) == 0.01

    def test_three_vertex_enumeration(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 0.5
        w[0, 2] = w[2, 0] = 0.2
        w[1, 2] = w[2, 1] = 0.3
        # trees: {01,02} max 0.5; {01,12} max 0.5; {02,12} max 0.3
        assert min_bottleneck_weight(EtaGraph(w)) == 0.3

    def test_all_equal(self):
        w = np.full((4, 4), 0.07)
        np.fill_diagonal(w, 0.0)
        assert min_bottleneck_weight(EtaGraph(w)) == 0.07

    def test_matches_enumeration(self):
        rng = np.random.default_rng(97)
        for n in (2, 3, 4, 5):
            for _ in range(20):
                raw = rng.random((n, n))
                w = (raw + raw.T) / 2.0
                np.fill_diagonal(w, 0.0)
                got = min_bottleneck_weight(EtaGraph(w))
                want = min(
                    max(w[i, j] for i, j in edges)
                    for edges in util.all_spanning_trees(n)
                )
                assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("etas", [np.zeros((3, 3)), [[0.0, 0.1], [0.1, 0.0]], None],
                             ids=["ndarray", "list", "none"])
    def test_takes_only_an_eta_graph(self, etas):
        with pytest.raises(ValidationError, match="EtaGraph"):
            min_bottleneck_weight(etas)

    def test_needs_two_vertices(self):
        with pytest.raises(ParameterError):
            min_bottleneck_weight(EtaGraph(np.zeros((1, 1))))
