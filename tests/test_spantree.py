import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwmatch.errors import DimensionError, ParameterError, ValidationError
from mwmatch.matchmodel import EtaGraph
from mwmatch.spantree import (
    AlignGraph,
    EdgeOrder,
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


class TestAlignGraph:
    def test_rejects_asymmetric(self):
        w = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError):
            AlignGraph(n=2, weights=w)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            AlignGraph(n=3, weights=np.zeros((2, 2)))

    def test_diagonal_zeroed(self):
        g = AlignGraph(n=2, weights=np.array([[5.0, 1.0], [1.0, 5.0]]))
        assert g.weights[0, 0] == 0.0

    def test_weights_read_only(self):
        g = graph_from_upper(2, {(0, 1): 1.0})
        with pytest.raises(ValueError):
            g.weights[0, 1] = 3.0


class TestEdgeOrder:
    def test_normalizes(self):
        order = EdgeOrder(((2, 0), (1, 3)))
        assert order.edges == ((0, 2), (1, 3))
        assert len(order) == 2
        assert EdgeOrder(((np.int64(2), np.int32(0)),)).edges == ((0, 2),)

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            EdgeOrder(((1, 1),))

    def test_rejects_negative_vertex(self):
        with pytest.raises(ValidationError):
            EdgeOrder(((-1, 2),))

    @pytest.mark.parametrize("edge", [(0.9, 1.5), (True, 2), (0, 2.0), (np.bool_(False), 1)])
    def test_rejects_non_integer_vertex(self, edge):
        with pytest.raises(ValidationError):
            EdgeOrder((edge,))


class TestBuildAlignGraph:
    def test_noiseless_weights_all_m(self):
        _, tensor = util.noiseless_instance(5, 4, seed=91)
        g = build_align_graph(tensor)
        off = ~np.eye(5, dtype=bool)
        assert np.all(g.weights[off] == 4.0)
        assert np.all(np.diag(g.weights) == 0.0)

    def test_weights_match_brute_assignment(self):
        _, tensor = util.noisy_instance(4, 4, eta=0.2, seed=92)
        g = build_align_graph(tensor)
        for i, j in tensor.pairs():
            assert g.weights[i, j] == util.lap_brute(tensor.block(i, j)).value
            assert g.weights[j, i] == g.weights[i, j]

    def test_two_sets(self):
        _, tensor = util.noisy_instance(2, 3, eta=0.1, seed=93)
        g = build_align_graph(tensor)
        assert g.weights[0, 1] == util.lap_brute(tensor.block(0, 1)).value


class TestMaxSpanningTree:
    def test_three_vertex_example(self):
        g = graph_from_upper(3, {(0, 1): 5.0, (0, 2): 4.0, (1, 2): 3.0})
        order = max_spanning_tree(g)
        assert order.edges == ((0, 1), (0, 2))
        assert tree_total(g, order.edges) == 9.0

    def test_acceptance_order_by_weight(self):
        g = graph_from_upper(4, {(0, 1): 1.0, (0, 2): 9.0, (0, 3): 2.0,
                                 (1, 2): 7.0, (1, 3): 8.0, (2, 3): 3.0})
        order = max_spanning_tree(g)
        # edges accepted in descending weight: 9, 8, 7
        assert order.edges == ((0, 2), (1, 3), (1, 2))

    def test_all_equal_tie_breaks_to_star(self):
        g = AlignGraph(n=4, weights=np.ones((4, 4)) - np.eye(4))
        order = max_spanning_tree(g)
        assert order.edges == ((0, 1), (0, 2), (0, 3))

    def test_single_vertex(self):
        g = AlignGraph(n=1, weights=np.zeros((1, 1)))
        assert max_spanning_tree(g).edges == ()

    def test_matches_enumeration(self):
        rng = np.random.default_rng(94)
        for n in (2, 3, 4, 5):
            for _ in range(20):
                w = rng.random((n, n))
                g = AlignGraph(n=n, weights=(w + w.T) / 2.0)
                got = tree_total(g, max_spanning_tree(g).edges)
                want = max(tree_total(g, e) for e in util.all_spanning_trees(n))
                assert got == pytest.approx(want, abs=1e-12)


class TestPrimOrder:
    def test_three_vertex_example(self):
        g = graph_from_upper(3, {(0, 1): 5.0, (0, 2): 4.0, (1, 2): 3.0})
        assert prim_order(g).edges == ((0, 1), (0, 2))

    def test_growth_from_zero(self):
        g = graph_from_upper(3, {(0, 1): 1.0, (0, 2): 9.0, (1, 2): 5.0})
        # vertex 0 first attaches 2 (weight 9), then 2 attaches 1 (weight 5)
        assert prim_order(g).edges == ((0, 2), (1, 2))

    def test_prefix_connectivity(self):
        rng = np.random.default_rng(95)
        for n in (3, 5, 8):
            for _ in range(10):
                w = rng.random((n, n))
                g = AlignGraph(n=n, weights=(w + w.T) / 2.0)
                order = prim_order(g)
                seen = {0}
                for i, j in order.edges:
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
            assert set(prim_order(g).edges) == set(max_spanning_tree(g).edges)
        for _ in range(30):
            w = np.triu(rng.integers(0, 3, size=(7, 7)), 1).astype(float)
            g = AlignGraph(n=7, weights=w + w.T)
            assert set(prim_order(g).edges) == set(max_spanning_tree(g).edges)


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
        assert min_bottleneck_weight(w) == 0.3

    def test_all_equal(self):
        w = np.full((4, 4), 0.07)
        np.fill_diagonal(w, 0.0)
        assert min_bottleneck_weight(w) == 0.07

    def test_matches_enumeration(self):
        rng = np.random.default_rng(97)
        for n in (2, 3, 4, 5):
            for _ in range(20):
                raw = rng.random((n, n))
                w = (raw + raw.T) / 2.0
                np.fill_diagonal(w, 0.0)
                got = min_bottleneck_weight(w)
                want = min(
                    max(w[i, j] for i, j in edges)
                    for edges in util.all_spanning_trees(n)
                )
                assert got == pytest.approx(want, abs=1e-12)

    def test_needs_two_vertices(self):
        with pytest.raises(ParameterError):
            min_bottleneck_weight(np.zeros((1, 1)))
