import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwmatch import evalbench
from mwmatch.errors import DimensionError, ParameterError, SizeError, ValidationError
from mwmatch.evalbench import (
    ALGO_NAMES,
    BenchRecord,
    EtaTopology,
    _worker_count,
    avg_error_rate,
    build_eta_graph,
    make_instance,
    noise_sweep,
    pca_experiment,
    reorder_points,
    run_algorithm,
    sort_records,
    theorem2_bound,
    theorem2_satisfied,
    tree_edges,
)
from mwmatch.matchmodel import (
    EtaGraph,
    Solution,
    check_tensor_size,
    gen_ground_truth,
    gen_noisy_tensor,
)
from mwmatch.matrixcore import sym_eigs_topk

import util


def record_fields(r):
    return (r.algo, r.n, r.m, r.topology, r.eta_tree, r.eta_off, r.seed,
            r.error_rate, r.objective, r.exact_recovery,
            r.theorem2_bound, r.theorem2_satisfied)


class TestArrayCodeMatchesPermReferences:
    """The map-array versions against the permutation-matrix loops in
    tests/util.py: equal maps and points, and bit-equal error rates."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 8), m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           equal=st.booleans())
    def test_equal_to_references(self, n, m, seed, equal):
        rng = np.random.default_rng(seed)
        s = Solution(np.array([rng.permutation(m) for _ in range(n)]))
        truth = s if equal else Solution(np.array([rng.permutation(m) for _ in range(n)]))
        assert avg_error_rate(s, truth).hex() == util.reference_error_rate(s, truth).hex()
        pts = rng.standard_normal((n, m, 2))
        assert np.array_equal(reorder_points(pts, s), util.reference_reorder_points(pts, s))
        for i in range(n):
            for j in range(n):
                assert np.array_equal(s.pairwise(i, j), util.reference_pairwise(s, i, j))


class TestAvgErrorRate:
    def test_identical_solutions(self):
        s = gen_ground_truth(4, 5, seed=401)
        assert avg_error_rate(s, s) == 0.0

    def test_gauge_blind(self):
        rng = np.random.default_rng(402)
        s = gen_ground_truth(4, 5, seed=403)
        g = rng.permutation(5)
        assert avg_error_rate(util.reference_left_compose(s, g), s) == 0.0

    def test_single_transposition(self):
        # one swapped set disturbs 2(n-1) of the n(n-1) ordered maps at
        # exactly 2 of m positions each: here 2*3*2 / (4*3*5) = 0.2
        n, m = 4, 5
        truth = Solution(np.tile(np.arange(m), (n, 1)))
        s = util.replace_row(truth, 2, [1, 0, 2, 3, 4])
        assert avg_error_rate(s, truth) == pytest.approx(4.0 / (n * m))
        assert avg_error_rate(s, truth) == pytest.approx(0.2)

    def test_symmetry(self):
        a = gen_ground_truth(4, 5, seed=404)
        b = gen_ground_truth(4, 5, seed=405)
        assert avg_error_rate(a, b) == pytest.approx(avg_error_rate(b, a))

    def test_maximal_disagreement(self):
        truth = Solution([[0, 1], [0, 1]])
        s = Solution([[0, 1], [1, 0]])
        assert avg_error_rate(s, truth) == 1.0

    def test_single_set(self):
        s = gen_ground_truth(1, 4, seed=406)
        assert avg_error_rate(s, s) == 0.0

    def test_bounded(self):
        for seed in range(10):
            a = gen_ground_truth(5, 4, seed=410 + seed)
            b = gen_ground_truth(5, 4, seed=420 + seed)
            assert 0.0 <= avg_error_rate(a, b) <= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            avg_error_rate(gen_ground_truth(3, 4, seed=0), gen_ground_truth(4, 4, seed=0))

    def test_returns_builtin_float(self):
        # np.float64 subclasses float, so isinstance and == cannot tell them
        # apart; its numpy 2 repr ("np.float64(0.0)") breaks the bench CSV
        a = gen_ground_truth(4, 5, seed=407)
        b = gen_ground_truth(4, 5, seed=408)
        assert type(avg_error_rate(a, b)) is float
        assert type(avg_error_rate(a, a)) is float
        single = gen_ground_truth(1, 4, seed=409)
        assert type(avg_error_rate(single, single)) is float


class TestTheorem2:
    def test_bound_formula(self):
        n, m = 60, 20
        gamma = math.log(n) / math.log(m)
        want = 1.0 / (4.0 * (3.0 + gamma) * math.log(m) + 4.0)
        assert theorem2_bound(n, m) == pytest.approx(want, rel=1e-15)
        assert 0.017 < theorem2_bound(60, 20) < 0.018

    def test_bound_decreases_in_m(self):
        bounds = [theorem2_bound(50, m) for m in (2, 4, 8, 16, 32)]
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_trivial_m(self):
        assert theorem2_bound(10, 1) == float("inf")

    def test_satisfied_all_conditions(self):
        n, m = 60, 20
        bound = theorem2_bound(n, m)
        good = EtaGraph(np.full((n, n), bound * 0.9) - np.diag([bound * 0.9] * n))
        assert theorem2_satisfied(n, m, good)

    def test_violated_by_bottleneck(self):
        n, m = 60, 20
        bound = theorem2_bound(n, m)
        bad = EtaGraph(np.full((n, n), bound * 1.1) - np.diag([bound * 1.1] * n))
        assert not theorem2_satisfied(n, m, bad)

    def test_violated_by_small_n(self):
        n, m = 10, 20  # 10 < 20 ln 20
        etas = EtaGraph(np.zeros((n, n)))
        assert not theorem2_satisfied(n, m, etas)

    def test_violated_by_large_eta(self):
        n, m = 80, 4
        eta = np.full((n, n), 0.4)  # > 1/3
        np.fill_diagonal(eta, 0.0)
        assert not theorem2_satisfied(n, m, EtaGraph(eta))

    def test_star_tree_rescues_bottleneck(self):
        # low-noise star keeps the bottleneck under the bound even though
        # off-tree pairs are far above it
        n, m = 60, 20
        topo = EtaTopology(kind="star", eta_tree=0.01, eta_off=0.30)
        etas = build_eta_graph(topo, n, seed=0)
        assert theorem2_satisfied(n, m, etas)

    def test_refuses_bad_sizes_and_mismatched_eta_graph(self):
        etas = EtaGraph(np.zeros((3, 3)))
        for n, m in ((True, 3), ("3", 3), (3, 0), (3, 2.5), (0, 3)):
            with pytest.raises(ParameterError):
                theorem2_satisfied(n, m, etas)
        with pytest.raises(DimensionError):
            theorem2_satisfied(5, 3, etas)
        topo = EtaTopology(kind="star", eta_tree=0.01, eta_off=0.3)
        for n in (True, 2.5, 0, "3"):
            with pytest.raises(ParameterError):
                tree_edges(topo, n, 0)


class TestTopologies:
    def test_star_hub_sits_opposite_anchor(self):
        topo = EtaTopology(kind="star", eta_tree=0.01, eta_off=0.5)
        edges = tree_edges(topo, 4, seed=0)
        assert edges == [(0, 3), (1, 3), (2, 3)]
        g = build_eta_graph(topo, 4, seed=0)
        assert g.eta[0, 3] == g.eta[1, 3] == 0.01
        assert g.eta[0, 1] == g.eta[0, 2] == 0.5

    def test_path(self):
        topo = EtaTopology(kind="path", eta_tree=0.1, eta_off=0.2)
        assert tree_edges(topo, 4, seed=0) == [(0, 1), (1, 2), (2, 3)]

    def test_random_tree_is_spanning(self):
        topo = EtaTopology(kind="random_tree", eta_tree=0.0, eta_off=1.0)
        for seed in range(20):
            n = 2 + seed % 7
            edges = tree_edges(topo, n, seed)
            assert len(edges) == n - 1
            label = list(range(n))  # component label per vertex
            for i, j in edges:
                a, b = label[i], label[j]
                assert a != b
                label = [a if x == b else x for x in label]
            assert len(set(label)) == 1

    @pytest.mark.parametrize("seed", ["x", 2.5, -1, True])
    def test_random_tree_refuses_bad_seeds(self, seed):
        topo = EtaTopology(kind="random_tree", eta_tree=0.0, eta_off=1.0)
        with pytest.raises(ParameterError):
            tree_edges(topo, 4, seed)

    def test_random_tree_vertices_are_python_ints(self):
        topo = EtaTopology(kind="random_tree", eta_tree=0.0, eta_off=1.0)
        for seed in range(5):
            assert all(type(v) is int for edge in tree_edges(topo, 7, seed) for v in edge)

    def test_random_tree_seed_dependent(self):
        topo = EtaTopology(kind="random_tree", eta_tree=0.0, eta_off=1.0)
        draws = {tuple(tree_edges(topo, 6, seed)) for seed in range(30)}
        assert len(draws) > 1

    def test_uniform_has_no_tree(self):
        topo = EtaTopology(kind="uniform", eta_tree=0.123, eta_off=0.25)
        assert tree_edges(topo, 5, seed=0) == []
        g = build_eta_graph(topo, 5, seed=0)
        off = ~np.eye(5, dtype=bool)
        assert np.all(g.eta[off] == 0.25)  # eta_tree ignored

    def test_rejects_bad_kind(self):
        with pytest.raises(ParameterError):
            EtaTopology(kind="ring", eta_tree=0.1, eta_off=0.1)

    def test_rejects_negative_eta(self):
        for bad in (-0.1, np.nan, np.inf, True, np.bool_(True), "0.1", None, 10**400):
            with pytest.raises(ParameterError):
                EtaTopology(kind="star", eta_tree=bad, eta_off=0.1)
            with pytest.raises(ParameterError):
                EtaTopology(kind="star", eta_tree=0.1, eta_off=bad)
        for good in (0, 1, np.int64(0), np.float32(0.1), 0.3):
            EtaTopology(kind="star", eta_tree=good, eta_off=good)


class TestMakeInstance:
    def test_deterministic(self):
        topo = EtaTopology(kind="star", eta_tree=0.05, eta_off=0.2)
        t1, e1, x1 = make_instance(5, 4, topo, seed=7)
        t2, e2, x2 = make_instance(5, 4, topo, seed=7)
        assert t1 == t2
        assert np.array_equal(e1.eta, e2.eta)
        for i, j in x1.pairs():
            assert np.array_equal(x1.block(i, j), x2.block(i, j))

    def test_seed_sensitivity(self):
        topo = EtaTopology(kind="uniform", eta_tree=0.0, eta_off=0.1)
        t1, _, _ = make_instance(5, 4, topo, seed=7)
        t2, _, _ = make_instance(5, 4, topo, seed=8)
        assert t1 != t2

    def test_zero_noise_instance_is_ideal(self):
        topo = EtaTopology(kind="uniform", eta_tree=0.0, eta_off=0.0)
        truth, _, tensor = make_instance(4, 3, topo, seed=11)
        for i, j in tensor.pairs():
            assert np.array_equal(tensor.block(i, j), util.perm_matrix(truth.pairwise(i, j)))


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
def test_every_generator_refuses_a_bad_seed(seed):
    topo = EtaTopology(kind="random_tree", eta_tree=0.01, eta_off=0.2)
    truth = gen_ground_truth(3, 2, seed=0)
    calls = (
        lambda: make_instance(3, 2, topo, seed),
        lambda: make_instance(10**6, 10**3, topo, seed),  # before the size check
        lambda: gen_ground_truth(3, 2, seed),
        lambda: gen_noisy_tensor(truth, EtaGraph(np.zeros((3, 3))), seed),
        lambda: build_eta_graph(topo, 3, seed),
    )
    for call in calls:
        with pytest.raises(ParameterError):
            call()


@pytest.mark.parametrize("bad", [0, 2.5, 3.0, True, "3", None])
def test_every_generator_refuses_a_bad_size(bad):
    topo = EtaTopology(kind="random_tree", eta_tree=0.01, eta_off=0.2)
    with pytest.raises(ParameterError):
        build_eta_graph(topo, bad, 0)
    generators = (
        lambda n, m: make_instance(n, m, topo, 0),
        lambda n, m: gen_ground_truth(n, m, 0),
        lambda n, m: noise_sweep(topo, n, m, ["alg1"], 1),
        theorem2_bound,
        check_tensor_size,
    )
    for n, m in ((bad, 3), (3, bad)):
        for gen in generators:
            with pytest.raises(ParameterError):
                gen(n, m)


class TestRunAlgorithm:
    def test_all_names_run_noiseless(self):
        topo = EtaTopology(kind="uniform", eta_tree=0.0, eta_off=0.0)
        truth, _, tensor = make_instance(4, 3, topo, seed=12)
        for name in ALGO_NAMES:
            sol = run_algorithm(name, tensor, seed=0)
            assert avg_error_rate(sol, truth) == 0.0

    def test_unknown_name(self):
        _, _, tensor = make_instance(
            3, 3, EtaTopology(kind="uniform", eta_tree=0.0, eta_off=0.0), seed=0
        )
        with pytest.raises(ParameterError):
            run_algorithm("greedy", tensor)


class TestBenchRecord:
    def make(self, **kw):
        base = dict(
            algo="alg1", n=4, m=3, topology="star", eta_tree=0.1, eta_off=0.2,
            seed=0, error_rate=0.0, objective=36.0, exact_recovery=True,
            wall_time_ms=1.5, theorem2_bound=0.05, theorem2_satisfied=False,
        )
        base.update(kw)
        return BenchRecord(**base)

    def test_valid(self):
        r = self.make()
        assert r.exact_recovery

    def test_recovery_must_match_error(self):
        with pytest.raises(ValidationError):
            self.make(error_rate=0.1, exact_recovery=True)
        with pytest.raises(ValidationError):
            self.make(error_rate=0.0, exact_recovery=False)

    def test_error_rate_range(self):
        with pytest.raises(ValidationError):
            self.make(error_rate=1.5, exact_recovery=False)

    def test_negative_wall_time(self):
        with pytest.raises(ValidationError):
            self.make(wall_time_ms=-1.0)

    def test_numpy_scalars_coerced_to_builtins(self):
        r = self.make(
            n=np.int64(4), m=np.int64(3), seed=np.int64(7),
            eta_tree=np.float64(0.1), eta_off=np.float64(0.2),
            error_rate=np.float64(0.25), objective=np.float64(30.0),
            exact_recovery=np.bool_(False), wall_time_ms=np.float64(1.5),
            theorem2_bound=np.float64(0.05), theorem2_satisfied=np.bool_(True),
        )
        for name in ("eta_tree", "eta_off", "error_rate", "objective",
                     "wall_time_ms", "theorem2_bound"):
            assert type(getattr(r, name)) is float, name
        for name in ("n", "m", "seed"):
            assert type(getattr(r, name)) is int, name
        for name in ("exact_recovery", "theorem2_satisfied"):
            assert type(getattr(r, name)) is bool, name
        assert (r.n, r.seed, r.error_rate, r.theorem2_satisfied) == (4, 7, 0.25, True)


class TestNoiseSweep:
    def test_zero_noise_all_exact(self):
        topo = EtaTopology(kind="uniform", eta_tree=0.0, eta_off=0.0)
        with pytest.warns(UserWarning):  # n=4 sits below the regime floor
            records = noise_sweep(topo, 4, 3, ["pairwise", "alg1", "alg2-prim", "sync"], seeds=3)
        assert len(records) == 12
        for r in records:
            assert r.error_rate == 0.0
            assert r.exact_recovery
            assert r.objective == pytest.approx(4 * 3 * 3)

    def test_sorted_and_reproducible(self):
        topo = EtaTopology(kind="star", eta_tree=0.02, eta_off=0.25)
        with pytest.warns(UserWarning):
            a = noise_sweep(topo, 5, 4, ["alg2-prim", "pairwise"], seeds=4)
        with pytest.warns(UserWarning):
            b = noise_sweep(topo, 5, 4, ["alg2-prim", "pairwise"], seeds=4)
        assert [record_fields(r) for r in a] == [record_fields(r) for r in b]
        assert a == sort_records(a)

    def test_seed_iterable(self):
        topo = EtaTopology(kind="uniform", eta_tree=0.0, eta_off=0.0)
        with pytest.warns(UserWarning):
            records = noise_sweep(topo, 3, 3, ["alg1"], seeds=[5, 2])
        assert sorted(r.seed for r in records) == [2, 5]

    def test_parallel_matches_serial(self):
        topo = EtaTopology(kind="uniform", eta_tree=0.0, eta_off=0.05)
        with pytest.warns(UserWarning):
            serial = noise_sweep(topo, 4, 3, ["pairwise", "alg1"], seeds=3, jobs=1)
        with pytest.warns(UserWarning):
            parallel = noise_sweep(topo, 4, 3, ["pairwise", "alg1"], seeds=3, jobs=2)
        assert [record_fields(r) for r in serial] == [record_fields(r) for r in parallel]

    def test_parallel_matches_serial_with_sync(self):
        # n=5, m=3 asks the eigensolver for 3 of 15 pairs, so ARPACK runs
        topo = EtaTopology(kind="uniform", eta_tree=0.0, eta_off=0.05)
        with pytest.warns(UserWarning):
            serial = noise_sweep(topo, 5, 3, ["sync"], seeds=3, jobs=1)
        with pytest.warns(UserWarning):
            parallel = noise_sweep(topo, 5, 3, ["sync"], seeds=3, jobs=2)
        assert [record_fields(r) for r in serial] == [record_fields(r) for r in parallel]

    def test_worker_count_clamped(self):
        # computed only: a pool of this size would fork every worker at once
        cpus = os.cpu_count() or 1
        assert _worker_count(5000, 10) == min(10, cpus)
        assert _worker_count(5000, 5000) == cpus
        assert _worker_count(1, 10) == 1
        assert _worker_count(3, 1) == 1

    def test_out_of_regime_warns(self):
        topo = EtaTopology(kind="uniform", eta_tree=0.0, eta_off=0.4)
        with pytest.warns(UserWarning):
            noise_sweep(topo, 3, 3, ["pairwise"], seeds=1)

    def test_warns_from_the_eta_graph_alone(self):
        # "uniform" assigns eta_off to every pair, so eta_tree = 0.9 never
        # reaches the graph; n=14, m=2 is inside the regime at eta 0.01
        topo = EtaTopology(kind="uniform", eta_tree=0.9, eta_off=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = noise_sweep(topo, 14, 2, ["pairwise"], seeds=1)
        assert records[0].theorem2_satisfied

    def test_rejects_bad_args(self):
        topo = EtaTopology(kind="uniform", eta_tree=0.0, eta_off=0.0)
        with pytest.raises(ParameterError):
            noise_sweep(topo, 3, 3, ["nope"], seeds=1)
        with pytest.raises(ParameterError):
            noise_sweep(topo, 3, 3, ["alg1"], seeds=0)
        for jobs in (0, -5, 1.5, True):
            with pytest.raises(ParameterError):
                noise_sweep(topo, 3, 3, ["alg1"], seeds=1, jobs=jobs)
        for seeds in ([1.5], [True], [-1], 3.0):
            with pytest.raises(ParameterError):
                noise_sweep(topo, 3, 3, ["alg1"], seeds=seeds)


    def test_oversized_refused_before_the_eta_graph(self, monkeypatch):
        # at n=100000 the eta graph alone would be an 80 GB matrix
        calls = []
        monkeypatch.setattr(evalbench, "build_eta_graph", lambda *a: calls.append(a))
        topo = EtaTopology(kind="star", eta_tree=0.01, eta_off=0.3)
        with pytest.raises(SizeError):
            noise_sweep(topo, 100_000, 100, ["alg1"], seeds=1)
        assert calls == []


class TestReorderPoints:
    def test_row_convention(self):
        # sets built as template[inverse(map_i)] come back template-aligned
        rng = np.random.default_rng(430)
        template = rng.standard_normal((5, 2))
        truth = gen_ground_truth(3, 5, seed=431)
        pts = np.stack([template[np.argsort(row)] for row in truth.maps])
        aligned = reorder_points(pts, truth)
        for i in range(3):
            assert np.array_equal(aligned[i], template)

    def test_identity_solution_is_noop(self):
        rng = np.random.default_rng(432)
        pts = rng.standard_normal((3, 4, 2))
        s = Solution(np.tile(np.arange(4), (3, 1)))
        assert np.array_equal(reorder_points(pts, s), pts)

    def test_shape_mismatch(self):
        pts = np.zeros((3, 4, 2))
        with pytest.raises(DimensionError):
            reorder_points(pts, gen_ground_truth(3, 5, seed=0))


class TestPcaExperiment:
    def make_points(self, seed, n=8, m=3, d=2):
        rng = np.random.default_rng(seed)
        template = rng.standard_normal((m, d))
        truth = gen_ground_truth(n, m, seed + 1)
        pts = np.stack([template[np.argsort(row)] for row in truth.maps])
        return template, truth, pts

    def test_full_k_reaches_zero(self):
        _, truth, pts = self.make_points(440)
        rows = pca_experiment(pts, {"aligned": truth}, [6])
        assert rows[0][2] <= 1e-18

    def test_aligned_beats_unaligned(self):
        # permuted copies of one template: aligned rows are rank-0 around
        # the mean, unaligned rows are not
        _, truth, pts = self.make_points(441, n=10, m=4, d=2)
        rows = pca_experiment(pts, {"aligned": truth, "none": None}, [1])
        errs = {method: err for method, _, err in rows}
        assert errs["aligned"] <= 1e-18
        assert errs["none"] > 1e-3

    def test_rows_ordered_by_method_then_k(self):
        _, truth, pts = self.make_points(442)
        rows = pca_experiment(pts, {"b": truth, "a": None}, [3, 1, 2])
        assert [(r[0], r[1]) for r in rows] == [
            ("b", 1), ("b", 2), ("b", 3), ("a", 1), ("a", 2), ("a", 3)
        ]

    def test_one_eigensolve_per_method(self, monkeypatch):
        # the top max(k) basis serves every k
        _, truth, pts = self.make_points(444)
        calls = []

        def spy(mat, k):
            calls.append(k)
            return sym_eigs_topk(mat, k)

        monkeypatch.setattr(evalbench, "sym_eigs_topk", spy)
        rows = pca_experiment(pts, {"b": truth, "a": None}, [3, 1, 2])
        assert calls == [3, 3] and len(rows) == 6

    def test_error_non_increasing_in_k(self):
        rng = np.random.default_rng(443)
        pts = rng.standard_normal((9, 3, 2))
        rows = pca_experiment(pts, {"none": None}, [1, 2, 3, 4, 5, 6])
        errs = [r[2] for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_k_out_of_range(self):
        pts = np.zeros((4, 3, 2))
        with pytest.raises(ParameterError):
            pca_experiment(pts, {"none": None}, [7])  # cap is min(4, 6)
        with pytest.raises(ParameterError):
            pca_experiment(pts, {"none": None}, [0])
        with pytest.raises(ParameterError):
            pca_experiment(pts, {"none": None}, [])

    @pytest.mark.parametrize("ks", [["2"], [2.7], [True], [1, True]])
    def test_k_values_must_be_integers(self, ks):
        # none is parsed, truncated or read as 1
        with pytest.raises(ValidationError, match="k values must be integers"):
            pca_experiment(np.zeros((4, 3, 2)), {"none": None}, ks)
