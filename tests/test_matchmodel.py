import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwmatch import matchmodel
from mwmatch.assignment import f_score, lap_max
from mwmatch.evalbench import SOLVERS, EtaTopology, _sub_seeds, make_instance
from mwmatch.errors import DimensionError, ParameterError, SizeError, ValidationError
from mwmatch.matchmodel import (
    TENSOR_BYTES_CAP,
    EtaGraph,
    SimilarityTensor,
    Solution,
    _objective_perms,
    check_tensor_size,
    gen_ground_truth,
    gen_noisy_tensor,
    median_heuristic_sigma,
    objective,
    tensor_from_points,
    validate_point_sets,
)
from mwmatch.solver import SolverConfig, coordinate_update

import util


class TestSimilarityTensor:
    def test_accessor_transpose_exact(self):
        t = util.uniform_tensor(4, 3, seed=41)
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                assert np.array_equal(t.block(i, j), t.block(j, i).T)

    def test_rejects_non_finite(self):
        packed = np.array([[[np.inf, 0.0], [0.0, 1.0]]])
        with pytest.raises(ValidationError):
            SimilarityTensor(2, packed)

    def test_no_diagonal_blocks(self):
        t = util.uniform_tensor(3, 2, seed=42)
        with pytest.raises(ValidationError):
            t.block(1, 1)

    def test_index_out_of_range(self):
        t = util.uniform_tensor(3, 2, seed=42)
        with pytest.raises(ParameterError):
            t.block(0, 3)

    @pytest.mark.parametrize("i, j", [(True, 2), (1.5, 2), (2, np.float64(1.0)), ("1", 2)],
                             ids=["bool", "float", "numpy-float", "str"])
    def test_rejects_non_integer_index(self, i, j):
        t = util.uniform_tensor(4, 3, seed=42)
        with pytest.raises(ParameterError):
            t.block(i, j)

    @pytest.mark.parametrize("n, pairs", [(2.0, 1), (np.float64(3.0), 3), (True, 0)],
                             ids=["float", "numpy-float", "bool"])
    def test_rejects_non_integer_n(self, n, pairs):
        with pytest.raises(ParameterError):
            SimilarityTensor(n, np.zeros((pairs, 3, 3)))

    def test_blocks_read_only(self):
        t = util.uniform_tensor(3, 2, seed=43)
        with pytest.raises(ValueError):
            t.block(0, 1)[0, 0] = 5.0

    def test_pairs_sorted(self):
        t = util.uniform_tensor(4, 2, seed=44)
        assert t.pairs() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_blocks_are_read_only_views_of_packed(self):
        t = util.uniform_tensor(5, 3, seed=45)
        assert t.packed.shape == (10, 3, 3) and not t.packed.flags.writeable
        for k, (i, j) in enumerate(t.pairs()):
            assert t.pair_index[i, j] == t.pair_index[j, i] == k
            for blk in (t.block(i, j), t.block(j, i)):
                assert blk.base is t.packed and blk.dtype == np.float32
                assert not blk.flags.writeable
            assert np.array_equal(t.block(i, j), t.packed[k])
        assert np.all(np.diag(t.pair_index) == -1)

    def test_from_packed_matches_dict_constructor(self):
        t = util.uniform_tensor(4, 3, seed=46)
        packed = np.array(t.packed)
        u = SimilarityTensor(4, packed)
        assert u.packed is packed and not packed.flags.writeable
        for i, j in t.pairs():
            assert np.array_equal(u.block(j, i), t.block(j, i))

    def test_float32_is_adopted_and_other_reals_rounded_once(self):
        rng = np.random.default_rng(47)
        wide = rng.standard_normal((3, 2, 2))
        narrow = wide.astype(np.float32)
        assert not np.array_equal(narrow, wide)  # the rounding is visible
        t = SimilarityTensor(3, narrow)
        assert t.packed is narrow and not narrow.flags.writeable
        for given in (wide, wide.transpose(0, 2, 1).copy().transpose(0, 2, 1), wide.tolist()):
            u = SimilarityTensor(3, given)
            assert u.packed.dtype == np.float32 and u.packed.flags.c_contiguous
            assert u.packed.tobytes() == narrow.tobytes()
        assert wide.flags.writeable  # a rounded caller array is left alone
        ints = SimilarityTensor(3, np.arange(12).reshape(3, 2, 2))
        assert ints.packed.dtype == np.float32
        assert ints.packed.tolist() == np.arange(12.0).reshape(3, 2, 2).tolist()
        # a non-contiguous float32 array is copied once into C order
        strided = narrow.copy().transpose(0, 2, 1)
        v = SimilarityTensor(3, strided)
        assert v.packed is not strided and np.array_equal(v.packed, strided)

    def test_from_packed_rejects_bad_input(self):
        with pytest.raises(DimensionError):
            SimilarityTensor(3, np.zeros((2, 2, 2)))
        bad = np.zeros((3, 2, 2))
        bad[2, 1, 0] = np.nan
        with pytest.raises(ValidationError, match=r"block \(1, 2\)"):
            SimilarityTensor(3, bad)
        bad = np.zeros((3, 2, 2))
        bad[1, 0, 0] = -0.5
        SimilarityTensor(3, bad.copy())

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    @pytest.mark.parametrize("n, m", [(2, 12), (4, 3), (6, 4), (12, 5), (5, 40)])
    def test_value_bound(self, n, m, sign):
        # every sum a solver forms stays finite at the largest float32; a
        # finite float64 entry past it is refused naming its block,
        # 1.797e308 (max float) included
        big = sign * util.LARGEST_ENTRY
        packed = big * np.random.default_rng(n * m).random((n * (n - 1) // 2, m, m))
        packed[-1, -1, -1] = big
        t = SimilarityTensor(n, packed)
        assert t.packed[-1, -1, -1] == big
        for name, solve in SOLVERS.items():
            trace = solve(t, SolverConfig()).objective_trace
            assert all(math.isfinite(v) for v in trace), name
        with pytest.raises(ValidationError, match=r"block \(\d+, \d+\) has an entry beyond float32's range"):
            SimilarityTensor(n, packed * 1.001)
        largest = packed.copy()
        largest[-1, -1, -1] = sign * sys.float_info.max
        with pytest.raises(ValidationError, match=rf"block \({n - 2}, {n - 1}\) has an entry beyond"):
            SimilarityTensor(n, largest)

    def test_size_cap_counts_numpy_sizes_exactly(self):
        # the byte count of 2^20 sets of 2^20 elements overflows int64
        with pytest.raises(SizeError):
            check_tensor_size(np.int64(2**20), np.int64(2**20))


class TestSolution:
    def test_pairwise_map_matches_matrices(self):
        s = gen_ground_truth(4, 5, seed=51)
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                want = util.perm_matrix(s.maps[i]).T @ util.perm_matrix(s.maps[j])
                assert np.array_equal(util.perm_matrix(s.pairwise(i, j)), want)

    def test_pairwise_transpose_pair(self):
        s = gen_ground_truth(3, 4, seed=52)
        assert np.array_equal(s.pairwise(0, 2), np.argsort(s.pairwise(2, 0)))

    @pytest.mark.parametrize("i, j", [(-1, 0), (0, 3), (3, 0), (True, 0), (0, 1.0), ("1", 0)],
                             ids=["negative", "past-n", "past-n-first", "bool", "float", "str"])
    def test_pairwise_rejects_bad_index(self, i, j):
        s = gen_ground_truth(3, 4, seed=52)
        with pytest.raises(ParameterError):
            s.pairwise(i, j)

    def test_every_permutation_handed_out_is_an_int64_map(self):
        _, tensor = util.noisy_instance(4, 5, eta=0.3, seed=54)
        s = gen_ground_truth(4, 5, seed=55)
        c = np.random.default_rng(56).random((5, 5))
        for got in (lap_max(c), coordinate_update(tensor, s, 1)[0], s.pairwise(0, 2)):
            assert type(got) is np.ndarray and got.dtype == np.int64 and got.shape == (5,)
        before = s.maps.copy()
        s.pairwise(0, 2)[:] = 0
        assert np.array_equal(s.maps, before)
        # perfbench's answer check reads p.map off each of s.perms
        assert len(s.perms) == s.n
        for row, p in zip(s.maps, s.perms):
            assert np.array_equal(p.map, row) and not p.map.flags.writeable

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Solution(np.zeros((0, 2), dtype=np.int64))

    def test_maps_read_only_and_never_aliased(self):
        raw = np.array([[1, 0, 2], [2, 1, 0]])
        s = Solution(raw)
        assert s.maps.dtype == np.int64 and not s.maps.flags.writeable
        with pytest.raises(ValueError):
            s.maps[0, 0] = 2
        raw[0] = [0, 1, 2]
        assert s.maps.tolist() == [[1, 0, 2], [2, 1, 0]]
        # a read-only view still shares memory with the writable raw
        view = raw.view()
        view.setflags(write=False)
        assert not np.shares_memory(Solution(view).maps, raw)
        assert not np.shares_memory(Solution(s.maps).maps, s.maps)

    def test_from_perms_round_trip_and_hash(self):
        s = gen_ground_truth(5, 4, seed=53)
        again = Solution(list(s.maps))
        assert again == s and hash(again) == hash(s)
        assert Solution(s.maps.tolist()) == s
        other = Solution(s.maps[:, [1, 0, 2, 3]])
        assert other != s
        assert len({s, again, other}) == 2
        assert s != gen_ground_truth(5, 3, seed=53)

    @pytest.mark.parametrize("bad", [
        [[0.9, 1.5, 2.2]],
        np.array([[0.0, 1.0]]),
        np.array([[True, False]]),
        np.array([[1, 0]], dtype=object),
        [[0, 1], [1, 1]],
        [[0, 2], [1, 0]],
        [0, 1],
        np.zeros((2, 0), dtype=np.int64),
        [[0, 1], [0, 1, 2]],
        [[0, True], [1, 0]],
        [[0, np.True_], [1, 0]],
    ])
    def test_rejects_bad_maps(self, bad):
        with pytest.raises(ValidationError):
            Solution(bad)


class TestEtaGraph:
    def test_diagonal_zeroed(self):
        g = EtaGraph(np.full((3, 3), 0.2))
        assert np.all(np.diag(g.eta) == 0.0)
        assert g.eta[0, 2] == 0.2

    def test_rejects_asymmetric(self):
        bad = np.array([[0.0, 0.1], [0.2, 0.0]])
        with pytest.raises(ValidationError):
            EtaGraph(bad)

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            EtaGraph(np.full((2, 2), -0.1))


class TestRbfTensor:
    def test_identical_sets_unit_diagonal(self):
        pts = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]] * 3)
        t = tensor_from_points(pts, sigma=0.7)
        for i, j in t.pairs():
            blk = t.block(i, j)
            assert np.array_equal(np.diag(blk), np.ones(3))
            # distinct points: the matching entry strictly dominates its row
            off = blk + np.where(np.eye(3, dtype=bool), -np.inf, 0.0)
            assert np.all(np.diag(blk) > off.max(axis=1))

    def test_known_distance_entry(self):
        # ||x - y|| = sqrt(2) * sigma gives exp(-1)
        sigma = 0.5
        pts = np.array([[[0.0]], [[sigma * math.sqrt(2.0)]]])
        t = tensor_from_points(pts, sigma=sigma)
        # computed in float64, rounded to float32 once
        assert t.block(0, 1)[0, 0] == np.float32(math.exp(-1.0))

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(53)
        pts = rng.standard_normal((4, 5, 3))
        t = tensor_from_points(pts, sigma=1.3)
        for i, j in t.pairs():
            blk = t.block(i, j)
            assert blk.min() > 0.0 and blk.max() <= 1.0

    def test_rejects_bad_sigma(self):
        pts = np.zeros((2, 1, 1))
        for sigma in (0.0, -1.0, np.nan, np.inf, True, np.bool_(True), "1", None, 10**400):
            with pytest.raises(ParameterError):
                tensor_from_points(pts, sigma=sigma)
        want = tensor_from_points(pts, sigma=1.0).packed
        for sigma in (1, np.int64(1), np.float32(1.0), np.float64(1.0)):
            assert np.array_equal(tensor_from_points(pts, sigma=sigma).packed, want)

    @pytest.mark.parametrize("sigma", [1e-170, 1e-160, 1.05e-154])
    def test_refuses_a_sigma_whose_2_sigma_squared_is_not_normal(self, sigma):
        # coincident cross-set points once gave 0 / 0 = NaN, an error that
        # blamed the data; distinct ones divided by zero with a warning
        pts = np.array([[[0.0], [1.0]], [[0.0], [3.0]]])
        with pytest.raises(ParameterError, match="sigma"):
            tensor_from_points(pts, sigma=sigma)

    def test_overflowing_quotient_gives_zero_without_warning(self):
        # 2 sigma^2 is normal, but 9 / (2 sigma^2) overflows to inf
        pts = np.array([[[0.0], [1.0]], [[0.0], [3.0]]])
        t = tensor_from_points(pts, sigma=1.1e-154)
        assert t.block(0, 1).tolist() == [[1.0, 0.0], [0.0, 0.0]]

    @pytest.mark.parametrize("sigma", [1e200, 1e155, 10**200], ids=["1e200", "1e155", "int"])
    def test_refuses_a_sigma_whose_2_sigma_squared_overflows(self, sigma):
        # the squared distance 4e400 overflows too: inf / inf once gave NaN
        # and a ValidationError that blamed the points
        pts = np.array([[[0.0], [1e200]], [[0.0], [-1e200]]])
        with pytest.raises(ParameterError, match="sigma"):
            tensor_from_points(pts, sigma=sigma)

    @pytest.mark.parametrize("sigma", [np.float32(0.3), np.float16(0.3), np.float32(1e20),
                                       np.float16(300.0)],
                             ids=["float32", "float16", "float32-1e20", "float16-300"])
    def test_numpy_scalar_sigma_gives_the_python_float_tensor(self, sigma):
        # 2 sigma^2 once took sigma's dtype: the small sigmas gave other
        # entries, and the large ones overflowed to a ParameterError
        pts = np.random.default_rng(57).random((3, 4, 2))
        want = tensor_from_points(pts, sigma=float(sigma)).packed
        assert np.array_equal(tensor_from_points(pts, sigma=sigma).packed, want)

    @pytest.mark.parametrize("sigma", [1.0, 1e150])
    def test_overflowing_squared_distance_gives_zero_without_warning(self, sigma):
        pts = np.array([[[0.0], [1e200]], [[0.0], [-1e200]]])
        t = tensor_from_points(pts, sigma=sigma)
        assert t.block(0, 1).tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_oversized_tensor_refused_before_allocating(self):
        # 30000 sets of one point: 4.5 * 10^8 blocks, 3.6 GB packed
        pts = np.zeros((30_000, 1, 1))
        assert 30_000 * 29_999 // 2 * 8 > TENSOR_BYTES_CAP
        with util.within_seconds(2, "tensor_from_points with n=30000"):
            with pytest.raises(SizeError):
                tensor_from_points(pts, sigma=1.0)

    def test_validate_point_sets_errors(self):
        with pytest.raises(DimensionError):
            validate_point_sets(np.zeros((3, 2)))
        with pytest.raises(ValidationError):
            validate_point_sets(np.full((1, 1, 1), np.nan))


class TestMedianHeuristic:
    def test_single_cross_pair(self):
        pts = np.array([[[0.0, 0.0]], [[3.0, 4.0]]])
        assert median_heuristic_sigma(pts) == 5.0

    def test_hand_computed_median(self):
        # cross distances 0, 1, 1, sqrt(2); median of four = mean of middle two
        pts = np.array([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])
        assert median_heuristic_sigma(pts) == 1.0

    def test_exact_case_matches_brute_double_loop(self):
        rng = np.random.default_rng(58)
        for _ in range(12):
            n, m, d = int(rng.integers(2, 12)), int(rng.integers(1, 9)), int(rng.integers(1, 5))
            pts = rng.standard_normal((n, m, d)) * 10.0 ** rng.uniform(-3, 3)
            dists = []
            for i in range(n):
                for j in range(i + 1, n):
                    for p in range(m):
                        for q in range(m):
                            diff = pts[i, p] - pts[j, q]
                            dists.append(np.sqrt(np.sum(diff * diff)))
            assert median_heuristic_sigma(pts) == float(np.median(dists)), (n, m, d)

    def test_scale_homogeneity(self):
        rng = np.random.default_rng(54)
        pts = rng.standard_normal((3, 6, 2))
        base = median_heuristic_sigma(pts)
        scaled = median_heuristic_sigma(3.7 * pts)
        assert math.isclose(scaled, 3.7 * base, rel_tol=1e-12)

    def test_subsample_branch(self):
        # 1 pair of sets * 400^2 points = 160000 pairs forces the subsample
        rng = np.random.default_rng(55)
        pts = rng.standard_normal((2, 400, 2))
        a = median_heuristic_sigma(pts)
        b = median_heuristic_sigma(pts)
        assert a == b  # fixed internal seed
        scaled = median_heuristic_sigma(2.0 * pts)
        assert math.isclose(scaled, 2.0 * a, rel_tol=1e-12)
        # sanity: standard normal cross distances concentrate near sqrt(2d)
        assert 1.0 < a < 3.0

    def test_subsample_matches_pair_list_reference(self):
        # 19900 set pairs * 9 = 179100 point pairs forces the subsample
        pts = np.random.default_rng(56).standard_normal((200, 3, 2))
        assert median_heuristic_sigma(pts) == util.median_heuristic_sigma_sampled_reference(pts)

    def test_subsample_memory_linear_in_n(self):
        # 84.5M set pairs at m=1 pass TENSOR_BYTES_CAP; a list of them
        # would take gigabytes before any tensor exists
        n = 13_000
        check_tensor_size(n, 1)
        pts = np.random.default_rng(57).standard_normal((n, 1, 2))
        tracemalloc.start()
        try:
            sigma = median_heuristic_sigma(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert 1.0 < sigma < 3.0

    def test_degenerate_points(self):
        pts = np.zeros((2, 3, 2))
        with pytest.raises(ParameterError):
            median_heuristic_sigma(pts)

    def test_needs_two_sets(self):
        with pytest.raises(ParameterError):
            median_heuristic_sigma(np.zeros((1, 3, 2)))


class TestGroundTruth:
    def test_single_element_sets(self):
        s = gen_ground_truth(5, 1, seed=0)
        assert s.maps.tolist() == [[0]] * 5

    def test_deterministic(self):
        a = gen_ground_truth(4, 6, seed=9)
        b = gen_ground_truth(4, 6, seed=9)
        assert a == b

    def test_seed_sensitivity(self):
        a = gen_ground_truth(4, 6, seed=9)
        b = gen_ground_truth(4, 6, seed=10)
        assert a != b

    def test_uniform_over_positions(self):
        # sigma_0(0) should be uniform over 10 values across seeds
        m = 10
        counts = np.zeros(m)
        trials = 10_000
        for seed in range(trials):
            counts[gen_ground_truth(1, m, seed).maps[0, 0]] += 1
        expect = trials / m
        sd = math.sqrt(trials * (1 / m) * (1 - 1 / m))
        assert np.all(np.abs(counts - expect) < 5 * sd)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ParameterError):
            gen_ground_truth(0, 3, seed=0)


class TestNoisyTensor:
    def test_zero_noise_is_ideal(self):
        truth = gen_ground_truth(5, 4, seed=61)
        t = gen_noisy_tensor(truth, EtaGraph(np.zeros((5, 5))), seed=62)
        for i, j in t.pairs():
            assert np.array_equal(t.block(i, j), util.perm_matrix(truth.pairwise(i, j)))

    def test_deterministic(self):
        truth = gen_ground_truth(4, 5, seed=64)
        etas = EtaGraph(np.full((4, 4), 0.1) - np.diag([0.1] * 4))
        a = gen_noisy_tensor(truth, etas, seed=65)
        b = gen_noisy_tensor(truth, etas, seed=65)
        for i, j in a.pairs():
            assert np.array_equal(a.block(i, j), b.block(i, j))

    def test_deviation_structure(self):
        # ideal-1 cells hold 1 - Z^2 <= 1, ideal-0 cells hold Z^2 >= 0, and
        # the two deviations per (row, noise draw) are unclipped
        truth = gen_ground_truth(2, 6, seed=66)
        etas = EtaGraph(np.array([[0.0, 0.25], [0.25, 0.0]]))
        t = gen_noisy_tensor(truth, etas, seed=67)
        blk = t.block(0, 1)
        mask = util.perm_matrix(truth.pairwise(0, 1)).astype(bool)
        assert np.all(blk[mask] <= 1.0)
        assert np.all(blk[~mask] >= 0.0)
        assert blk[~mask].max() > 0.0  # noise actually present

    def test_moment_of_deviation(self):
        # mean of (1 - entry) over ideal-1 cells estimates eta
        eta = 0.04
        m = 30
        truth = gen_ground_truth(2, m, seed=0)
        etas = EtaGraph(np.array([[0.0, eta], [eta, 0.0]]))
        devs = []
        for seed in range(300):
            t = gen_noisy_tensor(truth, etas, seed=seed)
            blk = t.block(0, 1)
            mask = util.perm_matrix(truth.pairwise(0, 1)).astype(bool)
            devs.append(1.0 - blk[mask])
        mean = float(np.concatenate(devs).mean())
        count = 300 * m
        sd_mean = eta * math.sqrt(2.0 / count)  # Var[Z^2] = 2 eta^2
        assert abs(mean - eta) < 3.0 * sd_mean

    @pytest.mark.parametrize("n, m, blocks", [(6, 3, 3), (7, 2, 1), (5, 4, 1000)],
                             ids=["edges-inside-rows", "one-block", "one-chunk"])
    def test_chunked_draws_equal_the_one_shot_stream(self, monkeypatch, n, m, blocks):
        # with 3 blocks a chunk at n=6 the edges after pairs 3 and 6 fall
        # inside block rows 0, (0, 1)..(0, 5), and 1, (1, 2)..(1, 5)
        monkeypatch.setattr(matchmodel, "_DRAW_ENTRIES", blocks * m * m)
        for seed in range(3):
            truth, etas, t = make_instance(n, m, EtaTopology("star", 0.05, 0.5), seed)
            want = util.one_shot_noise(truth, etas, _sub_seeds(seed)[2])
            assert t.packed.tobytes() == want.astype(np.float32).tobytes()

    def test_no_float64_tensor_is_allocated(self):
        n, m = 80, 20
        truth = gen_ground_truth(n, m, seed=0)
        etas = EtaGraph(np.full((n, n), 0.3))
        tracemalloc.start()
        try:
            t = gen_noisy_tensor(truth, etas, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the float32 blocks, one chunk of float64 draws and the ideal maps
        assert peak < t.packed.nbytes + 8 * matchmodel._DRAW_ENTRIES + 2**20 < 2 * t.packed.nbytes

    def test_eta_shape_mismatch(self):
        truth = gen_ground_truth(3, 2, seed=0)
        with pytest.raises(DimensionError):
            gen_noisy_tensor(truth, EtaGraph(np.zeros((4, 4))), seed=0)


class TestObjective:
    def test_noiseless_value_exact(self):
        for n, m, seed in ((2, 3, 1), (5, 4, 2), (7, 2, 3)):
            truth, tensor = util.noiseless_instance(n, m, seed)
            assert objective(tensor, truth) == float(n * (n - 1) * m)

    def test_matches_matrix_product_oracle(self):
        rng_cases = ((3, 4, 71), (4, 3, 72), (5, 2, 73))
        for n, m, seed in rng_cases:
            t = util.uniform_tensor(n, m, seed)
            s = gen_ground_truth(n, m, seed + 1)
            want = util.naive_objective(t, s)
            assert math.isclose(objective(t, s), want, rel_tol=0, abs_tol=1e-9)

    def test_matches_trace_inner_product_route(self):
        t = util.uniform_tensor(4, 3, seed=74)
        s = gen_ground_truth(4, 3, seed=75)
        want = 0.0
        for i in range(4):
            for j in range(4):
                if i != j:
                    want += util.trace_of_product(util.perm_matrix(s.pairwise(i, j)), t.block(i, j))
        assert math.isclose(objective(t, s), want, rel_tol=0, abs_tol=1e-9)

    def test_two_sets_equals_twice_best_assignment(self):
        t = util.uniform_tensor(2, 5, seed=76)
        s0 = Solution([np.arange(5), np.arange(5)])
        new0, improved = coordinate_update(t, s0, 0)
        assert improved
        s = util.replace_row(s0, 0, new0)
        assert math.isclose(objective(t, s), 2.0 * f_score(t.block(0, 1)), rel_tol=0, abs_tol=1e-9)

    @pytest.mark.parametrize("n,m,seed", [(1, 4, 78), (2, 5, 79), (3, 1, 80), (7, 6, 81), (12, 9, 82)])
    def test_flat_gather_matches_three_array_gather_and_brute(self, n, m, seed):
        rng = np.random.default_rng(seed)
        t = SimilarityTensor(n, rng.standard_normal((n * (n - 1) // 2, m, m)))
        maps = np.array([rng.permutation(m) for _ in range(n)])
        got = _objective_perms(t, maps)
        # the three-array fancy index the flat gather replaced: the same
        # floats in the same (K, m) layout, so the same sum
        first, second = np.triu_indices(n, 1)
        picked = t.packed[np.arange(first.size)[:, None], maps[first], maps[second]]
        assert got == 2.0 * float(picked.astype(np.float64).sum())
        a = [util.perm_matrix(row) for row in maps]
        brute = sum(np.trace(a[i] @ t.block(i, j) @ a[j].T)
                    for i in range(n) for j in range(n) if i != j)
        assert math.isclose(got, brute, rel_tol=0, abs_tol=1e-12)
        if n == 1:
            assert got == 0.0

    def test_shape_mismatch(self):
        t = util.uniform_tensor(3, 2, seed=77)
        with pytest.raises(DimensionError):
            objective(t, gen_ground_truth(3, 3, seed=0))


class TestGaugeFreedom:
    def test_pairwise_maps_invariant(self):
        rng = np.random.default_rng(82)
        s = gen_ground_truth(4, 5, seed=83)
        g = rng.permutation(5)
        moved = util.reference_left_compose(s, g)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert np.array_equal(moved.pairwise(i, j), s.pairwise(i, j))

    def test_objective_invariant(self):
        rng = np.random.default_rng(84)
        t = util.uniform_tensor(4, 4, seed=85)
        s = gen_ground_truth(4, 4, seed=86)
        g = rng.permutation(4)
        assert math.isclose(
            objective(t, s), objective(t, util.reference_left_compose(s, g)), rel_tol=0, abs_tol=1e-9
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 500))
    def test_gauge_invariance_property(self, n, m, seed):
        rng = np.random.default_rng(seed)
        t = util.uniform_tensor(n, m, seed)
        s = gen_ground_truth(n, m, seed + 1)
        g = rng.permutation(m)
        moved = util.reference_left_compose(s, g)
        assert math.isclose(objective(t, s), objective(t, moved), rel_tol=0, abs_tol=1e-9)
