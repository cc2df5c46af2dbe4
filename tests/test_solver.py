import math
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mwmatch.assignment
import mwmatch.matrixcore
import mwmatch.spantree
from mwmatch.assignment import _assignment_value, lap_max
from mwmatch.errors import ParameterError, ValidationError
from mwmatch.evalbench import EtaTopology, avg_error_rate, make_instance, theorem2_bound
from mwmatch.matchmodel import (
    SimilarityTensor,
    Solution,
    gen_ground_truth,
    objective,
)
from mwmatch import solver
from mwmatch.solver import (
    IMPROVE_TOL,
    SolveReport,
    SolverConfig,
    coordinate_ascent,
    coordinate_update,
    mst_initialize,
    pairwise_alignment,
    solve_alg1,
    solve_alg2,
)
from mwmatch.spantree import build_align_graph, max_spanning_tree
from mwmatch.syncbaseline import permutation_synchronization

import util


def pairwise_maps(s):
    return {
        (i, j): tuple(s.pairwise(i, j).tolist())
        for i in range(s.n)
        for j in range(s.n)
        if i != j
    }


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.order == "prim"

    def test_fields(self):
        assert tuple(f.name for f in fields(SolverConfig)) == ("order", "max_sweeps", "seed")

    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            SolverConfig(order="dfs")
        with pytest.raises(ParameterError):
            SolverConfig(max_sweeps=0)
        for bad in ({"max_sweeps": 2.5}, {"max_sweeps": True}, {"seed": -1},
                    {"seed": 1.5}, {"seed": True}, {"seed": "1"}):
            with pytest.raises(ParameterError):
                SolverConfig(**bad)


class TestSolveReport:
    def test_accepts_flat_trace(self):
        s = gen_ground_truth(2, 2, seed=0)
        rep = SolveReport(s, (4.0, 4.0), 1, True)
        assert rep.objective_trace == (4.0, 4.0)


class TestPairwiseAlignment:
    def test_anchor_identity(self):
        t = util.uniform_tensor(4, 3, seed=101)
        s = pairwise_alignment(t)
        assert s.maps[0].tolist() == [0, 1, 2]

    def test_matches_per_block_brute(self):
        t = util.uniform_tensor(5, 4, seed=102)
        s = pairwise_alignment(t)
        for i in range(1, 5):
            _, want = util.lap_brute(t.block(0, i))
            got = float(t.block(0, i)[np.arange(4), s.pairwise(0, i)].sum())
            assert math.isclose(got, want, rel_tol=0, abs_tol=1e-12)

    def test_noiseless_recovery(self):
        truth, tensor = util.noiseless_instance(5, 4, seed=103)
        s = pairwise_alignment(tensor)
        assert avg_error_rate(s, truth) == 0.0


class TestCoordinateUpdate:
    def test_matches_full_enumeration(self):
        for seed in range(12):
            n = 3 + (seed % 2)
            m = 3 + (seed % 3)
            t = util.uniform_tensor(n, m, seed=110 + seed)
            s = gen_ground_truth(n, m, seed=130 + seed)
            for i in range(n):
                best_val, winners = util.enumerate_best_slot(t, s, i, objective)
                new_map, _ = coordinate_update(t, s, i)
                got = objective(t, util.replace_row(s, i, new_map))
                assert math.isclose(got, best_val, rel_tol=0, abs_tol=1e-8)
                if len(winners) == 1:
                    assert tuple(new_map.tolist()) == winners[0]

    def test_fixed_point_at_optimum(self):
        truth, tensor = util.noiseless_instance(4, 5, seed=141)
        for i in range(4):
            new_map, improved = coordinate_update(tensor, truth, i)
            assert not improved
            assert np.array_equal(new_map, truth.maps[i])

    def test_strict_improvement_when_accepted(self):
        t = util.uniform_tensor(4, 4, seed=142)
        s = gen_ground_truth(4, 4, seed=143)
        base = objective(t, s)
        new_map, improved = coordinate_update(t, s, 2)
        if improved:
            assert objective(t, util.replace_row(s, 2, new_map)) > base + IMPROVE_TOL

    def test_map_is_fresh_and_writable_on_both_branches(self):
        truth, _, t = make_instance(5, 4, EtaTopology("star", 0.05, 0.2), seed=7)
        start = Solution(np.tile(np.arange(4), (5, 1)))
        branches = set()
        for s in (truth, start):
            new_map, improved = coordinate_update(t, s, 2)
            branches.add(improved)
            assert new_map.flags.writeable
            assert not np.shares_memory(new_map, s.maps)
        assert branches == {False, True}

    def test_index_out_of_range(self):
        t = util.uniform_tensor(3, 3, seed=144)
        s = gen_ground_truth(3, 3, seed=0)
        with pytest.raises(ParameterError):
            coordinate_update(t, s, 3)

    @pytest.mark.parametrize("i", [1.5, True, np.float64(1.0), "1"],
                             ids=["float", "bool", "numpy-float", "str"])
    def test_rejects_non_integer_index(self, i):
        t = util.uniform_tensor(4, 3, seed=144)
        s = gen_ground_truth(4, 3, seed=0)
        with pytest.raises(ParameterError):
            coordinate_update(t, s, i)


class TestCoordinateAscent:
    def test_trace_monotone_and_converged(self):
        truth, tensor = util.noisy_instance(6, 5, eta=0.2, seed=171)
        s0 = gen_ground_truth(6, 5, seed=172)
        rep = coordinate_ascent(tensor, s0, SolverConfig())
        assert rep.converged
        assert rep.objective_trace[0] == pytest.approx(objective(tensor, s0))
        diffs = np.diff(rep.objective_trace)
        assert np.all(diffs >= -IMPROVE_TOL)
        assert rep.objective_trace[-1] == pytest.approx(objective(tensor, rep.solution))

    def test_already_optimal_stops_in_one_sweep(self):
        truth, tensor = util.noiseless_instance(4, 4, seed=173)
        rep = coordinate_ascent(tensor, truth, SolverConfig())
        assert rep.converged
        assert rep.sweeps_run == 1
        assert rep.objective_trace == (48.0, 48.0)
        assert rep.solution == truth

    def test_max_sweeps_cap(self):
        truth, tensor = util.noisy_instance(6, 6, eta=0.3, seed=174)
        s0 = gen_ground_truth(6, 6, seed=175)
        rep = coordinate_ascent(tensor, s0, SolverConfig(max_sweeps=1))
        assert rep.sweeps_run == 1
        if not rep.converged:
            assert len(rep.objective_trace) == 2

    def test_deterministic(self):
        truth, tensor = util.noisy_instance(5, 5, eta=0.25, seed=176)
        s0 = gen_ground_truth(5, 5, seed=177)
        a = coordinate_ascent(tensor, s0, SolverConfig())
        b = coordinate_ascent(tensor, s0, SolverConfig())
        assert a.solution == b.solution
        assert a.objective_trace == b.objective_trace

    def test_seed_does_not_reach_the_solvers(self):
        # the seed drives only coord's random start, never an ascent
        _, tensor = util.noisy_instance(7, 5, eta=0.3, seed=180)
        s0 = gen_ground_truth(7, 5, seed=181)
        a, b = SolverConfig(seed=0), SolverConfig(seed=12345)
        rep = coordinate_ascent(tensor, s0, a)
        assert rep.sweeps_run >= 2 and rep == coordinate_ascent(tensor, s0, b)
        assert solve_alg1(tensor, a) == solve_alg1(tensor, b)
        for order in ("prim", "kruskal"):
            assert (solve_alg2(tensor, replace(a, order=order))
                    == solve_alg2(tensor, replace(b, order=order)))

    @pytest.mark.parametrize("k", [0, 3, 7])
    def test_skips_visits_whose_coefficient_is_unchanged(self, k, monkeypatch):
        # One swap away from the truth at index k. Sweep 1 solves every
        # index and accepts only k, which makes every other index stale;
        # the indices after k are solved again later in sweep 1, so sweep
        # 2 re-solves only the k indices before k. With k = 0 nothing is
        # stale after sweep 1, and no second sweep runs.
        n, m = 8, 5
        truth, tensor = util.noiseless_instance(n, m, seed=183)
        wrong = truth.maps[k].copy()
        wrong[[0, 1]] = wrong[[1, 0]]
        s0 = util.replace_row(truth, k, wrong)
        calls = []
        real = solver.lap_max
        monkeypatch.setattr(solver, "lap_max", lambda c: calls.append(1) or real(c))
        rep = coordinate_ascent(tensor, s0, SolverConfig())
        assert rep.solution == truth
        assert rep.sweeps_run == (1 if k == 0 else 2) and rep.converged
        assert len(calls) == n + k

    def test_sweep_that_accepts_nothing_reuses_the_objective(self, monkeypatch):
        # only the last sweep can accept nothing,
        # so a converged ascent evaluates the objective once at the start
        # and once per earlier sweep, and its last entry repeats
        _, tensor = util.noisy_instance(6, 5, eta=0.2, seed=171)
        s0 = gen_ground_truth(6, 5, seed=172)
        calls = []
        real = solver._objective_perms
        monkeypatch.setattr(solver, "_objective_perms",
                            lambda t, maps: calls.append(1) or real(t, maps))
        rep = coordinate_ascent(tensor, s0, SolverConfig())
        assert rep.converged and rep.sweeps_run >= 2
        assert len(calls) == rep.sweeps_run
        assert rep.objective_trace[-1] == rep.objective_trace[-2]

    def test_first_visit_builds_the_matrix_coordinate_update_builds(self, monkeypatch):
        _, _, tensor = make_instance(12, 6, EtaTopology("star", 0.01, 0.3), seed=3)
        s0 = gen_ground_truth(12, 6, seed=4)
        cfg = SolverConfig(max_sweeps=1)
        solved = []
        real = solver.lap_max
        monkeypatch.setattr(solver, "lap_max", lambda c: solved.append(c.copy()) or real(c))
        new, improved = coordinate_update(tensor, s0, 0)
        rep = coordinate_ascent(tensor, s0, cfg)
        monkeypatch.setattr(solver, "lap_max", real)
        want, maps, _, _ = util.coefficient_ascent(tensor, s0, cfg)
        assert improved
        assert len(solved) == 1 + len(want) == 1 + 12
        assert np.array_equal(solved[0], solved[1])
        assert all(np.array_equal(a, b) for a, b in zip(solved[1:], want))
        assert rep.solution.maps[0].tolist() == new.tolist()
        assert np.array_equal(rep.solution.maps, maps)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 8),
        m=st.integers(1, 5),
        kind=st.sampled_from(["int", "float"]),
        max_sweeps=st.sampled_from([1, 2, 1000]),
        seed=st.integers(0, 2**16),
    )
    def test_solves_the_matrices_a_per_visit_rebuild_solves(self, n, m, kind, max_sweeps, seed):
        # The sweep builds C_i from block rows as it goes; each matrix it
        # hands to the LAP must equal _coefficients' rebuild bit for bit.
        # The start puts A_0 at the worst assignment of C_0, so the first
        # visit accepts unless every assignment ties.
        t = tie_prone_tensor(n, m, kind, seed)
        maps = gen_ground_truth(n, m, seed + 1).maps.copy()
        maps[0] = lap_max(-solver._coefficients(t, np.arange(1, n), 0, maps))
        start = Solution(maps)
        cfg = SolverConfig(max_sweeps=max_sweeps)
        solved = []
        real = solver.lap_max
        with mock.patch.object(solver, "lap_max", lambda c: solved.append(c.copy()) or real(c)):
            rep = coordinate_ascent(t, start, cfg)
        want, maps, sweeps, converged = util.coefficient_ascent(t, start, cfg)
        assert len(solved) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(solved, want))
        assert np.array_equal(rep.solution.maps, maps)
        assert (rep.sweeps_run, rep.converged) == (sweeps, converged)
        if kind == "float" and n > 1 and m > 1:
            assert rep.objective_trace[1] > rep.objective_trace[0]

    def test_gauge_equivariant_outcome(self):
        # common relabeling of the start leaves all pairwise maps unchanged
        rng = np.random.default_rng(180)
        t = util.uniform_tensor(4, 4, seed=181)
        s0 = gen_ground_truth(4, 4, seed=182)
        g = rng.permutation(4)
        a = coordinate_ascent(t, s0, SolverConfig())
        b = coordinate_ascent(t, util.reference_left_compose(s0, g), SolverConfig())
        assert pairwise_maps(a.solution) == pairwise_maps(b.solution)
        assert np.allclose(a.objective_trace, b.objective_trace)


class TestMstInitialize:
    def test_noiseless_any_spanning_order(self):
        truth, tensor = util.noiseless_instance(5, 4, seed=191)
        for edges in (((0, 1), (1, 2), (2, 3), (3, 4)),
                      ((0, 4), (0, 3), (0, 2), (0, 1)),
                      ((2, 3), (0, 1), (1, 2), (3, 4))):
            s = mst_initialize(tensor, edges)
            assert avg_error_rate(s, truth) == 0.0

    def test_tree_edges_single_block_optimal(self):
        _, tensor = util.noisy_instance(6, 4, eta=0.25, seed=192)
        g = build_align_graph(tensor)
        order = max_spanning_tree(g)
        s = mst_initialize(tensor, order)
        for i, j in order:
            blk = tensor.block(i, j)
            achieved = float(blk[np.arange(4), s.pairwise(i, j)].sum())
            assert math.isclose(achieved, util.lap_brute(blk)[1], rel_tol=0, abs_tol=1e-12)

    def test_walk_is_any_iterable_of_pairs_either_way_round(self):
        _, tensor = util.noisy_instance(7, 4, eta=0.25, seed=195)
        order = max_spanning_tree(build_align_graph(tensor))
        want = mst_initialize(tensor, order)
        got = mst_initialize(tensor, [(j, i) for i, j in order])
        assert got == want

    def test_rejects_non_spanning(self):
        _, tensor = util.noiseless_instance(4, 3, seed=193)
        with pytest.raises(ValidationError, match="need 3"):
            mst_initialize(tensor, ((0, 1), (2, 3)))
        with pytest.raises(ValidationError, match="closes a cycle"):
            mst_initialize(tensor, ((0, 1), (1, 2), (0, 2)))
        with pytest.raises(ValidationError, match="out of range"):
            mst_initialize(tensor, ((0, 1), (1, 2), (2, 5)))

    def test_single_set(self):
        t = util.uniform_tensor(1, 3, seed=194)
        s = mst_initialize(t, ())
        assert s.maps.tolist() == [[0, 1, 2]]


class TestSolveAlg1:
    def test_noiseless_exact(self):
        for seed in range(5):
            n, m = 3 + seed % 4, 2 + seed % 5
            truth, tensor = util.noiseless_instance(n, m, seed=200 + seed)
            rep = solve_alg1(tensor)
            assert rep.converged
            assert avg_error_rate(rep.solution, truth) == 0.0
            assert rep.objective_trace[-1] == float(n * (n - 1) * m)

    def test_trace_covers_both_phases(self):
        _, tensor = util.noisy_instance(6, 5, eta=0.25, seed=210)
        rep = solve_alg1(tensor)
        g = build_align_graph(tensor)
        s0 = mst_initialize(tensor, max_spanning_tree(g))
        assert rep.objective_trace[0] == pytest.approx(objective(tensor, s0))
        assert len(rep.objective_trace) == rep.sweeps_run + 1

    def test_beats_pairwise_statistically(self):
        # no per-instance guarantee exists (ascent is a local method and
        # can land below the anchor solution), but over seeds the tree
        # seeding wins by a wide margin at this noise level
        wins = losses = 0
        total_gap = 0.0
        for seed in range(20):
            _, tensor = util.noisy_instance(6, 5, eta=0.25, seed=220 + seed)
            rep = solve_alg1(tensor)
            pw = objective(tensor, pairwise_alignment(tensor))
            total_gap += rep.objective_trace[-1] - pw
            if rep.objective_trace[-1] > pw + IMPROVE_TOL:
                wins += 1
            elif rep.objective_trace[-1] < pw - IMPROVE_TOL:
                losses += 1
        assert wins >= 15
        assert losses <= 3
        assert total_gap / 20.0 > 5.0

    def test_order_variants_run(self):
        truth, tensor = util.noiseless_instance(5, 3, seed=230)
        for order in ("prim", "kruskal"):
            rep = solve_alg1(tensor, SolverConfig(order=order))
            assert avg_error_rate(rep.solution, truth) == 0.0

    def test_prim_and_kruskal_reports_identical(self):
        # alg1 reads no order, so both give one report, also on integer
        # blocks whose tied optima let Prim's walk start elsewhere
        _, noisy = util.noisy_instance(8, 5, eta=0.25, seed=231)
        for tensor in (noisy, tie_prone_tensor(6, 4, "int", 1)):
            prim = solve_alg1(tensor, SolverConfig(order="prim"))
            kruskal = solve_alg1(tensor, SolverConfig(order="kruskal"))
            assert prim == kruskal


class TestSolveAlg2:
    def test_noiseless_exact_both_orders(self):
        for seed in range(5):
            n, m = 3 + seed % 4, 2 + seed % 5
            truth, tensor = util.noiseless_instance(n, m, seed=240 + seed)
            for order in ("prim", "kruskal"):
                rep = solve_alg2(tensor, SolverConfig(order=order))
                assert rep.converged
                assert avg_error_rate(rep.solution, truth) == 0.0
                assert rep.objective_trace == (float(n * (n - 1) * m),)

    def test_two_sets_reduces_to_single_block(self):
        t = util.uniform_tensor(2, 5, seed=250)
        rep = solve_alg2(t, SolverConfig(order="prim"))
        want = util.lap_brute(t.block(0, 1))[1]
        assert math.isclose(rep.objective_trace[-1], 2.0 * want, rel_tol=0, abs_tol=1e-9)

    def test_trace_is_single_entry(self):
        _, tensor = util.noisy_instance(5, 4, eta=0.2, seed=251)
        rep = solve_alg2(tensor)
        assert len(rep.objective_trace) == 1
        assert rep.sweeps_run == 0
        assert rep.objective_trace[0] == pytest.approx(objective(tensor, rep.solution))

    def test_one_default_order(self):
        # every call form that leaves order unset walks Prim's order
        _, tensor = util.noisy_instance(8, 5, eta=0.3, seed=281)
        prim = solve_alg2(tensor, SolverConfig(order="prim"))
        assert prim != solve_alg2(tensor, SolverConfig(order="kruskal"))
        assert solve_alg2(tensor) == solve_alg2(tensor, SolverConfig(seed=3)) == prim

    def test_rejects_basic_order(self):
        _, tensor = util.noiseless_instance(3, 3, seed=252)
        with pytest.raises(ParameterError):
            solve_alg2(tensor, SolverConfig(order="basic"))

    def test_max_sweeps_caps_each_merge(self):
        # these merges need a second sweep, so one sweep each leaves the
        # restricted ascents unconverged
        _, tensor = util.noisy_instance(6, 5, eta=0.3, seed=270)
        for order in ("prim", "kruskal"):
            assert solve_alg2(tensor, SolverConfig(order=order)).converged
            capped = solve_alg2(tensor, SolverConfig(order=order, max_sweeps=1))
            assert not capped.converged
            assert capped.sweeps_run == 0

    def test_inner_ascent_cannot_hurt(self):
        # with inner sweeps the result is never worse than plain tree init
        for seed in range(10):
            _, tensor = util.noisy_instance(6, 5, eta=0.25, seed=260 + seed)
            g = build_align_graph(tensor)
            s_init = mst_initialize(tensor, max_spanning_tree(g))
            rep = solve_alg2(tensor, SolverConfig(order="kruskal"))
            assert rep.objective_trace[-1] >= objective(tensor, s_init) - IMPROVE_TOL


class TestConvergedMeansNoImprovingUpdate:
    def test_no_index_improves(self):
        # a converged report has every A_i at the assignment argmax of its
        # coefficient matrix
        for seed in range(12):
            n, m = 6 + seed % 7, 4 + seed % 5
            _, tensor = util.noisy_instance(n, m, eta=0.3, seed=900 + seed)
            cfg = SolverConfig(seed=seed)
            start = gen_ground_truth(n, m, seed=950 + seed)
            for rep in (coordinate_ascent(tensor, start, cfg), solve_alg1(tensor, cfg),
                        solve_alg2(tensor, replace(cfg, order="prim"))):
                assert rep.converged
                improvable = [i for i in range(n)
                              if coordinate_update(tensor, rep.solution, i)[1]]
                assert improvable == []


class TestRecoveryRegime:
    def test_low_noise_recovery_rate(self):
        # uniform noise below the provable threshold: near-certain recovery
        n, m = 45, 8
        bound = theorem2_bound(n, m)
        eta = 0.02
        assert eta < bound
        topology = EtaTopology(kind="uniform", eta_tree=0.0, eta_off=eta)
        hits = 0
        for seed in range(100):
            truth, _, tensor = make_instance(n, m, topology, seed)
            rep = solve_alg1(tensor)
            if avg_error_rate(rep.solution, truth) == 0.0:
                hits += 1
        assert hits >= 90


class TestTreeSeedIsExactOnTheStarCell:
    """The anchor cell: n=60, m=20, star layout, eta 0.01 on the tree and
    0.30 off it. Weighted by f(T_ij) / ||T_ij||_F, the maximum spanning
    tree is the star itself, so the seed is exact, the ascent's one sweep
    accepts nothing, and lazy Kruskal solves only the n - 1 tree blocks."""

    TOPOLOGY = EtaTopology(kind="star", eta_tree=0.01, eta_off=0.30)

    @pytest.mark.parametrize("seed", range(10))
    def test_seed_exact_one_sweep_n_minus_1_solves(self, seed, monkeypatch):
        import mwmatch.spantree
        n, m = 60, 20
        truth, _, tensor = make_instance(n, m, self.TOPOLOGY, seed)
        calls = []
        real = mwmatch.spantree.f_score

        def counted(c):
            calls.append(1)
            return real(c)

        monkeypatch.setattr(mwmatch.spantree, "f_score", counted)
        seed_solution = mst_initialize(tensor, max_spanning_tree(build_align_graph(tensor)))
        assert len(calls) == n - 1
        assert avg_error_rate(seed_solution, truth) == 0.0
        assert solve_alg1(tensor).sweeps_run == 1


def tie_prone_tensor(n, m, kind, seed):
    """Blocks with small integer entries, one constant per block, or
    uniform floats. Integer sums are exact in any order, so coefficients
    summed in any order or kept in a cache agree bit for bit and ties
    stay ties."""
    rng = np.random.default_rng(seed)
    p = n * (n - 1) // 2
    if kind == "int":
        packed = rng.integers(0, 3, size=(p, m, m)).astype(float)
    elif kind == "const":
        packed = np.repeat(rng.random(p), m * m).reshape(p, m, m)
    else:
        packed = rng.random((p, m, m))
    return SimilarityTensor(n, packed)


class TestCoefficients:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 8),
        m=st.integers(1, 5),
        kind=st.sampled_from(["int", "float"]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_matches_the_block_loop(self, n, m, kind, seed, data):
        # every i, so the split falls at both ends, over the whole rest
        # and over a random sorted sub-group
        t = tie_prone_tensor(n, m, kind, seed)
        maps = gen_ground_truth(n, m, seed + 1).maps
        for i in range(n):
            keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            for others in (np.delete(np.arange(n), i),
                           np.array([j for j in range(n) if keep[j] and j != i], dtype=np.int64)):
                got = solver._coefficients(t, others, i, maps)
                want = np.zeros((m, m))
                for j in others:
                    want += t.block(j, i)[maps[j], :]
                if kind == "int":
                    assert np.array_equal(got, want)
                else:
                    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def bound_prone_stack(k, m, kind, seed):
    """k matrices, (k, m, m): small integers that tie, one constant per
    matrix, signed zeros, signed floats whose exponents span 2^-1000 to
    2^1000 (sums of 40 stay finite), or floats below IMPROVE_TOL / 4, whose
    doubled assignment gains fall on both sides of IMPROVE_TOL."""
    rng = np.random.default_rng(seed)
    shape = (k, m, m)
    if kind == "tol":
        return rng.random(shape) * (IMPROVE_TOL / 4)
    if kind == "int":
        return rng.integers(-2, 3, size=shape).astype(float)
    if kind == "const":
        return np.repeat(rng.standard_normal(k), m * m).reshape(shape)
    if kind == "zeros":
        return np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    return np.ldexp(rng.standard_normal(shape), rng.integers(-1000, 1000, size=shape))


def solve_alg2_lap_calls(t, cfg, monkeypatch):
    """The report of solve_alg2 and the number of mwmatch.solver.lap_max calls it made."""
    calls = []
    real = solver.lap_max
    monkeypatch.setattr(solver, "lap_max", lambda c: calls.append(1) or real(c))
    report = solve_alg2(t, cfg)
    monkeypatch.setattr(solver, "lap_max", real)
    return report, len(calls)


class TestRowMaxBound:
    """solve_alg2's sweep settles a stale index without a visit when its
    C_i's row maxima sum to within IMPROVE_TOL of its map's value. That
    decides as the visit would only if the batched sums add in the order
    of _assignment_value's, so the LAP's value can never exceed the bound."""

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(1, 8),
        m=st.integers(1, 40),
        kind=st.sampled_from(["int", "const", "zeros", "wide", "tol"]),
        seed=st.integers(0, 2**16),
    )
    def test_batched_sums_match_the_single_ones_bit_for_bit(self, k, m, kind, seed):
        c = bound_prone_stack(k, m, kind, seed)
        maps = np.argsort(np.random.default_rng(seed + 1).random((k, m)), axis=1)
        bound, cur = solver._bounds(c, maps)
        assert bound.shape == cur.shape == (k,)
        for r in range(k):
            assert np.float64(cur[r]).tobytes() == np.float64(
                _assignment_value(c[r], maps[r])).tobytes()
            assert np.float64(bound[r]).tobytes() == np.float64(c[r].max(axis=1).sum()).tobytes()
            assert _assignment_value(c[r], lap_max(c[r])) <= bound[r]

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(1, 12),
        kind=st.sampled_from(["int", "const", "zeros", "tol"]),
        seed=st.integers(0, 2**16),
    )
    def test_settles_only_what_a_visit_would_reject(self, m, kind, seed):
        # a group of one index: its sweep solves a LAP exactly when the
        # bound pass leaves it stale
        c = bound_prone_stack(1, m, kind, seed)
        start = np.random.default_rng(seed + 1).permutation(m)[None]
        maps = start.copy()
        calls = []
        real = solver.lap_max
        with mock.patch.object(solver, "lap_max", lambda x: calls.append(1) or real(x)):
            solver._ascend(SimilarityTensor(1, np.zeros((0, m, m))), maps, np.array([True]),
                           np.array([0]), 1, cache=c.copy())
        gain = _assignment_value(c[0], lap_max(c[0])) - _assignment_value(c[0], start[0])
        if not calls:
            assert 2.0 * gain <= IMPROVE_TOL and np.array_equal(maps, start)

    def test_settles_most_visits_on_the_star_cell(self, monkeypatch):
        # n=60, m=20, star 0.01/0.30, seed 0: without the bound pass the
        # walk solved 1,982 LAPs under Prim's order and 1,981 under
        # Kruskal's; with it, 433 and 437
        _, _, t = make_instance(60, 20, EtaTopology("star", 0.01, 0.30), 0)
        for order, before in (("prim", 1982), ("kruskal", 1981)):
            _, calls = solve_alg2_lap_calls(t, SolverConfig(order=order), monkeypatch)
            assert calls <= before // 2, order


class TestCacheMatchesReference:
    """The solvers, whose coefficients solve_alg2 keeps in a cache and the
    global ascent builds from block rows during each sweep, against the
    loop that rebuilds every coefficient matrix block by block on each
    visit (util.reference_*)."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 8),
        m=st.integers(1, 5),
        kind=st.sampled_from(["int", "const", "float"]),
        order=st.sampled_from(["prim", "kruskal"]),
        max_sweeps=st.sampled_from([1, 2, 1000]),
        seed=st.integers(0, 2**16),
    )
    def test_same_reports(self, n, m, kind, order, max_sweeps, seed):
        t = tie_prone_tensor(n, m, kind, seed)
        cfg = SolverConfig(order=order, max_sweeps=max_sweeps, seed=seed)
        start = gen_ground_truth(n, m, seed + 1)
        for got, want in (
            (coordinate_ascent(t, start, cfg), util.reference_ascent(t, start, cfg)),
            (solve_alg1(t, cfg), util.reference_alg1(t, cfg)),
            (solve_alg2(t, cfg), util.reference_alg2(t, cfg)),
        ):
            maps, trace, sweeps, converged = want
            assert got.solution.maps.tolist() == [mp.tolist() for mp in maps]
            assert (got.sweeps_run, got.converged) == (sweeps, converged)
            assert len(got.objective_trace) == len(trace)
            for a, b in zip(got.objective_trace, trace):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(b))

    @pytest.mark.parametrize("order", ["prim", "kruskal"])
    @pytest.mark.parametrize("kind,n,m,settled", [("star", 30, 10, True), ("uniform", 16, 8, False)])
    def test_alg2_where_the_bound_settles_and_where_it_does_not(self, kind, n, m, settled, order,
                                                                monkeypatch):
        # Both walks solve n - 1 merge LAPs. The reference then solves one
        # per stale visit; solve_alg2 skips the visits the row-max bound
        # settles. Seed 0: on the star cell it solves 186 (prim) and 169
        # (kruskal) of the reference's 506 and 540; at uniform noise 0.30,
        # 381 and 264 of 474 and 320.
        topology = EtaTopology(kind, 0.01 if kind == "star" else 0.0, 0.30)
        _, _, t = make_instance(n, m, topology, 0)
        cfg = SolverConfig(order=order)
        ref_calls = []
        real = util.lap_max
        monkeypatch.setattr(util, "lap_max", lambda c: ref_calls.append(1) or real(c))
        maps, trace, sweeps, converged = util.reference_alg2(t, cfg)
        got, calls = solve_alg2_lap_calls(t, cfg, monkeypatch)
        assert got.solution.maps.tolist() == [mp.tolist() for mp in maps]
        assert (got.sweeps_run, got.converged) == (sweeps, converged)
        (a,), (b,) = got.objective_trace, trace
        assert abs(a - b) <= 1e-9 * abs(b)
        visits, ref_visits = calls - (n - 1), len(ref_calls) - (n - 1)
        assert (visits <= ref_visits / 2) == settled, (visits, ref_visits)

    def test_coordinate_update_matchesreference_visit(self):
        truth, tensor = util.noisy_instance(7, 5, eta=0.3, seed=812)
        s = gen_ground_truth(7, 5, seed=813)
        for i in range(7):
            maps = list(s.maps)
            improved = util.reference_visit(tensor, maps, i, list(range(7)))
            new_map, got = coordinate_update(tensor, s, i)
            assert got == improved
            assert new_map.tolist() == maps[i].tolist()


class TestChecksAtTheBoundary:
    """A tensor is checked when it is built, so the solvers' own LAPs and
    sync's eigensolve run unchecked; only lazy Kruskal's f_score checks,
    because an AlignGraph's blocks may come from any caller."""

    @pytest.mark.parametrize("run,scores", [
        (lambda t, s: pairwise_alignment(t), False),
        (lambda t, s: solve_alg1(t), True),
        (lambda t, s: solve_alg2(t, SolverConfig(order="prim")), True),
        (lambda t, s: solve_alg2(t, SolverConfig(order="kruskal")), True),
        (lambda t, s: coordinate_update(t, s, 3), False),
        (lambda t, s: permutation_synchronization(t), False),
    ], ids=["pairwise", "alg1", "alg2-prim", "alg2-kruskal", "coordinate_update", "sync"])
    def test_only_graph_scoring_checks(self, run, scores, monkeypatch):
        _, _, t = make_instance(8, 4, EtaTopology("star", 0.01, 0.30), 0)
        s = gen_ground_truth(8, 4, 1)
        counts = {}

        def count(module, name):
            real = getattr(module, name)
            counts[name] = 0

            def counted(*args):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)

        count(mwmatch.assignment, "_checked_square")
        count(mwmatch.matrixcore, "as_matrix")
        count(mwmatch.spantree, "f_score")
        run(t, s)
        assert (counts["f_score"] > 0) == scores
        assert counts["_checked_square"] == counts["f_score"]
        assert counts["as_matrix"] == 0
