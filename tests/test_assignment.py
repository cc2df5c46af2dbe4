import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwmatch.assignment import AssignmentResult, Perm, _assignment_value, f_score, lap_max
from mwmatch.errors import SizeError, ValidationError

import util


class TestPermConvention:
    """The package-wide convention of the module docstring, on the
    permutation matrices of tests/util.py: row p of P(a) is one-hot at
    a(p), the gather b[a] is P(a) @ P(b), and argsort(a) is P(a)^T."""

    def test_matrix_one_hot_rows(self):
        want = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        assert np.array_equal(util.perm_matrix([1, 2, 0]), want)
        assert util.matrix_map(want).tolist() == [1, 2, 0]

    def test_product_matches_then(self):
        # a then b, p -> b(a(p)), is the gather b[a]
        a = np.array([1, 2, 0])
        b = np.array([0, 2, 1])
        prod = util.perm_matrix(a) @ util.perm_matrix(b)
        want = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float)
        assert np.array_equal(prod, want)
        assert b[a].tolist() == [2, 1, 0]
        assert np.array_equal(util.perm_matrix(b[a]), want)

    def test_inverse_is_transpose(self):
        p = np.array([2, 0, 3, 1])
        assert np.array_equal(util.perm_matrix(np.argsort(p)), util.perm_matrix(p).T)

    def test_identity(self):
        q = np.array([2, 0, 1])
        assert np.array_equal(util.perm_matrix(np.arange(4)), np.eye(4))
        assert np.array_equal(q[np.arange(3)], q) and np.array_equal(np.arange(3)[q], q)

    def test_map_read_only(self):
        p = Perm([1, 0])
        with pytest.raises(ValueError):
            p.map[0] = 0

    def test_rejects_non_bijections(self):
        with pytest.raises(ValidationError):
            Perm([0, 0, 1])
        with pytest.raises(ValidationError):
            Perm([0, 3])
        with pytest.raises(ValidationError):
            Perm([])

    @pytest.mark.parametrize("bad", [
        [0.0, 1.0],
        np.array([1.7, 0.2]),
        np.array([True, False]),
        np.array([1, 0], dtype=object),
    ])
    def test_rejects_non_integer_entries(self, bad):
        with pytest.raises(ValidationError, match="integers"):
            Perm(bad)

    def test_hash_eq(self):
        assert Perm([1, 0]) == Perm([1, 0])
        assert Perm([1, 0]) != Perm([0, 1])
        assert len({Perm([1, 0]), Perm([1, 0]), Perm([0, 1])}) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6).flatmap(lambda m: st.permutations(list(range(m)))))
    def test_inverse_roundtrip(self, p):
        p = np.array(p)
        inv = np.argsort(p)
        assert np.array_equal(p[inv], np.arange(p.size))
        assert np.array_equal(inv[p], np.arange(p.size))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10_000))
    def test_composition_homomorphism(self, m, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.permutation(m), rng.permutation(m)
        assert np.array_equal(util.perm_matrix(b[a]), util.perm_matrix(a) @ util.perm_matrix(b))


class TestLapMax:
    def test_identity_matrix(self):
        res = lap_max(np.eye(3))
        assert res.perm == Perm([0, 1, 2])
        assert res.value == 3.0

    def test_permutation_matrix_input(self):
        p = Perm([2, 0, 1, 3])
        res = lap_max(util.perm_matrix(p.map))
        assert res.perm == p
        assert res.value == 4.0

    def test_two_by_two_example(self):
        c = np.array([[0.9, 0.1], [0.2, 0.8]])
        res = lap_max(c)
        assert res.perm == Perm([0, 1])
        assert res.value == 0.9 + 0.8
        assert math.isclose(res.value, 1.7, rel_tol=0, abs_tol=1e-12)

    def test_single_entry(self):
        res = lap_max(np.array([[-3.5]]))
        assert res.perm == Perm([0])
        assert res.value == -3.5

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            lap_max(np.ones((2, 3)))

    # the cheap finiteness sum warns on inf - inf and on overflow
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_non_finite(self):
        for bad in ([np.nan, 0.0], [np.inf, 0.0], [-np.inf, 0.0], [np.inf, -np.inf]):
            c = np.array([[1.0, bad[0]], [bad[1], 1.0]])
            with pytest.raises(ValidationError):
                lap_max(c)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_accepts_finite_entries_whose_sum_overflows(self):
        c = np.array([[1e308, 1.5e308, 0.0],
                      [1.7e308, 1e308, 0.0],
                      [0.0, 0.0, 1e308]])
        assert np.isinf(c.sum())
        res = lap_max(c)
        assert res.perm == Perm([1, 0, 2])
        assert res.value == np.inf  # the optimum itself overflows

        c = np.full((3, 3), 1e308)
        np.fill_diagonal(c, 9e307)
        res = lap_max(c)
        assert sorted(res.perm.map.tolist()) == [0, 1, 2]
        assert all(res.perm.map != np.arange(3))

    def test_result_map_is_read_only_bijection(self):
        rng = np.random.default_rng(32)
        for m in (1, 2, 7, 20):
            res = lap_max(rng.standard_normal((m, m)))
            assert res.perm.map.dtype == np.int64
            assert sorted(res.perm.map.tolist()) == list(range(m))
            with pytest.raises(ValueError):
                res.perm.map[0] = 0
            assert res.perm == Perm(res.perm.map)

    def test_value_matches_perm_gather(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            c = rng.standard_normal((5, 5))
            res = lap_max(c)
            gathered = float(c[np.arange(5), res.perm.map].sum())
            assert res.value == gathered

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda m: st.lists(st.integers(-4, 4) | st.floats(-1e3, 1e3), min_size=m * m, max_size=m * m)
        .map(lambda xs: np.array(xs, dtype=np.float64).reshape(m, m))))
    def test_value_bit_equal_to_shared_reduction(self, c):
        res = lap_max(c)
        assert res.value == _assignment_value(c, res.perm.map)
        best = util.lap_brute(c)
        assert math.isclose(res.value, best.value, rel_tol=1e-12, abs_tol=1e-9)


class TestLapBrute:
    """The brute-force assignment oracle of tests/util.py."""

    def test_agrees_with_lap_max(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            m = int(rng.integers(1, 6))
            c = rng.random((m, m))
            assert util.lap_brute(c).value == lap_max(c).value

    def test_tie_break_lexicographic(self):
        res = util.lap_brute(np.ones((3, 3)))
        assert res.perm == Perm([0, 1, 2])
        assert res.value == 3.0

    def test_tie_break_partial(self):
        # rows 0/1 tie between columns 0/1; lexicographically smallest map wins
        c = np.array(
            [
                [1.0, 1.0, 0.0],
                [1.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        assert util.lap_brute(c).perm == Perm([0, 1, 2])

    def test_size_cap(self):
        with pytest.raises(SizeError):
            util.lap_brute(np.eye(9))

    def test_constant_shift(self):
        rng = np.random.default_rng(34)
        c = rng.random((4, 4))
        base = util.lap_brute(c)
        shifted = util.lap_brute(c + 2.5)
        assert shifted.perm == base.perm
        assert math.isclose(shifted.value, base.value + 4 * 2.5, rel_tol=0, abs_tol=1e-12)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(35)
        c = rng.standard_normal((5, 5))
        g = rng.permutation(5)
        base = lap_max(c)
        moved = lap_max(c[g])
        # row p of the new matrix is row g(p) of the old one, so the new
        # optimum is g followed by the old map; the value is unchanged
        assert math.isclose(moved.value, base.value, rel_tol=0, abs_tol=1e-10)
        assert np.array_equal(moved.perm.map, base.perm.map[g])


class TestFScore:
    def test_permutation_block(self):
        assert f_score(util.perm_matrix([1, 2, 0, 3])) == 4.0

    def test_matches_brute_on_noisy_block(self):
        rng = np.random.default_rng(36)
        ideal = util.perm_matrix([2, 0, 1, 3, 4])
        noisy = ideal + 0.05 * rng.standard_normal((5, 5))
        assert f_score(noisy) == util.lap_brute(noisy).value

    def test_result_type(self):
        res = lap_max(np.eye(2))
        assert isinstance(res, AssignmentResult)
        assert isinstance(res.value, float)
