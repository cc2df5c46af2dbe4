import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwmatch import (
    AlignGraph,
    EtaGraph,
    SimilarityTensor,
    Solution,
    median_heuristic_sigma,
    pca_experiment,
    sym_eigs_topk,
    tensor_from_points,
)
from mwmatch.assignment import _assignment_value, f_score, lap_max
from mwmatch.errors import SizeError, ValidationError
from mwmatch.evalbench import reorder_points

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
        assert lap_max(np.eye(3)).tolist() == [0, 1, 2]
        assert f_score(np.eye(3)) == 3.0

    def test_permutation_matrix_input(self):
        p = np.array([2, 0, 1, 3])
        assert np.array_equal(lap_max(util.perm_matrix(p)), p)
        assert f_score(util.perm_matrix(p)) == 4.0

    def test_two_by_two_example(self):
        c = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert lap_max(c).tolist() == [0, 1]
        assert f_score(c) == 0.9 + 0.8
        assert math.isclose(f_score(c), 1.7, rel_tol=0, abs_tol=1e-12)

    def test_single_entry(self):
        assert lap_max(np.array([[-3.5]])).tolist() == [0]
        assert f_score(np.array([[-3.5]])) == -3.5

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            lap_max(np.ones((2, 3)))

    # list input of each kind is in test_real_array_rule
    @pytest.mark.parametrize("bad", [
        np.array([["1", "5"], ["3", "2"]]),
        np.eye(2, dtype=bool),
        np.array([[1 + 1j, 0], [0, 1]]),
    ], ids=["str-array", "bool-array", "complex"])
    def test_rejects_strings_and_bools(self, bad):
        with pytest.raises(ValidationError, match="real numbers"):
            lap_max(bad)
        with pytest.raises(ValidationError, match="real numbers"):
            f_score(bad)

    def test_float64_input_is_not_copied(self):
        from mwmatch.assignment import _checked_square

        c = np.random.default_rng(33).random((4, 4))
        assert _checked_square(c) is c

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
        assert lap_max(c).tolist() == [1, 0, 2]
        assert f_score(c) == np.inf  # the optimum itself overflows

        c = np.full((3, 3), 1e308)
        np.fill_diagonal(c, 9e307)
        mapping = lap_max(c)
        assert sorted(mapping.tolist()) == [0, 1, 2]
        assert all(mapping != np.arange(3))

    def test_result_map_is_int64_bijection(self):
        rng = np.random.default_rng(32)
        for m in (1, 2, 7, 20):
            mapping = lap_max(rng.standard_normal((m, m)))
            assert mapping.dtype == np.int64 and mapping.shape == (m,)
            assert sorted(mapping.tolist()) == list(range(m))

    def test_value_matches_perm_gather(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            c = rng.standard_normal((5, 5))
            gathered = float(c[np.arange(5), lap_max(c)].sum())
            assert f_score(c) == gathered

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda m: st.lists(st.integers(-4, 4) | st.floats(-1e3, 1e3), min_size=m * m, max_size=m * m)
        .map(lambda xs: np.array(xs, dtype=np.float64).reshape(m, m))))
    def test_value_bit_equal_to_shared_reduction(self, c):
        m = c.shape[0]
        mapping = lap_max(c)
        assert f_score(c) == float(c[np.arange(m), mapping].sum())
        assert f_score(c) == _assignment_value(c, mapping)
        _, best = util.lap_brute(c)
        assert math.isclose(f_score(c), best, rel_tol=1e-12, abs_tol=1e-9)


class TestLapBrute:
    """The brute-force assignment oracle of tests/util.py."""

    def test_agrees_with_lap_max(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            m = int(rng.integers(1, 6))
            c = rng.random((m, m))
            assert util.lap_brute(c)[1] == f_score(c)

    def test_tie_break_lexicographic(self):
        mapping, value = util.lap_brute(np.ones((3, 3)))
        assert mapping.tolist() == [0, 1, 2]
        assert value == 3.0

    def test_tie_break_partial(self):
        # rows 0/1 tie between columns 0/1; lexicographically smallest map wins
        c = np.array(
            [
                [1.0, 1.0, 0.0],
                [1.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        assert util.lap_brute(c)[0].tolist() == [0, 1, 2]

    def test_size_cap(self):
        with pytest.raises(SizeError):
            util.lap_brute(np.eye(9))

    def test_constant_shift(self):
        rng = np.random.default_rng(34)
        c = rng.random((4, 4))
        base_map, base_value = util.lap_brute(c)
        shifted_map, shifted_value = util.lap_brute(c + 2.5)
        assert np.array_equal(shifted_map, base_map)
        assert math.isclose(shifted_value, base_value + 4 * 2.5, rel_tol=0, abs_tol=1e-12)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(35)
        c = rng.standard_normal((5, 5))
        g = rng.permutation(5)
        # row p of the new matrix is row g(p) of the old one, so the new
        # optimum is g followed by the old map; the value is unchanged
        assert math.isclose(f_score(c[g]), f_score(c), rel_tol=0, abs_tol=1e-10)
        assert np.array_equal(lap_max(c[g]), lap_max(c)[g])


class TestFScore:
    def test_permutation_block(self):
        assert f_score(util.perm_matrix([1, 2, 0, 3])) == 4.0

    def test_matches_brute_on_noisy_block(self):
        rng = np.random.default_rng(36)
        ideal = util.perm_matrix([2, 0, 1, 3, 4])
        noisy = ideal + 0.05 * rng.standard_normal((5, 5))
        assert f_score(noisy) == util.lap_brute(noisy)[1]

    def test_result_type(self):
        mapping = lap_max(np.eye(2))
        assert isinstance(mapping, np.ndarray) and mapping.dtype == np.int64
        assert isinstance(f_score(np.eye(2)), float)
        assert isinstance(f_score([[1, 2], [3, 4]]), float)


def _ragged(a):
    """a with an entry dropped from its last innermost row; in a 1-D list
    the last entry becomes a row of its own."""
    if not isinstance(a[-1], list):
        return a[:-1] + [[a[-1]]]
    return a[:-1] + [_ragged(a[-1]) if isinstance(a[-1][-1], list) else a[-1][:-1]]


def _map_leaves(a, f):
    return [_map_leaves(x, f) for x in a] if isinstance(a, list) else f(a)


def _last_leaf(a, x):
    return a[:-1] + [_last_leaf(a[-1], x) if isinstance(a[-1], list) else x]


_SQUARE = [[1.0, 0.5], [0.5, 1.0]]
_POINTS = [[[0.0, 0.0], [1.0, 0.5]], [[0.5, 0.0], [1.5, 1.0]]]
_ETA = [[0.0, 0.1, 0.2], [0.1, 0.0, 0.3], [0.2, 0.3, 0.0]]

# every public entry point that takes an array of real numbers:
# (call on that argument, a valid argument, the name its errors give)
REAL_ARRAY_INPUTS = {
    "lap_max": (lap_max, _SQUARE, "assignment input"),
    "f_score": (f_score, _SQUARE, "assignment input"),
    "sym_eigs_topk": (lambda a: sym_eigs_topk(a, 1), _SQUARE, "matrix"),
    "tensor_from_points": (lambda a: tensor_from_points(a, 1.0), _POINTS, "point sets"),
    "median_heuristic_sigma": (median_heuristic_sigma, _POINTS, "point sets"),
    "reorder_points": (lambda a: reorder_points(a, Solution([[0, 1], [1, 0]])), _POINTS,
                       "point sets"),
    "pca_experiment": (lambda a: pca_experiment(a, {"none": None}, [1]), _POINTS, "point sets"),
    "EtaGraph": (EtaGraph, _ETA, "eta"),
    "AlignGraph": (lambda a: AlignGraph(n=3, weights=a), _ETA, "weights"),
    "SimilarityTensor": (lambda a: SimilarityTensor(2, a), [_SQUARE], "packed"),
}
NOT_REAL_ARRAYS = {
    "ragged": _ragged,
    "strings": lambda a: _map_leaves(a, str),  # numeric strings such as "0.5"
    "bools": lambda a: _map_leaves(a, bool),
    "none": lambda a: _last_leaf(a, None),
    # one bool among numbers, which numpy alone would read as 1.0
    "one-bool": lambda a: _last_leaf(a, True),
    "one-np-bool": lambda a: _last_leaf(a, np.True_),
}


@pytest.mark.parametrize("case", NOT_REAL_ARRAYS)
@pytest.mark.parametrize("entry", REAL_ARRAY_INPUTS)
def test_real_array_rule(entry, case):
    """One rule for every array of real numbers: ragged rows, strings,
    bools and None raise ValidationError naming the argument; none is
    parsed, read as 1 and 0, or left to numpy's bare ValueError."""
    call, valid, name = REAL_ARRAY_INPUTS[entry]
    call(valid)
    with pytest.raises(ValidationError, match=name):
        call(NOT_REAL_ARRAYS[case](valid))
