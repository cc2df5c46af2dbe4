import numpy as np
import pytest
import scipy.sparse.linalg

from mwmatch import syncbaseline
from mwmatch.assignment import lap_max
from mwmatch.errors import SizeError
from mwmatch.evalbench import EtaTopology, avg_error_rate, make_instance
from mwmatch.matchmodel import SimilarityTensor, Solution
from mwmatch.matrixcore import _descending, _lapack_topk, sym_eigs_topk
from mwmatch.syncbaseline import (
    RESIDUAL_TOL,
    SYNC_SIZE_CAP,
    _float32_topk,
    _OutOfProducts,
    _residual,
    _stacked,
    _sync_eigs_topk,
    permutation_synchronization,
)

import util


class TestNoiselessRecovery:
    def test_four_sets(self):
        truth, tensor = util.noiseless_instance(4, 3, seed=301)
        s = permutation_synchronization(tensor)
        assert avg_error_rate(s, truth) == 0.0

    def test_anchor_is_identity(self):
        _, tensor = util.noiseless_instance(4, 3, seed=302)
        s = permutation_synchronization(tensor)
        assert s.maps[0].tolist() == [0, 1, 2]

    def test_top_eigenvalue_structure(self):
        # consistent noiseless stacking has eigenvalue n with multiplicity m
        n, m = 4, 3
        _, tensor = util.noiseless_instance(n, m, seed=303)
        big = np.eye(n * m)
        for i, j in tensor.pairs():
            blk = tensor.block(i, j)
            big[i * m:(i + 1) * m, j * m:(j + 1) * m] = blk
            big[j * m:(j + 1) * m, i * m:(i + 1) * m] = blk.T
        vals, _ = sym_eigs_topk(big, m + 1)
        assert np.allclose(vals[:m], float(n))
        assert vals[m] < n - 0.5

    def test_two_sets_matches_single_assignment(self):
        truth, tensor = util.noiseless_instance(2, 4, seed=304)
        s = permutation_synchronization(tensor)
        want = lap_max(tensor.block(0, 1))
        assert np.array_equal(s.pairwise(0, 1), want)

    def test_many_seeds(self):
        for seed in range(10):
            truth, tensor = util.noiseless_instance(3 + seed % 3, 2 + seed % 4, seed=310 + seed)
            s = permutation_synchronization(tensor)
            assert avg_error_rate(s, truth) == 0.0


def _dense_stacked(t):
    """The stacked matrix block by block, the identity on the diagonal."""
    n, m = t.n, t.m
    want = np.eye(n * m)
    for i, j in t.pairs():
        want[i * m:(i + 1) * m, j * m:(j + 1) * m] = t.block(i, j)
        want[j * m:(j + 1) * m, i * m:(i + 1) * m] = t.block(i, j).T
    return want


class TestStacked:
    def test_matches_block_loop_and_is_exactly_symmetric(self):
        # sync hands this matrix to the eigensolver kernel unchecked and
        # unsymmetrized, so it must be symmetric to the bit
        _, _, t = make_instance(5, 3, EtaTopology("uniform", 0.0, 0.3), 0)
        want = _dense_stacked(t)
        big = _stacked(t)
        assert big.dtype == np.float64
        assert np.array_equal(big, want)
        assert np.array_equal(big, big.T)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("scale", [1.0, 4.0])
    def test_each_dtype_and_scale_is_exactly_symmetric(self, dtype, scale):
        # the float32 build goes to the float32-product eigensolve, also
        # unchecked and unsymmetrized
        _, _, t = make_instance(5, 3, EtaTopology("uniform", 0.0, 0.3), 0)
        eye = np.eye(15)
        want = eye + (_dense_stacked(t) - eye) / scale
        big = _stacked(t, dtype, scale)
        assert big.dtype == dtype
        assert np.array_equal(big, want.astype(dtype))
        assert np.array_equal(big, big.T)


class TestResidual:
    @pytest.mark.parametrize("n,m", [(5, 3), (60, 20)])
    def test_packed_blocks_match_dense_product(self, n, m):
        _, _, t = make_instance(n, m, EtaTopology("star", 0.01, 0.30), 0)
        values, vectors, residuals = _float32_topk(t)
        big = _dense_stacked(t)
        dense = big @ vectors - vectors * values
        got = _residual(t, values, vectors)
        assert got.shape == (n * m, m)
        assert np.abs(got - dense).max() < 1e-12
        assert (residuals < RESIDUAL_TOL).all()

    def test_scaled_matrix_matches_dense_product(self):
        _, _, t = make_instance(5, 3, EtaTopology("star", 0.01, 0.30), 0)
        values, vectors, _ = _float32_topk(t)
        big = _stacked(t, np.float64, 8.0)
        got = _residual(t, values, vectors, 8.0)
        assert np.abs(got - (big @ vectors - vectors * values)).max() < 1e-12


class TestMixedPrecisionGuard:
    @staticmethod
    def _spy(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def spy(sym, k, *args):
            calls.append(sym.dtype)
            return real(sym, k, *args)

        monkeypatch.setattr(module, name, spy)
        return calls

    def test_benchmark_cell_passes_the_guard(self, monkeypatch):
        # at n=60, m=20 the float32-product vectors are rounded as they are
        fallback = self._spy(monkeypatch, syncbaseline, "_lapack_topk")
        _, _, t = make_instance(60, 20, EtaTopology("star", 0.01, 0.30), 0)
        assert permutation_synchronization(t) == util.reference_sync(t)
        assert fallback == []

    def test_one_traced_eigensolve_per_sync(self, monkeypatch):
        # perfbench times sync's eigensolve through this module attribute
        calls = []
        real = syncbaseline.sym_eigs_topk

        def counted(t):
            calls.append(t)
            return real(t)

        monkeypatch.setattr(syncbaseline, "sym_eigs_topk", counted)
        _, _, t = make_instance(6, 4, EtaTopology("star", 0.01, 0.30), 0)
        permutation_synchronization(t)
        assert calls == [t]

    def test_zero_threshold_takes_the_float64_path(self, monkeypatch):
        monkeypatch.setattr(syncbaseline, "RESIDUAL_TOL", 0.0)
        fallback = self._spy(monkeypatch, syncbaseline, "_lapack_topk")
        for seed in range(3):
            _, _, t = make_instance(20, 8, EtaTopology("star", 0.01, 0.30), seed)
            assert permutation_synchronization(t) == util.reference_sync(t)
        assert fallback == [np.float64] * 3

    def test_out_of_products_falls_back_to_float64_lapack(self, monkeypatch):
        def out_of_products(sym, k, tol):
            raise _OutOfProducts

        monkeypatch.setattr(syncbaseline, "_lanczos_topk", out_of_products)
        lapack = self._spy(monkeypatch, syncbaseline, "_lapack_topk")
        _, _, t = make_instance(12, 6, EtaTopology("uniform", 0.0, 0.30), 0)
        assert permutation_synchronization(t) == util.reference_sync(t)
        assert lapack == [np.float64]

    @staticmethod
    def _lapack_answer(t):
        return _descending(*_lapack_topk(_stacked(t), t.m))

    def test_tight_cluster_at_k_falls_back_to_lapack(self, monkeypatch):
        # every block is S, whose five smallest eigenvalues lie 1e-12 apart
        # from 0, so thirty stacked eigenvalues within 2e-11 of 1 straddle
        # k = m; Lanczos at machine precision does not split them, stops
        # after 2d products, and LAPACK answers
        n, m = 6, 10
        q, _ = np.linalg.qr(np.random.default_rng(16).standard_normal((m, m)))
        s = (q * np.r_[np.linspace(0.9, 0.5, m - 5), 1e-12 * np.arange(5)[::-1]]) @ q.T
        t = SimilarityTensor(n, np.broadcast_to((s + s.T) / 2.0, (n * (n - 1) // 2, m, m)))
        eigsh = scipy.sparse.linalg.eigsh
        products = []

        def counting(op, **kwargs):
            def matvec(x):
                products.append(None)
                return op.matvec(x)

            counted = scipy.sparse.linalg.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
            return eigsh(counted, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting)
        monkeypatch.setattr(syncbaseline, "LANCZOS_TOL", 0.0)
        vals, vecs = _sync_eigs_topk(t)
        assert len(products) == 2 * n * m + 1
        want_vals, want_vecs = self._lapack_answer(t)
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(vecs, want_vecs)

    def test_arpack_failure_falls_back_to_lapack(self, monkeypatch):
        _, _, t = make_instance(4, 3, EtaTopology("star", 0.01, 0.30), 0)
        calls = []

        def no_convergence(*args, **kwargs):
            calls.append(kwargs["k"])
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0), np.empty((12, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        vals, vecs = _sync_eigs_topk(t)
        assert calls == [3]
        want_vals, want_vecs = self._lapack_answer(t)
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(vecs, want_vecs)

    def test_repeat_calls_bitwise_on_degenerate_spectra(self):
        # ARPACK starts from a random vector, and where the top eigenvalue
        # is repeated (n, m times, for a noiseless tensor; 1 for the all-zero
        # tensor) that vector picks the basis; it must not depend on the call
        _, noiseless = util.noiseless_instance(4, 3, 0)
        for t in (noiseless, SimilarityTensor(4, np.zeros((6, 3, 3)))):
            vals, vecs = _sync_eigs_topk(t)
            for _ in range(2):
                again_vals, again_vecs = _sync_eigs_topk(t)
                assert np.array_equal(again_vals, vals)
                assert np.array_equal(again_vecs, vecs)

    @pytest.mark.parametrize("factor", [2.0 ** -60, 2.0 ** 100, 1e-9], ids=["2^-60", "2^100", "1e-9"])
    def test_tensor_scale_leaves_the_maps(self, monkeypatch, factor):
        # a positive factor leaves the stacked matrix's eigenvectors; float32
        # products still resolve them at scales far from 1, up to near the
        # top of float32's range, without falling back
        fallback = self._spy(monkeypatch, syncbaseline, "_lapack_topk")
        for seed in range(3):
            _, _, t = make_instance(20, 8, EtaTopology("star", 0.01, 0.30), seed)
            scaled = SimilarityTensor(t.n, t.packed * factor)
            assert permutation_synchronization(scaled) == permutation_synchronization(t)
        assert fallback == []

    def test_all_zero_tensor_gives_a_valid_solution(self):
        # the stacked matrix is the identity: every vector is an eigenvector
        n, m = 4, 3
        s = permutation_synchronization(SimilarityTensor(n, np.zeros((n * (n - 1) // 2, m, m))))
        assert isinstance(s, Solution)
        assert s.n == n and s.m == m
        assert all(sorted(row) == list(range(m)) for row in s.maps.tolist())


class TestNoisyBehavior:
    def test_mild_noise_still_recovers(self):
        truth, tensor = util.noisy_instance(6, 4, eta=0.02, seed=320)
        s = permutation_synchronization(tensor)
        assert avg_error_rate(s, truth) == 0.0

    def test_anchor_identity_under_noise(self):
        for seed in range(5):
            _, tensor = util.noisy_instance(5, 4, eta=0.2, seed=330 + seed)
            s = permutation_synchronization(tensor)
            assert s.maps[0].tolist() == [0, 1, 2, 3]

    def test_output_shape(self):
        _, tensor = util.noisy_instance(5, 3, eta=0.1, seed=340)
        s = permutation_synchronization(tensor)
        assert s.n == 5 and s.m == 3


class TestEdgeCases:
    def test_single_set(self):
        for m in (1, 3, 5):
            s = permutation_synchronization(util.uniform_tensor(1, m, seed=350))
            assert s.maps.tolist() == [list(range(m))]

    def test_size_cap(self):
        m = SYNC_SIZE_CAP // 2 + 1
        blk = np.zeros((m, m))
        t = SimilarityTensor(2, blk[None])
        with pytest.raises(SizeError):
            permutation_synchronization(t)


class TestFullEigendecompositionReference:
    @pytest.mark.parametrize("n,m,topology", [
        (20, 8, EtaTopology("star", 0.01, 0.30)),
        (12, 6, EtaTopology("uniform", 0.0, 0.30)),
        # low-gap cells, where a less precise eigensolve could flip a rounding
        (30, 10, EtaTopology("star", 0.01, 0.70)),
        (20, 8, EtaTopology("uniform", 0.0, 0.50)),
    ])
    def test_same_solutions(self, n, m, topology):
        for seed in range(10):
            _, _, t = make_instance(n, m, topology, seed)
            assert permutation_synchronization(t) == util.reference_sync(t)

    def test_same_solutions_on_benchmark_cell(self):
        # the acceptance benchmark's star cell, where the stacked matrix is
        # 1200 x 1200 and the top 20 eigenpairs come from Lanczos
        for seed in range(3):
            _, _, t = make_instance(60, 20, EtaTopology("star", 0.01, 0.30), seed)
            assert permutation_synchronization(t) == util.reference_sync(t)
