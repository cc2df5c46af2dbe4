import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from mwmatch.errors import ConvergenceError, DimensionError, ParameterError, ValidationError
from mwmatch.evalbench import pca_experiment
from mwmatch.matrixcore import sym_eigs_topk

import util


class TestTraceOfProduct:
    """The tr(A^T B) oracle of tests/util.py."""

    def test_identity_pair(self):
        assert util.trace_of_product(np.eye(2), np.eye(2)) == 2.0

    def test_disjoint_support(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [0.0, 1.0]])
        assert util.trace_of_product(a, b) == 0.0

    def test_small_example(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        # elementwise: 5 + 12 + 21 + 32
        assert util.trace_of_product(a, b) == 70.0

    def test_matches_matmul_route(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r, c = rng.integers(1, 7, size=2)
            a = rng.standard_normal((r, c))
            b = rng.standard_normal((r, c))
            want = float(np.trace(a.T @ b))
            assert math.isclose(util.trace_of_product(a, b), want, rel_tol=0, abs_tol=1e-10)

    def test_rectangular(self):
        a = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
        assert util.trace_of_product(a, a) == 6.0


class TestSymEigsTopk:
    def test_diagonal(self):
        vals, vecs = sym_eigs_topk(np.diag([3.0, 1.0, 2.0]), 2)
        assert np.allclose(vals, [3.0, 2.0])
        assert np.allclose(np.abs(vecs[:, 0]), [1.0, 0.0, 0.0])
        assert np.allclose(np.abs(vecs[:, 1]), [0.0, 0.0, 1.0])
        # canonical sign: dominant entry positive
        assert vecs[0, 0] > 0 and vecs[2, 1] > 0

    def test_identity_single(self):
        vals, vecs = sym_eigs_topk(np.eye(3), 1)
        assert math.isclose(vals[0], 1.0, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(float(vecs[:, 0] @ vecs[:, 0]), 1.0, rel_tol=0, abs_tol=1e-12)

    def test_two_by_two_closed_form(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        vals, vecs = sym_eigs_topk(m, 2)
        assert np.allclose(vals, [3.0, 1.0])
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(vecs[:, 0], [s, s], atol=1e-12)
        assert np.allclose(vecs[:, 1], [s, -s], atol=1e-12)

    def test_values_sum_to_trace(self):
        rng = np.random.default_rng(11)
        for d in (2, 5, 17, 30):
            r = rng.standard_normal((d, d))
            m = (r + r.T) / 2.0
            vals, _ = sym_eigs_topk(m, d)
            assert math.isclose(float(vals.sum()), float(np.trace(m)), rel_tol=0, abs_tol=1e-9)
            assert np.all(np.diff(vals) <= 1e-12)

    def test_residual_small(self):
        rng = np.random.default_rng(12)
        for d in (3, 8, 25):
            r = rng.standard_normal((d, d))
            m = (r + r.T) / 2.0
            k = max(1, d // 2)
            vals, vecs = sym_eigs_topk(m, k)
            fro = float(np.linalg.norm(m))
            for c in range(k):
                resid = m @ vecs[:, c] - vals[c] * vecs[:, c]
                assert float(np.linalg.norm(resid)) <= 1e-6 * max(fro, 1.0)

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(13)
        r = rng.standard_normal((9, 9))
        m = (r + r.T) / 2.0
        _, vecs = sym_eigs_topk(m, 4)
        assert np.allclose(vecs.T @ vecs, np.eye(4), atol=1e-10)

    def test_degenerate_spectrum_projector(self):
        # top eigenvalue 2 has multiplicity 2; span is pinned even if basis is not
        vals, vecs = sym_eigs_topk(np.diag([2.0, 2.0, 1.0]), 2)
        assert np.allclose(vals, [2.0, 2.0])
        proj = vecs @ vecs.T
        assert np.allclose(proj, np.diag([1.0, 1.0, 0.0]), atol=1e-8)

    def test_k_zero(self):
        vals, vecs = sym_eigs_topk(np.eye(3), 0)
        assert vals.shape == (0,)
        assert vecs.shape == (3, 0)

    def test_matches_full_eigh(self):
        rng = np.random.default_rng(14)
        for d in (1, 2, 7, 40, 121):
            r = rng.standard_normal((d, d))
            m = (r + r.T) / 2.0
            w, v = np.linalg.eigh(m)
            order = np.argsort(-w, kind="stable")
            norm = float(np.linalg.norm(m, 2))
            for k in sorted({1, d // 2, d} - {0}):
                vals, vecs = sym_eigs_topk(m, k)
                assert np.max(np.abs(vals - w[order[:k]])) <= 1e-10 * norm
                ref = v[:, order[:k]]
                assert np.max(np.abs(vecs @ vecs.T - ref @ ref.T)) <= 1e-8

    def test_repeat_calls_bitwise_on_degenerate_spectra(self):
        # repeated top eigenvalues make the Lanczos iteration break down and
        # restart from a random vector; the answer must not depend on the call
        _, t = util.noiseless_instance(4, 3, 0)
        stacked = np.eye(12)
        for i, j in t.pairs():
            stacked[3 * i:3 * i + 3, 3 * j:3 * j + 3] = t.block(i, j)
            stacked[3 * j:3 * j + 3, 3 * i:3 * i + 3] = t.block(i, j).T
        cases = [
            (np.eye(5), 2),
            (np.diag([2.0, 2.0, 1.0]), 2),
            (np.kron(np.eye(3), np.ones((2, 2))), 2),
            (stacked, 3),
        ]
        first = [sym_eigs_topk(m, k) for m, k in cases]
        for _ in range(2):
            for (m, k), (vals, vecs) in zip(cases, first):
                again_vals, again_vecs = sym_eigs_topk(m, k)
                assert np.array_equal(again_vals, vals)
                assert np.array_equal(again_vecs, vecs)

    def test_zero_matrix(self):
        # ARPACK refuses the zero starting vector an all-zero matrix gives
        vals, vecs = sym_eigs_topk(np.zeros((5, 5)), 2)
        assert np.array_equal(vals, np.zeros(2))
        assert np.allclose(vecs.T @ vecs, np.eye(2), atol=1e-12)

    def test_repeated_top_eigenvalue_above_distinct_tail(self):
        # d exceeds ARPACK's 20-vector Krylov basis, so a single start vector
        # must still find every copy of the repeated top eigenvalue
        diag = np.diag(np.r_[[2.0] * 3, np.linspace(1.0, 0.0, 197)])
        q, _ = np.linalg.qr(np.random.default_rng(17).standard_normal((200, 200)))
        rotated = q @ diag @ q.T
        for m in (diag, (rotated + rotated.T) / 2.0):
            w, v = np.linalg.eigh(m)
            for k in (3, 5):
                vals, vecs = sym_eigs_topk(m, k)
                assert np.max(np.abs(vals - w[::-1][:k])) <= 1e-12
                ref = v[:, ::-1][:, :k]
                assert np.max(np.abs(vecs @ vecs.T - ref @ ref.T)) <= 1e-8

    @staticmethod
    def _lapack_answer(m, k):
        d = m.shape[0]
        w, v = scipy.linalg.eigh(m, subset_by_index=[d - k, d - 1], driver="evr")
        want = v[:, ::-1]
        return w[::-1], want * np.sign(want[np.abs(want).argmax(axis=0), np.arange(k)])

    def test_tight_cluster_at_k_falls_back_to_lapack(self, monkeypatch):
        # ten eigenvalues 1e-12 apart straddle k = 5; restarted Lanczos does
        # not split them at machine precision, so it stops after 2d products
        d, k = 60, 5
        q, _ = np.linalg.qr(np.random.default_rng(16).standard_normal((d, d)))
        m = (q * np.r_[1.0 + 1e-12 * np.arange(10)[::-1], np.linspace(0.9, 0.0, d - 10)]) @ q.T
        m = (m + m.T) / 2.0
        eigsh = scipy.sparse.linalg.eigsh
        products = []

        def counting(op, **kwargs):
            def matvec(x):
                products.append(None)
                return op.matvec(x)

            counted = scipy.sparse.linalg.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
            return eigsh(counted, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting)
        vals, vecs = sym_eigs_topk(m, k)
        assert len(products) == 2 * d + 1
        want_vals, want_vecs = self._lapack_answer(m, k)
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(vecs, want_vecs)

    def test_arpack_failure_falls_back_to_lapack(self, monkeypatch):
        rng = np.random.default_rng(15)
        r = rng.standard_normal((8, 8))
        m = (r + r.T) / 2.0
        w, want = self._lapack_answer(m, 3)
        calls = []

        def no_convergence(*args, **kwargs):
            calls.append(kwargs["k"])
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0), np.empty((8, 0)))

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        vals, vecs = sym_eigs_topk(m, 3)
        assert calls == [3]
        assert np.array_equal(vals, w)
        assert np.array_equal(vecs, want)

    @pytest.mark.parametrize("m,k", [(np.eye(3), 3), (np.zeros((4, 4)), 2)])
    def test_lapack_failure_raises_convergence_error(self, monkeypatch, m, k):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(scipy.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError):
            sym_eigs_topk(m, k)

    def test_rejects_asymmetric(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            sym_eigs_topk(m, 1)

    def test_rejects_bad_k(self):
        with pytest.raises(DimensionError):
            sym_eigs_topk(np.eye(2), 3)
        with pytest.raises(DimensionError):
            sym_eigs_topk(np.eye(2), -1)

    def test_rejects_non_finite(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            sym_eigs_topk(bad, 1)

    def test_rejects_not_two_dimensional(self):
        with pytest.raises(DimensionError):
            sym_eigs_topk(np.ones(3), 1)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            sym_eigs_topk(np.ones((2, 3)), 1)


class TestPca:
    """pca_experiment's residuals, from one sym_eigs_topk basis per
    method. Points of shape (n, 1, D) make the n vectors the samples."""

    @staticmethod
    def errors(samples, ks):
        pts = np.asarray(samples, dtype=float)[:, None, :]
        return [e for _, _, e in pca_experiment(pts, {"none": None}, ks)]

    def test_identical_samples_zero_error(self):
        samples = np.tile([1.5, -2.0, 0.5], (5, 1))
        assert self.errors(samples, [1])[0] <= 1e-24

    def test_collinear_samples(self):
        t = np.linspace(-2.0, 3.0, 7)
        samples = np.stack([1.0 + 2.0 * t, -0.5 * t], axis=1)
        assert self.errors(samples, [1])[0] <= 1e-20

    def test_full_dimension_zero_error(self):
        rng = np.random.default_rng(21)
        samples = rng.standard_normal((9, 4))
        assert self.errors(samples, [4])[0] <= 1e-20

    def test_toy_closed_form(self):
        # covariance of {(0,0),(1,0),(1,2)} is [[2/9,2/9],[2/9,8/9]]; by the
        # quadratic formula its eigenvalues are (10 +- sqrt(52))/18 and the
        # k=1 residual is the smaller one
        samples = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
        want = (10.0 - math.sqrt(52.0)) / 18.0
        got = self.errors(samples, [1])[0]
        assert math.isclose(got, want, rel_tol=0, abs_tol=1e-12)

    def test_error_non_increasing_in_k(self):
        rng = np.random.default_rng(22)
        samples = rng.standard_normal((10, 6))
        errors = self.errors(samples, range(1, 7))
        for lo, hi in zip(errors[1:], errors[:-1]):
            assert lo <= hi + 1e-12

    def test_error_equals_tail_eigenvalues(self):
        # residual of a k-dim fit == sum of the dropped covariance eigenvalues
        rng = np.random.default_rng(24)
        samples = rng.standard_normal((12, 5))
        centered = samples - samples.mean(axis=0)
        cov = centered.T @ centered / samples.shape[0]
        spectrum = np.sort(np.linalg.eigvalsh(cov))[::-1]
        for k, got in zip((1, 2, 3), self.errors(samples, [1, 2, 3])):
            assert math.isclose(got, float(spectrum[k:].sum()), rel_tol=0, abs_tol=1e-10)

    def test_single_sample(self):
        assert self.errors([[3.0, 4.0]], [1]) == [0.0]

    def test_k_exceeds_dimension(self):
        with pytest.raises(ParameterError, match=r"\[1, 2\]"):
            self.errors(np.zeros((4, 2)), [3])
