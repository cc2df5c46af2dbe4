import math

import numpy as np
import pytest

from mwmatch.errors import DimensionError, ValidationError
from mwmatch.matrixcore import (
    PcaModel,
    pca_fit,
    pca_reconstruction_error,
    sym_eigs_topk,
    trace_of_product,
)


class TestTraceOfProduct:
    def test_identity_pair(self):
        assert trace_of_product(np.eye(2), np.eye(2)) == 2.0

    def test_disjoint_support(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [0.0, 1.0]])
        assert trace_of_product(a, b) == 0.0

    def test_small_example(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        # elementwise: 5 + 12 + 21 + 32
        assert trace_of_product(a, b) == 70.0

    def test_matches_matmul_route(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r, c = rng.integers(1, 7, size=2)
            a = rng.standard_normal((r, c))
            b = rng.standard_normal((r, c))
            want = float(np.trace(a.T @ b))
            assert math.isclose(trace_of_product(a, b), want, rel_tol=0, abs_tol=1e-10)

    def test_rectangular(self):
        a = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
        assert trace_of_product(a, a) == 6.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            trace_of_product(np.eye(2), np.eye(3))

    def test_non_finite(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            trace_of_product(bad, np.eye(2))

    def test_not_two_dimensional(self):
        with pytest.raises(DimensionError):
            trace_of_product(np.ones(3), np.ones(3))


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

    def test_rejects_asymmetric(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            sym_eigs_topk(m, 1)

    def test_rejects_bad_k(self):
        with pytest.raises(DimensionError):
            sym_eigs_topk(np.eye(2), 3)
        with pytest.raises(DimensionError):
            sym_eigs_topk(np.eye(2), -1)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            sym_eigs_topk(np.ones((2, 3)), 1)


class TestPca:
    def test_identical_samples_zero_error(self):
        samples = np.tile([1.5, -2.0, 0.5], (5, 1))
        model = pca_fit(samples, 1)
        assert pca_reconstruction_error(samples, model) <= 1e-24

    def test_collinear_samples(self):
        t = np.linspace(-2.0, 3.0, 7)
        samples = np.stack([1.0 + 2.0 * t, -0.5 * t], axis=1)
        model = pca_fit(samples, 1)
        assert pca_reconstruction_error(samples, model) <= 1e-20

    def test_full_dimension_zero_error(self):
        rng = np.random.default_rng(21)
        samples = rng.standard_normal((9, 4))
        model = pca_fit(samples, 4)
        assert pca_reconstruction_error(samples, model) <= 1e-20

    def test_toy_closed_form(self):
        # covariance of {(0,0),(1,0),(1,2)} is [[2/9,2/9],[2/9,8/9]]; by the
        # quadratic formula its eigenvalues are (10 +- sqrt(52))/18 and the
        # k=1 residual is the smaller one
        samples = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0]])
        want = (10.0 - math.sqrt(52.0)) / 18.0
        model = pca_fit(samples, 1)
        got = pca_reconstruction_error(samples, model)
        assert math.isclose(got, want, rel_tol=0, abs_tol=1e-12)

    def test_error_non_increasing_in_k(self):
        rng = np.random.default_rng(22)
        samples = rng.standard_normal((10, 6))
        errors = [
            pca_reconstruction_error(samples, pca_fit(samples, k)) for k in range(7)
        ]
        for lo, hi in zip(errors[1:], errors[:-1]):
            assert lo <= hi + 1e-12

    def test_k_zero_is_mean_residual(self):
        rng = np.random.default_rng(23)
        samples = rng.standard_normal((8, 3))
        model = pca_fit(samples, 0)
        centered = samples - samples.mean(axis=0)
        want = float(np.mean(np.sum(centered**2, axis=1)))
        assert math.isclose(pca_reconstruction_error(samples, model), want, rel_tol=1e-12)

    def test_error_equals_tail_eigenvalues(self):
        # residual of a k-dim fit == sum of the dropped covariance eigenvalues
        rng = np.random.default_rng(24)
        samples = rng.standard_normal((12, 5))
        centered = samples - samples.mean(axis=0)
        cov = centered.T @ centered / samples.shape[0]
        spectrum = np.sort(np.linalg.eigvalsh(cov))[::-1]
        for k in (1, 2, 3):
            got = pca_reconstruction_error(samples, pca_fit(samples, k))
            assert math.isclose(got, float(spectrum[k:].sum()), rel_tol=0, abs_tol=1e-10)

    def test_single_sample(self):
        samples = np.array([[3.0, 4.0]])
        model = pca_fit(samples, 0)
        assert pca_reconstruction_error(samples, model) == 0.0

    def test_k_exceeds_dimension(self):
        with pytest.raises(DimensionError):
            pca_fit(np.zeros((4, 2)), 3)

    def test_mismatched_eval_dimension(self):
        model = pca_fit(np.eye(3), 1)
        with pytest.raises(DimensionError):
            pca_reconstruction_error(np.zeros((2, 2)), model)

    def test_model_requires_orthonormal_rows(self):
        with pytest.raises(ValidationError):
            PcaModel(mean=np.zeros(2), basis=np.array([[1.0, 1.0]]))

    def test_model_properties(self):
        model = pca_fit(np.eye(4), 2)
        assert model.k == 2
        assert model.dim == 4
