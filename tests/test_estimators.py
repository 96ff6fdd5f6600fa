import numpy as np
import pytest

import grclab.estimators as est
from grclab.errors import DimensionMismatch, GrclabError
from grclab.estimators import (
    Weights,
    fit_grcl,
    fit_joint,
    fit_min_norm,
    fit_ocl,
)
from grclab.regularizers import Regularizer, zero_regularizer


def svd_min_norm(x, y):
    """Independent dense-SVD reference for the min-norm least-squares solution."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    keep = s > 1e-12 * s.max()
    return vt[keep].T @ ((u[:, keep].T @ y) / s[keep])


def grcl_normal_reference(x2, y2, w1, sigma):
    """Explicit normal-matrix solve of the regularized fit, the overlap reference for fit_grcl.

    Assembles (X2^T X2 + n Sigma) v = X2^T (y2 - X2 w1) and applies the
    pseudoinverse under the default cutoff.  Agrees with fit_grcl to 1e-8
    away from the vanishing-penalty regime.
    """
    n, d = x2.shape
    tol = est._rank_tolerance(n, d)
    s = x2.T @ x2 + n * sigma.matrix()
    eigvals, eigvecs = np.linalg.eigh(s)
    cutoff = est.eigen_cutoff_ratio(tol, n, d) * max(eigvals[-1], 0.0)
    inv = np.where(eigvals > cutoff, 1.0 / np.maximum(eigvals, 1e-300), 0.0)
    v = eigvecs @ (inv * (eigvecs.T @ (x2.T @ (y2 - x2 @ w1.w))))
    return Weights(w1.w + v)


class TestFitMinNorm:
    def test_identity_design(self):
        w = fit_min_norm(np.eye(2), np.array([1.0, 2.0]))
        np.testing.assert_allclose(w.w, [1.0, 2.0])

    def test_min_norm_interpolator(self):
        x = np.array([[1.0, 1.0, 0.0]])
        w = fit_min_norm(x, np.array([2.0]))
        np.testing.assert_allclose(w.w, [1.0, 1.0, 0.0], atol=1e-12)

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 4))
        y = rng.standard_normal(6)
        np.testing.assert_allclose(fit_min_norm(x, y).w, svd_min_norm(x, y), atol=1e-9)

    def test_solution_in_row_space(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 8))
        w = fit_min_norm(x, rng.standard_normal(3)).w
        pinv = np.linalg.pinv(x)
        out_of_row_space = w - pinv @ (x @ w)
        assert np.linalg.norm(out_of_row_space) <= 1e-9 * np.linalg.norm(w)

    def test_paths_agree(self):
        rng = np.random.default_rng(2)
        for n, d in [(12, 5), (5, 12), (8, 8)]:
            x = rng.standard_normal((n, d))
            y = rng.standard_normal(n)
            tol = est._rank_tolerance(n, d)
            np.testing.assert_allclose(
                est._minnorm_normal(x, y, tol), est._minnorm_factor(x, y, tol), atol=1e-8
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fit_min_norm(np.eye(3), np.zeros(2))


class TestFitOcl:
    def test_orthogonal_update_preserves_coordinate(self):
        x2 = np.array([[0.0, 1.0]])
        w = fit_ocl(x2, np.array([3.0]), Weights(np.array([1.0, 0.0])))
        np.testing.assert_allclose(w.w, [1.0, 3.0], atol=1e-12)

    def test_repeated_task_fixed_point(self):
        rng = np.random.default_rng(3)
        x1 = rng.standard_normal((4, 7))
        y1 = rng.standard_normal(4)
        w1 = fit_min_norm(x1, y1)
        w2 = fit_ocl(x1, y1, w1)
        np.testing.assert_allclose(w2.w, w1.w, atol=1e-10)

    def test_interpolation_residual(self):
        rng = np.random.default_rng(4)
        x2 = rng.standard_normal((5, 9))
        y2 = rng.standard_normal(5)
        w2 = fit_ocl(x2, y2, Weights(rng.standard_normal(9)))
        assert np.linalg.norm(x2 @ w2.w - y2) <= 1e-8

    def test_overdetermined_projects_labels(self):
        # X2 w2 is the least-squares projection of y2 onto the column space
        rng = np.random.default_rng(16)
        x2 = rng.standard_normal((9, 4))
        y2 = rng.standard_normal(9)
        w2 = fit_ocl(x2, y2, Weights(rng.standard_normal(4)))
        projected = x2 @ (np.linalg.pinv(x2) @ y2)
        np.testing.assert_allclose(x2 @ w2.w, projected, atol=1e-9)

    def test_regularization_path_limit(self):
        rng = np.random.default_rng(5)
        x2 = rng.standard_normal((5, 8))
        y2 = rng.standard_normal(5)
        w1 = Weights(rng.standard_normal(8))
        tiny = Regularizer(form="diagonal", values=np.full(8, 1e-12))
        np.testing.assert_allclose(
            fit_grcl(x2, y2, w1, tiny).w, fit_ocl(x2, y2, w1).w, atol=1e-6
        )


class TestFitGrcl:
    def test_symmetric_quadratic(self):
        # minimize (1 - w)^2 + w^2 -> w = 1/2
        x2 = np.array([[1.0], [1.0]])
        y2 = np.array([1.0, 1.0])
        w = fit_grcl(x2, y2, Weights(np.zeros(1)), Regularizer(form="diagonal", values=np.ones(1)))
        np.testing.assert_allclose(w.w, [0.5], atol=1e-12)

    def test_infinite_penalty_limit(self):
        rng = np.random.default_rng(6)
        x2 = rng.standard_normal((6, 4))
        y2 = rng.standard_normal(6)
        w1 = Weights(rng.standard_normal(4))
        big = Regularizer(form="diagonal", values=np.full(4, 1e8))
        w2 = fit_grcl(x2, y2, w1, big)
        move = np.linalg.norm(w2.w - w1.w)
        scale = np.linalg.norm(x2.T @ (y2 - x2 @ w1.w)) / (6 * 1e8)
        assert move <= 2 * scale  # update lives at the 1/(n gamma) scale
        assert move <= 1e-6 * max(1.0, np.linalg.norm(w1.w))

    def test_normal_equation_oracle(self):
        rng = np.random.default_rng(7)
        x2 = rng.standard_normal((6, 4))
        y2 = rng.standard_normal(6)
        w1 = Weights(rng.standard_normal(4))
        gamma = np.array([0.5, 0.1, 2.0, 0.3])
        sigma = Regularizer(form="diagonal", values=gamma)
        got = fit_grcl(x2, y2, w1, sigma).w
        n = 6
        lhs = x2.T @ x2 + n * np.diag(gamma)
        v = np.linalg.solve(lhs, x2.T @ (y2 - x2 @ w1.w))
        np.testing.assert_allclose(got, w1.w + v, atol=1e-8)

    def test_l2rcl_closed_form_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n, d = 7, 5
            x2 = rng.standard_normal((n, d))
            y2 = rng.standard_normal(n)
            w1 = Weights(rng.standard_normal(d))
            gamma = float(rng.uniform(0.05, 2.0))
            iso = Regularizer(form="diagonal", values=np.full(d, gamma))
            closed = np.linalg.solve(
                x2.T @ x2 + n * gamma * np.eye(d), x2.T @ y2 + n * gamma * w1.w
            )
            np.testing.assert_allclose(fit_grcl(x2, y2, w1, iso).w, closed, atol=1e-10)

    def test_zero_sigma_is_exactly_ocl(self):
        rng = np.random.default_rng(9)
        x2 = rng.standard_normal((4, 6))
        y2 = rng.standard_normal(4)
        w1 = Weights(rng.standard_normal(6))
        a = fit_grcl(x2, y2, w1, zero_regularizer(6)).w
        b = fit_ocl(x2, y2, w1).w
        np.testing.assert_array_equal(a, b)

    def test_stationarity(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            d = int(rng.integers(2, 9))
            x2 = rng.standard_normal((n, d))
            y2 = rng.standard_normal(n)
            w1 = Weights(rng.standard_normal(d))
            gamma = rng.uniform(0.0, 1.0, d) * (rng.random(d) < 0.7)
            sigma = Regularizer(form="diagonal", values=gamma)
            w2 = fit_grcl(x2, y2, w1, sigma).w
            resid = x2.T @ (x2 @ w2 - y2) / n + gamma * (w2 - w1.w)
            scale = max(1.0, np.linalg.norm(x2.T @ y2) / n)
            assert np.linalg.norm(resid) <= 1e-8 * scale

    def test_rotation_invariance(self):
        rng = np.random.default_rng(11)
        n, d = 6, 5
        x2 = rng.standard_normal((n, d))
        y2 = rng.standard_normal(n)
        w1 = rng.standard_normal(d)
        factor = rng.standard_normal((2, d))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        base = fit_grcl(x2, y2, Weights(w1), Regularizer(form="lowrank", factor=factor)).w
        rotated = fit_grcl(
            x2 @ q, y2, Weights(q.T @ w1), Regularizer(form="lowrank", factor=factor @ q)
        ).w
        np.testing.assert_allclose(rotated, q.T @ base, atol=1e-8)

    def test_agrees_with_normal_matrix_path(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            x2 = rng.standard_normal((10, 6))
            y2 = rng.standard_normal(10)
            w1 = Weights(rng.standard_normal(6))
            sigma = Regularizer(form="lowrank", factor=rng.standard_normal((3, 6)))
            factored = fit_grcl(x2, y2, w1, sigma).w
            normal = grcl_normal_reference(x2, y2, w1, sigma).w
            np.testing.assert_allclose(factored, normal, atol=1e-8)

    def test_rejects_non_psd_matrix(self):
        with pytest.raises(GrclabError, match="ndarray"):
            fit_grcl(
                np.ones((2, 2)), np.ones(2), Weights(np.zeros(2)),
                np.array([[1.0, 0.0], [0.0, -1.0]]),
            )

    def test_rejects_plain_psd_matrix(self):
        # a memory matrix is a Regularizer, which checks PSD on construction
        rng = np.random.default_rng(13)
        x2 = rng.standard_normal((5, 3))
        y2 = rng.standard_normal(5)
        with pytest.raises(GrclabError, match="ndarray"):
            fit_grcl(x2, y2, Weights(np.zeros(3)), np.diag([0.4, 0.0, 1.2]))


class TestFitJoint:
    def test_disjoint_supports(self):
        x1 = np.array([[1.0, 0.0, 0.0]])
        x2 = np.array([[0.0, 1.0, 0.0]])
        w = fit_joint(x1, np.array([2.0]), x2, np.array([3.0]))
        np.testing.assert_allclose(w.w, [2.0, 3.0, 0.0], atol=1e-12)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(14)
        x1 = rng.standard_normal((4, 6))
        y1 = rng.standard_normal(4)
        w_dup = fit_joint(x1, y1, x1, y1)
        np.testing.assert_allclose(w_dup.w, fit_min_norm(x1, y1).w, atol=1e-10)

    def test_interpolates_both_tasks(self):
        rng = np.random.default_rng(15)
        x1 = rng.standard_normal((3, 10))
        x2 = rng.standard_normal((4, 10))
        y1 = rng.standard_normal(3)
        y2 = rng.standard_normal(4)
        w = fit_joint(x1, y1, x2, y2)
        assert np.linalg.norm(x1 @ w.w - y1) <= 1e-8
        assert np.linalg.norm(x2 @ w.w - y2) <= 1e-8


class TestOptions:
    def test_default_resolution(self):
        assert est._rank_tolerance(5000, 200) == pytest.approx(5e-7)

    def test_weights_must_be_finite(self):
        with pytest.raises(DimensionMismatch):
            Weights(np.array([np.inf]))
