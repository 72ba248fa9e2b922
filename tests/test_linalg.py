import numpy as np
import pytest

from rctv.linalg import (
    procrustes_v,
    project_coefficients,
    soft_threshold,
    thin_svd,
    truncated_svd_init,
)


def prox_l1_grid(a, theta, lo=-3.0, hi=3.0, step=1e-4):
    """Brute-force 1-D prox of theta*|x| + 0.5*(x-a)^2 by grid search."""
    grid = np.arange(lo, hi + step, step)
    vals = theta * np.abs(grid) + 0.5 * (grid - a) ** 2
    return grid[np.argmin(vals)]


class TestThinSvd:
    def test_identity(self):
        f = thin_svd(np.eye(3))
        np.testing.assert_allclose(f.singular_values, [1.0, 1.0, 1.0])

    def test_diagonal_with_zero(self):
        f = thin_svd(np.diag([3.0, 0.0]))
        np.testing.assert_allclose(f.singular_values, [3.0, 0.0])

    def test_gram_eigenvalue_oracle(self, rng):
        a = rng.standard_normal((6, 4))
        f = thin_svd(a)
        evals = np.sort(np.linalg.eigvalsh(a.T @ a))[::-1]
        np.testing.assert_allclose(
            f.singular_values, np.sqrt(np.maximum(evals, 0.0)), atol=1e-9
        )

    def test_factor_invariants(self, rng):
        a = rng.standard_normal((7, 5))
        f = thin_svd(a)
        r = f.singular_values.size
        np.testing.assert_allclose(
            f.left_vectors.T @ f.left_vectors, np.eye(r), atol=1e-10
        )
        np.testing.assert_allclose(
            f.right_vectors.T @ f.right_vectors, np.eye(r), atol=1e-10
        )
        assert np.all(np.diff(f.singular_values) <= 0)
        assert np.all(f.singular_values >= 0)
        recon = f.left_vectors @ np.diag(f.singular_values) @ f.right_vectors.T
        assert np.linalg.norm(a - recon) <= 1e-10 * np.linalg.norm(a)

    def test_sign_convention(self, rng):
        f = thin_svd(rng.standard_normal((6, 4)))
        v = f.right_vectors
        pivots = np.argmax(np.abs(v), axis=0)
        assert np.all(v[pivots, np.arange(v.shape[1])] > 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            thin_svd(np.array([[1.0, np.inf]]))


class TestTruncatedSvdInit:
    def test_exact_rank_recovery(self, rng):
        y = rng.standard_normal((15, 2)) @ rng.standard_normal((2, 6))
        u, v = truncated_svd_init(y, 2)
        assert np.linalg.norm(y - u @ v.T) <= 1e-9 * np.linalg.norm(y)

    def test_full_rank_exact(self, rng):
        y = rng.standard_normal((10, 4))
        u, v = truncated_svd_init(y, 4)
        assert np.linalg.norm(y - u @ v.T) <= 1e-9 * np.linalg.norm(y)

    def test_eckart_young_residual(self, rng):
        y = rng.standard_normal((20, 6))
        u, v = truncated_svd_init(y, 3)
        s = thin_svd(y).singular_values
        expected = np.sqrt(np.sum(s[3:] ** 2))
        assert abs(np.linalg.norm(y - u @ v.T) - expected) <= 1e-9

    def test_rank_out_of_range(self, rng):
        y = rng.standard_normal((5, 3))
        for bad in (0, 4):
            with pytest.raises(ValueError, match="rank"):
                truncated_svd_init(y, bad)


class TestSoftThreshold:
    def test_definition_cases(self):
        assert soft_threshold(np.array(1.2), 0.5) == pytest.approx(0.7)
        assert soft_threshold(np.array(-0.3), 0.5) == 0.0

    def test_zero_threshold_identity(self, rng):
        a = rng.standard_normal((4, 5))
        np.testing.assert_array_equal(soft_threshold(a, 0.0), a)

    def test_matches_grid_prox(self):
        theta = 0.4
        for a in np.arange(-2.0, 2.001, 0.25):
            assert abs(soft_threshold(np.array(a), theta) - prox_l1_grid(a, theta)) <= 1e-3

    def test_out_buffer(self, rng):
        a = rng.standard_normal((6, 7))
        out = np.full_like(a, np.nan)
        result = soft_threshold(a, 0.4, out=out)
        assert result is out
        expected = np.sign(a) * np.maximum(np.abs(a) - 0.4, 0.0)
        np.testing.assert_array_equal(out, expected)
        with pytest.raises(ValueError, match="overlap"):
            soft_threshold(a, 0.4, out=a)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            soft_threshold(np.ones(3), -0.1)

    def test_properties(self, rng):
        a = rng.standard_normal(100)
        b = rng.standard_normal(100)
        theta = 0.3
        # non-expansive
        assert np.linalg.norm(soft_threshold(a, theta) - soft_threshold(b, theta)) <= (
            np.linalg.norm(a - b)
        )
        # odd
        np.testing.assert_allclose(
            soft_threshold(-a, theta), -soft_threshold(a, theta)
        )
        # shrinkage
        assert np.abs(soft_threshold(a, theta)).sum() <= np.abs(a).sum()


class TestProcrustes:
    def test_orthonormal_input_fixed(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        np.testing.assert_allclose(procrustes_v(q), q, atol=1e-12)

    def test_scaling_invariance(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        np.testing.assert_allclose(procrustes_v(2.5 * q), q, atol=1e-12)

    def test_dominates_random_candidates_and_nuclear_norm(self, rng):
        w = rng.standard_normal((8, 3))
        v = procrustes_v(w)
        np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-10)
        attained = np.vdot(w, v)
        nuclear = thin_svd(w).singular_values.sum()
        assert abs(attained - nuclear) <= 1e-9
        for _ in range(200):
            q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
            assert attained >= np.vdot(w, q) - 1e-12


class TestProjectCoefficients:
    def test_recovers_coefficients(self, rng):
        u = rng.standard_normal((20, 3))
        v, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        x = u @ v.T
        np.testing.assert_allclose(project_coefficients(x, v), u, atol=1e-10)

    def test_duplicate_rows_identical(self, rng):
        v, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        x = rng.standard_normal((5, 2)) @ v.T
        x[3] = x[1]
        u = project_coefficients(x, v)
        np.testing.assert_array_equal(u[3], u[1])

    def test_pairwise_geometry_preserved(self, rng):
        x = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 10))
        v = thin_svd(x).right_vectors[:, :3]
        u = project_coefficients(x, v)
        norms_x = np.linalg.norm(x, axis=1)
        norms_u = np.linalg.norm(u, axis=1)
        np.testing.assert_allclose(norms_u, norms_x, atol=1e-10)
        for i in range(30):
            for j in range(i + 1, 30):
                dist_x = np.linalg.norm(x[i] - x[j])
                dist_u = np.linalg.norm(u[i] - u[j])
                assert abs(dist_x - dist_u) <= 1e-10
                cos_x = np.clip(x[i] @ x[j] / (norms_x[i] * norms_x[j]), -1, 1)
                cos_u = np.clip(u[i] @ u[j] / (norms_u[i] * norms_u[j]), -1, 1)
                assert abs(np.arccos(cos_x) - np.arccos(cos_u)) <= 1e-10

    def test_non_orthonormal_rejected(self, rng):
        x = rng.standard_normal((5, 4))
        with pytest.raises(ValueError, match="orthonormal"):
            project_coefficients(x, rng.standard_normal((4, 2)))
