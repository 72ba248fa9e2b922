import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gapped_random_cube
from rctv.cube import unfold_casorati
from rctv.linalg import (
    gram_eigh,
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


def with_spectrum(singular_values, rows, seed):
    """rows x B matrix with the given singular values and random vectors."""
    rng = np.random.default_rng(seed)
    b = len(singular_values)
    left, _ = np.linalg.qr(rng.standard_normal((rows, b)))
    right, _ = np.linalg.qr(rng.standard_normal((b, b)))
    return (left * np.asarray(singular_values)) @ right.T


def assert_matches_svd_init(y, rank, tol=1e-10):
    """truncated_svd_init agrees with the rank-R truncated SVD of y."""
    u, v = truncated_svd_init(y, rank)
    f = thin_svd(y)
    v_ref = f.right_vectors[:, :rank]
    u_ref = f.left_vectors[:, :rank] * f.singular_values[:rank]
    # Equal columns, not just equal spans: the signs must agree too.
    assert np.linalg.norm(v - v_ref) <= tol * np.linalg.norm(v_ref)
    x_ref = u_ref @ v_ref.T
    assert np.linalg.norm(u @ v.T - x_ref) <= tol * np.linalg.norm(x_ref)
    np.testing.assert_allclose(v.T @ v, np.eye(rank), rtol=0, atol=1e-12)


class TestGramEigh:
    def test_matches_thin_svd_on_random_input(self, rng):
        y = rng.standard_normal((200, 10))
        evals, vecs = gram_eigh(y)
        f = thin_svd(y)
        np.testing.assert_allclose(evals, f.singular_values**2, rtol=1e-12)
        assert np.linalg.norm(vecs - f.right_vectors) <= 1e-10 * np.sqrt(10)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(10), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rank", [1, 3, 7])
    def test_init_matches_svd_on_random_input(self, rng, rank):
        assert_matches_svd_init(rng.standard_normal((300, 12)), rank)

    def test_init_matches_svd_on_gapped_cube(self):
        # Rank 4 plus the constant offset: the gap sits after 5 values.
        # Vectors inside the flat noise tail past it are not unique enough
        # to compare.
        y = unfold_casorati(gapped_random_cube(20, 18, 31, 4, seed=3))
        for rank in (1, 3, 5):
            assert_matches_svd_init(y, rank)

    def test_sign_convention(self, rng):
        _, vecs = gram_eigh(rng.standard_normal((50, 7)))
        pivots = np.argmax(np.abs(vecs), axis=0)
        assert np.all(vecs[pivots, np.arange(7)] > 0)

    def test_single_band(self, rng):
        y = -rng.random((30, 1))
        evals, vecs = gram_eigh(y)
        np.testing.assert_allclose(evals, [np.vdot(y, y)], rtol=1e-14)
        np.testing.assert_array_equal(vecs, [[1.0]])
        u, v = truncated_svd_init(y, 1)
        np.testing.assert_array_equal(v, [[1.0]])
        np.testing.assert_array_equal(u, y)

    def test_zero_column(self, rng):
        y = rng.standard_normal((40, 6))
        y[:, 2] = 0.0
        evals, vecs = gram_eigh(y)
        assert 0.0 <= evals[-1] <= 1e-12 * evals[0]
        assert np.all(np.diff(evals) <= 0)
        # The null direction is the zero column's coordinate vector.
        np.testing.assert_allclose(np.abs(vecs[:, -1]), np.eye(6)[2], atol=1e-12)
        assert_matches_svd_init(y, 5)

    def test_exact_rank_below_requested(self, rng):
        y = rng.standard_normal((50, 2)) @ rng.standard_normal((2, 8))
        evals, _ = gram_eigh(y)
        assert np.all((evals[2:] >= 0) & (evals[2:] <= 1e-12 * evals[0]))
        u, v = truncated_svd_init(y, 4)
        np.testing.assert_allclose(v.T @ v, np.eye(4), rtol=0, atol=1e-12)
        assert np.linalg.norm(y - u @ v.T) <= 1e-10 * np.linalg.norm(y)
        # The two directions Y spans match the SVD's; the rest carry nothing.
        ref = thin_svd(y).right_vectors[:, :2]
        assert np.linalg.norm(v[:, :2] - ref) <= 1e-10
        assert np.linalg.norm(u[:, 2:]) <= 1e-10 * np.linalg.norm(y)

    @pytest.mark.parametrize("rank", [4, 10, 15, 19])
    def test_geometric_decay_to_1e7(self, rank):
        # Squaring the condition number (1e7 -> 1e14) leaves the trailing
        # eigenvectors inaccurate; the rank-R reconstruction must not be.
        y = with_spectrum(np.logspace(0, -7, 20), rows=400, seed=5)
        _, vecs = gram_eigh(y)
        v = vecs[:, :rank]
        np.testing.assert_allclose(v.T @ v, np.eye(rank), rtol=0, atol=1e-12)
        f = thin_svd(y)
        x_ref = (f.left_vectors[:, :rank] * f.singular_values[:rank]) @ (
            f.right_vectors[:, :rank].T
        )
        assert np.linalg.norm(y @ v @ v.T - x_ref) <= 1e-6 * np.linalg.norm(y)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_rejected(self, rng, bad):
        y = rng.standard_normal((10, 4))
        y[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            gram_eigh(y)
        with pytest.raises(ValueError, match="non-finite"):
            truncated_svd_init(y, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        bands=st.integers(1, 16),
        extra_rows=st.integers(0, 60),
        rank_frac=st.floats(0.0, 1.0),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_svd(self, bands, extra_rows, rank_frac, scale, seed):
        # Harmonic spectrum: distinct singular values, condition number B.
        s = scale / np.arange(1, bands + 1)
        y = with_spectrum(s, rows=bands + extra_rows, seed=seed)
        rank = 1 + int(rank_frac * (bands - 1))
        assert_matches_svd_init(y, rank)


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

    @settings(max_examples=60, deadline=None)
    @given(
        bands=st.integers(1, 12),
        rank_frac=st.floats(0.0, 1.0),
        inner_frac=st.floats(0.0, 1.0),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_orthonormal_and_attains_nuclear_norm(
        self, bands, rank_frac, inner_frac, scale, seed
    ):
        # W = A @ B^T has rank 1..R, so rank-deficient W, where the argmax
        # is not unique, are drawn too.
        rank = 1 + int(rank_frac * (bands - 1))
        inner = 1 + int(inner_frac * (rank - 1))
        rng = np.random.default_rng(seed)
        w = scale * rng.standard_normal((bands, inner)) @ rng.standard_normal((inner, rank))
        v = procrustes_v(w)
        assert v.shape == (bands, rank)
        np.testing.assert_allclose(v.T @ v, np.eye(rank), rtol=0, atol=1e-12)
        nuclear = np.linalg.svd(w, compute_uv=False).sum()
        assert abs(np.vdot(w, v) - nuclear) <= 1e-9 * nuclear


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
