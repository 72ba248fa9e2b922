import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gapped_random_cube
from rctv.cube import unfold_casorati
from rctv.linalg import _fix_signs, gram_eigh, procrustes_v, soft_threshold, truncated_svd_init


def prox_l1_grid(a, theta, lo=-3.0, hi=3.0, step=1e-4):
    """Brute-force 1-D prox of theta*|x| + 0.5*(x-a)^2 by grid search."""
    grid = np.arange(lo, hi + step, step)
    vals = theta * np.abs(grid) + 0.5 * (grid - a) ** 2
    return grid[np.argmin(vals)]


def svd_with_fixed_signs(y):
    """np.linalg.svd of y with V's columns flipped by gram_eigh's sign rule
    (and U's paired columns with them), so vectors compare entrywise."""
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    v = vt.T
    u[:, _fix_signs(v)] *= -1.0
    return u, s, v


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
        s = np.linalg.svd(y, compute_uv=False)
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
    left, s, right = svd_with_fixed_signs(y)
    v_ref = right[:, :rank]
    u_ref = left[:, :rank] * s[:rank]
    # Equal columns, not just equal spans: the signs must agree too.
    assert np.linalg.norm(v - v_ref) <= tol * np.linalg.norm(v_ref)
    x_ref = u_ref @ v_ref.T
    assert np.linalg.norm(u @ v.T - x_ref) <= tol * np.linalg.norm(x_ref)
    np.testing.assert_allclose(v.T @ v, np.eye(rank), rtol=0, atol=1e-12)


class TestGramEigh:
    def test_matches_thin_svd_on_random_input(self, rng):
        y = rng.standard_normal((200, 10))
        evals, vecs = gram_eigh(y)
        _, s, right = svd_with_fixed_signs(y)
        np.testing.assert_allclose(evals, s**2, rtol=1e-12)
        assert np.linalg.norm(vecs - right) <= 1e-10 * np.sqrt(10)
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
        ref = svd_with_fixed_signs(y)[2][:, :2]
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
        left, s, right = np.linalg.svd(y, full_matrices=False)
        x_ref = (left[:, :rank] * s[:rank]) @ right[:rank]
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
        nuclear = np.linalg.svd(w, compute_uv=False).sum()
        assert abs(attained - nuclear) <= 1e-9
        for _ in range(200):
            q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
            assert attained >= np.vdot(w, q) - 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            procrustes_v(np.array([[1.0, np.inf]]))

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

