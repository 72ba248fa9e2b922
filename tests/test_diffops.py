import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_diff_matrix
from rctv.diffops import (
    HORIZONTAL,
    VERTICAL,
    _add_diff_adjoint,
    _axis,
    apply_diff,
    build_transfer_functions,
    diff_columns,
    solve_u_system,
)


def _check_dense_solve(m, n, r, rng, mu=0.9):
    """FFT solve against a dense direct solve of the same normal equations."""
    tf = build_transfer_functions(m, n)
    rhs_data = rng.standard_normal((m * n, r))
    g1, g2, gam1, gam2 = (rng.standard_normal((m * n, r)) for _ in range(4))
    u = solve_u_system(rhs_data, g1, g2, gam1, gam2, mu, tf)
    assert u.shape == (m * n, r)
    ah = dense_diff_matrix(m, n, "horizontal")
    av = dense_diff_matrix(m, n, "vertical")
    system = mu * np.eye(m * n) + mu * (ah.T @ ah + av.T @ av)
    rhs = rhs_data + ah.T @ (mu * g1 - gam1) + av.T @ (mu * g2 - gam2)
    expected = np.linalg.solve(system, rhs)
    assert np.linalg.norm(u - expected) <= 1e-10 * np.linalg.norm(expected)


class TestApplyDiff:
    def test_constant_slice_annihilated(self):
        u = np.full((12, 2), 3.7)
        for d in (HORIZONTAL, VERTICAL):
            np.testing.assert_array_equal(apply_diff(u, 3, 4, d), np.zeros((12, 2)))

    def test_vertical_periodic_wrap(self):
        u = np.array([[1.0], [2.0], [4.0]])
        np.testing.assert_array_equal(
            apply_diff(u, 3, 1, VERTICAL).ravel(), [1.0, 2.0, -3.0]
        )

    def test_linearity(self, rng):
        u1 = rng.standard_normal((20, 3))
        u2 = rng.standard_normal((20, 3))
        for d in (HORIZONTAL, VERTICAL):
            lhs = apply_diff(2.0 * u1 - 0.5 * u2, 4, 5, d)
            rhs = 2.0 * apply_diff(u1, 4, 5, d) - 0.5 * apply_diff(u2, 4, 5, d)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            apply_diff(np.zeros((4, 1)), 2, 2, "diagonal")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            apply_diff(np.zeros((5, 1)), 2, 2, HORIZONTAL)

    @pytest.mark.parametrize("shape", [(4,), (4, 1, 1)], ids=["1-D", "3-D"])
    def test_non_matrix_rejected(self, shape):
        # The right number of entries, but not an (M*N, R) matrix.
        with pytest.raises(ValueError, match="2-D"):
            apply_diff(np.zeros(shape), 2, 2, HORIZONTAL)


class TestDiffColumns:
    @pytest.mark.parametrize("direction", [HORIZONTAL, VERTICAL])
    @pytest.mark.parametrize("dims", [(2, 2), (3, 5), (5, 3)])
    def test_every_column_range_matches_apply_diff(self, dims, direction, rng):
        # Every range of whole columns, from one column to the whole plane,
        # with and without the horizontal wrap at the right edge, against
        # the dense matrix: apply_diff is diff_columns over all columns, so
        # it cannot serve as the reference here.
        m, n = dims
        u = rng.standard_normal((m * n, 2))
        full = (dense_diff_matrix(m, n, direction) @ u).reshape(n, m, 2)
        out = np.full((n, m, 2), np.nan)
        for start in range(n):
            for stop in range(start + 1, n + 1):
                got = diff_columns(u.reshape(n, m, 2), start, stop, direction, out)
                np.testing.assert_allclose(got, full[start:stop], rtol=0, atol=1e-14)


class TestAdjoint:
    def test_dense_transpose_oracle(self, rng):
        m = n = 3
        x = rng.standard_normal((m * n, 1))
        for d in (HORIZONTAL, VERTICAL):
            a = dense_diff_matrix(m, n, d)
            np.testing.assert_allclose(
                apply_diff(x, m, n, d).ravel(), a @ x.ravel(), atol=1e-14
            )

    @pytest.mark.parametrize("direction", [HORIZONTAL, VERTICAL])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 5), (5, 2), (3, 4), (6, 3)])
    def test_in_place_adjoint_matches_dense(self, dims, direction, rng):
        # solve_u_system accumulates D^T w into its right-hand side in place.
        m, n = dims
        r = 3
        a = dense_diff_matrix(m, n, direction)
        w = rng.standard_normal((m * n, r))
        out = rng.standard_normal((m * n, r))
        expected = out + a.T @ w
        _add_diff_adjoint(w.reshape(n, m, r), _axis(direction), out.reshape(n, m, r))
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)

    def test_second_difference_matches_dense(self, rng):
        # Operator followed by adjoint equals the circular second difference.
        m, n = 3, 4
        x = rng.standard_normal((m * n, 1))
        for d in (HORIZONTAL, VERTICAL):
            a = dense_diff_matrix(m, n, d)
            got = np.zeros((n, m, 1))
            _add_diff_adjoint(apply_diff(x, m, n, d).reshape(n, m, 1), _axis(d), got)
            np.testing.assert_allclose(got.ravel(), a.T @ a @ x.ravel(), atol=1e-13)


class TestLaplacianTransfer:
    def test_analytic_formula(self):
        m, n = 4, 6
        tf = build_transfer_functions(m, n)
        p = np.arange(m)[:, None]
        q = np.arange(n)[None, :]
        expected = (
            np.abs(1.0 - np.exp(-2j * np.pi * q / n)) ** 2
            + np.abs(1.0 - np.exp(-2j * np.pi * p / m)) ** 2
        )
        np.testing.assert_allclose(tf, expected, atol=1e-12)
        assert tf.shape == (m, n) and not tf.flags.writeable

    def test_zero_frequency_and_nonnegativity(self):
        tf = build_transfer_functions(5, 7)
        assert tf[0, 0] == 0.0
        assert np.all(tf >= 0.0)

    def test_small_dims_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            build_transfer_functions(1, 5)


class TestSolveUSystem:
    def test_constant_slices_fixed_point(self):
        m, n, r = 4, 5, 2
        tf = build_transfer_functions(m, n)
        mu = 0.7
        u0 = np.tile(np.array([[1.5, -2.0]]), (m * n, 1))
        zero = np.zeros((m * n, r))
        out = solve_u_system(mu * u0, zero, zero, zero, zero, mu, tf)
        np.testing.assert_allclose(out, u0, atol=1e-12)

    @pytest.mark.parametrize("dims", [(3, 3), (4, 5), (5, 5)])
    def test_dense_solve_oracle(self, dims, rng):
        _check_dense_solve(*dims, 1, rng)

    # Odd and even heights and widths: the half-spectrum slice runs along
    # the height, and irfft2 needs the explicit output shape for odd sizes.
    @pytest.mark.parametrize("rank", [1, 3])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 7), (7, 2), (5, 4), (6, 3)])
    def test_dense_solve_oracle_odd_even_dims(self, dims, rank, rng):
        _check_dense_solve(*dims, rank, rng)

    # solve() passes mu = 1.0: it holds the multipliers scaled by 1/mu, and
    # mu cancels from its normal equations.
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 7),
        n=st.integers(2, 7),
        rank=st.integers(1, 4),
        mu=st.just(1.0) | st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_dense_solve_oracle(self, m, n, rank, mu, seed):
        _check_dense_solve(m, n, rank, np.random.default_rng(seed), mu)

    @pytest.mark.parametrize("in_place", [True, False])
    def test_caller_buffers(self, in_place, rng):
        # solve() passes its right-hand side as out and a spectrum buffer it
        # allocates once; the result must not depend on where U is built.
        m, n, r, mu = 5, 6, 3, 0.7
        tf = build_transfer_functions(m, n)
        rhs_data, g1, g2, gam1, gam2 = (rng.standard_normal((m * n, r)) for _ in range(5))
        inputs = [x.copy() for x in (rhs_data, g1, g2, gam1, gam2)]
        expected = solve_u_system(rhs_data, g1, g2, gam1, gam2, mu, tf)
        out = rhs_data if in_place else np.full((m * n, r), np.nan)
        hat = np.full((n, m // 2 + 1, r), np.nan, dtype=np.complex128)
        got = solve_u_system(rhs_data, g1, g2, gam1, gam2, mu, tf, out, hat)
        assert got is out
        np.testing.assert_array_equal(got, expected)
        for now, before in zip((g1, g2, gam1, gam2), inputs[1:]):
            np.testing.assert_array_equal(now, before)
        if not in_place:
            np.testing.assert_array_equal(rhs_data, inputs[0])

    def test_nonpositive_mu_rejected(self):
        tf = build_transfer_functions(2, 2)
        z = np.zeros((4, 1))
        with pytest.raises(ValueError, match="positive"):
            solve_u_system(z, z, z, z, z, 0.0, tf)
