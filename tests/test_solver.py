import json
import math

import numpy as np
import pytest

import rctv.solver
from conftest import gapped_random_cube, smooth_rank_cube
from rctv.cube import fold_casorati, unfold_casorati
from rctv.diffops import HORIZONTAL, VERTICAL, apply_diff, build_transfer_functions
from rctv.linalg import truncated_svd_init
from rctv.metrics import mpsnr
from rctv.noisesim import apply_case
from rctv.solver import (
    DenoiseConfig,
    IterationDiagnostics,
    SolverState,
    _rel_change,
    augmented_lagrangian,
    diagnostics_to_jsonl,
    model_objective,
    solve,
    update_e,
    update_g,
    update_multipliers,
    update_s,
    update_u,
    update_v,
)
from test_linalg import prox_l1_grid


def random_state(rng, m=4, n=5, b=6, r=2, mu=0.8):
    q, _ = np.linalg.qr(rng.standard_normal((b, r)))
    return SolverState(
        u=rng.standard_normal((m * n, r)),
        v=q,
        e=0.1 * rng.standard_normal((m * n, b)),
        s=0.1 * rng.standard_normal((m * n, b)),
        g1=rng.standard_normal((m * n, r)),
        g2=rng.standard_normal((m * n, r)),
        gam1=rng.standard_normal((m * n, r)),
        gam2=rng.standard_normal((m * n, r)),
        gam3=rng.standard_normal((m * n, b)),
        mu=mu,
    )


class TestUpdateG:
    def test_zero_tau_copies_shifted_gradient(self, rng):
        m, n = 4, 5
        u = rng.standard_normal((m * n, 2))
        gam = rng.standard_normal((m * n, 2))
        mu = 0.7
        g = update_g(u, gam, mu, 0.0, m, n, HORIZONTAL)
        np.testing.assert_array_equal(g, apply_diff(u, m, n, HORIZONTAL) + gam / mu)

    def test_constant_slices_give_zero(self):
        m, n = 3, 4
        u = np.full((m * n, 2), 1.25)
        g = update_g(u, np.zeros((m * n, 2)), 0.5, 0.1, m, n, VERTICAL)
        np.testing.assert_array_equal(g, np.zeros((m * n, 2)))

    def test_elementwise_prox_oracle(self, rng):
        m, n = 3, 3
        mu, tau = 2.0, 0.8
        u = rng.standard_normal((m * n, 1))
        gam = rng.standard_normal((m * n, 1))
        g = update_g(u, gam, mu, tau, m, n, HORIZONTAL)
        target = apply_diff(u, m, n, HORIZONTAL) + gam / mu
        # G minimizes tau*|g| + (mu/2)*(g - target)^2 entrywise.
        for a, got in zip(target.ravel()[:3], g.ravel()[:3]):
            assert abs(got - prox_l1_grid(a, tau / mu)) <= 1e-3


class TestUpdateV:
    def test_noiseless_recovery(self, rng):
        m, n, b, r = 4, 4, 6, 2
        u = rng.standard_normal((m * n, r))
        q, _ = np.linalg.qr(rng.standard_normal((b, r)))
        y = u @ q.T
        zeros = np.zeros_like(y)
        v = update_v(y, zeros, zeros, zeros, 1.0, u)
        np.testing.assert_allclose(v, q, atol=1e-10)

    def test_scale_invariance(self, rng):
        m, n, b, r = 3, 4, 5, 2
        u = rng.standard_normal((m * n, r))
        y = rng.standard_normal((m * n, b))
        zeros = np.zeros_like(y)
        v1 = update_v(y, zeros, zeros, zeros, 1.0, u)
        v2 = update_v(3.0 * y, zeros, zeros, zeros, 1.0, u)
        np.testing.assert_allclose(v1, v2, atol=1e-12)

    def test_quadratic_term_never_increases(self, rng):
        st = random_state(rng)
        y = rng.standard_normal(st.e.shape)

        def quad(v):
            resid = y - st.u @ v.T - st.e - st.s + st.gam3 / st.mu
            return np.vdot(resid, resid)

        before = quad(st.v)
        v_new = update_v(y, st.e, st.s, st.gam3, st.mu, st.u)
        assert quad(v_new) <= before + 1e-10 * max(1.0, abs(before))


class TestUpdateU:
    def test_zero_noise_fixed_point(self, rng):
        m, n, b, r = 5, 6, 7, 2
        tf = build_transfer_functions(m, n)
        u = rng.standard_normal((m * n, r))
        q, _ = np.linalg.qr(rng.standard_normal((b, r)))
        y = u @ q.T
        zb = np.zeros_like(y)
        zr = np.zeros((m * n, r))
        g1 = apply_diff(u, m, n, HORIZONTAL)
        g2 = apply_diff(u, m, n, VERTICAL)
        out = update_u(y, zb, zb, zb, 0.6, q, g1, g2, zr, zr, tf)
        assert np.linalg.norm(out - u) <= 1e-9 * np.linalg.norm(u)

    def test_lagrangian_never_increases(self, rng):
        m, n, b, r = 4, 5, 6, 2
        tf = build_transfer_functions(m, n)
        st = random_state(rng, m, n, b, r)
        y = rng.standard_normal((m * n, b))
        cfg = DenoiseConfig(rank=r, tau1=0.1, tau2=0.1, beta=2.0, lam=0.5)
        before = augmented_lagrangian(y, st, cfg, m, n)
        st.u = update_u(y, st.e, st.s, st.gam3, st.mu, st.v, st.g1, st.g2,
                        st.gam1, st.gam2, tf)
        after = augmented_lagrangian(y, st, cfg, m, n)
        assert after <= before + 1e-9 * max(1.0, abs(before))


class TestUpdateE:
    def test_beta_zero_absorbs_residual(self, rng):
        st = random_state(rng)
        y = rng.standard_normal(st.e.shape)
        e = update_e(y, st.u, st.v, st.s, st.gam3, st.mu, 0.0)
        expected = y - st.u @ st.v.T - st.s + st.gam3 / st.mu
        np.testing.assert_allclose(e, expected, atol=1e-12)

    def test_huge_beta_kills_e(self, rng):
        st = random_state(rng)
        y = rng.standard_normal(st.e.shape)
        e = update_e(y, st.u, st.v, st.s, st.gam3, st.mu, 1e12)
        assert np.linalg.norm(e) <= 1e-9 * np.linalg.norm(y)

    def test_first_order_stationarity(self, rng):
        st = random_state(rng)
        y = rng.standard_normal(st.e.shape)
        beta = 3.0
        e = update_e(y, st.u, st.v, st.s, st.gam3, st.mu, beta)
        resid = y - st.u @ st.v.T - e - st.s + st.gam3 / st.mu
        grad = 2.0 * beta * e - st.mu * resid
        assert np.max(np.abs(grad)) <= 1e-10


class TestUpdateS:
    def test_large_lambda_zeroes_s(self, rng):
        st = random_state(rng)
        y = rng.standard_normal(st.e.shape)
        s = update_s(y, st.u, st.v, st.e, st.gam3, st.mu, 1e12)
        np.testing.assert_array_equal(s, np.zeros_like(s))

    def test_zero_lambda_copies_residual(self, rng):
        st = random_state(rng)
        y = rng.standard_normal(st.e.shape)
        s = update_s(y, st.u, st.v, st.e, st.gam3, st.mu, 0.0)
        expected = y - st.u @ st.v.T - st.e + st.gam3 / st.mu
        np.testing.assert_array_equal(s, expected)

    def test_elementwise_prox_oracle(self, rng):
        st = random_state(rng)
        y = rng.standard_normal(st.e.shape)
        lam = 0.6
        s = update_s(y, st.u, st.v, st.e, st.gam3, st.mu, lam)
        target = y - st.u @ st.v.T - st.e + st.gam3 / st.mu
        for a, got in zip(target.ravel()[:3], s.ravel()[:3]):
            assert abs(got - prox_l1_grid(a, lam / st.mu)) <= 1e-3


class TestUpdateMultipliers:
    def test_feasible_state_keeps_multipliers(self, rng):
        m, n, b, r = 3, 4, 5, 2
        st = random_state(rng, m, n, b, r)
        st.g1 = apply_diff(st.u, m, n, HORIZONTAL)
        st.g2 = apply_diff(st.u, m, n, VERTICAL)
        st.e = rng.standard_normal((m * n, b))
        y = st.u @ st.v.T + st.e + st.s
        gam1, gam2, gam3 = st.gam1.copy(), st.gam2.copy(), st.gam3.copy()
        mu = st.mu
        update_multipliers(st, y, m, n, 1.25, 1e6)
        np.testing.assert_allclose(st.gam1, gam1, atol=1e-12)
        np.testing.assert_allclose(st.gam2, gam2, atol=1e-12)
        np.testing.assert_allclose(st.gam3, gam3, atol=1e-12)
        assert st.mu == pytest.approx(1.25 * mu)

    def test_single_entry_residual_scaled_by_mu(self, rng):
        m, n, b, r = 3, 3, 4, 2
        st = random_state(rng, m, n, b, r, mu=2.0)
        st.g1 = apply_diff(st.u, m, n, HORIZONTAL)
        st.g2 = apply_diff(st.u, m, n, VERTICAL)
        st.gam3 = np.zeros((m * n, b))
        y = st.u @ st.v.T + st.e + st.s
        y[4, 1] += 0.3
        update_multipliers(st, y, m, n, 1.25, 1e6)
        assert st.gam3[4, 1] == pytest.approx(2.0 * 0.3)
        others = st.gam3.copy()
        others[4, 1] = 0.0
        assert np.max(np.abs(others)) <= 1e-12

    def test_mu_cap(self, rng):
        st = random_state(rng, mu=1e6)
        y = rng.standard_normal(st.e.shape)
        update_multipliers(st, y, 4, 5, 1.25, 1e6)
        assert st.mu == 1e6


class TestSolve:
    def test_exact_recovery_on_clean_cube(self):
        clean = smooth_rank_cube(16, 16, 8, 3, seed=3)
        cfg = DenoiseConfig(rank=3, tau1=1e-4, tau2=1e-4, beta=50.0, lam=1.0)
        restored, _ = solve(clean, cfg)
        rel = np.linalg.norm(restored.data - clean.data) / np.linalg.norm(clean.data)
        assert rel <= 1e-3

    def test_mixed_noise_improves_mpsnr(self):
        clean = smooth_rank_cube(32, 32, 10, 3, seed=42)
        noisy, _ = apply_case(clean, "c", "msi31", seed=7)
        cfg = DenoiseConfig.preset("mixed", rank=3, tau=0.3)
        restored, diags = solve(noisy, cfg)
        assert mpsnr(clean, restored) >= mpsnr(clean, noisy) + 10.0
        last = diags[-1]
        assert last.fit_residual <= cfg.epsilon
        assert last.split_residual_h <= cfg.epsilon
        assert last.split_residual_v <= cfg.epsilon
        assert len(diags) <= 50

    def test_degenerate_limit_matches_truncated_svd(self):
        cube = gapped_random_cube(12, 10, 7, 3, seed=5)
        y = unfold_casorati(cube)
        u0, v0 = truncated_svd_init(y, 4)
        cfg = DenoiseConfig(
            rank=4, tau1=0.0, tau2=0.0, beta=1e12, lam=1e12, epsilon=1e-30,
            max_iter=50,
        )
        restored, _ = solve(cube, cfg)
        target = u0 @ v0.T
        rel = np.linalg.norm(unfold_casorati(restored) - target) / np.linalg.norm(target)
        assert rel <= 1e-6

    def test_deterministic_diagnostics(self):
        clean = smooth_rank_cube(12, 12, 6, 2, seed=9)
        noisy, _ = apply_case(clean, "c", "msi31", seed=1)
        cfg = DenoiseConfig.preset("mixed", rank=2, tau=0.1, max_iter=12)
        _, d1 = solve(noisy, cfg)
        _, d2 = solve(noisy, cfg)
        assert len(d1) == len(d2)
        for a, b in zip(d1, d2):
            # Bitwise-identical numerics; wall time is the one field that
            # legitimately varies between runs.
            assert a.iteration == b.iteration
            assert a.fit_residual == b.fit_residual
            assert a.split_residual_h == b.split_residual_h
            assert a.split_residual_v == b.split_residual_v
            assert a.objective == b.objective
            assert a.mu == b.mu
            assert a.rel_change == b.rel_change

    def test_debug_block_decrease(self):
        clean = smooth_rank_cube(12, 12, 6, 2, seed=9)
        noisy, _ = apply_case(clean, "c", "msi31", seed=1)
        cfg = DenoiseConfig.preset("mixed", rank=2, tau=0.1, max_iter=15)
        _, diags = solve(noisy, cfg, debug=True)
        for d in diags:
            assert d.block_increase is not None
            assert d.block_increase <= 1e-8

    def test_rank_exceeding_bands_rejected(self):
        cube = smooth_rank_cube(6, 6, 4, 2, seed=0)
        with pytest.raises(ValueError, match="rank"):
            solve(cube, DenoiseConfig(rank=5))

    def test_preset_values(self):
        g = DenoiseConfig.preset("gaussian", rank=4, tau=0.02)
        assert (g.beta, g.lam, g.tau1, g.tau2) == (1.0, 100.0, 0.02, 0.02)
        m = DenoiseConfig.preset("mixed", rank=4)
        assert (m.beta, m.lam) == (50.0, 1.0)
        with pytest.raises(ValueError, match="preset"):
            DenoiseConfig.preset("median", rank=4)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DenoiseConfig(rank=0)
        with pytest.raises(ValueError):
            DenoiseConfig(rank=2, rho=1.0)
        with pytest.raises(ValueError):
            DenoiseConfig(rank=2, tau1=-0.1)
        with pytest.raises(ValueError):
            DenoiseConfig(rank=2, mu0=0.0)

    @pytest.mark.parametrize(
        "field", ["tau1", "tau2", "beta", "lam", "mu0", "rho", "epsilon", "mu_max"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            DenoiseConfig(rank=2, **{field: value})

    def test_diagnostics_non_finite_encoding(self):
        d = IterationDiagnostics(
            iteration=1, fit_residual=math.nan, split_residual_h=math.inf,
            split_residual_v=-math.inf, objective=2.0, mu=1e-3, wall_ms=1.0,
            rel_change=math.nan, block_increase=-math.inf,
        )
        obj = d.to_json_obj()
        assert obj["fit_res"] == "nan"
        assert obj["split_res1"] == "inf"
        assert obj["split_res2"] == "-inf"
        assert obj["rel_change"] == "nan"
        assert obj["block_increase"] == "-inf"
        assert obj["objective"] == 2.0
        json.dumps(obj, allow_nan=False)

    def test_jsonl_schema(self, tmp_path):
        clean = smooth_rank_cube(8, 8, 4, 2, seed=2)
        cfg = DenoiseConfig(rank=2, max_iter=3)
        _, diags = solve(clean, cfg)
        path = tmp_path / "diag.jsonl"
        diagnostics_to_jsonl(diags, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(diags)
        for i, line in enumerate(lines):
            obj = json.loads(line)
            assert obj["iter"] == i + 1
            for key in ("fit_res", "split_res1", "split_res2", "objective",
                        "mu", "wall_ms", "rel_change"):
                assert key in obj


def reference_solve(cube, cfg, iters):
    """The ADMM loop written with the dense per-block reference kernels."""
    m, n = cube.height, cube.width
    y = unfold_casorati(cube)
    tf = build_transfer_functions(m, n)
    u, v = truncated_svd_init(y, cfg.rank)
    mn, b, r = y.shape[0], y.shape[1], cfg.rank
    st = SolverState(
        u=u, v=v, e=np.zeros((mn, b)), s=np.zeros((mn, b)),
        g1=np.zeros((mn, r)), g2=np.zeros((mn, r)),
        gam1=np.zeros((mn, r)), gam2=np.zeros((mn, r)), gam3=np.zeros((mn, b)),
        mu=cfg.mu0,
    )
    denom = float(np.vdot(y, y))
    prev_x = st.u @ st.v.T
    rows = []
    for _ in range(iters):
        st.g1 = update_g(st.u, st.gam1, st.mu, cfg.tau1, m, n, HORIZONTAL)
        st.g2 = update_g(st.u, st.gam2, st.mu, cfg.tau2, m, n, VERTICAL)
        st.v = update_v(y, st.e, st.s, st.gam3, st.mu, st.u)
        st.u = update_u(y, st.e, st.s, st.gam3, st.mu, st.v,
                        st.g1, st.g2, st.gam1, st.gam2, tf)
        st.e = update_e(y, st.u, st.v, st.s, st.gam3, st.mu, cfg.beta)
        st.s = update_s(y, st.u, st.v, st.e, st.gam3, st.mu, cfg.lam)
        res = update_multipliers(st, y, m, n, cfg.rho, cfg.mu_max)
        x = st.u @ st.v.T
        rows.append((
            float(np.vdot(res.fit, res.fit)) / denom,
            float(np.vdot(res.split_h, res.split_h)) / denom,
            float(np.vdot(res.split_v, res.split_v)) / denom,
            model_objective(st, cfg, res.grad_h, res.grad_v),
            np.linalg.norm(x - prev_x) / np.linalg.norm(prev_x),
        ))
        prev_x = x
    return fold_casorati(prev_x, m, n), rows, st


class TestFusedLoopOracle:
    def test_matches_reference_kernels(self):
        clean = smooth_rank_cube(16, 14, 9, 3, seed=11)
        noisy, _ = apply_case(clean, "e", "msi31", seed=4)
        # A low lam/mu0 threshold so that S leaves zero within 8 iterations.
        cfg = DenoiseConfig.preset(
            "mixed", rank=3, tau=0.1, lam=0.02, mu0=0.5, max_iter=8, epsilon=1e-30
        )
        ref_cube, ref_rows, ref_state = reference_solve(noisy, cfg, 8)
        # The sparse block must be active for the comparison to cover it.
        assert np.count_nonzero(ref_state.s) > 0
        restored, diags = solve(noisy, cfg)
        assert len(diags) == 8
        np.testing.assert_allclose(restored.data, ref_cube.data, rtol=1e-10, atol=0)
        for d, ref in zip(diags, ref_rows):
            got = (d.fit_residual, d.split_residual_h, d.split_residual_v,
                   d.objective, d.rel_change)
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0)

    def test_differences_formed_once_per_iteration(self, monkeypatch):
        # D(U) from each dual step feeds the next G update: two apply_diff
        # calls for the initial U, then two per iteration.
        calls = []

        def counting_diff(*args):
            calls.append(args)
            return apply_diff(*args)

        monkeypatch.setattr(rctv.solver, "apply_diff", counting_diff)
        cfg = DenoiseConfig.preset("mixed", rank=2, max_iter=5, epsilon=1e-30)
        _, diags = solve(smooth_rank_cube(8, 6, 5, 2, seed=1), cfg)
        assert len(diags) == 5
        assert len(calls) == 2 + 2 * len(diags)

    def test_factored_rel_change_matches_dense(self, rng):
        mn, b, r = 300, 20, 4
        for _ in range(5):
            u, u_prev = rng.standard_normal((2, mn, r))
            v, _ = np.linalg.qr(rng.standard_normal((b, r)))
            v_prev, _ = np.linalg.qr(rng.standard_normal((b, r)))
            x, x_prev = u @ v.T, u_prev @ v_prev.T
            dense = np.linalg.norm(x - x_prev) / np.linalg.norm(x_prev)
            assert _rel_change(u, v, u_prev, v_prev) == pytest.approx(dense, rel=1e-12)

    def test_factored_rel_change_without_cancellation(self, rng):
        # Identical iterates: the dense form gives 0; a form that subtracts
        # ||U||^2 + ||U'||^2 - 2<X, X'> would leave about sqrt(eps) here.
        u = rng.standard_normal((300, 4))
        v, _ = np.linalg.qr(rng.standard_normal((20, 4)))
        assert _rel_change(u, v, u, v) <= 1e-14
        assert _rel_change(u, v, np.zeros_like(u), v) == math.inf
