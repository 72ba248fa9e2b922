import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rctv.solver
from conftest import gapped_random_cube, nan_u_solve, smooth_rank_cube
from rctv.cube import casorati_rows, fold_casorati, unfold_casorati
from rctv.diffops import HORIZONTAL, VERTICAL, apply_diff, build_transfer_functions
from rctv.linalg import procrustes_v, soft_threshold, truncated_svd_init
from rctv.metrics import mpsnr
from rctv.noisesim import CASES, apply_case
from rctv.solver import (
    MU_MAX,
    DenoiseConfig,
    IterationDiagnostics,
    SolverState,
    _column_pass,
    _rel_change,
    augmented_lagrangian,
    diagnostics_to_jsonl,
    model_objective,
    solve,
    solve_casorati,
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
        cfg = DenoiseConfig(rank=r, tau=0.1, beta=2.0, lam=0.5)
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
        update_multipliers(st, y, m, n, 1.25)
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
        update_multipliers(st, y, m, n, 1.25)
        assert st.gam3[4, 1] == pytest.approx(2.0 * 0.3)
        others = st.gam3.copy()
        others[4, 1] = 0.0
        assert np.max(np.abs(others)) <= 1e-12

    def test_mu_cap(self, rng):
        st = random_state(rng, mu=MU_MAX)
        y = rng.standard_normal(st.e.shape)
        update_multipliers(st, y, 4, 5, 1.25)
        assert st.mu == MU_MAX


def force_tile_rows(monkeypatch, cube, rows):
    """Shrink solve()'s row tiles to `rows` rows of `cube`.

    At the default tile size the small test cubes fit in one tile, so the
    tests that cover tile boundaries force smaller ones.  Unless one tile
    is one row, the cube must span at least 3 tiles with a ragged last one.
    The column pass's tiles shrink with them, through _TILE_BYTES, to
    max(1, rows*B // (M*R)) whole columns of the plane.
    """
    mn = cube.height * cube.width
    assert rows == 1 or (mn // rows >= 3 and mn % rows)
    monkeypatch.setattr(rctv.solver, "_TILE_BYTES", rows * 8 * cube.bands)


def oracle_cube():
    clean = smooth_rank_cube(16, 14, 9, 3, seed=11)
    noisy, _ = apply_case(clean, "e", "msi31", seed=4)
    return noisy


def oracle_config(**overrides):
    """Mixed preset with a low lam/mu0 threshold: S leaves zero at iteration 1."""
    params = dict(tau=0.1, lam=0.02, mu0=0.5, rho=1.25, max_iter=8, epsilon=1e-30)
    params.update(overrides)
    return DenoiseConfig.preset("mixed", rank=3, **params)


# lam = 0.8 puts S's first nonzero at iteration 2, in Casorati row 8 only.
MID_RUN_LAM = 0.8


def spy_s_clips(monkeypatch, bands, record):
    """Call record(K) after each np.clip that writes a live row tile of solve()'s S.

    A live tile shrinks S by clipping T - E to K in S's own tile, a view of
    the S that solve() holds.  The reference kernels' S shrinks clip into
    fresh arrays, and the G shrinks have R columns, not B.
    """
    clip = np.clip

    def recording(a, low, high, out=None):
        result = clip(a, low, high, out=out)
        if a.shape[1] == bands and out is not None and out.base is not None:
            record(result)
        return result

    monkeypatch.setattr(np, "clip", recording)


def check_against_reference_kernels(noisy, cfg):
    """solve() against the dense reference loop, every iteration to 1e-10.

    Also checks s_active against the iterations where the reference S has
    left zero.  Returns solve()'s diagnostics and the final reference state.
    """
    ref_cube, ref_rows, ref_state, ref_s_active = reference_solve(noisy, cfg, cfg.max_iter)
    restored, diags = solve(noisy, cfg)
    assert len(diags) == cfg.max_iter
    np.testing.assert_allclose(restored.data, ref_cube.data, rtol=1e-10, atol=0)
    for d, ref in zip(diags, ref_rows):
        got = (d.fit_residual, d.split_residual_h, d.split_residual_v, d.objective, d.rel_change)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0)
    assert [d.s_active for d in diags] == ref_s_active
    return diags, ref_state


def check_debug_block_decrease(noisy, cfg):
    _, diags = solve(noisy, cfg, debug=True)
    for d in diags:
        assert d.block_increase is not None
        assert d.block_increase <= 1e-8
    return diags


def peak_allocation(m, n, b, case, **overrides):
    """tracemalloc peak of a mixed-preset rank-2 solve on a noisy smooth cube."""
    clean = smooth_rank_cube(m, n, b, 2, seed=3)
    noisy, _ = apply_case(clean, case, "msi31", seed=2)
    cfg = DenoiseConfig.preset("mixed", rank=2, **overrides)
    tracemalloc.start()
    try:
        _, diags = solve(noisy, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return diags, peak


def debug_case():
    """A mixed-preset solve whose S stays zero and whose G does not.

    mu0 and rho are pinned because S leaves zero once lam/mu is small
    enough; a larger start or faster growth could turn S on inside the 15
    iterations.  tau is small so that tau/mu drops below the size of U's
    differences and the G shrinks keep nonzero entries (at tau = 0.1 every
    G is zero).
    """
    clean = smooth_rank_cube(12, 12, 6, 2, seed=9)
    noisy, _ = apply_case(clean, "c", "msi31", seed=1)
    return noisy, DenoiseConfig.preset(
        "mixed", rank=2, tau=1e-3, mu0=1e-3, rho=1.25, max_iter=15
    )


def count_g_nonzeros(monkeypatch, rank):
    """Record the nonzero count of each G shrink in solve() (the R-column ones)."""
    counts = []

    def recording(a, threshold, out=None):
        result = soft_threshold(a, threshold, out=out)
        if result.shape[1] == rank:
            counts.append(np.count_nonzero(result))
        return result

    monkeypatch.setattr(rctv.solver, "soft_threshold", recording)
    return counts


class TestSolve:
    def test_exact_recovery_on_clean_cube(self):
        clean = smooth_rank_cube(16, 16, 8, 3, seed=3)
        cfg = DenoiseConfig(rank=3, tau=1e-4, beta=50.0, lam=1.0)
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

    def test_default_schedule_converges_sooner_at_the_same_quality(self):
        # Runs converge once mu reaches about 40, so the default schedule
        # must stop in fewer iterations than a slower start (mu0 = 1e-3)
        # and than the slower growth rho = 1.25 on every case.  On one input
        # the restored MPSNR moves by up to about 0.8 dB either way between
        # any two nearby schedules (mu0 = 1e-3 and 8e-4 too), so the quality
        # bound applies to the mean over all inputs: a schedule that loses
        # quality everywhere (mu0 = 10 loses about 1.6 dB) still fails it.
        slow = {"mu0": {"mu0": 1e-3}, "rho": {"rho": 1.25}}
        loss = {name: [] for name in slow}
        for seed in (0, 1):
            clean = smooth_rank_cube(32, 32, 31, 3, seed=seed)
            for case in CASES:
                noisy, _ = apply_case(clean, case, "msi31", seed=seed)
                cfg = DenoiseConfig.preset("mixed", rank=3, tau=0.3)
                restored, diags = solve(noisy, cfg)
                assert diags[-1].converged(cfg.epsilon), case
                for name, params in slow.items():
                    slow_restored, slow_diags = solve(noisy, dataclasses.replace(cfg, **params))
                    assert len(diags) < len(slow_diags), (name, case)
                    loss[name].append(mpsnr(clean, slow_restored) - mpsnr(clean, restored))
        for name, values in loss.items():
            assert np.mean(values) <= 0.2, name

    def test_degenerate_limit_matches_truncated_svd(self):
        cube = gapped_random_cube(12, 10, 7, 3, seed=5)
        y = unfold_casorati(cube)
        u0, v0 = truncated_svd_init(y, 4)
        cfg = DenoiseConfig(
            rank=4, tau=0.0, beta=1e12, lam=1e12, epsilon=1e-30,
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

    def test_debug_block_decrease(self, monkeypatch):
        noisy, cfg = debug_case()
        g_nonzeros = count_g_nonzeros(monkeypatch, cfg.rank)
        diags = check_debug_block_decrease(noisy, cfg)
        assert not any(d.s_active for d in diags)
        assert sum(g_nonzeros) > 0

    @pytest.mark.parametrize("tile_rows", [40, 1])
    def test_debug_block_decrease_in_row_tiles(self, monkeypatch, tile_rows):
        noisy, cfg = debug_case()
        force_tile_rows(monkeypatch, noisy, tile_rows)
        g_nonzeros = count_g_nonzeros(monkeypatch, cfg.rank)
        diags = check_debug_block_decrease(noisy, cfg)
        assert not any(d.s_active for d in diags)
        assert sum(g_nonzeros) > 0

    @pytest.mark.parametrize("case", ["debug_case", "mid_run"])
    def test_debug_lagrangian_at_implicit_e(self, monkeypatch, case):
        # Each iteration re-baselines the Lagrangian, then checks it after
        # 5 block updates.  The baseline at E recovered from P, with S = 0
        # where the loop does not store it, must equal the Lagrangian at the
        # dense reference loop's stored E and S.  In the mid-run case S is
        # live from iteration 2 on some row tiles, so the baselines mix
        # stored and rebuilt P tiles.
        if case == "debug_case":
            noisy, cfg = debug_case()
            cfg = dataclasses.replace(cfg, max_iter=4)
        else:
            noisy, cfg = oracle_cube(), oracle_config(lam=MID_RUN_LAM, max_iter=6)
            force_tile_rows(monkeypatch, noisy, 5)
        values = []

        def recording(*args):
            values.append(augmented_lagrangian(*args))
            return values[-1]

        monkeypatch.setattr(rctv.solver, "augmented_lagrangian", recording)
        g_nonzeros = count_g_nonzeros(monkeypatch, cfg.rank)
        _, diags = solve(noisy, cfg, debug=True)
        if case == "debug_case":
            assert not any(d.s_active for d in diags)
        else:
            assert [d.s_active for d in diags[:2]] == [False, True]
        assert sum(g_nonzeros) > 0
        assert len(values) == 6 * cfg.max_iter
        y = unfold_casorati(noisy)
        for k, value in enumerate(values[::6]):
            _, _, ref_state, _ = reference_solve(noisy, cfg, k)
            expected = augmented_lagrangian(y, ref_state, cfg, noisy.height, noisy.width)
            assert value == pytest.approx(expected, rel=1e-10, abs=0)

    def test_debug_catches_a_wrong_g_update(self, monkeypatch):
        # Iteration 2's column pass writes the G of iteration 3 with a
        # constant added.  Iteration 3's G check re-baselines at the G the
        # pass read, so it must flag the rise, and no other iteration may.
        # Here G has nonzero entries from the first iteration on, and each
        # column tile is one column of the plane.
        noisy, cfg = oracle_cube(), oracle_config(lam=MID_RUN_LAM, max_iter=5)
        force_tile_rows(monkeypatch, noisy, 5)
        v_updates = []

        def counting_v(w):
            v_updates.append(w)
            return procrustes_v(w)

        def corrupting(a, threshold, out=None):
            result = soft_threshold(a, threshold, out=out)
            if out is not None and a.shape[1] == cfg.rank and len(v_updates) == 2:
                result += 0.05
            return result

        monkeypatch.setattr(rctv.solver, "procrustes_v", counting_v)
        monkeypatch.setattr(rctv.solver, "soft_threshold", corrupting)
        _, diags = solve(noisy, cfg, debug=True)
        increases = [d.block_increase for d in diags]
        assert increases[2] > 1e-8
        assert max(increases[:2] + increases[3:]) <= 1e-8

    def test_debug_block_decrease_when_s_turns_on_mid_run(self, monkeypatch):
        noisy = oracle_cube()
        force_tile_rows(monkeypatch, noisy, 5)
        diags = check_debug_block_decrease(noisy, oracle_config(lam=MID_RUN_LAM))
        assert [d.s_active for d in diags[:2]] == [False, True]

    @pytest.mark.parametrize("case", ["criterion_3", "mid_run"])
    def test_debug_leaves_the_solve_untouched(self, monkeypatch, case):
        # Acceptance criterion 3 scores a debug run, so debug mode must give
        # the production result: the same bytes, and the same diagnostics
        # up to wall time and block_increase.
        if case == "criterion_3":
            clean = smooth_rank_cube(32, 32, 10, 3, seed=42)
            noisy, _ = apply_case(clean, "c", "msi31", seed=7)
            cfg = DenoiseConfig.preset("mixed", rank=3, tau=0.3)
        else:
            noisy, cfg = oracle_cube(), oracle_config(lam=MID_RUN_LAM)
            force_tile_rows(monkeypatch, noisy, 5)
        restored, diags = solve(noisy, cfg)
        restored_debug, diags_debug = solve(noisy, cfg, debug=True)
        assert restored_debug.data.tobytes() == restored.data.tobytes()
        assert len(diags_debug) == len(diags)
        for d, d_debug in zip(diags, diags_debug):
            assert dataclasses.replace(d_debug, wall_ms=d.wall_ms, block_increase=None) == d
        if case == "mid_run":
            assert [d.s_active for d in diags[:2]] == [False, True]

    @pytest.mark.parametrize("case", ["debug_case", "mid_run"])
    def test_block_increase_is_the_worst_of_five_rises(self, monkeypatch, case):
        # Each iteration evaluates the Lagrangian 6 times: a baseline and
        # one after each block update.  block_increase is the worst relative
        # rise between consecutive values.
        if case == "debug_case":
            noisy, cfg = debug_case()
        else:
            noisy, cfg = oracle_cube(), oracle_config(lam=MID_RUN_LAM)
            force_tile_rows(monkeypatch, noisy, 5)
        values = []

        def recording(*args):
            values.append(augmented_lagrangian(*args))
            return values[-1]

        monkeypatch.setattr(rctv.solver, "augmented_lagrangian", recording)
        _, diags = solve(noisy, cfg, debug=True)
        assert len(values) == 6 * len(diags)
        for k, d in enumerate(diags):
            lags = values[6 * k : 6 * k + 6]
            rises = [(b - a) / max(1.0, abs(a)) for a, b in zip(lags, lags[1:])]
            assert d.block_increase == max(rises)

    def test_peak_allocation_while_s_is_zero(self):
        # Y's copy and Gam3 are the MN x B arrays a solve needs while S is
        # zero.
        m, n, b = 48, 48, 96
        diags, peak = peak_allocation(
            m, n, b, "c", mu0=1e-3, max_iter=3, epsilon=1e-30
        )
        assert not any(d.s_active for d in diags)
        assert peak <= 3.0 * m * n * b * 8

    def test_peak_allocation_while_s_is_active(self):
        # S is stored from iteration 1, and with it P; E never is, so the
        # two add two MN x B arrays to the S-zero working set.
        m, n, b = 48, 48, 96
        diags, peak = peak_allocation(
            m, n, b, "e", lam=0.02, mu0=0.5, max_iter=3, epsilon=1e-30
        )
        assert all(d.s_active for d in diags)
        assert peak <= 5.0 * m * n * b * 8

    def test_iterations_allocate_no_coefficient_array(self, monkeypatch):
        # The U solve, the column pass and the diagnostics work in buffers
        # allocated before the loop, so from one V update to the next the
        # traced memory never rises by half an (M*N, R) array above its
        # level at the first of them.  What does rise is size-independent:
        # numpy's 3 x 64 KiB iteration buffers for strided operands.  S
        # stays zero, so no MN x B array is added either.
        m, n, r = 128, 128, 8
        clean = smooth_rank_cube(m, n, 16, 2, seed=9)
        noisy, _ = apply_case(clean, "c", "msi31", seed=1)
        cfg = DenoiseConfig.preset(
            "mixed", rank=r, tau=0.1, mu0=1e-3, max_iter=4, epsilon=1e-30
        )
        rises = []

        def recording(w):
            current, peak = tracemalloc.get_traced_memory()
            rises.append(peak - current)
            tracemalloc.reset_peak()
            return procrustes_v(w)

        monkeypatch.setattr(rctv.solver, "procrustes_v", recording)
        tracemalloc.start()
        try:
            _, diags = solve(noisy, cfg)
        finally:
            tracemalloc.stop()
        assert not any(d.s_active for d in diags)
        # The first record spans the set-up before the loop.
        assert len(rises) == cfg.max_iter
        assert max(rises[1:]) < 0.5 * m * n * r * 8

    def test_s_live_iterations_allocate_no_tile(self, monkeypatch):
        # With S live from iteration 1, every row tile works in S's, P's
        # and Lam3's own tiles and the tile buffer, so from one V update to
        # the next the traced memory never rises by a row tile above its
        # level at the first of them: numpy's 3 x 64 KiB iteration buffers
        # for strided operands stay below the 256 KiB tile.  S and P are
        # allocated at iteration 1 and stay, so they raise the level, not
        # the rise.
        m, n, r = 128, 128, 8
        clean = smooth_rank_cube(m, n, 16, 2, seed=9)
        noisy, _ = apply_case(clean, "e", "msi31", seed=1)
        cfg = DenoiseConfig.preset(
            "mixed", rank=r, tau=0.1, lam=0.02, mu0=0.5, max_iter=4, epsilon=1e-30
        )
        rises = []

        def recording(w):
            current, peak = tracemalloc.get_traced_memory()
            rises.append(peak - current)
            tracemalloc.reset_peak()
            return procrustes_v(w)

        monkeypatch.setattr(rctv.solver, "procrustes_v", recording)
        tracemalloc.start()
        try:
            _, diags = solve(noisy, cfg)
        finally:
            tracemalloc.stop()
        assert all(d.s_active for d in diags)
        # The first record spans the set-up before the loop.
        assert len(rises) == cfg.max_iter
        assert max(rises[1:]) < rctv.solver._TILE_BYTES

    def test_rank_or_plane_rejected_before_copying_y(self, monkeypatch):
        copies = []
        monkeypatch.setattr(rctv.solver, "casorati_rows", lambda c: copies.append(c))
        with pytest.raises(ValueError, match="plane dims must be >= 2, got 1x6"):
            solve(fold_casorati(np.ones((6, 4)), 1, 6), DenoiseConfig(rank=2))
        with pytest.raises(ValueError, match="rank 5 exceeds band count 4"):
            solve(smooth_rank_cube(6, 6, 4, 2, seed=0), DenoiseConfig(rank=5))
        assert copies == []

    def test_solve_casorati_matches_solve(self):
        cube = oracle_cube()
        cfg = DenoiseConfig(rank=3, tau=0.05, max_iter=8, epsilon=1e-30)
        restored, diags = solve(cube, cfg)
        y = casorati_rows(cube)
        y_before = y.copy()
        direct, direct_diags = solve_casorati(y, cube.height, cube.width, cfg)
        assert np.array_equal(direct.data, restored.data)
        assert [dataclasses.replace(d, wall_ms=0.0) for d in direct_diags] == [
            dataclasses.replace(d, wall_ms=0.0) for d in diags
        ]
        # The caller's matrix is read, never written.
        assert np.array_equal(y, y_before)
        assert y.flags.writeable

    @pytest.mark.parametrize(
        "make, height, message",
        [(lambda y: np.asfortranarray(y), 16, "C-ordered"),
         (lambda y: y, 15, "row count 224 != M\\*N = 210"),
         (lambda y: y.astype(np.float32), 16, "float64"),
         (lambda y: y.reshape(-1), 16, "ndim=1"),
         (lambda y: y.tolist(), 16, "numpy array"),
         (lambda y: y[:, :2], 16, "C-ordered")],
        ids=["fortran", "rows", "float32", "vector", "list", "column-slice"],
    )
    def test_solve_casorati_rejects_a_bad_matrix_before_allocating(
        self, monkeypatch, make, height, message
    ):
        y = make(casorati_rows(oracle_cube()))
        calls = []
        monkeypatch.setattr(rctv.solver, "build_transfer_functions", lambda *a: calls.append(a))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                solve_casorati(y, height, 14, DenoiseConfig(rank=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 16 * 1024

    def test_auto_rank_refused_before_allocating(self, monkeypatch):
        # Only denoise() resolves rank "auto"; the solves refuse it, naming
        # denoise, before they copy Y or build anything.
        cube = oracle_cube()
        y = casorati_rows(cube)
        calls = []
        for name in ("casorati_rows", "build_transfer_functions"):
            monkeypatch.setattr(rctv.solver, name, lambda *a, name=name: calls.append(name))
        cfg = DenoiseConfig(rank="auto")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"denoise\(\)"):
                solve(cube, cfg)
            with pytest.raises(ValueError, match=r"denoise\(\)"):
                solve_casorati(y, cube.height, cube.width, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 16 * 1024

    def test_divergence_fails_fast(self, monkeypatch):
        solves = []
        monkeypatch.setattr(rctv.solver, "solve_u_system", nan_u_solve(solves))
        cfg = DenoiseConfig.preset("mixed", rank=2, max_iter=10, epsilon=1e-30)
        with pytest.raises(ValueError, match="fit_res is nan at iteration 3"):
            solve(smooth_rank_cube(8, 6, 5, 2, seed=1), cfg)
        assert len(solves) == 3

    def test_mu_held_at_cap(self):
        # From mu0 near the cap, mu reaches MU_MAX at iteration 5 and stays.
        # rho is pinned: the test checks the cap rule, not the default.
        cfg = DenoiseConfig.preset(
            "mixed", rank=2, mu0=0.5 * MU_MAX, rho=1.25, max_iter=8, epsilon=1e-30
        )
        _, diags = solve(smooth_rank_cube(8, 6, 5, 2, seed=1), cfg)
        mus = [d.mu for d in diags]
        assert len(mus) == cfg.max_iter
        assert mus[:4] == [cfg.mu0 * cfg.rho**k for k in range(4)]
        assert mus[4:] == [MU_MAX] * 4

    def test_rank_exceeding_bands_rejected(self):
        cube = smooth_rank_cube(6, 6, 4, 2, seed=0)
        with pytest.raises(ValueError, match="rank"):
            solve(cube, DenoiseConfig(rank=5))

    def test_defaults_are_the_mixed_preset(self):
        assert DenoiseConfig(rank=2) == DenoiseConfig.preset("mixed", rank=2)

    def test_preset_values(self):
        g = DenoiseConfig.preset("gaussian", rank=4, tau=0.02)
        assert (g.beta, g.lam, g.tau) == (1.0, 100.0, 0.02)
        m = DenoiseConfig.preset("mixed", rank=4)
        assert (m.beta, m.lam) == (50.0, 1.0)
        with pytest.raises(ValueError, match="preset"):
            DenoiseConfig.preset("median", rank=4)

    @pytest.mark.parametrize(
        "kwargs, field",
        [({"rank": 2.5}, "rank"), ({"rank": 2, "max_iter": 3.0}, "max_iter"),
         ({"rank": True}, "rank"), ({"rank": "Auto"}, "rank"), ({"rank": "2"}, "rank")],
        ids=["float-rank", "float-max-iter", "bool-rank", "Auto-rank", "str-rank"],
    )
    def test_config_rejects_a_non_integer_count(self, kwargs, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            DenoiseConfig(**kwargs)

    def test_config_takes_auto_rank(self):
        assert DenoiseConfig.preset("mixed", rank="auto").rank == "auto"

    def test_config_takes_numpy_integer_counts_as_int(self):
        cfg = DenoiseConfig(rank=np.int64(3), max_iter=np.int32(4))
        assert (cfg.rank, cfg.max_iter) == (3, 4)
        assert type(cfg.rank) is int and type(cfg.max_iter) is int

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DenoiseConfig(rank=0)
        with pytest.raises(ValueError):
            DenoiseConfig(rank=2, rho=1.0)
        with pytest.raises(ValueError):
            DenoiseConfig(rank=2, tau=-0.1)
        with pytest.raises(ValueError):
            DenoiseConfig(rank=2, mu0=0.0)

    @pytest.mark.parametrize(
        "field", ["tau", "beta", "lam", "mu0", "rho", "epsilon"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            DenoiseConfig(rank=2, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("beta", 1e308), ("tau", 1e308), ("beta", 0.0), ("beta", -1.0),
         ("beta", 1e-305), ("mu0", 1e7)],
        ids=["beta", "tau", "beta-zero", "beta-negative", "beta-e-weight-overflows",
             "mu0-over-cap"],
    )
    def test_config_rejects_overflowing_derived_value(self, field, value):
        # 2*beta and tau/mu0 overflow at 1e308; the settings themselves are
        # finite.  mu0 = 1e-2 is given, not taken from the default, as
        # tau/mu0 overflows only for mu0 < 1.  The solve recovers E from
        # Lam3 through MU_MAX/(2*beta), so beta must be positive and that
        # factor finite (it overflows at 1e-305), and mu0 may not start
        # above the cap it is held at.
        with pytest.raises(ValueError, match=field):
            DenoiseConfig(rank=2, **{"mu0": 1e-2, field: value})
        DenoiseConfig(rank=2, tau=1e305, lam=1e308, mu0=1e-2)
        DenoiseConfig(rank=2, beta=1e-300, mu0=MU_MAX)

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
            assert obj["s_active"] is diags[i].s_active


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
    s_active = []
    for _ in range(iters):
        st.g1 = update_g(st.u, st.gam1, st.mu, cfg.tau, m, n, HORIZONTAL)
        st.g2 = update_g(st.u, st.gam2, st.mu, cfg.tau, m, n, VERTICAL)
        st.v = update_v(y, st.e, st.s, st.gam3, st.mu, st.u)
        st.u = update_u(y, st.e, st.s, st.gam3, st.mu, st.v,
                        st.g1, st.g2, st.gam1, st.gam2, tf)
        st.e = update_e(y, st.u, st.v, st.s, st.gam3, st.mu, cfg.beta)
        st.s = update_s(y, st.u, st.v, st.e, st.gam3, st.mu, cfg.lam)
        res = update_multipliers(st, y, m, n, cfg.rho)
        x = st.u @ st.v.T
        rows.append((
            float(np.vdot(res.fit, res.fit)) / denom,
            float(np.vdot(res.split_h, res.split_h)) / denom,
            float(np.vdot(res.split_v, res.split_v)) / denom,
            model_objective(st, cfg, res.grad_h, res.grad_v),
            np.linalg.norm(x - prev_x) / np.linalg.norm(prev_x),
        ))
        prev_x = x
        s_active.append(bool(s_active and s_active[-1]) or bool(np.any(st.s)))
    return fold_casorati(prev_x, m, n), rows, st, s_active


class TestFusedLoopOracle:
    def test_matches_reference_kernels(self):
        _, ref_state = check_against_reference_kernels(oracle_cube(), oracle_config())
        # The sparse block must be active for the comparison to cover it.
        assert np.count_nonzero(ref_state.s) > 0

    @pytest.mark.parametrize("tile_rows", [50, 13, 1])
    def test_matches_reference_kernels_in_row_tiles(self, monkeypatch, tile_rows):
        noisy = oracle_cube()
        force_tile_rows(monkeypatch, noisy, tile_rows)
        _, ref_state = check_against_reference_kernels(noisy, oracle_config())
        assert np.count_nonzero(ref_state.s) > 0

    def test_matches_reference_kernels_when_s_turns_on_mid_run(self, monkeypatch):
        # S turns on in iteration 2, in tile 1 of 45 with a ragged last tile,
        # and spreads to the other tiles over the next iterations: a tile
        # takes the S-zero path until its own shrink lets an entry through.
        noisy, rows = oracle_cube(), 5
        force_tile_rows(monkeypatch, noisy, rows)
        cfg = oracle_config(lam=MID_RUN_LAM)
        _, _, ref_state, _ = reference_solve(noisy, cfg, 2)
        first_row = int(np.flatnonzero(np.any(ref_state.s, axis=1))[0])
        assert first_row // rows == 1
        widths = []

        def recording(a, threshold, out=None):
            if out is not None:  # solve(), not the reference kernels
                widths.append(a.shape[1])
            return soft_threshold(a, threshold, out=out)

        monkeypatch.setattr(rctv.solver, "soft_threshold", recording)
        spy_s_clips(monkeypatch, noisy.bands, lambda k: widths.append(k.shape[1]))
        diags, _ = check_against_reference_kernels(noisy, cfg)
        assert next(d.iteration for d in diags if d.s_active) == 2
        # The init column pass shrinks the first two G splits (R columns)
        # once per column tile: here one column of the plane per tile.  Then
        # each iteration shrinks S once per row tile (B columns) on which the
        # reference S has left zero so far, and the next two G splits.
        assert max(1, rows * noisy.bands // (noisy.height * cfg.rank)) == 1
        g_pass = "g" * (2 * noisy.width)
        live, expected = set(), g_pass
        for it in range(1, cfg.max_iter + 1):
            _, _, state, _ = reference_solve(noisy, cfg, it)
            live |= set(np.flatnonzero(np.any(state.s, axis=1)) // rows)
            expected += "s" * len(live) + g_pass
        assert "".join("g" if w == cfg.rank else "s" for w in widths) == expected

    def test_matches_reference_kernels_at_zero_lambda(self, monkeypatch):
        # At lam = 0 the S threshold is 0, so every row tile, ragged last one
        # included, is live from iteration 1 and clips T - E to K = 0 in
        # S's tile.  The fit residual K - Lam3 and the next Lam3 = (mu/mu')*K
        # are then exactly 0, and with them the sparse term mu'*<S', Lam3>:
        # the objective is the reference's, whose lam*||S||_1 is 0.
        noisy, rows = oracle_cube(), 13
        force_tile_rows(monkeypatch, noisy, rows)
        cfg = oracle_config(lam=0.0)
        clipped = []
        spy_s_clips(monkeypatch, noisy.bands, lambda k: clipped.append(np.count_nonzero(k)))
        diags, ref_state = check_against_reference_kernels(noisy, cfg)
        n_tiles = -(-noisy.height * noisy.width // rows)
        assert len(clipped) == n_tiles * cfg.max_iter
        assert not any(clipped)
        assert all(d.s_active for d in diags)
        assert all(d.fit_residual == 0.0 for d in diags)
        assert np.count_nonzero(ref_state.s) > 0

    def test_matches_reference_kernels_while_s_stays_zero(self, monkeypatch):
        noisy = oracle_cube()
        force_tile_rows(monkeypatch, noisy, 13)
        diags, ref_state = check_against_reference_kernels(noisy, oracle_config(lam=100.0))
        assert not any(d.s_active for d in diags)
        assert not np.any(ref_state.s)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.01, 10.0),
        mu0=st.floats(1e-3, 2.0),
        beta=st.floats(0.01, 100.0),
        tile_rows=st.integers(1, 64),
    )
    def test_matches_reference_solve_on_random_cubes(self, seed, lam, mu0, beta, tile_rows):
        cube = gapped_random_cube(9, 7, 6, 2, seed=seed)
        cfg = DenoiseConfig(rank=2, tau=0.05, beta=beta, lam=lam,
                            mu0=mu0, max_iter=6, epsilon=1e-30)
        ref_cube, _, _, _ = reference_solve(cube, cfg, cfg.max_iter)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rctv.solver, "_TILE_BYTES", tile_rows * 8 * cube.bands)
            restored, _ = solve(cube, cfg)
        rel = np.linalg.norm(restored.data - ref_cube.data) / np.linalg.norm(ref_cube.data)
        assert rel <= 1e-9

    def test_differences_formed_once_per_iteration(self, monkeypatch):
        # One column pass on U0 writes the first G; after that each
        # iteration's one column pass forms D(U) for the dual step, the
        # objective and the next G update.  Every shrink writes into a
        # buffer solve() holds, and no allocating difference is formed.
        calls, passes, shrink_outs = [], [], []

        def counting_diff(*args):
            calls.append(args)
            return apply_diff(*args)

        def counting_pass(*args):
            passes.append(args)
            return _column_pass(*args)

        def recording(a, threshold, out=None):
            shrink_outs.append(out)
            return soft_threshold(a, threshold, out=out)

        monkeypatch.setattr(rctv.solver, "apply_diff", counting_diff)
        monkeypatch.setattr(rctv.solver, "_column_pass", counting_pass)
        monkeypatch.setattr(rctv.solver, "soft_threshold", recording)
        cfg = DenoiseConfig.preset("mixed", rank=2, max_iter=5, epsilon=1e-30)
        _, diags = solve(smooth_rank_cube(8, 6, 5, 2, seed=1), cfg)
        assert len(diags) == 5
        assert len(calls) == 0
        assert len(passes) == cfg.max_iter + 1
        assert shrink_outs and all(out is not None for out in shrink_outs)

    def test_each_row_tile_forms_t_once_per_iteration(self, monkeypatch):
        # Every row tile forms T = Y - U V^T + Lam3 once per iteration with
        # one np.subtract from a row tile of the read-only Y, the iteration
        # in which it goes live included.  V updates segment the iterations.
        noisy, rows = oracle_cube(), 5
        force_tile_rows(monkeypatch, noisy, rows)
        cfg = oracle_config(lam=MID_RUN_LAM)
        counts = [0]
        subtract = np.subtract

        def counting_v(w):
            counts.append(0)
            return procrustes_v(w)

        def counting_subtract(a, *args, **kwargs):
            if (
                isinstance(a, np.ndarray) and a.ndim == 2
                and a.shape[1] == noisy.bands and not a.flags.writeable
            ):
                counts[-1] += 1
            return subtract(a, *args, **kwargs)

        monkeypatch.setattr(rctv.solver, "procrustes_v", counting_v)
        monkeypatch.setattr(np, "subtract", counting_subtract)
        _, diags = solve(noisy, cfg)
        n_tiles = -(-noisy.height * noisy.width // rows)
        assert n_tiles == 45
        assert counts == [0] + [n_tiles] * len(diags)
        assert not diags[0].s_active
        assert all(d.s_active for d in diags[1:])

    def test_first_v_update_reads_init_basis(self, monkeypatch):
        # Y^T U0 is V0 scaled by the Gram eigenvalues, and V0 maximizes
        # <Y^T U0, V>, so the first V update starts from V0 itself and no
        # MN x B x R product is formed for it.
        args = []

        def recording(w):
            args.append(w.copy())
            return procrustes_v(w)

        monkeypatch.setattr(rctv.solver, "procrustes_v", recording)
        noisy, cfg = oracle_cube(), oracle_config(max_iter=2)
        solve(noisy, cfg)
        _, v0 = truncated_svd_init(np.ascontiguousarray(unfold_casorati(noisy)), cfg.rank)
        assert len(args) == 2
        np.testing.assert_array_equal(args[0], v0)

    def test_factored_rel_change_matches_dense(self, rng):
        mn, b, r = 300, 20, 4
        for _ in range(5):
            u, u_prev = rng.standard_normal((2, mn, r))
            v, _ = np.linalg.qr(rng.standard_normal((b, r)))
            v_prev, _ = np.linalg.qr(rng.standard_normal((b, r)))
            x, x_prev = u @ v.T, u_prev @ v_prev.T
            dense = np.linalg.norm(x - x_prev) / np.linalg.norm(x_prev)
            got = loop_rel_change(u, v, u_prev, v_prev, height=15, cols=6)
            assert got == pytest.approx(dense, rel=1e-12)

    def test_factored_rel_change_without_cancellation(self, rng):
        # Identical iterates: the dense form gives 0; a form that subtracts
        # ||U||^2 + ||U'||^2 - 2<X, X'> would leave about sqrt(eps) here.
        u = rng.standard_normal((300, 4))
        v, _ = np.linalg.qr(rng.standard_normal((20, 4)))
        assert loop_rel_change(u, v, u, v, height=15, cols=6) <= 1e-14
        zero = np.zeros_like(u)
        assert loop_rel_change(u, v, zero, v, height=15, cols=6) == math.inf


def run_column_pass(u, u_prev, c, g, lam, threshold, rescale, height, cols):
    """_column_pass on copies of g and lam, in tiles of `cols` columns.

    Returns the pass's sums and the updated copies.
    """
    g, lam = tuple(x.copy() for x in g), tuple(x.copy() for x in lam)
    buf = np.empty((2, cols, height, u.shape[1]))
    return _column_pass(u, u_prev, c, g, lam, threshold, rescale, height, buf), g, lam


def loop_rel_change(u, v, u_prev, v_prev, height, cols):
    """rel_change as solve() forms it from two column passes.

    The Gram of U_prev comes from the pass that had U_prev as its U, and
    ||U - U_prev C||^2 from the pass over U.
    """
    zeros = (np.zeros_like(u), np.zeros_like(u))
    args = (zeros, zeros, 0.0, 1.0, height, cols)
    gram_prev = run_column_pass(u_prev, u_prev, np.eye(u.shape[1]), *args)[0].gram
    c = v_prev.T @ v
    sums = run_column_pass(u, u_prev, c, *args)[0]
    return _rel_change(sums.in_span_sq, gram_prev, c, v, v_prev)


class TestColumnPass:
    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(2, 9),
        n=st.integers(2, 9),
        r=st.integers(1, 3),
        cols=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(m=5, n=7, r=2, cols=1, seed=0)  # one column per tile
    @example(m=5, n=7, r=2, cols=3, seed=1)  # a ragged last tile: 3 + 3 + 1
    @example(m=5, n=7, r=2, cols=7, seed=2)  # one tile spans the plane
    def test_matches_dense_reference(self, m, n, r, cols, seed):
        cols = min(cols, n)
        rng = np.random.default_rng(seed)
        u, u_prev, g1, g2, lam1, lam2 = rng.standard_normal((6, m * n, r))
        c = rng.standard_normal((r, r))
        threshold = rng.uniform(0.0, 1.0)
        rescale = 0.8
        sums, g, lam = run_column_pass(
            u, u_prev, c, (g1, g2), (lam1, lam2), threshold, rescale, m, cols
        )
        for i, (direction, g_old, lam_old) in enumerate(
            ((HORIZONTAL, g1, lam1), (VERTICAL, g2, lam2))
        ):
            d = apply_diff(u, m, n, direction)
            split = d - g_old
            assert sums.split_sq[i] == pytest.approx(np.vdot(split, split), rel=1e-12)
            assert sums.grad_abs[i] == pytest.approx(np.abs(d).sum(), rel=1e-12)
            # Elementwise, the pass does the reference's arithmetic.
            lam_next = (lam_old + split) * rescale
            np.testing.assert_array_equal(lam[i], lam_next)
            np.testing.assert_array_equal(g[i], soft_threshold(d + lam_next, threshold))
        in_span = u - u_prev @ c
        assert sums.in_span_sq == pytest.approx(np.vdot(in_span, in_span), rel=1e-12)
        gram = u.T @ u
        np.testing.assert_allclose(sums.gram, gram, rtol=1e-12, atol=1e-12 * np.trace(gram))
