"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s -v tests/test_acceptance.py` to see the lines.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import dense_diff_matrix, gapped_random_cube, random_cube, smooth_rank_cube
from rctv.cli import run_bench
from rctv.cube import fold_casorati, unfold_casorati
from rctv.diffops import build_transfer_functions, solve_u_system
from rctv.linalg import procrustes_v, soft_threshold, truncated_svd_init
from rctv.metrics import compute_report, mpsnr
from rctv.noisesim import add_gaussian, add_impulse, apply_case, replay
from rctv.solver import DenoiseConfig, solve
from test_metrics import ergas_oracle, msam_oracle, psnr_oracle, ssim_oracle


@contextmanager
def criterion(num, summary):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {summary}")
        raise
    print(f"PASS criterion {num}: {summary}")


def brute_force_prox(a_vals, thetas, lo=-3.0, hi=3.0, step=1e-4):
    grid = np.arange(lo, hi + step, step)
    out = np.empty(a_vals.size)
    chunk = 100
    for i0 in range(0, a_vals.size, chunk):
        a = a_vals[i0 : i0 + chunk, None]
        th = thetas[i0 : i0 + chunk, None]
        vals = th * np.abs(grid)[None, :] + 0.5 * (grid[None, :] - a) ** 2
        out[i0 : i0 + chunk] = grid[np.argmin(vals, axis=1)]
    return out


def test_criterion_1_kernel_oracles():
    with criterion(1, "soft-threshold prox grid, FFT-vs-dense solve, Procrustes bound"):
        rng = np.random.default_rng(100)
        # 1a: soft threshold vs brute-force scalar prox on 1000 random pairs.
        a_vals = rng.uniform(-2.0, 2.0, 1000)
        thetas = rng.uniform(0.0, 1.0, 1000)
        expected = brute_force_prox(a_vals, thetas)
        got = np.array([soft_threshold(np.array(a), t) for a, t in zip(a_vals, thetas)])
        assert np.max(np.abs(got - expected)) <= 1e-3

        # 1b: FFT coefficient solve vs dense direct solve on small planes.
        for m, n in ((3, 3), (4, 4), (4, 5), (5, 5)):
            tf = build_transfer_functions(m, n)
            mu = 0.8
            rhs_data = rng.standard_normal((m * n, 2))
            g1, g2, gam1, gam2 = (rng.standard_normal((m * n, 2)) for _ in range(4))
            u = solve_u_system(rhs_data, g1, g2, gam1, gam2, mu, tf)
            ah = dense_diff_matrix(m, n, "horizontal")
            av = dense_diff_matrix(m, n, "vertical")
            system = mu * (np.eye(m * n) + ah.T @ ah + av.T @ av)
            for r in range(2):
                rhs = (
                    rhs_data[:, r]
                    + ah.T @ (mu * g1 - gam1)[:, r]
                    + av.T @ (mu * g2 - gam2)[:, r]
                )
                expected_col = np.linalg.solve(system, rhs)
                err = np.linalg.norm(u[:, r] - expected_col)
                assert err <= 1e-10 * np.linalg.norm(expected_col)

        # 1c: Procrustes objective = nuclear norm, dominates 200 candidates.
        w = rng.standard_normal((9, 3))
        v = procrustes_v(w)
        attained = np.vdot(w, v)
        assert abs(attained - np.linalg.svd(w, compute_uv=False).sum()) <= 1e-9
        for _ in range(200):
            q, _ = np.linalg.qr(rng.standard_normal((9, 3)))
            assert attained >= np.vdot(w, q) - 1e-12


def _stable_angle(x, y):
    """Angle between vectors via 2*atan2(|x^ - y^|, |x^ + y^|).

    Well-conditioned for near-parallel vectors, where acos of the cosine
    amplifies roundoff by 1/sin(theta).
    """
    xh = x / np.linalg.norm(x)
    yh = y / np.linalg.norm(y)
    return 2.0 * math.atan2(np.linalg.norm(xh - yh), np.linalg.norm(xh + yh))


def test_criterion_2_coefficient_isometries():
    with criterion(2, "row distances/angles/norms preserved on 50 exact-rank matrices"):
        rng = np.random.default_rng(200)
        for _ in range(50):
            rows = int(rng.integers(5, 51))
            b = int(rng.integers(4, 13))
            r = int(rng.integers(1, min(rows, b)))
            x = rng.standard_normal((rows, r)) @ rng.standard_normal((r, b))
            v = np.linalg.svd(x, full_matrices=False)[2][:r].T
            u = x @ v
            nx = np.linalg.norm(x, axis=1)
            nu = np.linalg.norm(u, axis=1)
            assert np.max(np.abs(nx - nu)) <= 1e-10
            for i in range(rows):
                for j in range(i + 1, rows):
                    dx = np.linalg.norm(x[i] - x[j])
                    du = np.linalg.norm(u[i] - u[j])
                    assert abs(dx - du) <= 1e-10
                    if nx[i] == 0.0 or nx[j] == 0.0:
                        continue
                    assert abs(_stable_angle(x[i], x[j]) - _stable_angle(u[i], u[j])) <= 1e-10


def test_criterion_3_admm_sanity():
    with criterion(3, "case-(c) mixed-preset run: +10 dB, residuals < 1e-6 in 50 iters"):
        clean = smooth_rank_cube(32, 32, 10, 3, seed=42)
        noisy, record = apply_case(clean, "c", "msi31", seed=7)
        assert record.gaussian_sigma == [0.075] * 10
        assert record.impulse_ratio == [0.1] * 10
        cfg = DenoiseConfig.preset("mixed", rank=3, tau=0.3)
        restored, diags = solve(noisy, cfg, debug=True)
        gain = mpsnr(clean, restored) - mpsnr(clean, noisy)
        assert gain >= 10.0
        assert len(diags) <= 50
        last = diags[-1]
        assert last.fit_residual <= 1e-6
        assert last.split_residual_h <= 1e-6
        assert last.split_residual_v <= 1e-6
        for d in diags:
            assert d.block_increase is not None and d.block_increase <= 1e-8


def test_criterion_4_degenerate_limit():
    with criterion(4, "tau=0, huge lambda/beta collapse to truncated SVD (1e-6)"):
        for seed, rank in ((5, 3), (6, 2), (7, 4)):
            cube = gapped_random_cube(16, 16, 8, rank, seed=seed)
            y = unfold_casorati(cube)
            # The rank-1 shift into [0, 1] joins the signal subspace.
            r_eff = rank + 1
            u0, v0 = truncated_svd_init(y, r_eff)
            target = u0 @ v0.T
            cfg = DenoiseConfig(
                rank=r_eff, tau=0.0, beta=1e12, lam=1e12,
                epsilon=1e-30, max_iter=50,
            )
            restored, _ = solve(cube, cfg)
            rel = np.linalg.norm(unfold_casorati(restored) - target)
            assert rel <= 1e-6 * np.linalg.norm(target)


def _monotone_down_to_eps(series, eps, window=5, slack=1.05):
    """Monotone trend check that tolerates the small-mu plateau wiggle.

    The running-max envelope (window 5) must be non-increasing within 5%
    from its peak until the series first crosses below eps.
    """
    arr = np.asarray(series)
    crossing = int(np.argmax(arr <= eps))
    env = np.array([arr[t : t + window].max() for t in range(crossing + 1)])
    peak = int(np.argmax(env))
    return all(env[t + 1] <= env[t] * slack for t in range(peak, crossing))


def test_criterion_5_convergence_profile():
    with criterion(5, "residuals trend monotonically below eps; output stabilizes"):
        clean = smooth_rank_cube(32, 32, 10, 3, seed=42)
        noisy, _ = apply_case(clean, "c", "msi31", seed=7)
        cfg = DenoiseConfig.preset("mixed", rank=3, tau=0.3, epsilon=1e-14, max_iter=80)
        _, diags = solve(noisy, cfg)
        eps = 1e-6
        fit = [d.fit_residual for d in diags]
        s1 = [d.split_residual_h for d in diags]
        s2 = [d.split_residual_v for d in diags]
        for series in (fit, s1, s2):
            assert min(series) <= eps
            assert series[-1] <= eps
            assert _monotone_down_to_eps(series, eps)
        assert diags[-1].rel_change < 1e-4


def test_criterion_6_scaling_benchmark():
    with criterion(6, "wall time monotone in rank on 128x128x32 (2x noise margin)"):
        ranks = [2, 4, 8, 16]
        rows = run_bench([(128, 128, 32)], ranks, reps=5, max_iter=20, seed=0)
        best = {r: min(ms for (_, _, _, rr, _, ms) in rows if rr == r) for r in ranks}
        for lo, hi in zip(ranks, ranks[1:]):
            assert best[hi] >= 0.5 * best[lo], (best[lo], best[hi])
        assert best[16] >= 2.0 * best[2], best


def test_criterion_7_noise_simulator_statistics():
    with criterion(7, "Gaussian sigma within 2%, exact impulse counts, bit-exact replay"):
        flat = fold_casorati(np.full((256 * 256, 1), 0.5), 256, 256)
        noisy, _ = add_gaussian(flat, 0.1, np.random.default_rng(123))
        sd = float(np.std(noisy.data - flat.data))
        assert 0.098 <= sd <= 0.102

        cube = random_cube(100, 100, 3, seed=300)
        _, _, counts = add_impulse(cube, 0.1, np.random.default_rng(7))
        assert counts.tolist() == [1000, 1000, 1000]

        clean = random_cube(12, 12, 31, seed=301)
        corrupted, record = apply_case(clean, "f", "msi31", seed=99)
        np.testing.assert_array_equal(replay(record, clean).data, corrupted.data)


def test_criterion_8_metrics_self_consistency():
    with criterion(8, "identity sentinels, 1e-12 brute-force agreement, exact MSAM scaling"):
        cube = random_cube(8, 8, 4, seed=400)
        report = compute_report(cube, cube)
        assert report.mpsnr == math.inf
        assert report.mssim == pytest.approx(1.0, abs=1e-12)
        assert report.ergas == 0.0
        assert report.msam == pytest.approx(0.0, abs=1e-7)

        ref = random_cube(8, 8, 4, seed=401)
        test = random_cube(8, 8, 4, seed=402)
        rep = compute_report(ref, test)
        for b in range(4):
            assert abs(rep.per_band_psnr[b] - psnr_oracle(ref.band(b), test.band(b))) <= 1e-12
            assert abs(rep.per_band_ssim[b] - ssim_oracle(ref.band(b), test.band(b))) <= 1e-12
        assert abs(rep.ergas - ergas_oracle(ref, test)) <= 1e-12
        assert abs(rep.msam - msam_oracle(ref, test)) <= 1e-12

        scales = np.random.default_rng(11).choice([0.5, 1.0, 2.0, 4.0], size=64)
        scaled = fold_casorati(unfold_casorati(test) * scales[:, None], 8, 8)
        assert compute_report(ref, scaled).msam == compute_report(ref, test).msam
