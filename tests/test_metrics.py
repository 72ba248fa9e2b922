import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from conftest import random_cube
from rctv.cube import HsiCube, fold_casorati, unfold_casorati
from rctv.metrics import (
    MetricsReport,
    _tap_matrix,
    compute_report,
    effective_ssim_window,
    encode_float,
    gaussian_window,
    mpsnr,
    per_band_ssim,
)
from rctv.noisesim import add_gaussian


def single_band(band):
    """An (M, N) plane as an M x N x 1 cube."""
    return HsiCube.from_array(np.asarray(band, dtype=float)[:, :, None])


# ---- independent brute-force re-implementations (loops, no vectorization)


def psnr_oracle(ref, test):
    total = 0.0
    m, n = ref.shape
    for i in range(m):
        for j in range(n):
            d = ref[i, j] - test[i, j]
            total += d * d
    mse = total / (m * n)
    return math.inf if mse == 0 else 10.0 * math.log10(1.0 / mse)


def ssim_oracle(ref, test):
    m, n = ref.shape
    win = effective_ssim_window(m, n)
    taps = gaussian_window(win, 1.5)
    c1 = 0.01**2
    c2 = 0.03**2
    values = []
    for i0 in range(m - win + 1):
        for j0 in range(n - win + 1):
            mx = my = xx = yy = xy = 0.0
            for a in range(win):
                for b in range(win):
                    w = taps[a] * taps[b]
                    xv = ref[i0 + a, j0 + b]
                    yv = test[i0 + a, j0 + b]
                    mx += w * xv
                    my += w * yv
                    xx += w * xv * xv
                    yy += w * yv * yv
                    xy += w * xv * yv
            vx = xx - mx * mx
            vy = yy - my * my
            cov = xy - mx * my
            values.append(
                ((2 * mx * my + c1) * (2 * cov + c2))
                / ((mx * mx + my * my + c1) * (vx + vy + c2))
            )
    return float(np.mean(values))


def ergas_oracle(ref_cube, test_cube):
    total = 0.0
    count = 0
    for b in range(ref_cube.bands):
        x = ref_cube.band(b)
        y = test_cube.band(b)
        mean = x.mean()
        if mean == 0.0:
            continue
        rmse_sq = ((x - y) ** 2).mean()
        total += rmse_sq / (mean * mean)
        count += 1
    return 100.0 * math.sqrt(total / count)


def msam_oracle(ref_cube, test_cube):
    x = unfold_casorati(ref_cube)
    y = unfold_casorati(test_cube)
    angles = []
    for p in range(x.shape[0]):
        nx = math.sqrt(float(x[p] @ x[p]))
        ny = math.sqrt(float(y[p] @ y[p]))
        if nx == 0.0 or ny == 0.0:
            continue
        cos = min(1.0, max(-1.0, float(x[p] @ y[p]) / (nx * ny)))
        angles.append(math.acos(cos))
    return float(np.mean(angles))


class TestPsnr:
    def test_identity_inf(self, rng):
        cube = single_band(rng.random((6, 6)))
        assert compute_report(cube, cube).per_band_psnr == [math.inf]

    def test_closed_form(self):
        ref = single_band(np.zeros((10, 10)))
        test = single_band(np.full((10, 10), 0.1))  # MSE = 0.01
        assert mpsnr(ref, test) == pytest.approx(20.0)

    def test_matches_oracle(self, rng):
        ref = rng.random((8, 8))
        test = rng.random((8, 8))
        (got,) = compute_report(single_band(ref), single_band(test)).per_band_psnr
        assert abs(got - psnr_oracle(ref, test)) <= 1e-12

    def test_mpsnr_is_band_mean(self, rng):
        ref = random_cube(8, 8, 4, seed=1)
        test = random_cube(8, 8, 4, seed=2)
        bands = compute_report(ref, test).per_band_psnr
        assert mpsnr(ref, test) == pytest.approx(np.mean(bands), abs=1e-14)

    def test_dims_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            mpsnr(single_band(np.zeros((3, 3))), single_band(np.zeros((3, 4))))


class TestSsim:
    def test_identity_one(self, rng):
        cube = single_band(rng.random((16, 16)))
        assert per_band_ssim(cube, cube) == [pytest.approx(1.0, abs=1e-12)]

    def test_constant_zero_low_similarity(self, rng):
        # High-variance checkerboard-ish reference against flat zero.
        ref = (np.indices((20, 20)).sum(axis=0) % 2).astype(float)
        (val,) = per_band_ssim(single_band(ref), single_band(np.zeros((20, 20))))
        assert 0.0 < val < 0.2

    def test_symmetry(self, rng):
        a = single_band(rng.random((14, 14)))
        b = single_band(rng.random((14, 14)))
        assert abs(per_band_ssim(a, b)[0] - per_band_ssim(b, a)[0]) <= 1e-12

    def test_matches_oracle_small_band(self, rng):
        # 8x8 bands use the shrunk 7-tap window.
        a = rng.random((8, 8))
        b = rng.random((8, 8))
        assert effective_ssim_window(8, 8) == 7
        (got,) = per_band_ssim(single_band(a), single_band(b))
        assert abs(got - ssim_oracle(a, b)) <= 1e-12

    def test_matches_oracle_default_window(self, rng):
        a = rng.random((13, 12))
        b = rng.random((13, 12))
        assert effective_ssim_window(13, 12) == 11
        (got,) = per_band_ssim(single_band(a), single_band(b))
        assert abs(got - ssim_oracle(a, b)) <= 1e-12

    @pytest.mark.parametrize("shape", [(128, 96), (13, 12), (8, 8), (4, 7), (3, 3)])
    def test_tap_matrix_correlation_matches_sliding_windows(self, rng, shape):
        img = rng.standard_normal(shape)
        win = effective_ssim_window(*shape)
        taps = gaussian_window(win, 1.5)
        windows = sliding_window_view(img, (win, win))
        expected = np.einsum("ijab,a,b->ij", windows, taps, taps)
        got = _tap_matrix(shape[0], taps) @ img @ _tap_matrix(shape[1], taps).T
        assert got.shape == (shape[0] - win + 1, shape[1] - win + 1)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_too_small_band_rejected(self):
        cube = single_band(np.zeros((2, 8)))
        with pytest.raises(ValueError, match="small"):
            per_band_ssim(cube, cube)

    def test_mssim_is_band_mean(self):
        ref = random_cube(9, 9, 3, seed=3)
        test = random_cube(9, 9, 3, seed=4)
        per_band = per_band_ssim(ref, test)
        assert compute_report(ref, test).mssim == pytest.approx(np.mean(per_band), abs=1e-14)


class TestErgas:
    def test_identity_zero(self):
        cube = random_cube(6, 6, 3, seed=5)
        assert compute_report(cube, cube).ergas == 0.0

    def test_closed_form_single_band(self):
        # mean 0.5, RMSE 0.05 -> 100 * 0.05/0.5 = 10.
        ref = fold_casorati(np.full((16, 1), 0.5), 4, 4)
        test = fold_casorati(np.full((16, 1), 0.55), 4, 4)
        assert compute_report(ref, test).ergas == pytest.approx(10.0, abs=1e-12)

    def test_matches_oracle(self):
        ref = random_cube(8, 8, 4, seed=6)
        test = random_cube(8, 8, 4, seed=7)
        assert abs(compute_report(ref, test).ergas - ergas_oracle(ref, test)) <= 1e-12

    def test_zero_mean_band_excluded(self, rng):
        x = rng.random((16, 2))
        x[:, 1] = 0.0
        ref = fold_casorati(x, 4, 4)
        test = random_cube(4, 4, 2, seed=8)
        report = compute_report(ref, test)
        assert report.ergas_excluded_bands == [1]
        assert math.isfinite(report.ergas)

    def test_all_zero_mean_rejected(self):
        ref = fold_casorati(np.zeros((16, 2)), 4, 4)
        test = random_cube(4, 4, 2, seed=9)
        with pytest.raises(ValueError, match="zero mean"):
            compute_report(ref, test)


class TestMsam:
    def test_identity_zero(self):
        cube = random_cube(5, 5, 4, seed=10)
        assert compute_report(cube, cube).msam == pytest.approx(0.0, abs=1e-7)

    def test_scale_invariance_exact(self):
        ref = random_cube(6, 6, 4, seed=11)
        # Power-of-two per-pixel scaling is exact in binary floating point.
        scales = np.random.default_rng(3).choice([0.5, 1.0, 2.0, 4.0], size=36)
        test = fold_casorati(unfold_casorati(ref) * scales[:, None], 6, 6)
        assert compute_report(ref, test).msam == compute_report(ref, ref).msam

    def test_uniform_doubling_gives_zero(self):
        ref = random_cube(6, 6, 4, seed=12)
        test = fold_casorati(2.0 * unfold_casorati(ref), 6, 6)
        assert compute_report(ref, test).msam == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_spectra(self):
        ref = fold_casorati(np.tile([1.0, 0.0], (9, 1)), 3, 3)
        test = fold_casorati(np.tile([0.0, 1.0], (9, 1)), 3, 3)
        assert compute_report(ref, test).msam == pytest.approx(math.pi / 2)

    def test_matches_oracle(self):
        ref = random_cube(8, 8, 4, seed=13)
        test = random_cube(8, 8, 4, seed=14)
        assert abs(compute_report(ref, test).msam - msam_oracle(ref, test)) <= 1e-12

    def test_zero_norm_pixels_excluded(self):
        x = np.ones((16, 2))
        x[3] = 0.0
        ref = fold_casorati(x, 4, 4)
        test = random_cube(4, 4, 2, seed=15)
        assert compute_report(ref, test).msam_excluded_pixels == 1

    def test_all_zero_rejected(self):
        ref = random_cube(4, 4, 2, seed=16)
        test = fold_casorati(np.zeros((16, 2)), 4, 4)
        with pytest.raises(ValueError, match="zero norm"):
            compute_report(ref, test)


class TestCrossMetricProperties:
    def test_mpsnr_monotone_in_sigma(self):
        clean = random_cube(24, 24, 3, seed=17)
        values = []
        for sigma in (0.05, 0.1, 0.2):
            noisy, _ = add_gaussian(clean, sigma, np.random.default_rng(1))
            values.append(mpsnr(clean, noisy))
        assert values[0] > values[1] > values[2]

    def test_ergas_ranks_like_mpsnr(self):
        clean = random_cube(24, 24, 3, seed=18)
        psnrs, ergases = [], []
        for sigma in (0.05, 0.1, 0.2):
            noisy, _ = add_gaussian(clean, sigma, np.random.default_rng(2))
            psnrs.append(mpsnr(clean, noisy))
            ergases.append(compute_report(clean, noisy).ergas)
        assert np.argsort(psnrs).tolist() == np.argsort(ergases)[::-1].tolist()

    def test_report_consistency(self):
        ref = random_cube(12, 12, 4, seed=19)
        test = random_cube(12, 12, 4, seed=20)
        report = compute_report(ref, test)
        assert report.mpsnr == pytest.approx(np.mean(report.per_band_psnr))
        assert report.mssim == pytest.approx(np.mean(report.per_band_ssim))
        assert report.wall_ms >= 0

    def test_json_keys_are_the_fields_in_order(self):
        cube = random_cube(12, 12, 4, seed=21)
        noisy, _ = add_gaussian(cube, 0.1, np.random.default_rng(22))
        report = compute_report(cube, noisy)
        obj = report.to_json_obj()
        assert list(obj) == [
            "mpsnr", "mssim", "ergas", "msam", "per_band_psnr", "per_band_ssim",
            "wall_ms", "ergas_excluded_bands", "msam_excluded_pixels",
        ]
        # Every value is finite, so each field is written as it is.
        assert obj == vars(report)

    def test_report_identity_sentinels(self):
        cube = random_cube(12, 12, 4, seed=21)
        report = compute_report(cube, cube)
        assert report.mpsnr == math.inf
        assert report.mssim == pytest.approx(1.0, abs=1e-12)
        assert report.ergas == 0.0
        assert report.msam == pytest.approx(0.0, abs=1e-7)
        obj = report.to_json_obj()
        assert obj["mpsnr"] == "inf"
        row = report.to_csv_row()
        assert row.startswith("inf,")


class TestOneScoringPath:
    def test_non_square_cube_with_exclusions_matches_oracles(self, rng):
        m, n, b = 9, 13, 5
        x = rng.random((m * n, b))
        x[:, 2] = 0.0  # zero-mean band
        x[7] = 0.0  # zero-norm pixel spectrum
        ref = fold_casorati(x, m, n)
        test = random_cube(m, n, b, seed=22)
        report = compute_report(ref, test)
        for k in range(b):
            want_psnr = psnr_oracle(ref.band(k), test.band(k))
            assert abs(report.per_band_psnr[k] - want_psnr) <= 1e-12
            want_ssim = ssim_oracle(ref.band(k), test.band(k))
            assert abs(report.per_band_ssim[k] - want_ssim) <= 1e-12
        assert abs(report.ergas - ergas_oracle(ref, test)) <= 1e-12
        assert abs(report.msam - msam_oracle(ref, test)) <= 1e-12
        assert report.ergas_excluded_bands == [2]
        assert report.msam_excluded_pixels == 1
        assert mpsnr(ref, test) == report.mpsnr

    @pytest.mark.parametrize("score", [compute_report, mpsnr])
    def test_shape_mismatch_raises(self, score):
        with pytest.raises(ValueError, match="mismatch"):
            score(random_cube(6, 6, 3, seed=23), random_cube(6, 6, 4, seed=24))


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestScoringMemory:
    """Scoring takes no cube-sized temporary, and gives the dense formulas' values."""

    m, n, b = 48, 48, 96

    def cubes(self):
        return random_cube(self.m, self.n, self.b, seed=25), random_cube(self.m, self.n, self.b, seed=26)

    def test_compute_report(self):
        ref, test = self.cubes()
        report, peak = traced_peak(compute_report, ref, test)
        assert peak <= 0.1 * self.m * self.n * self.b * 8
        x, y = unfold_casorati(ref), unfold_casorati(test)
        mse = np.mean((x - y) ** 2, axis=0)
        psnr = 10.0 * np.log10(1.0 / mse)
        np.testing.assert_allclose(report.per_band_psnr, psnr, rtol=1e-12, atol=0)
        ergas = 100.0 * math.sqrt(float(np.mean(mse / x.mean(axis=0) ** 2)))
        assert report.ergas == pytest.approx(ergas, rel=1e-12, abs=0)
        cos = np.einsum("ij,ij->i", x, y) / (
            np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1)
        )
        msam = float(np.mean(np.arccos(np.clip(cos, -1.0, 1.0))))
        assert report.msam == pytest.approx(msam, rel=1e-12, abs=0)

    def test_mpsnr(self):
        ref, test = self.cubes()
        value, peak = traced_peak(mpsnr, ref, test)
        assert peak <= 0.1 * self.m * self.n * self.b * 8
        mse = np.mean((unfold_casorati(ref) - unfold_casorati(test)) ** 2, axis=0)
        assert value == pytest.approx(float(np.mean(10.0 * np.log10(1.0 / mse))), rel=1e-12, abs=0)


class TestNonFiniteEncoding:
    def report(self):
        return MetricsReport(
            mpsnr=math.nan, mssim=math.inf, ergas=-math.inf, msam=0.25,
            per_band_psnr=[math.nan, math.inf, -math.inf, 30.0],
            per_band_ssim=[0.5, math.nan],
            wall_ms=1.5, ergas_excluded_bands=[], msam_excluded_pixels=0,
        )

    def test_json_obj(self):
        obj = self.report().to_json_obj()
        assert (obj["mpsnr"], obj["mssim"], obj["ergas"], obj["msam"]) == (
            "nan", "inf", "-inf", 0.25,
        )
        assert obj["per_band_psnr"] == ["nan", "inf", "-inf", 30.0]
        assert obj["per_band_ssim"] == [0.5, "nan"]
        json.dumps(obj, allow_nan=False)

    def test_csv_row(self):
        assert self.report().to_csv_row() == "nan,inf,-inf,0.25,1.5"


@given(x=st.floats(allow_nan=True, allow_infinity=True)
       | st.sampled_from([math.nan, math.inf, -math.inf]))
def test_encode_float_round_trips(x):
    encoded = encode_float(x)
    back = float(encoded)
    if math.isnan(x):
        assert encoded == "nan" and math.isnan(back)
    elif math.isinf(x):
        assert encoded == ("inf" if x > 0 else "-inf") and back == x
    else:
        assert encoded is x
    json.dumps(encoded, allow_nan=False)
