"""Quality indices for denoising runs: MPSNR, MSSIM, ERGAS, MSAM.

PSNR/SSIM are band-wise spatial metrics averaged over bands; ERGAS and
MSAM compare spectra.  All of them assume band-normalized data, so the
PSNR/SSIM peak is 1.  SSIM uses the single-scale Gaussian-window
form (11x11, sigma 1.5, K1=0.01, K2=0.03) with valid-region averaging; on
bands too small for the 11-pixel window the window shrinks to the largest
odd size that fits, and a band under 3x3 is refused with a ValueError
(rctv metrics exits 2), as no 3-pixel window fits it.  ERGAS is
100 * sqrt(mean_b(MSE_b / mean_b^2)) over bands with nonzero reference
mean.  MSAM is reported in radians.

compute_report scores all four from one pair of Casorati views and one
per-band mean squared error MSE_b, which gives both the band PSNRs and
ERGAS; mpsnr and per_band_ssim score one index each, and MSAM is read
from the report.  Each public entry point checks on entry that the two
cubes have the same shape.  None of them allocates an array the size of
the cube: MSE_b is taken one band at a time, and the other reductions
are row sums over the Casorati views.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from rctv.cube import HsiCube, unfold_casorati

SSIM_WIN_SIZE = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03

CSV_COLUMNS = ("mpsnr", "mssim", "ergas", "msam", "wall_ms")


@dataclass
class MetricsReport:
    """All four indices plus per-band breakdowns and timing.

    mpsnr/mssim are exactly the means of the per-band arrays.  Bands whose
    reference mean is zero are excluded from ERGAS; spectra with zero norm
    are excluded from MSAM; both exclusions are reported.
    """

    mpsnr: float
    mssim: float
    ergas: float
    msam: float
    per_band_psnr: list[float]
    per_band_ssim: list[float]
    wall_ms: float
    ergas_excluded_bands: list[int]
    msam_excluded_pixels: int

    def to_json_obj(self) -> dict:
        # Every field, in order; ints pass through encode_float unchanged.
        return {
            k: [encode_float(x) for x in v] if isinstance(v, list) else encode_float(v)
            for k, v in vars(self).items()
        }

    def to_csv_row(self) -> str:
        return ",".join(str(encode_float(getattr(self, k))) for k in CSV_COLUMNS)


def encode_float(x: float):
    """x itself when finite, else the string "nan", "inf" or "-inf".

    Shared by the JSON and CSV writers: JSON has no literal for non-finite
    numbers, and the strings round-trip through float().
    """
    if math.isfinite(x):
        return x
    if math.isnan(x):
        return "nan"
    return "inf" if x > 0 else "-inf"


def _check_same_dims(ref, test):
    if ref.shape != test.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {test.shape}")


def _psnr(mse: np.ndarray) -> list[float]:
    """10*log10(1 / MSE) of each band; identical bands give math.inf."""
    return [math.inf if e == 0.0 else 10.0 * math.log10(1.0 / e) for e in mse.tolist()]


def _band_mse(ref: HsiCube, test: HsiCube) -> np.ndarray:
    """Mean squared error of each band, taken one contiguous band at a time.

    The band-sequential storage makes each band one contiguous run, so the
    only temporary is one band's difference, not a cube-sized one.
    """
    x = ref.data.reshape(ref.bands, -1)
    y = test.data.reshape(test.bands, -1)
    d = np.empty(x.shape[1])
    mse = np.empty(ref.bands)
    for b in range(ref.bands):
        np.subtract(x[b], y[b], out=d)
        mse[b] = np.square(d, out=d).mean()
    return mse


def mpsnr(ref: HsiCube, test: HsiCube) -> float:
    """Mean over bands of the per-band PSNR."""
    _check_same_dims(ref, test)
    return float(np.mean(_psnr(_band_mse(ref, test))))


def gaussian_window(win_size: int, sigma: float) -> np.ndarray:
    """1-D Gaussian taps; the separable 2-D window has unit total weight."""
    half = (win_size - 1) / 2.0
    x = np.arange(win_size) - half
    g = np.exp(-(x**2) / (2.0 * sigma * sigma))
    return g / g.sum()


def _tap_matrix(length: int, taps: np.ndarray) -> np.ndarray:
    """Banded (length - w + 1, length) matrix whose row k holds the w taps
    in columns k .. k + w - 1, so A @ x correlates x's columns with the
    taps in valid mode."""
    w = taps.size
    a = np.zeros((length - w + 1, length))
    rows = np.arange(length - w + 1)[:, None]
    a[rows, rows + np.arange(w)] = taps
    return a


def effective_ssim_window(height: int, width: int) -> int:
    """The 11-pixel default, shrunk to the largest odd size that fits; under 3x3 raises."""
    smallest = min(height, width)
    if smallest < 3:
        raise ValueError(f"band {height}x{width} too small for SSIM")
    win = min(SSIM_WIN_SIZE, smallest)
    if win % 2 == 0:
        win -= 1
    return win


def per_band_ssim(ref: HsiCube, test: HsiCube) -> list[float]:
    """Mean local SSIM of each band over its valid window positions."""
    _check_same_dims(ref, test)
    # Every band has the same shape, so the tap matrices are built once.
    taps = gaussian_window(effective_ssim_window(ref.height, ref.width), SSIM_SIGMA)
    rows, cols = _tap_matrix(ref.height, taps), _tap_matrix(ref.width, taps)
    c1 = SSIM_K1**2
    c2 = SSIM_K2**2
    values = []
    for b in range(ref.bands):
        x, y = ref.band(b), test.band(b)
        mu_x = rows @ x @ cols.T
        mu_y = rows @ y @ cols.T
        var_x = rows @ (x * x) @ cols.T - mu_x * mu_x
        var_y = rows @ (y * y) @ cols.T - mu_y * mu_y
        cov = rows @ (x * y) @ cols.T - mu_x * mu_y
        ssim_map = ((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)) / (
            (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
        )
        values.append(float(ssim_map.mean()))
    return values


def _msam(x: np.ndarray, y: np.ndarray) -> tuple[float, int]:
    """Mean spectral angle (radians) between the rows of two Casorati views,
    over the rows where both spectra have nonzero norm, and the count of
    rows left out."""
    # einsum sums the products row by row; np.linalg.norm would allocate
    # cube-sized temporaries for x*x.
    dots = np.einsum("ij,ij->i", x, y)
    nx = np.sqrt(np.einsum("ij,ij->i", x, x))
    ny = np.sqrt(np.einsum("ij,ij->i", y, y))
    included = (nx > 0) & (ny > 0)
    if not included.any():
        raise ValueError("all pixel spectra have zero norm")
    cos = np.clip(dots[included] / (nx[included] * ny[included]), -1.0, 1.0)
    return float(np.mean(np.arccos(cos))), int((~included).sum())


def compute_report(ref: HsiCube, test: HsiCube) -> MetricsReport:
    """All four indices plus per-band breakdowns, with wall-clock timing."""
    _check_same_dims(ref, test)
    t0 = time.perf_counter()
    x, y = unfold_casorati(ref), unfold_casorati(test)
    mse = _band_mse(ref, test)
    band_psnr = _psnr(mse)
    band_ssim = per_band_ssim(ref, test)
    means = x.mean(axis=0)
    included = means != 0.0
    if not included.any():
        raise ValueError("all reference bands have zero mean")
    ergas = 100.0 * math.sqrt(float(np.mean(mse[included] / means[included] ** 2)))
    msam_val, msam_excl = _msam(x, y)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return MetricsReport(
        mpsnr=float(np.mean(band_psnr)),
        mssim=float(np.mean(band_ssim)),
        ergas=ergas,
        msam=msam_val,
        per_band_psnr=band_psnr,
        per_band_ssim=band_ssim,
        wall_ms=wall_ms,
        ergas_excluded_bands=[int(b) for b in np.flatnonzero(~included)],
        msam_excluded_pixels=msam_excl,
    )
