"""Periodic first-order difference operators on coefficient slices.

A coefficient matrix is (M*N, R): each column is one spatial slice,
vectorized column-major (pixel (i, j) at row j*M + i).  Reshaping it to
(N, M, R) is therefore a view indexed [j, i, r], with no copy; every
operator here works on that view.  The forward differences wrap
circularly, so both operators diagonalize under the 2-D DFT, and the
penalized least-squares system for the coefficient update is solved per
slice with one real FFT pair.

Directions: "horizontal" differences along j (width), "vertical" along i
(height).  The periodic wrap is coded in two places, both tested against
dense matrices: diff_columns writes next-minus-current for a range of
whole columns of the plane into a caller's buffer, for the solve's pass
over column tiles (the vertical wrap stays inside each column, and the
horizontal difference reads one column past the range), and
_add_diff_adjoint accumulates the adjoint into the U right-hand side.
apply_diff is diff_columns over every column, into a fresh array; it is
the difference of the solver's dense reference kernels.
build_transfer_functions returns the DFT eigenvalues of the second
difference as a read-only (M, N) array.  solve_u_system builds its
right-hand side with slice arithmetic and runs its transforms into buffers
the caller may allocate once.
"""

from __future__ import annotations

import numpy as np

HORIZONTAL = "horizontal"
VERTICAL = "vertical"

# Axis of the (N, M, R) grid view that each direction differences along.
_AXIS = {HORIZONTAL: 0, VERTICAL: 1}


def _axis(direction: str) -> int:
    if direction not in _AXIS:
        raise ValueError(f"direction must be '{HORIZONTAL}' or '{VERTICAL}'")
    return _AXIS[direction]


def _grid(mat: np.ndarray, height: int, width: int) -> np.ndarray:
    """View an (M*N, R) matrix as an (N, M, R) grid indexed [j, i, r]."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != height * width:
        raise ValueError(
            f"expected a 2-D matrix with {height * width} rows (plane dims), got shape {mat.shape}"
        )
    return mat.reshape(width, height, mat.shape[1])


def apply_diff(mat: np.ndarray, height: int, width: int, direction: str) -> np.ndarray:
    """Circular forward difference of each slice: diff_columns over all N columns."""
    _axis(direction)
    grid = np.ascontiguousarray(_grid(mat, height, width))
    return diff_columns(grid, 0, width, direction, np.empty_like(grid)).reshape(height * width, -1)


def diff_columns(
    grid: np.ndarray, start: int, stop: int, direction: str, out: np.ndarray
) -> np.ndarray:
    """Circular forward difference of columns start <= j < stop of an (N, M, R) grid view.

    grid and out are C-ordered; out holds at least stop - start columns.
    Writes the differences into out[: stop - start] and returns that part.
    The horizontal difference also reads column stop, or column 0 when
    stop = N, where it wraps; the vertical one wraps each column's last
    row to its first.  Over all N columns this is apply_diff.
    """
    width, height, r = grid.shape
    cols = grid[start:stop]
    d = out[: stop - start]
    if _axis(direction) == 1:
        # Consecutive rows of the (M*N, R) layout, then the last row of each
        # column wraps to that column's first.
        flat = cols.reshape(-1, r)
        np.subtract(flat[1:], flat[:-1], out=d.reshape(-1, r)[:-1])
        np.subtract(cols[:, 0], cols[:, height - 1], out=d[:, -1])
    else:
        inner = min(stop, width - 1) - start
        np.subtract(grid[start + 1 : start + 1 + inner], cols[:inner], out=d[:inner])
        if stop == width:
            np.subtract(grid[0], grid[width - 1], out=d[-1])
    return d


def _add_diff_adjoint(w: np.ndarray, axis: int, out: np.ndarray) -> None:
    """out += D^T w on C-ordered (N, M, R) grids: w shifted one step along axis, minus w."""
    if axis == 0:
        out[1:] += w[:-1]
        out[0] += w[-1]
    else:
        # As in diff_columns, shift along contiguous (M*N, R) rows (strided
        # views run buffered), then redo each column's first row.
        r = out.shape[2]
        col0 = out[:, 0].copy()
        out.reshape(-1, r)[1:] += w.reshape(-1, r)[:-1]
        np.add(col0, w[:, -1], out=out[:, 0])
    out -= w


def build_transfer_functions(height: int, width: int) -> np.ndarray:
    """DFT diagonalization of D_1^T D_1 + D_2^T D_2 on an M x N grid.

    Returns the (M, N) real non-negative transfer function of the circular
    second-difference operator, 4 sin^2(pi p/M) + 4 sin^2(pi q/N) at
    frequency (p, q), in closed form; it is zero at the zero frequency,
    since differences annihilate constants.  solve_u_system uses its
    transpose, sliced to the half spectrum that rfft2 returns over the
    (N, M) axes of the grid view.  The array is read-only and shareable;
    precompute it once per plane size and reuse it across iterations and
    slices.
    """
    if height < 2 or width < 2:
        raise ValueError(f"plane dims must be >= 2, got {height}x{width}")
    lap_v = 4.0 * np.sin(np.pi * np.arange(height) / height) ** 2
    lap_h = 4.0 * np.sin(np.pi * np.arange(width) / width) ** 2
    tf = lap_v[:, None] + lap_h[None, :]
    tf.flags.writeable = False
    return tf


def solve_u_system(
    rhs_data: np.ndarray,
    g1: np.ndarray,
    g2: np.ndarray,
    gam1: np.ndarray,
    gam2: np.ndarray,
    mu: float,
    tf: np.ndarray,
    out: np.ndarray | None = None,
    hat: np.ndarray | None = None,
) -> np.ndarray:
    """Solve (mu*I + mu*sum_i D_i^T D_i)(U) = rhs_data + sum_i D_i^T(mu*G_i - Gam_i).

    rhs_data is the data-fit right-hand side assembled by the caller, and
    tf is build_transfer_functions(M, N).  The right-hand side is formed in
    space, then each slice is divided in the 2-D DFT basis by the strictly
    positive diagonal mu * (1 + tf), so the solve is exact and total for
    mu > 0.  The operator and the data
    are real, so one real FFT pair over the half spectrum suffices.
    D_1 is the horizontal difference, D_2 the vertical.

    out and hat are buffers that a caller solving many times allocates
    once, and each one not given is allocated here.  out is a C-ordered
    (M*N, R) float64 array that receives U and is returned; it may be
    rhs_data itself, which is then overwritten.  hat is a C-ordered
    (N, M//2 + 1, R) complex128 array for the half spectrum.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    m, n = tf.shape
    data = _grid(rhs_data, m, n)
    r = data.shape[2]
    if out is None:
        out = np.empty((m * n, r))
    if hat is None:
        hat = np.empty((n, m // 2 + 1, r), dtype=np.complex128)
    if not (out.flags.c_contiguous and hat.flags.c_contiguous):
        raise ValueError("out and hat must be C-ordered")
    rhs = out.reshape(n, m, r)
    if out is not rhs_data:
        np.copyto(rhs, data)
    # mu*G_i - Gam_i is formed in hat's memory, which holds at least
    # M*N*R floats and is not read until the forward transform.
    w = hat.reshape(-1).view(np.float64)[: m * n * r].reshape(n, m, r)
    for g, gam, direction in ((g1, gam1, HORIZONTAL), (g2, gam2, VERTICAL)):
        np.multiply(_grid(g, m, n), mu, out=w)
        w -= _grid(gam, m, n)
        _add_diff_adjoint(w, _axis(direction), rhs)
    np.fft.rfft2(rhs, axes=(0, 1), out=hat)
    # The diagonal is real: scale the real and imaginary parts of each
    # coefficient, as float64 pairs, by its reciprocal.
    spectrum = hat.view(np.float64)
    spectrum *= (1.0 / (mu * (1.0 + tf.T[:, : m // 2 + 1])))[:, :, None]
    # irfft2(..., out=) does not leave its result in out on numpy 2.4, so
    # the inverse runs one axis at a time.
    np.fft.ifft(hat, axis=0, out=hat)
    np.fft.irfft(hat, n=m, axis=1, out=rhs)
    return out
