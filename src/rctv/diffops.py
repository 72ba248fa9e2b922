"""Periodic first-order difference operators on coefficient slices.

A coefficient matrix is (M*N, R): each column is one spatial slice,
vectorized column-major (pixel (i, j) at row j*M + i).  Reshaping it to
(N, M, R) is therefore a view indexed [j, i, r], with no copy; every
operator here works on that view.  The forward differences wrap
circularly, so both operators diagonalize under the 2-D DFT, and the
penalized least-squares system for the coefficient update is solved per
slice with one real FFT pair.

Directions: "horizontal" differences along j (width), "vertical" along i
(height).  apply_diff computes next-minus-current with periodic wrap.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    if mat.ndim == 1:
        mat = mat[:, None]
    if mat.shape[0] != height * width:
        raise ValueError(
            f"matrix has {mat.shape[0]} rows, plane dims give {height * width}"
        )
    return mat.reshape(width, height, mat.shape[1])


def apply_diff(mat: np.ndarray, height: int, width: int, direction: str) -> np.ndarray:
    """Circular forward difference of each slice along the given direction."""
    axis = _axis(direction)
    grid = _grid(mat, height, width)
    return (np.roll(grid, -1, axis=axis) - grid).reshape(height * width, -1)


def apply_diff_adjoint(
    mat: np.ndarray, height: int, width: int, direction: str
) -> np.ndarray:
    """Adjoint of apply_diff under the Euclidean inner product."""
    axis = _axis(direction)
    grid = _grid(mat, height, width)
    return (np.roll(grid, 1, axis=axis) - grid).reshape(height * width, -1)


@dataclass(frozen=True)
class TransferFunctions:
    """DFT diagonalization of D_1^T D_1 + D_2^T D_2 on an M x N grid.

    otf_laplacian is the (M, N) real non-negative transfer function of the
    circular second-difference operator, 4 sin^2(pi p/M) + 4 sin^2(pi q/N)
    at frequency (p, q); it is zero at the zero frequency, since
    differences annihilate constants.  solve_u_system uses its transpose,
    sliced to the half spectrum that rfft2 returns over the (N, M) axes of
    the grid view.  Instances are immutable and shareable; precompute once
    per plane size and reuse across iterations and slices.
    """

    height: int
    width: int
    otf_laplacian: np.ndarray


def build_transfer_functions(height: int, width: int) -> TransferFunctions:
    """Closed-form DFT eigenvalues of the periodic second difference."""
    if height < 2 or width < 2:
        raise ValueError(f"plane dims must be >= 2, got {height}x{width}")
    lap_v = 4.0 * np.sin(np.pi * np.arange(height) / height) ** 2
    lap_h = 4.0 * np.sin(np.pi * np.arange(width) / width) ** 2
    return TransferFunctions(
        height=height, width=width, otf_laplacian=lap_v[:, None] + lap_h[None, :]
    )


def solve_u_system(
    rhs_data: np.ndarray,
    g1: np.ndarray,
    g2: np.ndarray,
    gam1: np.ndarray,
    gam2: np.ndarray,
    mu: float,
    tf: TransferFunctions,
) -> np.ndarray:
    """Solve (mu*I + mu*sum_i D_i^T D_i)(U) = rhs_data + sum_i D_i^T(mu*G_i - Gam_i).

    rhs_data is the data-fit right-hand side assembled by the caller.  The
    right-hand side is formed in space, then each slice is divided in the
    2-D DFT basis by the strictly positive diagonal mu * (1 + otf_laplacian),
    so the solve is exact and total for mu > 0.  The operator and the data
    are real, so one rfft2/irfft2 pair over the half spectrum suffices.
    D_1 is the horizontal difference, D_2 the vertical.
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    m, n = tf.height, tf.width
    rhs = apply_diff_adjoint(mu * g1 - gam1, m, n, HORIZONTAL)
    rhs += apply_diff_adjoint(mu * g2 - gam2, m, n, VERTICAL)
    rhs += _grid(rhs_data, m, n).reshape(rhs.shape)
    rhs_hat = np.fft.rfft2(_grid(rhs, m, n), axes=(0, 1))
    rhs_hat /= mu * (1.0 + tf.otf_laplacian.T[:, : m // 2 + 1, None])
    return np.fft.irfft2(rhs_hat, s=(n, m), axes=(0, 1)).reshape(m * n, -1)
