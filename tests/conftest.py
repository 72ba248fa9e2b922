"""Shared helpers: synthetic cubes and dense operator oracles."""

import numpy as np
import pytest

from rctv.cube import HsiCube, fold_casorati
from rctv.diffops import solve_u_system


def smooth_rank_cube(
    m: int,
    n: int,
    b: int,
    rank: int,
    seed: int = 0,
    base: float = 3.0,
    amp: float = 0.5,
    wfloor: float = 0.6,
) -> HsiCube:
    """Exact rank-R cube in [0, 1] with smooth nonnegative slices.

    Slices are low-frequency sinusoid mixtures, spectra are nonnegative
    random signatures, and the product is globally scaled (rank-preserving)
    to peak at 1.
    """
    rng = np.random.default_rng(seed)
    ii = np.arange(m)[:, None] / m
    jj = np.arange(n)[None, :] / n
    slices = []
    for _ in range(rank):
        f1, f2 = rng.integers(1, 3, size=2)
        ph1, ph2 = rng.uniform(0, 2 * np.pi, size=2)
        plane = (
            base
            + amp * np.sin(2 * np.pi * f1 * ii + ph1)
            + amp * np.cos(2 * np.pi * f2 * jj + ph2)
        )
        slices.append(plane.reshape(-1, order="F"))
    u = np.stack(slices, axis=1)
    w = rng.random((b, rank)) + wfloor
    x = u @ w.T
    x /= x.max()
    return fold_casorati(x, m, n)


def random_cube(m: int, n: int, b: int, seed: int = 0) -> HsiCube:
    rng = np.random.default_rng(seed)
    return fold_casorati(rng.random((m * n, b)), m, n)


def gapped_random_cube(
    m: int, n: int, b: int, rank: int, seed: int = 0, tail: float = 0.01
) -> HsiCube:
    """Random cube whose top-R subspace clearly dominates the tail."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m * n, rank)) @ rng.standard_normal((b, rank)).T
    x += tail * rng.standard_normal((m * n, b))
    x = x / np.abs(x).max() * 0.5 + 0.5
    return fold_casorati(x, m, n)


def dense_diff_matrix(m: int, n: int, direction: str) -> np.ndarray:
    """Explicit (M*N, M*N) circulant forward-difference matrix."""
    size = m * n
    a = np.zeros((size, size))
    for j in range(n):
        for i in range(m):
            k = j * m + i
            if direction == "vertical":
                k_next = j * m + (i + 1) % m
            else:
                k_next = ((j + 1) % n) * m + i
            a[k, k_next] += 1.0
            a[k, k] -= 1.0
    return a


def nan_u_solve(calls: list, first_nan_call: int = 3):
    """A solve_u_system that records its calls and returns NaN from the given one on.

    The fake takes positional arguments only, as solve() passes them.  From
    the given call on it returns a fresh NaN array, not the buffer the real
    solve wrote U into, so solve() must use the array returned to it.
    """

    def fake(*args):
        calls.append(args)
        u = solve_u_system(*args)
        return u if len(calls) < first_nan_call else np.full_like(u, np.nan)

    return fake


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
