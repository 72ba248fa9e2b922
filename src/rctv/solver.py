"""ADMM solver for low-rank + slice-TV mixed-noise removal.

Model: given a noisy Casorati matrix Y (M*N x B), find U (M*N x R),
orthonormal V (B x R), dense-noise E and sparse-noise S minimizing

    tau*(||D_1(U)||_1 + ||D_2(U)||_1) + beta*||E||_F^2 + lam*||S||_1
    s.t.  Y = U V^T + E + S,   V^T V = I,

where D_1 / D_2 are the periodic horizontal / vertical differences applied
per slice of U.  The splitting introduces G_i = D_i(U) and multipliers
Gam_1, Gam_2 (for the TV splits) and Gam_3 (for the data fit), giving the
augmented Lagrangian

    sum_i [ tau*||G_i||_1 + (mu/2)*||D_i(U) - G_i + Gam_i/mu||_F^2 ]
    + beta*||E||_F^2 + lam*||S||_1
    + (mu/2)*||Y - U V^T - E - S + Gam_3/mu||_F^2.

Each iteration updates G_i, V, U, E, S in that order (every block update
is an exact minimizer of the Lagrangian in its block), then performs dual
ascent on the multipliers and grows the penalty mu by rho.  Iteration
stops when the squared relative data-fit and both split residuals all drop
below epsilon, or after max_iter sweeps.  The restored cube is the folded
U V^T.

solve_casorati() runs this ADMM in scaled form (Boyd et al., "Distributed
Optimization and Statistical Learning via the Alternating Direction
Method of Multipliers", 2011, sections 3.1.1 and 3.4.1): it holds
Lam_i = Gam_i/mu in place of the multipliers.  Then G_i = shrink(D_i(U) +
Lam_i, tau/mu), mu cancels from the U normal equations, the dual step
is Lam_i += D_i(U) - G_i, and growing the penalty to mu' rescales
Lam_i by mu/mu'.  mu enters the arithmetic only through the thresholds,
c = mu/(mu + 2*beta) and that rescale.  The iterates are plain local
variables of solve_casorati(); solve() copies the cube into a Casorati
matrix and calls it.

solve_casorati() makes two passes per iteration, each over tiles of a few
hundred KiB, so that every step of a pass finds its tile in cache instead
of streaming whole arrays from memory: one over row tiles of the M*N x B
iterates, then one over column tiles of the (M*N, R) ones.  The V and U
updates read only P = Y - E - S + Lam_3: the V update is Procrustes on
P^T U and the U right-hand side is P V, formed one row tile at a time.
The row pass runs after the U update and, per tile of rows r, forms
T_r = Y_r - U_r V^T + Lam_3r in the tile buffer, then E_r = c*(T_r - S_r)
and S_r = shrink(T_r - E_r, lam/mu).  It takes the data-fit residual
fit_r = T_r - E_r - S_r - Lam_3r, writes Lam_3r = (mu/mu')*(T_r - E_r -
S_r) for the grown penalty mu' = min(rho*mu, MU_MAX), forms the next
iteration's P_r = Y_r - E_r - S_r + Lam_3r and adds P_r^T U_r for the
next V update.  It sums ||fit||^2, ||E||^2 and lam*||S||_1 for the
diagnostics and the objective.

E is never stored, and P only on the tiles where S has left zero.  S
starts as None and stays None while the S update would leave it zero:
with S = 0 it shrinks T_r - E_r = (1 - c)*T_r by lam/mu, so the pass
allocates S as zeros, and P's buffer, on the first tile where
(1 - c)*max|T_r| exceeds lam/mu.  The same test runs per tile: a tile
takes the S = 0 step until its own shrink lets an entry through, so rows
of S and P that are not needed are never written and their pages never
touched.  Every tile forms T_r once: a live tile from U_r V^T written
into P's tile, any other in the tile buffer alone, and a tile whose test
fires then writes U_r V^T into P's tile.  A live tile works in S's and
Lam_3's tiles from T_r: D_r = T_r - S_r (with ||E_r||^2 =
c^2*||D_r||^2), E_r = c*D_r, R_r = T_r - E_r and
K_r = clip(R_r, -lam/mu, lam/mu), so that the new S_r = R_r - K_r and
T_r - E_r - S_r = K_r.  Hence fit_r = K_r - Lam_3r and the new
Lam_3r = (mu/mu')*K_r, and two identities spare the passes that would
form Y_r - E_r - S_r and |S_r|.  First, P_r = U_r V^T + fit_r + Lam_3r,
as Y_r - E_r - S_r = U_r V^T + fit_r.  Second, lam*||S_r||_1 =
mu'*<S_r, Lam_3r>: the new Lam_3r is (lam/mu')*sign(S_r) wherever S_r is
nonzero, the S block's optimality condition in scaled form (Boyd et al.
2011, section 3.3).  On a tile where S is zero, E_r = c*T_r and
Lam_3r = (mu/mu')*(1 - c)*T_r, so E_r = (mu'/(2*beta))*Lam_3r.  Hence
P's rule, which solve_casorati's p_rows alone applies: P_r is stored
where S is live, else rebuilt as Y_r + (1 - mu'/(2*beta))*Lam_3r, by the
row pass in the tile buffer once T_r - E_r is spent, by the next U
right-hand side and by the debug Lagrangian.  That needs Lam_3 to carry
E, so DenoiseConfig takes only a beta > 0 with MU_MAX/(2*beta) finite.
The first P is Y, and the first V update reads V_0 in place of
Y^T U_0, which is V_0 scaled by the Gram eigenvalues: V_0 maximizes
<Y^T U_0, V> either way.  The restored V U^T is written into Lam_3's
buffer.

The column pass (_column_pass) tiles the plane by whole columns of M
pixels, so the vertical wrap stays inside a tile and the horizontal
difference reads one column past it.  Per tile it forms D_i(U) in a tile
buffer, sums the split residuals ||D_i(U) - G_i||^2, takes the TV dual
step with the rescale, Lam_i <- (mu/mu')*(Lam_i + D_i(U) - G_i), and
writes the next iteration's G_i = shrink(D_i(U) + Lam_i, tau/mu') over the
G_i it read.  mu' is known by then, so the G update leaves the top of the
loop; the first G comes from one pass on U_0 before it, with G and Lam_i
zero and a rescale of 0.  The pass also sums |D_i(U)| for the objective,
and ||U - U_prev C||^2 and U^T U for rel_change, which is computed from
the factors in O(M*N*R^2) with no copy of the previous U V^T; the Gram is
carried on as U_prev's.  The U solve runs in buffers allocated once and
writes U into one of two buffers in turn, so U_prev survives until the
pass and the loop allocates no (M*N, R) array.  In debug mode each
iteration records six Lagrangian values: a baseline at the G that the
last pass read, then one after each of the five block updates.

A non-finite residual or objective stops the solve with a ValueError
naming the iteration.  The per-block update_* functions,
update_multipliers and model_objective evaluate the same quantities
densely, one block at a time, on a SolverState with the unscaled
multipliers and E and S stored; they are the reference kernels the tiled
loop is tested against.

The initial U V^T is the rank-R truncated SVD of Y, found without an SVD
of Y: V is the top-R eigenvectors of the B x B Gram matrix Y^T Y and
U = Y V.

The loop itself is solve_casorati, which takes Y as the C-ordered
(M*N, B) matrix the row pass streams and never copies it; solve() builds
that matrix from a cube with casorati_rows.  denoise() runs the whole
restoration of a raw cube or .hsic file, the rank estimate and the band
normalization included, and the denoise command calls it.
"""

from __future__ import annotations

import json
import math
import operator
import time
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

# _TILE_BYTES, the cube module's cache-block size, is the bytes in one of
# solve_casorati()'s tile buffers: the row tile of the MN x B pass, and
# each of the two column tiles of the (MN, R) pass (whole columns of the
# plane, at least one and at most N).  A pass runs one tile through all of
# its steps while the tile of every operand is still in cache, instead of
# streaming each whole array from memory once per step.
from rctv.cube import _BLOCK_BYTES as _TILE_BYTES
from rctv.cube import HsiCube, casorati_rows, denormalize_bands, normalize_bands
from rctv.cube import read_cube, unfold_casorati
from rctv.diffops import (
    HORIZONTAL,
    VERTICAL,
    apply_diff,
    build_transfer_functions,
    diff_columns,
    solve_u_system,
)
from rctv.linalg import ORTHONORMALITY_TOL, procrustes_v, soft_threshold, truncated_svd_init
from rctv.linalg import RankEstimate, estimate_rank
from rctv.metrics import encode_float

# Penalty cap: keeps the tau/mu thresholds out of denormal range.
MU_MAX = 1e6

PRESETS = {
    # Mostly-Gaussian noise: the sparse term is effectively disabled.
    "gaussian": {"beta": 1.0, "lam": 100.0},
    # Mixed noise: sparse term active, Gaussian term stiff.
    "mixed": {"beta": 50.0, "lam": 1.0},
}


@dataclass(frozen=True)
class DenoiseConfig:
    """Solver hyperparameters.

    rank      number of coefficient slices R (must be <= B at solve time),
              or "auto", which only denoise() accepts: it sets R from the
              raw cube by estimate_rank (HySime) before the normalization
    tau       TV weight, shared by the horizontal and vertical differences
    beta      Gaussian-noise weight (quadratic penalty on E); > 0 with
              MU_MAX/(2*beta) finite, as the solve recovers E from Lam_3
    lam       sparse-noise weight (l1 penalty on S)
    mu0       initial ADMM penalty, in (0, MU_MAX]; iteration k runs at
              mu = mu0 * rho**(k - 1), and measured runs converged once
              it reached about 75-112, so the start and rho set the
              iteration count
    rho       penalty growth factor per iteration (> 1); at the default
              mu0 and rho a run converges in about 23 iterations
              (measured: 23, at mu = 74.8, on 128x128x64 mixed-noise
              inputs at tau = 0.3; 24, at mu = 112, on a 16x16x8 one at
              the default tau)
    epsilon   convergence tolerance on the squared relative residuals
    max_iter  iteration cap; hitting it is reported, not an error

    The penalty mu grows from mu0 by rho per iteration and is then held
    at the module constant MU_MAX = 1e6; at the defaults it reaches the
    cap at iteration 47.
    """

    rank: int | str
    tau: float = 0.01
    beta: float = PRESETS["mixed"]["beta"]
    lam: float = PRESETS["mixed"]["lam"]
    mu0: float = 1e-2
    rho: float = 1.5
    epsilon: float = 1e-6
    max_iter: int = 50

    def __post_init__(self):
        # A float or bool rank or max_iter would pass the range checks and
        # fail late, inside the solve; numpy integers are stored as int.
        auto = isinstance(self.rank, str) and self.rank == "auto"
        for name in ("max_iter",) if auto else ("rank", "max_iter"):
            value = getattr(self, name)
            try:
                index = None if isinstance(value, bool) else operator.index(value)
            except TypeError:
                index = None
            if index is None:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, index)
        if not auto and self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        for name in ("tau", "beta", "lam", "mu0", "rho", "epsilon"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("tau", "lam"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0 < self.mu0 <= MU_MAX:
            raise ValueError(f"mu0 must be in (0, MU_MAX = {MU_MAX:g}], got {self.mu0}")
        # Finite settings can still overflow 2*beta (the E weight's
        # denominator), MU_MAX/(2*beta) (which recovers E from Lam_3 where S
        # is zero) or tau/mu0 (the first TV threshold).
        two_beta = 2.0 * self.beta
        if not (self.beta > 0 and math.isfinite(two_beta) and math.isfinite(MU_MAX / two_beta)):
            raise ValueError(
                f"beta must be > 0 with 2*beta and MU_MAX/(2*beta) finite, got beta={self.beta}"
            )
        if not math.isfinite(self.tau / self.mu0):
            raise ValueError(
                f"tau too large: tau/mu0 overflows, got tau={self.tau}, mu0={self.mu0}"
            )
        if self.rho <= 1:
            raise ValueError(f"rho must be > 1, got {self.rho}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    @classmethod
    def preset(cls, name: str, rank: int | str, **overrides) -> "DenoiseConfig":
        """The named PRESETS entry ("gaussian" or "mixed"); overrides set any field, tau too."""
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
        params = dict(PRESETS[name])
        params.update(overrides)
        return cls(rank=rank, **params)


@dataclass
class SolverState:
    """All ADMM iterates, with the unscaled multipliers Gam_i.

    The reference kernels and augmented_lagrangian take their iterates in
    this form.  solve_casorati() keeps its own as local variables and
    builds a SolverState only in debug mode, for each of the six
    Lagrangian values it records per iteration.
    """

    u: np.ndarray
    v: np.ndarray
    e: np.ndarray
    s: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    gam1: np.ndarray
    gam2: np.ndarray
    gam3: np.ndarray
    mu: float


@dataclass
class IterationDiagnostics:
    """Per-iteration convergence record.

    Residuals are squared Frobenius norms relative to ||Y||_F^2; mu is the
    penalty in force during the iteration (before growth); rel_change is
    the relative Frobenius change of U V^T versus the previous iterate.
    s_active says whether the sparse term S was stored (had left zero) by
    the end of the iteration.  block_increase is populated in debug mode
    with the worst relative Lagrangian increase observed across the five
    block updates.
    """

    iteration: int
    fit_residual: float
    split_residual_h: float
    split_residual_v: float
    objective: float
    mu: float
    wall_ms: float
    rel_change: float
    s_active: bool = False
    block_increase: Optional[float] = None

    def converged(self, epsilon: float) -> bool:
        """The stop rule: the fit and both split residuals are <= epsilon."""
        return (
            self.fit_residual <= epsilon
            and self.split_residual_h <= epsilon
            and self.split_residual_v <= epsilon
        )

    def to_json_obj(self) -> dict:
        obj = {
            "iter": self.iteration,
            "fit_res": encode_float(self.fit_residual),
            "split_res1": encode_float(self.split_residual_h),
            "split_res2": encode_float(self.split_residual_v),
            "objective": encode_float(self.objective),
            "mu": encode_float(self.mu),
            "wall_ms": encode_float(self.wall_ms),
            "rel_change": encode_float(self.rel_change),
            "s_active": self.s_active,
        }
        if self.block_increase is not None:
            obj["block_increase"] = encode_float(self.block_increase)
        return obj


def diagnostics_to_jsonl(diags, path) -> None:
    """Write one JSON object per iteration, newline-delimited."""
    with open(path, "w", encoding="utf-8") as fp:
        for d in diags:
            fp.write(json.dumps(d.to_json_obj()))
            fp.write("\n")


def update_g(
    u: np.ndarray,
    gam: np.ndarray,
    mu: float,
    tau: float,
    height: int,
    width: int,
    direction: str,
) -> np.ndarray:
    """TV split update: G = shrink(D(U) + Gam/mu) by tau/mu."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    return soft_threshold(
        apply_diff(u, height, width, direction) + gam / mu, tau / mu
    )


def update_v(
    y: np.ndarray,
    e: np.ndarray,
    s: np.ndarray,
    gam3: np.ndarray,
    mu: float,
    u: np.ndarray,
) -> np.ndarray:
    """Spectral-basis update: Procrustes fit of V to (Y - E - S + Gam3/mu)^T U.

    Because V has orthonormal columns, ||U V^T||_F is V-independent and the
    Procrustes argmax is the exact block minimizer of the Lagrangian, so
    the quadratic coupling term never increases across this step.
    """
    return procrustes_v((y - e - s + gam3 / mu).T @ u)


def update_u(
    y: np.ndarray,
    e: np.ndarray,
    s: np.ndarray,
    gam3: np.ndarray,
    mu: float,
    v: np.ndarray,
    g1: np.ndarray,
    g2: np.ndarray,
    gam1: np.ndarray,
    gam2: np.ndarray,
    tf: np.ndarray,
) -> np.ndarray:
    """Coefficient update via the per-slice FFT solve of the normal equations."""
    rhs_data = (mu * (y - e - s) + gam3) @ v
    return solve_u_system(rhs_data, g1, g2, gam1, gam2, mu, tf)


def update_e(
    y: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    s: np.ndarray,
    gam3: np.ndarray,
    mu: float,
    beta: float,
) -> np.ndarray:
    """Dense-noise update: E = (mu*(Y - U V^T - S) + Gam3) / (mu + 2*beta)."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    return (mu * (y - u @ v.T - s) + gam3) / (mu + 2.0 * beta)


def update_s(
    y: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    e: np.ndarray,
    gam3: np.ndarray,
    mu: float,
    lam: float,
) -> np.ndarray:
    """Sparse-noise update: S = shrink(Y - U V^T - E + Gam3/mu) by lam/mu."""
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    return soft_threshold(y - u @ v.T - e + gam3 / mu, lam / mu)


class MultiplierUpdate(NamedTuple):
    """Residuals computed during dual ascent, reused for diagnostics."""

    split_h: np.ndarray
    split_v: np.ndarray
    fit: np.ndarray
    grad_h: np.ndarray
    grad_v: np.ndarray


def update_multipliers(
    state: SolverState,
    y: np.ndarray,
    height: int,
    width: int,
    rho: float,
) -> MultiplierUpdate:
    """Dual ascent on all three multipliers, then mu <- min(rho*mu, MU_MAX)."""
    grad_h = apply_diff(state.u, height, width, HORIZONTAL)
    grad_v = apply_diff(state.u, height, width, VERTICAL)
    split_h = grad_h - state.g1
    split_v = grad_v - state.g2
    fit = y - state.u @ state.v.T - state.e - state.s
    state.gam1 = state.gam1 + state.mu * split_h
    state.gam2 = state.gam2 + state.mu * split_v
    state.gam3 = state.gam3 + state.mu * fit
    state.mu = min(rho * state.mu, MU_MAX)
    return MultiplierUpdate(split_h, split_v, fit, grad_h, grad_v)


def augmented_lagrangian(
    y: np.ndarray,
    state: SolverState,
    cfg: DenoiseConfig,
    height: int,
    width: int,
) -> float:
    """Evaluate the augmented Lagrangian at the current iterates."""
    mu = state.mu
    r1 = apply_diff(state.u, height, width, HORIZONTAL) - state.g1 + state.gam1 / mu
    r2 = apply_diff(state.u, height, width, VERTICAL) - state.g2 + state.gam2 / mu
    fit = y - state.u @ state.v.T - state.e - state.s + state.gam3 / mu
    return (
        cfg.tau * np.abs(state.g1).sum()
        + cfg.tau * np.abs(state.g2).sum()
        + 0.5 * mu * (np.vdot(r1, r1) + np.vdot(r2, r2))
        + cfg.beta * np.vdot(state.e, state.e)
        + cfg.lam * np.abs(state.s).sum()
        + 0.5 * mu * np.vdot(fit, fit)
    )


def model_objective(
    state: SolverState,
    cfg: DenoiseConfig,
    grad_h: np.ndarray,
    grad_v: np.ndarray,
) -> float:
    """Value of the constrained model objective at the current iterates."""
    return (
        cfg.tau * np.abs(grad_h).sum()
        + cfg.tau * np.abs(grad_v).sum()
        + cfg.beta * float(np.vdot(state.e, state.e))
        + cfg.lam * np.abs(state.s).sum()
    )


class _ColumnPassSums(NamedTuple):
    """What one _column_pass sums, per direction (horizontal, vertical) where paired."""

    split_sq: tuple[float, float]  # ||D_i(U) - G_i||^2 with the G_i it read
    grad_abs: tuple[float, float]  # sum |D_i(U)|
    in_span_sq: float  # ||U - U_prev C||^2
    gram: np.ndarray  # U^T U


def _column_pass(
    u: np.ndarray,
    u_prev: np.ndarray,
    c: np.ndarray,
    g: tuple[np.ndarray, np.ndarray],
    lam: tuple[np.ndarray, np.ndarray],
    threshold: float,
    rescale: float,
    height: int,
    buf: np.ndarray,
) -> _ColumnPassSums:
    """The (M*N, R) side of an iteration, in one pass over column tiles.

    buf is two (cols, M, R) tile buffers; each tile is cols whole columns
    of the M x N plane, with the last tile ragged.  Per tile and per
    direction i, the pass forms D_i(U), sums ||D_i(U) - G_i||^2 and
    |D_i(U)|, takes the dual step Lam_i <- rescale*(Lam_i + D_i(U) - G_i)
    and writes the next G_i = shrink(D_i(U) + Lam_i, threshold) over
    the G_i it read.  g and lam are updated in place.  It also sums
    ||U - U_prev C||^2 and U^T U for rel_change.
    """
    r = u.shape[1]
    width = u.shape[0] // height
    grid = u.reshape(width, height, r)
    cols = buf.shape[1]
    split_sq, grad_abs = [0.0, 0.0], [0.0, 0.0]
    in_span_sq = 0.0
    gram = np.zeros((r, r))
    for start in range(0, width, cols):
        stop = min(start + cols, width)
        rows = slice(start * height, stop * height)
        t = buf[1, : stop - start].reshape(-1, r)
        for i, direction in enumerate((HORIZONTAL, VERTICAL)):
            d = diff_columns(grid, start, stop, direction, buf[0]).reshape(-1, r)
            g_r, lam_r = g[i][rows], lam[i][rows]
            grad_abs[i] += float(np.abs(d, out=t).sum())
            np.subtract(d, g_r, out=t)
            split_sq[i] += float(np.vdot(t, t))
            lam_r += t
            lam_r *= rescale
            np.add(d, lam_r, out=t)
            soft_threshold(t, threshold, out=g_r)
        u_r = u[rows]
        np.matmul(u_prev[rows], c, out=t)
        np.subtract(u_r, t, out=t)
        in_span_sq += float(np.vdot(t, t))
        gram += u_r.T @ u_r
    return _ColumnPassSums(tuple(split_sq), tuple(grad_abs), in_span_sq, gram)


def _rel_change(
    in_span_sq: float,
    gram_prev: np.ndarray,
    c: np.ndarray,
    v: np.ndarray,
    v_prev: np.ndarray,
) -> float:
    """||U V^T - U' V'^T||_F / ||U' V'^T||_F for orthonormal V and V'.

    Splits the difference into its part in span(V) and the rest, which
    with C = V'^T V and D = V' - V C^T gives
        ||U - U' C||_F^2 + tr((U'^T U') (D^T D)).
    The first term is in_span_sq, summed by _column_pass, and gram_prev is
    U'^T U', whose trace is ||U' V'^T||_F^2.  Both terms are non-negative,
    so nothing cancels when the iterates are close, and the cost is
    O(MN*R^2) instead of O(MN*B).
    """
    d = v_prev - v @ c.T
    out_span = max(float(np.sum(gram_prev * (d.T @ d))), 0.0)
    base_sq = float(np.trace(gram_prev))
    if base_sq == 0:
        return math.inf
    return math.sqrt(in_span_sq + out_span) / math.sqrt(base_sq)


def _check_v_orthonormal(v: np.ndarray) -> None:
    dev = np.max(np.abs(v.T @ v - np.eye(v.shape[1])))
    if dev > ORTHONORMALITY_TOL:
        raise RuntimeError(f"V lost orthonormality (deviation {dev:.3e})")


def check_solvable(height: int, width: int, bands: int, rank: int) -> None:
    """Raise ValueError for a plane or rank that solve() cannot run on.

    The periodic differences need at least 2 pixels along each plane axis,
    and the rank may not exceed the band count.  A rank of "auto" is
    refused too, as only denoise() resolves it.
    """
    if rank == "auto":
        raise ValueError('rank "auto" is resolved only by denoise(); solve needs an integer rank')
    if height < 2 or width < 2:
        raise ValueError(f"plane dims must be >= 2, got {height}x{width}")
    if rank > bands:
        raise ValueError(f"rank {rank} exceeds band count {bands}")


def solve(
    y_cube: HsiCube,
    cfg: DenoiseConfig,
    debug: bool = False,
) -> tuple[HsiCube, list[IterationDiagnostics]]:
    """Run the full ADMM loop on a cube scaled to roughly [0, 1].

    Checks the plane and the rank first, then copies the cube's Casorati
    matrix into C order with casorati_rows (the row-tiled pass reads Y one
    block of rows at a time, and rows of the column-major view are
    strided) and runs solve_casorati on the copy.  It takes the cube as
    given: normalizing a raw cube, and resolving rank "auto", is
    denoise()'s work.
    """
    check_solvable(y_cube.height, y_cube.width, y_cube.bands, cfg.rank)
    return solve_casorati(casorati_rows(y_cube), y_cube.height, y_cube.width, cfg, debug)


class Denoised(NamedTuple):
    """What denoise() returns.

    cube           the restored cube, in the input's band ranges
    diagnostics    the solve's per-iteration records
    config         the config solved with, its "auto" rank resolved
    rank_estimate  the estimate that resolved an "auto" rank, else None
    solve_ms       the wall time of solve_casorati alone
    """

    cube: HsiCube
    diagnostics: list[IterationDiagnostics]
    config: DenoiseConfig
    rank_estimate: Optional[RankEstimate]
    solve_ms: float


def denoise(source, cfg: DenoiseConfig) -> Denoised:
    """Restore a raw cube: an HsiCube, or the path of an .hsic file.

    Checks the plane and the rank (1 for "auto", as the estimate never
    exceeds the band count), sizes an "auto" rank with estimate_rank on the
    raw cube's Casorati view, scales each band to [0, 1] with
    normalize_bands, copies the result into the C-ordered matrix with
    casorati_rows, runs solve_casorati on it and maps its output back with
    denormalize_bands.  Each input is dropped once it is used, so at most
    two M*N x B arrays are alive before the solve and none beside the
    solve's own while it runs.  That needs the raw cube to have no other
    holder: a cube the caller keeps stays alive through the solve, one more
    M*N x B array, which a path avoids.
    """
    cube = source if isinstance(source, HsiCube) else read_cube(source)
    # Drop the argument's name too, so that del cube frees a cube no
    # caller holds.
    del source
    height, width = cube.height, cube.width
    auto = cfg.rank == "auto"
    check_solvable(height, width, cube.bands, 1 if auto else cfg.rank)
    estimate = estimate_rank(unfold_casorati(cube)) if auto else None
    if auto:
        cfg = replace(cfg, rank=estimate.rank)
    normalized, rec = normalize_bands(cube)
    del cube
    y = casorati_rows(normalized)
    del normalized
    t_solve = time.perf_counter()
    restored, diags = solve_casorati(y, height, width, cfg)
    solve_ms = (time.perf_counter() - t_solve) * 1e3
    del y
    return Denoised(denormalize_bands(restored, rec), diags, cfg, estimate, solve_ms)


def solve_casorati(
    y: np.ndarray,
    height: int,
    width: int,
    cfg: DenoiseConfig,
    debug: bool = False,
) -> tuple[HsiCube, list[IterationDiagnostics]]:
    """Run the full ADMM loop on a C-ordered (M*N, B) Casorati matrix.

    y must be a 2-d, C-contiguous float64 array with height*width rows,
    such as casorati_rows builds; anything else, or a plane or rank that
    check_solvable refuses, raises ValueError before any allocation.  The
    solve reads y and never writes it, and makes no copy of it, so the
    caller's y is the only M*N x B input array alive during the solve.
    While S is zero the solve adds one more, Lam_3, and the restored cube
    is written into it.  P is rebuilt from Y and Lam_3 tile by tile; the
    first row tile on which S leaves zero allocates S and P together, and
    only the tiles where S is live write their pages.

    Initialization takes V as the top-R eigenvectors of Y^T Y and U = Y V
    for the unfolded input Y (its truncated SVD) and zeros everything
    else, so the first feasibility residual is the SVD truncation tail.
    Returns the folded U V^T and the per-iteration diagnostics.
    Non-convergence inside max_iter shows up in the diagnostics rather than
    raising; divergence does not: a non-finite fit residual, split residual
    or objective raises ValueError naming the iteration and the quantity.

    With debug=True, each iteration records six values of the augmented
    Lagrangian, a baseline and one after each of the G, V, U, E and S
    updates, and block_increase is the worst relative rise between
    consecutive ones (each block is an exact minimizer, so anything beyond
    roundoff indicates a broken update); nothing else in the result
    changes.  E enters it as recovered from P, which debug mode rebuilds
    in full on the tiles where the loop does not store it, and S that the
    loop does not store as zero.
    """
    if not isinstance(y, np.ndarray):
        raise ValueError(f"expected a numpy array, got {type(y).__name__}")
    if y.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={y.ndim}")
    if y.dtype != np.float64:
        raise ValueError(f"expected a float64 matrix, got {y.dtype}")
    if not y.flags.c_contiguous:
        raise ValueError("expected a C-ordered matrix (see casorati_rows)")
    m, n, b = height, width, y.shape[1]
    mn = m * n
    if y.shape[0] != mn:
        raise ValueError(f"row count {y.shape[0]} != M*N = {mn}")
    r = cfg.rank
    check_solvable(m, n, b, r)
    # A read-only view, so that a write to the caller's y fails loudly.
    y = y.view()
    y.flags.writeable = False
    tf = build_transfer_functions(m, n)

    u, v = truncated_svd_init(y, r)
    s = p = None
    g1, g2 = np.zeros((mn, r)), np.zeros((mn, r))
    lam1, lam2 = np.zeros((mn, r)), np.zeros((mn, r))
    lam3 = np.zeros((mn, b))
    mu = cfg.mu0
    # Debug-only: the G the loop's G check re-baselines at, as it stood
    # before the column pass that wrote the current one.
    g_before = (np.zeros((mn, r)), np.zeros((mn, r))) if debug else None

    y_norm_sq = float(np.vdot(y, y))
    denom = y_norm_sq if y_norm_sq > 0 else 1.0
    # P = Y - E - S + Lam3 (p_rows) is Y while E, S and Lam3 are zero, so
    # p_lam3 starts at 1.  The first P^T U = Y^T U0 is V0 scaled by the Gram
    # eigenvalues, so V0 maximizes <P^T U, V> (an exact V-block minimizer,
    # even where an eigenvalue is 0) and seeds the first V update in its
    # place.
    pu = v
    p_lam3 = 1.0
    rows = max(1, _TILE_BYTES // (8 * b))
    tile = np.empty((rows, b))
    tiles = [slice(lo, min(lo + rows, mn)) for lo in range(0, mn, rows)]
    # The row tiles on which S has left zero; the others take the S = 0
    # step and touch no page of S or of P.
    s_live = [False] * len(tiles)
    cols = min(n, max(1, _TILE_BYTES // (8 * m * r)))
    col_tiles = np.empty((2, cols, m, r))
    # The first G update: a column pass on U0 from G = Lam = 0, whose
    # rescale by 0 keeps Lam_1 and Lam_2 at zero, writes G_i =
    # shrink(D_i(U0), tau/mu0); its Gram U0^T U0 is the first rel_change base.
    gram = _column_pass(
        u, u, np.eye(r), (g1, g2), (lam1, lam2), cfg.tau / mu, 0.0, m, col_tiles
    ).gram
    # Each U solve writes into the buffer U does not occupy, so U_prev
    # survives until the column pass.
    u_spare = np.empty((mn, r))
    hat = np.empty((n, m // 2 + 1, r), dtype=np.complex128)
    diags: list[IterationDiagnostics] = []

    def p_rows(k, sl, out):
        # P on row tile k (rows sl): stored where S is live, else rebuilt
        # into out as Y + p_lam3*Lam3 from the Lam3 stored now.
        if s_live[k]:
            return p[sl]
        np.multiply(lam3[sl], p_lam3, out=out)
        out += y[sl]
        return out

    def lagrangian(s_at=None, lam3_at=None, g_at=None):
        # Debug-only: the Lagrangian at the loop's iterates, optionally with
        # S, Lam3 or the G pair replaced.  P (p_rows) pairs with the Lam3
        # stored now, so E = Y - S + Lam3 - P; S that the loop does not
        # store is zero.
        s_now = np.zeros_like(y) if s is None else s
        p_now = np.empty_like(y)
        for k, sl in enumerate(tiles):
            p_now[sl] = p_rows(k, sl, p_now[sl])
        g1_at, g2_at = (g1, g2) if g_at is None else g_at
        state = SolverState(
            u=u, v=v, e=y - s_now + lam3 - p_now, s=s_now if s_at is None else s_at,
            g1=g1_at, g2=g2_at, gam1=mu * lam1, gam2=mu * lam2,
            gam3=mu * (lam3 if lam3_at is None else lam3_at), mu=mu,
        )
        return augmented_lagrangian(y, state, cfg, m, n)

    for it in range(1, cfg.max_iter + 1):
        t0 = time.perf_counter()
        mu_next = min(cfg.rho * mu, MU_MAX)
        v_prev = v
        lags = None
        if debug:
            # The last column pass wrote G ahead of this check, with the
            # multipliers and mu since changed: the baseline is at the G it
            # read, the next value at the G it wrote.
            lags = [lagrangian(g_at=g_before), lagrangian()]

        v = procrustes_v(pu)
        if debug:
            lags.append(lagrangian())
        # mu cancels from the U normal equations in scaled form; the
        # right-hand side P V is formed tile by tile (p_rows) in the spare
        # buffer, which the solve overwrites with the new U.
        for k, sl in enumerate(tiles):
            np.matmul(p_rows(k, sl, tile[: sl.stop - sl.start]), v, out=u_spare[sl])
        u_prev = u
        u = solve_u_system(u_spare, g1, g2, lam1, lam2, 1.0, tf, u_spare, hat)
        u_spare = u_prev
        if debug:
            lags.append(lagrangian())
            s_before = np.zeros_like(y) if s is None else s.copy()
            lam3_before = lam3.copy()

        # The row pass, as the module docstring sets it out: per tile, T,
        # then E, S, the fit residual, the next Lam3, the next P and P^T U,
        # with the sums the diagnostics need.  From here p_lam3 pairs P with
        # the Lam3 this pass writes.
        vt = v.T
        rescale = mu / mu_next
        c = mu / (mu + 2.0 * cfg.beta)
        one_minus_c = 2.0 * cfg.beta / (mu + 2.0 * cfg.beta)
        s_thresh = cfg.lam / mu
        p_lam3 = 1.0 - mu_next / (2.0 * cfg.beta)
        fit_sq = e_sq = s_l1 = 0.0
        pu = np.zeros((b, r))
        for k, sl in enumerate(tiles):
            t = tile[: sl.stop - sl.start]
            lam3_r = lam3[sl]
            uvt = p[sl] if s_live[k] else t
            np.matmul(u[sl], vt, out=uvt)
            np.subtract(y[sl], uvt, out=t)
            t += lam3_r  # T
            # With S = 0 on the tile the S update shrinks T - E = (1 - c)*T
            # by lam/mu; a tile whose shrink lets an entry through goes live
            # here.  A NaN tile compares False and shows up in fit_sq.
            if not s_live[k] and one_minus_c * max(t.max(), -t.min()) > s_thresh:
                if s is None:
                    s, p = np.zeros((mn, b)), np.empty((mn, b))
                s_live[k] = True
                np.matmul(u[sl], vt, out=p[sl])
            if s_live[k]:
                s_r, p_r = s[sl], p[sl]
                np.subtract(t, s_r, out=s_r)  # T - S
                e_sq += float(np.vdot(s_r, s_r)) * c * c
                s_r *= c  # E
                t -= s_r  # R = T - E
                np.clip(t, -s_thresh, s_thresh, out=s_r)  # K
                np.subtract(s_r, lam3_r, out=lam3_r)  # the fit residual
                fit_sq += float(np.vdot(lam3_r, lam3_r))
                p_r += lam3_r
                np.multiply(s_r, rescale, out=lam3_r)
                p_r += lam3_r  # P
                np.subtract(t, s_r, out=s_r)  # S'
                s_l1 += mu_next * float(np.vdot(s_r, lam3_r))
            else:
                e_sq += float(np.vdot(t, t)) * c * c  # E = c*T
                t *= one_minus_c  # T - E
                lam3_r -= t  # minus the fit residual
                fit_sq += float(np.vdot(lam3_r, lam3_r))
                np.multiply(t, rescale, out=lam3_r)
                p_r = p_rows(k, sl, t)  # P
            pu += p_r.T @ u[sl]
        if debug:
            # The pass updated E, S and Lam3 together; check E and S as the
            # sequential block updates would have left them.
            lags.append(lagrangian(s_at=s_before, lam3_at=lam3_before))
            lags.append(lagrangian(lam3_at=lam3_before))
            np.copyto(g_before[0], g1)
            np.copyto(g_before[1], g2)
        _check_v_orthonormal(v)

        # The TV dual step and the next G update at the grown penalty, with
        # the sums for the diagnostics (Lam3 was updated in the row pass).
        cv = v_prev.T @ v  # C in rel_change
        sums = _column_pass(
            u, u_prev, cv, (g1, g2), (lam1, lam2),
            cfg.tau / mu_next, rescale, m, col_tiles,
        )
        split_h, split_v = (x / denom for x in sums.split_sq)
        fit_res = fit_sq / denom
        objective = (
            cfg.tau * sums.grad_abs[0]
            + cfg.tau * sums.grad_abs[1]
            + cfg.beta * e_sq
            + s_l1
        )
        for name, value in (
            ("fit_res", fit_res),
            ("split_res1", split_h),
            ("split_res2", split_v),
            ("objective", objective),
        ):
            if not math.isfinite(value):
                raise ValueError(f"ADMM diverged: {name} is {value} at iteration {it}")
        rel_change = _rel_change(sums.in_span_sq, gram, cv, v, v_prev)
        gram = sums.gram
        diags.append(
            IterationDiagnostics(
                iteration=it,
                fit_residual=fit_res,
                split_residual_h=split_h,
                split_residual_v=split_v,
                objective=objective,
                mu=mu,
                wall_ms=(time.perf_counter() - t0) * 1e3,
                rel_change=rel_change,
                s_active=s is not None,
                block_increase=None if lags is None else max(
                    (after - before) / max(1.0, abs(before))
                    for before, after in zip(lags, lags[1:])
                ),
            )
        )

        if diags[-1].converged(cfg.epsilon):
            break
        mu = mu_next

    # V U^T is the band-sequential (B, M*N) layout of the cube, built in
    # Lam3's buffer, which the loop no longer needs.
    restored = np.matmul(v, u.T, out=lam3.reshape(b, mn))
    return HsiCube(m, n, b, restored.reshape(-1)), diags
