"""ADMM solver for low-rank + slice-TV mixed-noise removal.

Model: given a noisy Casorati matrix Y (M*N x B), find U (M*N x R),
orthonormal V (B x R), dense-noise E and sparse-noise S minimizing

    tau1*||D_1(U)||_1 + tau2*||D_2(U)||_1 + beta*||E||_F^2 + lam*||S||_1
    s.t.  Y = U V^T + E + S,   V^T V = I,

where D_1 / D_2 are the periodic horizontal / vertical differences applied
per slice of U.  The splitting introduces G_i = D_i(U) and multipliers
Gam_1, Gam_2 (for the TV splits) and Gam_3 (for the data fit), giving the
augmented Lagrangian

    sum_i [ tau_i*||G_i||_1 + (mu/2)*||D_i(U) - G_i + Gam_i/mu||_F^2 ]
    + beta*||E||_F^2 + lam*||S||_1
    + (mu/2)*||Y - U V^T - E - S + Gam_3/mu||_F^2.

Each iteration updates G_i, V, U, E, S in that order (every block update
is an exact minimizer of the Lagrangian in its block), then performs dual
ascent on the multipliers and grows the penalty mu by rho.  Iteration
stops when the squared relative data-fit and both split residuals all drop
below epsilon, or after max_iter sweeps.  The restored cube is the folded
U V^T.

solve() forms each M*N x B quantity once per iteration.  The residual
P = Y - E - S + Gam_3/mu is built once and shared by the V update
(Procrustes on P^T U) and the U right-hand side (mu * P V).  After the U
update, X = U V^T is formed once and T = Y - X + Gam_3/mu derived from it;
then E = mu*(T - S)/(mu + 2*beta), S = shrink(T - E, lam/mu), the data-fit
residual T - E - S - Gam_3/mu and Gam_3 = mu*(T - E - S) all follow from T
and are written in place into preallocated buffers.  rel_change is
computed from the factors in O(M*N*R^2), with no copy of the previous
U V^T.  The per-block update_* functions and update_multipliers evaluate
the same updates densely, one block at a time; they are the reference
kernels the fused loop is tested against.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from rctv.cube import HsiCube, fold_casorati, unfold_casorati
from rctv.diffops import (
    HORIZONTAL,
    VERTICAL,
    TransferFunctions,
    apply_diff,
    build_transfer_functions,
    solve_u_system,
)
from rctv.linalg import procrustes_v, soft_threshold, truncated_svd_init
from rctv.metrics import encode_float

V_ORTHONORMALITY_TOL = 1e-8

# Relative slack for the per-block Lagrangian non-increase check; each
# block update is an exact minimizer, so only roundoff can push it up.
LAGRANGIAN_SLACK = 1e-8

_PRESETS = {
    # Mostly-Gaussian noise: the sparse term is effectively disabled.
    "gaussian": {"beta": 1.0, "lam": 100.0},
    # Mixed noise: sparse term active, Gaussian term stiff.
    "mixed": {"beta": 50.0, "lam": 1.0},
}


@dataclass(frozen=True)
class DenoiseConfig:
    """Solver hyperparameters.

    rank      number of coefficient slices R (must be <= B at solve time)
    tau1/tau2 TV weights for horizontal / vertical differences
    beta      Gaussian-noise weight (quadratic penalty on E)
    lam       sparse-noise weight (l1 penalty on S)
    mu0       initial ADMM penalty
    rho       penalty growth factor per iteration (> 1)
    epsilon   convergence tolerance on the squared relative residuals
    max_iter  iteration cap; hitting it is reported, not an error
    mu_max    penalty cap, keeps tau/mu thresholds out of denormal range
    """

    rank: int
    tau1: float = 0.01
    tau2: float = 0.01
    beta: float = 50.0
    lam: float = 1.0
    mu0: float = 1e-3
    rho: float = 1.25
    epsilon: float = 1e-6
    max_iter: int = 50
    mu_max: float = 1e6

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        for name in ("tau1", "tau2", "beta", "lam", "mu0", "rho", "epsilon", "mu_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("tau1", "tau2", "beta", "lam"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.mu0 <= 0:
            raise ValueError("mu0 must be positive")
        if self.rho <= 1:
            raise ValueError(f"rho must be > 1, got {self.rho}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.mu_max <= 0:
            raise ValueError("mu_max must be positive")

    @classmethod
    def preset(cls, name: str, rank: int, tau: float = 0.01, **overrides) -> "DenoiseConfig":
        """Named parameter presets: "gaussian" (beta=1, lam=100) or
        "mixed" (lam=1, beta=50), with a user-supplied tau."""
        if name not in _PRESETS:
            raise ValueError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
        params = dict(_PRESETS[name])
        params.update(overrides)
        return cls(rank=rank, tau1=tau, tau2=tau, **params)


@dataclass
class SolverState:
    """All ADMM iterates; owned by one solve call, not shareable mid-run."""

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
    iteration: int = 0


@dataclass
class IterationDiagnostics:
    """Per-iteration convergence record.

    Residuals are squared Frobenius norms relative to ||Y||_F^2; mu is the
    penalty in force during the iteration (before growth); rel_change is
    the relative Frobenius change of U V^T versus the previous iterate.
    block_increase is populated in debug mode with the worst relative
    Lagrangian increase observed across the five block updates.
    """

    iteration: int
    fit_residual: float
    split_residual_h: float
    split_residual_v: float
    objective: float
    mu: float
    wall_ms: float
    rel_change: float
    block_increase: Optional[float] = None

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
    tf: TransferFunctions,
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
    mu_max: float,
) -> MultiplierUpdate:
    """Dual ascent on all three multipliers, then mu <- min(rho*mu, mu_max)."""
    grad_h = apply_diff(state.u, height, width, HORIZONTAL)
    grad_v = apply_diff(state.u, height, width, VERTICAL)
    split_h = grad_h - state.g1
    split_v = grad_v - state.g2
    fit = y - state.u @ state.v.T - state.e - state.s
    state.gam1 = state.gam1 + state.mu * split_h
    state.gam2 = state.gam2 + state.mu * split_v
    state.gam3 = state.gam3 + state.mu * fit
    state.mu = min(rho * state.mu, mu_max)
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
        cfg.tau1 * np.abs(state.g1).sum()
        + cfg.tau2 * np.abs(state.g2).sum()
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
    scratch: Optional[np.ndarray] = None,
) -> float:
    """Value of the constrained model objective at the current iterates.

    scratch, if given, is an array of S's shape that receives |S| so that
    no temporary of that size is made.
    """
    return (
        cfg.tau1 * np.abs(grad_h).sum()
        + cfg.tau2 * np.abs(grad_v).sum()
        + cfg.beta * float(np.vdot(state.e, state.e))
        + cfg.lam * np.abs(state.s, out=scratch).sum()
    )


def _rel_change(
    u: np.ndarray, v: np.ndarray, u_prev: np.ndarray, v_prev: np.ndarray
) -> float:
    """||U V^T - U' V'^T||_F / ||U' V'^T||_F for orthonormal V and V'.

    Splits the difference into its part in span(V) and the rest, which
    with C = V'^T V and D = V' - V C^T gives
        ||U - U' C||_F^2 + tr((U'^T U') (D^T D)).
    Both terms are non-negative, so nothing cancels when the iterates are
    close, and the cost is O(MN*R^2) instead of O(MN*B).
    """
    c = v_prev.T @ v
    d = v_prev - v @ c.T
    in_span = u - u_prev @ c
    out_span = max(float(np.sum((u_prev.T @ u_prev) * (d.T @ d))), 0.0)
    base = np.linalg.norm(u_prev)
    if base == 0:
        return math.inf
    return math.sqrt(float(np.vdot(in_span, in_span)) + out_span) / base


def _check_v_orthonormal(v: np.ndarray) -> None:
    dev = np.max(np.abs(v.T @ v - np.eye(v.shape[1])))
    if dev > V_ORTHONORMALITY_TOL:
        raise RuntimeError(f"V lost orthonormality (deviation {dev:.3e})")


def solve(
    y_cube: HsiCube,
    cfg: DenoiseConfig,
    debug: bool = False,
) -> tuple[HsiCube, list[IterationDiagnostics]]:
    """Run the full ADMM loop on a cube scaled to roughly [0, 1].

    Initialization takes (U, V) from the truncated SVD of the unfolded
    input and zeros everything else, so the first feasibility residual is
    the SVD truncation tail.  Returns the folded U V^T and the
    per-iteration diagnostics.  Non-convergence inside max_iter shows up
    in the diagnostics rather than raising.

    With debug=True, the augmented Lagrangian is evaluated around every
    block update and the worst relative increase per iteration is recorded
    in the diagnostics (each block is an exact minimizer, so anything
    beyond roundoff indicates a broken update).
    """
    m, n, b = y_cube.height, y_cube.width, y_cube.bands
    if cfg.rank > b:
        raise ValueError(f"rank {cfg.rank} exceeds band count {b}")
    y = unfold_casorati(y_cube)
    tf = build_transfer_functions(m, n)

    u, v = truncated_svd_init(y, cfg.rank)
    mn = m * n
    state = SolverState(
        u=u,
        v=v,
        e=np.zeros((mn, b)),
        s=np.zeros((mn, b)),
        g1=np.zeros((mn, cfg.rank)),
        g2=np.zeros((mn, cfg.rank)),
        gam1=np.zeros((mn, cfg.rank)),
        gam2=np.zeros((mn, cfg.rank)),
        gam3=np.zeros((mn, b)),
        mu=cfg.mu0,
    )

    y_norm_sq = float(np.vdot(y, y))
    denom = y_norm_sq if y_norm_sq > 0 else 1.0
    # MN x B work buffers.  resid holds P, then U V^T, T and the fit
    # residual in turn; scratch holds Gam3/mu, then |S| for the objective.
    # E, S and Gam3 are updated in place.
    resid = np.empty((mn, b))
    scratch = np.empty((mn, b))
    diags: list[IterationDiagnostics] = []

    lag = 0.0

    for it in range(1, cfg.max_iter + 1):
        t0 = time.perf_counter()
        state.iteration = it
        mu = state.mu
        u_prev, v_prev = state.u, state.v
        worst_increase = None
        if debug:
            # Multipliers and mu changed since the last check; re-baseline.
            lag = augmented_lagrangian(y, state, cfg, m, n)

        def checkpoint(worst):
            # Debug-only: Lagrangian must not rise across a block update.
            nonlocal lag
            lag_new = augmented_lagrangian(y, state, cfg, m, n)
            rise = (lag_new - lag) / max(1.0, abs(lag))
            lag = lag_new
            return rise if worst is None else max(worst, rise)

        state.g1 = update_g(state.u, state.gam1, mu, cfg.tau1, m, n, HORIZONTAL)
        state.g2 = update_g(state.u, state.gam2, mu, cfg.tau2, m, n, VERTICAL)
        if debug:
            worst_increase = checkpoint(worst_increase)

        # P = Y - E - S + Gam3/mu, shared by the V and U updates.  scratch
        # holds Gam3/mu until the dual step.
        np.divide(state.gam3, mu, out=scratch)
        np.subtract(y, state.e, out=resid)
        resid -= state.s
        resid += scratch
        state.v = procrustes_v(resid.T @ state.u)
        if debug:
            worst_increase = checkpoint(worst_increase)
        state.u = solve_u_system(
            mu * (resid @ state.v), state.g1, state.g2, state.gam1, state.gam2, mu, tf
        )
        if debug:
            worst_increase = checkpoint(worst_increase)

        # T = Y - U V^T + Gam3/mu, with U V^T formed in place of P.
        np.matmul(state.u, state.v.T, out=resid)
        np.subtract(y, resid, out=resid)
        resid += scratch
        np.subtract(resid, state.s, out=state.e)
        state.e *= mu / (mu + 2.0 * cfg.beta)
        if debug:
            worst_increase = checkpoint(worst_increase)
        resid -= state.e
        soft_threshold(resid, cfg.lam / mu, out=state.s)
        if debug:
            worst_increase = checkpoint(worst_increase)
        _check_v_orthonormal(state.v)

        # Dual ascent.  resid becomes T - E - S, so Gam3 + mu*fit = mu*resid
        # and fit = resid - Gam3/mu.
        resid -= state.s
        np.multiply(resid, mu, out=state.gam3)
        resid -= scratch
        grad_h = apply_diff(state.u, m, n, HORIZONTAL)
        grad_v = apply_diff(state.u, m, n, VERTICAL)
        split1 = grad_h - state.g1
        split2 = grad_v - state.g2
        state.gam1 = state.gam1 + mu * split1
        state.gam2 = state.gam2 + mu * split2
        state.mu = min(cfg.rho * mu, cfg.mu_max)

        fit_res = float(np.vdot(resid, resid)) / denom
        split_h = float(np.vdot(split1, split1)) / denom
        split_v = float(np.vdot(split2, split2)) / denom
        objective = model_objective(state, cfg, grad_h, grad_v, scratch)
        rel_change = _rel_change(state.u, state.v, u_prev, v_prev)
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
                block_increase=worst_increase,
            )
        )

        if fit_res <= cfg.epsilon and split_h <= cfg.epsilon and split_v <= cfg.epsilon:
            break

    restored = fold_casorati(state.u @ state.v.T, m, n)
    return restored, diags
