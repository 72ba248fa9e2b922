"""Dense kernels for the factorization solver.

Thin SVD with a deterministic sign convention, truncated-SVD
initialization, the l1 proximal map, the orthogonal-Procrustes update for
the spectral basis, and projection of a matrix onto an orthonormal basis.
All matrices here are small on at least one side (B or R columns); nothing
ever decomposes an (M*N) x (M*N) operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class ThinSvd:
    """A = left_vectors @ diag(singular_values) @ right_vectors.T.

    Factor columns are orthonormal; singular values are descending and
    non-negative.  Signs are fixed so each right singular vector's
    largest-magnitude entry is positive, which makes results reproducible.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray


def thin_svd(a: np.ndarray) -> ThinSvd:
    """Thin SVD of a dense matrix with deterministic vector signs."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries in SVD input")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    v = vt.T
    # Flip sign pairs so each right vector's largest-|.| entry is positive.
    pivot = np.argmax(np.abs(v), axis=0)
    flip = v[pivot, np.arange(v.shape[1])] < 0
    v[:, flip] *= -1.0
    u[:, flip] *= -1.0
    return ThinSvd(left_vectors=u, singular_values=s, right_vectors=v)


def truncated_svd_init(y: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Best rank-R factors of Y: U = U_R @ diag(s_R), V = V_R.

    U @ V.T is the best rank-R Frobenius approximation of Y (Eckart-Young).
    """
    y = np.asarray(y, dtype=np.float64)
    if not 1 <= rank <= y.shape[1]:
        raise ValueError(f"rank {rank} out of range [1, {y.shape[1]}]")
    f = thin_svd(y)
    u = f.left_vectors[:, :rank] * f.singular_values[:rank]
    v = f.right_vectors[:, :rank].copy()
    return u, v


def soft_threshold(
    a: np.ndarray, threshold: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Elementwise sign(a) * max(|a| - threshold, 0).

    This is the proximal map of threshold * ||.||_1, computed as
    a - clip(a, -threshold, threshold); entries inside the threshold come
    out as +0.0.  With out given (a float64 array of a's shape that does
    not overlap a), the result is written there and no temporary is made.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    a = np.asarray(a, dtype=np.float64)
    if out is None:
        out = np.empty_like(a)
    elif np.may_share_memory(a, out):
        raise ValueError("out must not overlap the input")
    np.clip(a, -threshold, threshold, out=out)
    return np.subtract(a, out, out=out)


def procrustes_v(w: np.ndarray) -> np.ndarray:
    """Maximize <W, V> over matrices with orthonormal columns.

    The argmax is B @ C.T from the thin SVD W = B @ diag(d) @ C.T, and the
    attained objective equals the nuclear norm of W.
    """
    f = thin_svd(w)
    return f.left_vectors @ f.right_vectors.T


def project_coefficients(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coefficients U = X @ V of X in the orthonormal basis V.

    When X has rank R and row space spanned by V's columns, U preserves all
    pairwise row distances, angles, and row norms of X.
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    gram = v.T @ v
    dev = np.max(np.abs(gram - np.eye(v.shape[1])))
    if dev > ORTHONORMALITY_TOL:
        raise ValueError(
            f"basis columns not orthonormal (deviation {dev:.3e} > "
            f"{ORTHONORMALITY_TOL:.0e})"
        )
    return x @ v
