"""Dense kernels for the factorization solver.

The spectral basis of a Casorati matrix from the eigendecomposition of its
B x B Gram matrix, with a deterministic sign convention; truncated-SVD
initialization built on it; the l1 proximal map; and the
orthogonal-Procrustes update for the spectral basis.  All matrices here are
small on at least one side (B or R columns), and the solver only ever
decomposes B x B and B x R ones: never an (M*N) x B matrix, let alone an
(M*N) x (M*N) operator.
"""

from __future__ import annotations

import numpy as np

ORTHONORMALITY_TOL = 1e-8


def _fix_signs(v: np.ndarray) -> np.ndarray:
    """Flip columns of v in place so each one's largest-|.| entry is positive.

    Returns the boolean mask of flipped columns, so a caller can flip the
    paired factor to match.
    """
    pivot = np.argmax(np.abs(v), axis=0)
    flip = v[pivot, np.arange(v.shape[1])] < 0
    v[:, flip] *= -1.0
    return flip


def gram_eigh(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared singular values and right singular vectors of Y from Y^T Y.

    Eigendecomposes the B x B Gram matrix instead of taking an SVD of the
    (M*N) x B matrix itself.  Eigenvalues come back descending and clipped
    at 0; eigenvectors are orthonormal columns, each flipped so that its
    largest-magnitude entry is positive, which makes results reproducible.
    Squaring the condition number means singular values below about
    sqrt(eps) * ||Y||_2 carry no relative accuracy, and neither do their
    vectors; leading vectors separated by a gap are unaffected.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={y.ndim}")
    gram = y.T @ y
    # A non-finite entry of Y makes Y^T Y non-finite, and so does overflow;
    # checking the B x B product spares a pass over Y.
    if not np.all(np.isfinite(gram)):
        raise ValueError("non-finite entries in Y^T Y (non-finite or overflowing input)")
    evals, evecs = np.linalg.eigh(gram)
    evals = np.maximum(evals[::-1], 0.0)
    evecs = evecs[:, ::-1].copy()
    _fix_signs(evecs)
    return evals, evecs


def truncated_svd_init(y: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Best rank-R factors of Y: V = top-R eigenvectors of Y^T Y, U = Y V.

    V holds Y's leading right singular vectors, so U = Y V equals
    U_R @ diag(s_R) and U @ V.T is the best rank-R Frobenius approximation
    of Y (Eckart-Young).
    """
    y = np.asarray(y, dtype=np.float64)
    if not 1 <= rank <= y.shape[1]:
        raise ValueError(f"rank {rank} out of range [1, {y.shape[1]}]")
    _, vecs = gram_eigh(y)
    v = vecs[:, :rank].copy()
    return y @ v, v


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
    attained objective equals the nuclear norm of W.  Flipping a paired
    column of B and C leaves B @ C.T unchanged, so no sign is fixed.
    """
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite entries in Procrustes input")
    b, _, ct = np.linalg.svd(w, full_matrices=False)
    return b @ ct
