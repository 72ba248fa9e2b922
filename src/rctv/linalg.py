"""Dense kernels for the factorization solver.

The spectral basis of a Casorati matrix from the eigendecomposition of its
B x B Gram matrix, with a deterministic sign convention; the HySime rank
estimate and the truncated-SVD initialization built on it; the l1
proximal map; and the orthogonal-Procrustes update for the spectral
basis.  All matrices here are small on at least one side (B or R
columns), and the solver only ever decomposes B x B and B x R ones:
never an (M*N) x B matrix, let alone an (M*N) x (M*N) operator.
"""

from __future__ import annotations

import dataclasses
import math

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


@dataclasses.dataclass(frozen=True)
class RankEstimate:
    """The rank that rank="auto" resolves to and HySime's count before the clamp."""

    rank: int
    signal_dims: int

    @property
    def bound(self) -> str | None:
        """"low" or "high" when that end of the clamp set the rank, else None."""
        if self.rank == self.signal_dims:
            return None
        return "low" if self.rank > self.signal_dims else "high"


def estimate_rank(y: np.ndarray) -> RankEstimate:
    """HySime's signal subspace dimension of Y, from the B x B Gram G = Y^T Y.

    HySime (Bioucas-Dias & Nascimento 2008, "Hyperspectral Subspace
    Identification", IEEE TGRS 46(8)) regresses each band on the others:
    band i's residual energy is 1/(G^-1)_ii, which forms the diagonal noise
    correlation R_n.  The signal correlation is R_x = (I - W)^T G (I - W),
    with W = G^-1 diag(1/(G^-1)_ii).  signal_dims counts the eigenvectors e
    of R_x whose power in Y beats twice their noise power,
    e^T G e > 2 e^T R_n e.  Only G is formed, so the cost is one Y^T Y
    product plus O(B^3); nothing of Y's size is allocated.

    G is inverted through its eigendecomposition, eigenvalues floored at
    eps * B * lambda_max, and R_n gains hysime.m's ridge trace(R_x)/(B 1e5),
    so zero, constant or duplicate bands, and fewer pixels than bands, give
    a finite count; a noiseless rank-k matrix counts k.  The rule is
    invariant to scaling Y, so G is scaled to lambda_max = 1 first.  The
    rank is signal_dims clamped to [2, ceil(0.15 * B)]: the typical subspace
    dimension of a B-band cube is a small fraction of B.  It never exceeds
    B, so a 1-band cube gets rank 1.
    """
    energy, vecs = gram_eigh(y)
    bands = energy.size
    if energy[0] == 0.0:
        raise ValueError("cannot estimate rank of an all-zero matrix")
    energy = energy / energy[0]
    gram = (vecs * energy) @ vecs.T
    gram_inv = (vecs / np.maximum(energy, np.finfo(np.float64).eps * bands)) @ vecs.T
    noise = 1.0 / np.diag(gram_inv)
    # I - W, with W = G^-1 diag(noise): column i of Y (I - W) is band i's
    # fit from the other bands.
    keep = np.eye(bands) - gram_inv * noise
    r_x = keep.T @ gram @ keep
    noise += np.trace(r_x) / (bands * 1e5)
    _, e = np.linalg.eigh(r_x)
    signal_power = np.einsum("ij,ij->j", e, gram @ e)
    noise_power = noise @ (e * e)
    dims = int(np.count_nonzero(signal_power > 2.0 * noise_power))
    hi = max(math.ceil(0.15 * bands), 2)
    return RankEstimate(min(max(dims, 2), hi, bands), dims)


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
