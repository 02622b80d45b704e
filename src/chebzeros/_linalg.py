"""Small dense-matrix helpers of the synthesis modules, the determinant-sign
kernel of the Chebyshev and polyline tests, and the polyline screen's planes."""

from __future__ import annotations

import math

import numpy as np

RANK_RTOL = 1e-10  # singular values at or below RANK_RTOL * s_max count as zero
# determinant signs of matrices this close to singular are not trusted
_DET_COND_FLOOR = 1e-12
_LOG_SURE_RATIO = math.log(100.0 * _DET_COND_FLOOR)
_MINOR_FLOOR = 1e-5  # share of Hadamard's bound a trusted plane's minors reach


def svd_kernel(A):
    """Numerical kernel of A via SVD.

    Returns (basis, rank, singvals): basis has shape (m, m - rank) with
    orthonormal columns spanning the right null space, rank counts
    singular values above RANK_RTOL * s_max.
    """
    A = np.asarray(A, dtype=float)
    _, s, vh = np.linalg.svd(A)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > RANK_RTOL * smax)) if smax > 0.0 else 0
    basis = vh[rank:].T
    return basis, rank, s


def smallest_direction(A):
    """Right-singular vector of the smallest singular value, unit norm."""
    A = np.asarray(A, dtype=float)
    _, _, vh = np.linalg.svd(A)
    return vh[-1]


def fix_leading_sign(v):
    """Flip v so its first nonzero component is positive."""
    v = np.asarray(v, dtype=float)
    for x in v:
        if abs(x) > 0.0:
            return v if x > 0 else -v
    return v


def _det_signs(Ms: np.ndarray):
    """(signs, informative) of a stack of square matrices: determinant
    signs, trusted only where s_min > _DET_COND_FLOOR * s_max.  As
    |det M| / |M|_F^n <= s_min / s_max, the SVD is skipped where that ratio
    clears the floor a hundredfold."""
    n = Ms.shape[-1]
    sign, logdet = np.linalg.slogdet(Ms)
    sq = np.maximum(np.einsum("kij,kij->k", Ms, Ms), np.finfo(float).tiny)
    informative = logdet - 0.5 * n * np.log(sq) > _LOG_SURE_RATIO
    rest = (~informative).nonzero()[0]
    if rest.size:
        s = np.linalg.svd(Ms[rest], compute_uv=False)
        informative[rest] = ~((s[:, 0] == 0.0)
                              | (s[:, -1] <= _DET_COND_FLOOR * s[:, 0]))
    return sign, informative & (sign != 0.0)


def _planes_through(pts: np.ndarray):
    """(H, trusted): row i of H is (w, -offset), |w| = 1, of the plane
    w . x = offset through the d points pts[i] in R^d, NaN where untrusted:
    the null vector c of A = [pts[i] | 1], c_j = (-1)^j det of A without
    column j.  LU gets each minor within about d u R (u = 2**-53, R the
    product of A's row norms, Hadamard's bound; at most 0.64 u R measured
    for d = 2..5).  Where |c[:d]| >= _MINOR_FLOOR * R, the plane's values
    at points of max-norm 1 err by at most about 3 (d + 1) d u /
    _MINOR_FLOOR, 1e-9 at d = 5: a thousandth of the polyline screen's
    1e-6 band.  Affinely dependent points are untrusted."""
    n, d = pts.shape[:2]
    At = np.concatenate([pts, np.ones((n, d, 1))], axis=2).transpose(0, 2, 1)
    cols = np.arange(d)
    c = np.linalg.det(At[:, cols + (cols >= np.arange(d + 1)[:, None])])
    c[:, 1::2] *= -1.0
    w2 = np.einsum("ni,ni->n", c[:, :d], c[:, :d])
    R2 = np.prod(np.einsum("nij,nij->ni", pts, pts) + 1.0, axis=1)
    trusted = w2 >= _MINOR_FLOOR ** 2 * R2
    return c / np.sqrt(np.where(trusted, w2, np.nan))[:, None], trusted


def _increasing_tuples(m: int, k: int) -> np.ndarray:
    """All C(m, k) increasing k-tuples of range(m), 1 <= k <= m, as rows of
    an intp array in the order of itertools.combinations.  Built a column
    at a time: each row repeats once per choice of its next entry."""
    T = np.arange(m - k + 1)[:, None]
    for j in range(1, k):
        last = T[:, -1]
        counts = m - k + j - last  # next entry: last + 1 .. m - k + j
        rows = np.repeat(np.arange(len(T)), counts)
        starts = np.cumsum(counts) - counts
        T = np.column_stack([T[rows], last[rows] + 1 + np.arange(rows.size) - starts[rows]])
    return T
