"""Small dense-matrix helpers of the synthesis modules, the determinant-sign
kernel of the Chebyshev and polyline tests, and the one kernel of planes
through points."""

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
    """(H, trusted) for a stack pts (n, d, d) of d finite points in R^d: row
    i of H is (w, -offset), |w| = 1, of the plane w . x = offset through
    pts[i], NaN where |offset| >= 1e12 |w| (affinely dependent points;
    coincident ones can instead give a plane of rounding-level share).
    With A = [pts[i] / s | 1], s = max |pts[i]|, c_j = det [A; e_j] is a
    null vector of A (A c is a determinant with a repeated row), and its
    share is |c[:d]| / R, R the product of A's row norms (Hadamard's
    bound).  LU errs by about d u R (u = 2**-53) on each c_j, so a row is
    trusted where its share >= _MINOR_FLOOR: its values at points of
    max-norm s then err by at most about 3 (d + 1) d u s / _MINOR_FLOOR,
    1e-9 s at d = 5."""
    n, d = pts.shape[:2]
    s = np.abs(pts).reshape(n, d * d).max(axis=1, initial=np.finfo(float).tiny)
    X = pts / s[:, None, None]
    M = np.empty((n, d + 1, d + 1, d + 1))  # every entry is set below
    M[:, :, :d, :d], M[:, :, :d, d], M[:, :, d] = X[:, None], 1.0, np.eye(d + 1)
    c = np.linalg.det(M)
    w2 = c[:, 0] * c[:, 0]
    for j in range(1, d):
        w2 += c[:, j] * c[:, j]
    nrm = np.sqrt(w2)
    c /= np.where(np.abs(c[:, d]) * s < 1e12 * nrm, nrm, np.nan)[:, None]
    c[:, d] *= s
    R2 = np.prod(np.einsum("nij,nij->ni", X, X) + 1.0, axis=1)
    return c, np.sqrt(w2 / R2) >= _MINOR_FLOOR

