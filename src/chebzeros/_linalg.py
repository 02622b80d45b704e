"""Small dense-matrix helpers shared by the synthesis modules, and the one
determinant-sign kernel of the Chebyshev and polyline tests."""

from __future__ import annotations

import math

import numpy as np

RANK_RTOL = 1e-10  # singular values at or below RANK_RTOL * s_max count as zero
# determinant signs of matrices this close to singular are not trusted
_DET_COND_FLOOR = 1e-12
_LOG_SURE_RATIO = math.log(100.0 * _DET_COND_FLOOR)


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
