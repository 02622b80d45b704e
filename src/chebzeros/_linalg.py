"""Small dense-matrix helpers shared by the synthesis modules."""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-10  # singular values at or below RANK_RTOL * s_max count as zero


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
