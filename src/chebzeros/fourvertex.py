"""Ovals described by their support function, curvature-radius extrema,
and ratio comparisons between two ovals.

An oval with support function h(a) = h0 + sum(a_m cos ma + b_m sin ma)
has curvature radius R = h + h'' = h0 + sum((1 - m^2)(...)), which kills
the first harmonic: R is automatically orthogonal to cos and sin on the
circle.  Constants plus first harmonics form an order-3 system there, so
R - mean (and more generally the difference against a second oval's R)
must change sign at least 4 times, giving at least 4 curvature extrema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import funcspace as fs

_VALIDATE_GRID = 4096
ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class OvalSupport:
    """Support function h0 + sum over m of a_m cos(ma) + b_m sin(ma).

    coeffs[m-1] = (a_m, b_m).  Both h and the curvature radius h + h''
    must be strictly positive; checked on a dense grid at construction.
    """

    h0: float
    coeffs: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "h0", float(self.h0))
        cf = tuple((float(a), float(b)) for a, b in self.coeffs)
        object.__setattr__(self, "coeffs", cf)
        if not np.isfinite(self.h0) or self.h0 <= 0:
            raise ValueError("h0 must be positive")
        if not np.isfinite(cf).all():
            raise ValueError("coefficients must be finite")
        ts = fs.circle().grid(_VALIDATE_GRID)
        if np.min(self._h(ts)) <= 0:
            raise ValueError("support function must stay positive")
        if np.min(self._R(ts)) <= 0:
            raise ValueError("oval must be strictly convex: h + h'' > 0")

    def _h(self, ts):
        return fs._trig_series(ts, self.h0, self.coeffs)

    def _R(self, ts):
        return fs._trig_series(ts, self.h0, self.coeffs, curvature=True)

    @property
    def is_circle(self) -> bool:
        return all(a == 0.0 and b == 0.0 for a, b in self.coeffs)


def radius_of_curvature(oval: OvalSupport) -> fs.Func1D:
    """R = h + h'' as a function of the normal angle; strictly positive
    by the construction invariant."""
    return fs.Func1D(oval._R, label="R")


def verify_R_orthogonality(oval: OvalSupport):
    """Residuals of R against the first harmonics; both are structurally
    zero whatever the coefficients, since h + h'' has no m=1 term."""
    ts, ws = fs.quad_nodes(fs.circle())
    R = fs.sample(radius_of_curvature(oval), ts)
    # the quadrature nodes are the 1024-point circle grid, which the table
    # keeps: its m = 1 row is np.cos(1 * ts), np.cos(ts)'s floats
    (c, s), = fs._harmonics(ts, 1)
    rc = abs(float(ws @ (R * c)))
    rs = abs(float(ws @ (R * s)))
    return rc, rs


@dataclass(frozen=True)
class FourVertexReport:
    passed: bool
    extrema: int
    bound: int
    degenerate: bool = False


def four_vertex_check(oval: OvalSupport,
                      grid_n: int = fs.DEFAULT_GRID_N) -> FourVertexReport:
    """The curvature radius of an oval attains at least 4 local extrema.
    A circle (constant R) is flagged degenerate and passes vacuously."""
    rep = fs.count_extrema(radius_of_curvature(oval), fs.circle(), grid_n)
    if rep.degenerate:
        return FourVertexReport(True, 0, 4, degenerate=True)
    return FourVertexReport(rep.count >= 4, rep.count, 4)


@dataclass(frozen=True)
class BlaschkeReport:
    passed: bool
    extrema: int
    bound: int
    degenerate: bool = False
    reduces_to_four_vertex: bool = False


def blaschke_ratio_check(o1: OvalSupport, o2: OvalSupport,
                         grid_n: int = fs.DEFAULT_GRID_N) -> BlaschkeReport:
    """The ratio of curvature radii of two ovals, matched by normal
    angle, attains at least 4 local extrema unless proportional.

    Against a circle the ratio is R1 over a constant, so the count
    coincides exactly with the plain curvature-extrema count of o1.
    """
    R1, R2 = o1._R, o2._R

    def ratio(ts):
        return R1(ts) / R2(ts)

    rep = fs.count_extrema(fs.Func1D(ratio, "R1/R2"), fs.circle(), grid_n)
    reduces = o2.is_circle
    if rep.degenerate:
        return BlaschkeReport(True, 0, 4, degenerate=True,
                              reduces_to_four_vertex=reduces)
    return BlaschkeReport(rep.count >= 4, rep.count, 4,
                          reduces_to_four_vertex=reduces)


def random_oval(harmonics: int, amplitude: float,
                rng_seed: int = 0) -> OvalSupport:
    """Random spectrum scaled so sum(m^2 ||(a_m, b_m)||) = amplitude;
    any amplitude below 1 guarantees both positivity constraints.
    Amplitude 0 gives the unit circle."""
    if harmonics < 0:
        raise ValueError("harmonics must be >= 0")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must lie in [0, 1)")
    if harmonics == 0 or amplitude == 0.0:
        return OvalSupport(1.0)
    rng = fs.derived_rng(rng_seed, harmonics, 7)
    raw = rng.standard_normal((harmonics, 2))
    m = np.arange(1, harmonics + 1, dtype=float)
    total = float(np.sum(m * m * np.linalg.norm(raw, axis=1)))
    raw *= amplitude / total
    return OvalSupport(1.0, tuple((row[0], row[1]) for row in raw))
