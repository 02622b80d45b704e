"""Ovals described by their support function, curvature-radius extrema,
and ratio comparisons between two ovals.

An oval with support function h(a) = h0 + sum(a_m cos ma + b_m sin ma)
has curvature radius R = h + h'' = h0 + sum((1 - m^2)(...)), which kills
the first harmonic: R is automatically orthogonal to cos and sin on the
circle.  Constants plus first harmonics form an order-3 system there, so
R - mean (and more generally the difference against a second oval's R)
must change sign at least 4 times, giving at least 4 curvature extrema.

The same harmonics bound h and R from below, so most ovals are shown
to be ovals from their coefficients alone; only the rest are sampled.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import funcspace as fs

_VALIDATE_GRID = 4096
ORTHO_TOL = 1e-10


def _positivity_certified(h0: float, coeffs) -> bool:
    """True when the coefficients alone show that h and R, as
    fs._trig_series computes them on the validation grid, are all > 0.

    |a cos x + b sin x| <= hypot(a, b) for every x, so with K harmonics
    h >= h0 - S1, S1 = sum of hypot(a_m, b_m), and R >= h0 - S2, S2 =
    sum of (m^2 - 1) hypot(a_m, b_m).  On the grid, term m is evaluated
    at x = fl(m t), and the bound holds for that x as for any other.
    With u = 2**-53 and B = h0 + sum of m^2 (|a_m| + |b_m|) (scale
    below), the floats of _trig_series differ from the exact sums at
    those x by at most (eta + 2 (K + 4) u) B: eta = 2**-45 = 256 u is the
    error allowed np.cos and np.sin (they are within a few ulp, about
    2**-51), each part of a term is rounded at most 3 times, and the
    series takes K additions.  Rounding S1, S2 and B here costs at most
    2 (K + 4) u B more.  eps = (K + 128) 2**-50 = (8 K + 1024) u is over
    twice the sum of both, so a lower bound above eps B makes every grid
    value > 0: the grid check would have accepted.  Once K u nears 1/8,
    eps > 1 and nothing passes.  An overflowing sum (inf, or NaN from
    0 * inf) fails the comparison."""
    s1 = s2 = 0.0
    scale = h0
    for m, (a, b) in enumerate(coeffs, start=1):
        r = math.hypot(a, b)
        s1 += r
        s2 += (m * m - 1) * r
        scale += m * m * (abs(a) + abs(b))
    eps = (len(coeffs) + 128) * 2.0 ** -50
    return h0 - s1 > eps * scale and h0 - s2 > eps * scale


@dataclass(frozen=True)
class OvalSupport:
    """Support function h0 + sum over m of a_m cos(ma) + b_m sin(ma).

    coeffs[m-1] = (a_m, b_m).  Both h and the curvature radius h + h''
    must be strictly positive.  At construction, a lower bound from the
    coefficients settles this for most ovals (see _positivity_certified);
    the others are checked on a 4096-point grid.  Either way an oval is
    accepted exactly when both are positive on that grid.
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
        if _positivity_certified(self.h0, cf):
            return
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
        """True for a circle, centred or not: a first harmonic only
        translates the oval, so every harmonic m >= 2 must be zero, and
        then R = h0 is constant."""
        return all(a == 0.0 and b == 0.0 for a, b in self.coeffs[1:])


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
    any amplitude below 1 guarantees both positivity constraints, and
    OvalSupport certifies them from the coefficients without sampling
    unless the amplitude lies within about 1e-12 of 1.  Amplitude 0
    gives the unit circle."""
    if isinstance(harmonics, bool) or not isinstance(harmonics, numbers.Integral):
        raise ValueError(f"harmonics must be an integer, got {harmonics!r}")
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
