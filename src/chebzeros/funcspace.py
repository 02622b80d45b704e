"""Domains, scalar functions, basis evaluation, quadrature, and
sign-change counting.  A Basis (built by as_basis) holds Func1D members
and one matrix(ts) callable, filled column by column for a plain list;
basis_matrix, one checked call of it, is the one way to evaluate a basis.

Every integral and zero count in the package flows through this module,
so both conventions are fixed here once.  Integrals use one quadrature
rule (see quad_nodes and segment_rule).  Counts sample on a uniform
grid, mark samples whose magnitude is within DEFAULT_TOL_REL of the
overall maximum, collapse maximal runs of marked samples, and count
transitions between opposite strict signs.  Counts on a circle are
cyclic, which makes them even for any function that is not numerically
zero.  Three entry points apply the rules to grid values a caller has
already sampled: count_grid_sign_changes (a bare count),
grid_sign_report and grid_extrema_report (full reports).

A count costs one grid evaluation of f.  Transition locations are
sharpened by bisection between the bracketing grid samples, but only
when a report's `locations` is first read; callers that need only the
count (every lower bound in the package) never evaluate f between grid
points.  Bisection stops once every bracket has shrunk to float
resolution, where further halvings could not move it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

INTERVAL = "interval"
CIRCLE = "circle"

DEFAULT_GRID_N = 2048
DEFAULT_TOL_REL = 1e-9

# cap on halvings of a grid cell; a double-precision bracket reaches float
# resolution after about 52, where bisection stops early
_BISECT_ITERS = 60


def derived_rng(seed, *keys):
    """Deterministic generator keyed by (seed, key, ...).

    Trials seeded as derived_rng(seed, trial_index) do not depend on
    execution order, so sequential and parallel sweeps see identical
    streams.
    """
    material = [int(seed) % (2 ** 63)] + [int(k) % (2 ** 63) for k in keys]
    return np.random.default_rng(material)


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class Domain:
    """A 1-D parameter domain: an open interval (a, b) or the circle R/2piZ.

    The circle is always parameterized over [0, 2pi); its endpoints are
    fixed and functions on it are treated as 2pi-periodic.
    """

    kind: str
    a: float = 0.0
    b: float = TWO_PI

    def __post_init__(self):
        if self.kind == INTERVAL:
            if not (math.isfinite(self.a) and math.isfinite(self.b)):
                raise ValueError("interval endpoints must be finite")
            if not self.a < self.b:
                raise ValueError(f"interval needs a < b, got ({self.a}, {self.b})")
        elif self.kind == CIRCLE:
            if self.a != 0.0 or self.b != TWO_PI:
                raise ValueError("circle domain is fixed to [0, 2pi)")
        else:
            raise ValueError(f"unknown domain kind {self.kind!r}")

    @property
    def is_circle(self) -> bool:
        return self.kind == CIRCLE

    @property
    def span(self) -> float:
        return self.b - self.a

    def wrap(self, t):
        """Map parameters to the canonical range (mod 2pi on the circle)."""
        if self.is_circle:
            return np.mod(t, TWO_PI)
        return t

    def all_inside(self, ts) -> bool:
        """True when every point lies strictly inside the domain."""
        ts = np.asarray(ts, dtype=float)
        if self.is_circle:
            return bool(np.all((ts >= 0.0) & (ts < TWO_PI)))
        return bool(np.all((ts > self.a) & (ts < self.b)))

    def grid(self, n: int) -> np.ndarray:
        """Uniform sample grid: cell centers on an interval, n equally
        spaced points starting at 0 on the circle (endpoint excluded)."""
        if n < 2:
            raise ValueError("grid needs at least 2 points")
        if self.is_circle:
            return np.arange(n) * (TWO_PI / n)
        h = self.span / n
        return self.a + h * (np.arange(n) + 0.5)


def interval(a: float, b: float) -> Domain:
    return Domain(INTERVAL, float(a), float(b))


def circle() -> Domain:
    return Domain(CIRCLE)


# ---------------------------------------------------------------------------
# functions


@dataclass(frozen=True)
class Func1D:
    """A real function of one real parameter.

    eval should accept an ndarray and return an ndarray of the same
    shape; scalar-only callables (raising TypeError or returning the
    wrong shape on an array) are tolerated through sample(), at the
    cost of a Python loop.  Values must be finite on the domain.
    """

    eval: Callable
    label: str = ""

    def __call__(self, t):
        return self.eval(t)


def sample(f: Func1D, ts) -> np.ndarray:
    """Evaluate f on an array of parameters.

    Falls back to one call per point only when the array call raises
    TypeError or returns the wrong shape (a scalar-only callable); any
    other exception from f propagates.
    """
    ts = np.asarray(ts, dtype=float)
    try:
        vals = np.asarray(f.eval(ts), dtype=float)
    except TypeError:
        vals = None
    if vals is None or vals.shape != ts.shape:
        flat = np.array([float(f.eval(t)) for t in ts.ravel()])
        vals = flat.reshape(ts.shape)
    if not np.isfinite(vals).all():
        raise ValueError(f"function {f.label or '<anon>'} returned non-finite values")
    return vals


def constant(c: float, label: str = "") -> Func1D:
    c = float(c)
    return Func1D(lambda t, c=c: np.full_like(np.asarray(t, dtype=float), c),
                  label or f"{c:g}")


def product(f: Func1D, g: Func1D, label: str = "") -> Func1D:
    return Func1D(lambda t: sample(f, t) * sample(g, t),
                  label or f"({f.label})*({g.label})")


class Basis(tuple):
    """Func1D members with one matrix(ts) -> (len(ts), len(basis)) callable:
    the producer's fill(ts) when it gave one, else one sample per column."""

    def __new__(cls, funcs, fill: Callable | None = None):
        self = super().__new__(cls, funcs)
        self._fill = fill
        return self

    def matrix(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float).ravel()
        if self._fill is not None:
            return self._fill(ts)
        M = np.empty((ts.size, len(self)))
        for j, f in enumerate(self):
            M[:, j] = sample(f, ts)
        return M


def as_basis(funcs: Sequence[Func1D]) -> Basis:
    return funcs if isinstance(funcs, Basis) else Basis(funcs)


def basis_matrix(funcs: Sequence[Func1D], ts) -> np.ndarray:
    """as_basis(funcs).matrix(ts), checked: a (len(ts), len(funcs)) matrix,
    one row per node and one column per function, all finite."""
    ts = np.asarray(ts, dtype=float).ravel()
    M = as_basis(funcs).matrix(ts)
    if M.shape != (ts.size, len(funcs)) or not np.isfinite(M).all():
        raise ValueError("basis matrix has the wrong shape or non-finite values")
    return M


def combination(funcs: Sequence[Func1D], coeffs, label: str = "") -> Func1D:
    """Linear combination sum_j coeffs[j] * funcs[j]."""
    coeffs = np.asarray(coeffs, dtype=float)
    if len(funcs) != coeffs.size:
        raise ValueError("combination needs one coefficient per function")
    funcs = as_basis(funcs)
    return Func1D(lambda t: (basis_matrix(funcs, t) @ coeffs).reshape(np.shape(t)),
                  label or "combo")


# ---------------------------------------------------------------------------
# quadrature
#
# One fixed rule: a periodic trapezoid rule of CIRCLE_NODES nodes on the
# circle, GAUSS_PANELS composite Gauss-Legendre panels of PANEL_NODES
# nodes on an interval.  Segment rules are Gauss panels at the same node
# density as the domain rule.

CIRCLE_NODES = 1024
GAUSS_PANELS = 32
PANEL_NODES = 16


@lru_cache(maxsize=1)
def _gauss_panel():
    # on first use, so that importing the package skips numpy.polynomial
    return np.polynomial.legendre.leggauss(PANEL_NODES)


def gauss_rule_on(lo: float, hi: float, panels: int):
    """Composite Gauss-Legendre nodes and weights on [lo, hi]."""
    if hi <= lo:
        raise ValueError("empty integration range")
    x, w = _gauss_panel()
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    ts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return ts, ws


def quad_nodes(dom: Domain):
    """Nodes and weights of the quadrature rule over the whole domain."""
    if dom.is_circle:
        n = CIRCLE_NODES
        return np.arange(n) * (TWO_PI / n), np.full(n, TWO_PI / n)
    return gauss_rule_on(dom.a, dom.b, GAUSS_PANELS)


def integrate(f: Func1D, dom: Domain) -> float:
    ts, ws = quad_nodes(dom)
    return float(ws @ sample(f, ts))


def inner_product(f: Func1D, g: Func1D, rho: Func1D | None, dom: Domain) -> float:
    """integral of f*g*rho over the domain (rho = None means weight 1)."""
    ts, ws = quad_nodes(dom)
    vals = sample(f, ts) * sample(g, ts)
    if rho is not None:
        vals = vals * sample(rho, ts)
    return float(ws @ vals)


def segment_rule(dom: Domain, lo: float, hi: float):
    """Gauss nodes and weights on one segment of the domain, at least 2
    panels.

    On the circle the segment may extend past 2pi; nodes are wrapped so
    periodic functions can be evaluated directly.
    """
    domain_nodes = CIRCLE_NODES if dom.is_circle else GAUSS_PANELS * PANEL_NODES
    frac = max((hi - lo) / dom.span, 1e-12)
    panels = max(2, int(math.ceil(domain_nodes * frac / PANEL_NODES)))
    ts, ws = gauss_rule_on(lo, hi, panels)
    return dom.wrap(ts), ws


def rule_with_breaks(dom: Domain, breaks):
    """Nodes and weights over the whole domain, with Gauss panels split at
    the given interior break parameters (the plain domain rule when there
    are none).  Use when the integrand has kinks or a step factor."""
    breaks = np.sort(np.asarray(breaks, dtype=float))
    if breaks.size == 0:
        return quad_nodes(dom)
    if not dom.all_inside(breaks):
        raise ValueError("breaks must lie strictly inside the domain")
    if dom.is_circle:
        edges = np.concatenate([breaks, [breaks[0] + TWO_PI]])
    else:
        edges = np.concatenate([[dom.a], breaks, [dom.b]])
    ts, ws = zip(*[segment_rule(dom, lo, hi)
                   for lo, hi in zip(edges[:-1], edges[1:])
                   if hi - lo > 1e-15 * dom.span])
    return np.concatenate(ts), np.concatenate(ws)


def integrate_with_breaks(f: Func1D, dom: Domain, breaks) -> float:
    """Integrate f over the domain by rule_with_breaks."""
    ts, ws = rule_with_breaks(dom, breaks)
    return float(ws @ sample(f, ts))


# ---------------------------------------------------------------------------
# sign-change and extremum counting


@dataclass(frozen=True, eq=False)
class SignChangeReport:
    """Count of strict sign transitions with their refined locations.

    count and degenerate come from one pass over the sample grid.
    locations is computed by bisection on its first read and cached, so
    the same array comes back on every later read; refinement stops once
    every bracket has reached float resolution.  A caller that reads only
    count never evaluates f between grid points, so a non-finite value
    of f there raises ValueError only when locations is read.

    locations is sorted increasing (representatives in [0, 2pi) on the
    circle) and has length == count.  degenerate flags inputs that were
    numerically zero (for sign counting) or numerically constant (for
    extremum counting); the count is 0 in that case.
    """

    count: int
    _locate: Callable[[], np.ndarray] = field(repr=False)
    degenerate: bool = False

    @cached_property
    def locations(self) -> np.ndarray:
        return self._locate()


def _no_roots() -> np.ndarray:
    return np.empty(0)


def _check_count_args(grid_n: int) -> None:
    if grid_n < 64:
        raise ValueError("grid_n must be at least 64")


def _sign_transitions(vals: np.ndarray, cyclic: bool):
    """Index arrays (ii, jj) of consecutive surviving samples with
    opposite sign, and whether the input is degenerate.

    Samples with |v| <= DEFAULT_TOL_REL * max|v| are dropped first, which
    collapses each zero run to the single transition across it.  An
    input with no surviving sample (empty, zero or NaN) is degenerate and
    gives empty integer arrays.
    """
    vmax = float(np.max(np.abs(vals))) if vals.size else 0.0
    keep = np.nonzero(np.abs(vals) > DEFAULT_TOL_REL * vmax)[0]
    if keep.size == 0:
        none = np.empty(0, dtype=int)
        return none, none, True
    s = np.sign(vals[keep])
    flips = np.nonzero(s[:-1] != s[1:])[0]
    ii, jj = keep[flips], keep[flips + 1]
    if cyclic and keep.size >= 2 and s[-1] != s[0]:
        ii = np.append(ii, keep[-1])
        jj = np.append(jj, keep[0])
    return ii, jj, False


def count_grid_sign_changes(vals, cyclic: bool) -> int:
    """Sign transitions of precomputed grid values under the counting
    rule of count_sign_changes (cyclic on a circle); 0 when every value
    is dropped as numerically zero."""
    ii, _, _ = _sign_transitions(np.asarray(vals, dtype=float), cyclic)
    return ii.size


def _bisect_roots(fvals: Callable, los: np.ndarray, his: np.ndarray,
                  slos: np.ndarray) -> np.ndarray:
    """Vectorized bisection: each (lo, hi) brackets one sign transition,
    slos holds the sign at lo.  fvals maps an array of parameters to
    values.

    Stops early once every midpoint rounds onto an end of its bracket:
    the sign at each end is already known, so later halvings would leave
    every bracket, and the result, bit for bit as it is.
    """
    los = los.copy()
    his = his.copy()
    for _ in range(_BISECT_ITERS):
        mids = 0.5 * (los + his)
        if np.all((mids == los) | (mids == his)):
            break
        vm = fvals(mids)
        same = np.sign(vm) == slos
        los = np.where(same, mids, los)
        his = np.where(same, his, mids)
    return 0.5 * (los + his)


def _root_finder(fvals: Callable, dom: Domain, ts: np.ndarray,
                 vals: np.ndarray, ii: np.ndarray,
                 jj: np.ndarray) -> Callable[[], np.ndarray]:
    """Deferred bisection of the transitions (ii, jj) found on (ts, vals):
    the returned callable yields the sorted roots of fvals."""
    los = ts[ii]
    his = ts[jj]
    his = np.where(his <= los, his + TWO_PI, his)  # only the cyclic closing pair
    slos = np.sign(vals[ii])
    return lambda: np.sort(dom.wrap(_bisect_roots(fvals, los, his, slos)))


def count_sign_changes(f: Func1D, dom: Domain,
                       grid_n: int = DEFAULT_GRID_N) -> SignChangeReport:
    """Count strict sign changes of f on the domain.

    Parameters
    ----------
    f, dom : the function and its domain.
    grid_n : uniform sample count (>= 64).

    A sample within DEFAULT_TOL_REL of the largest magnitude counts as
    zero.  Zero runs collapse to one transition when the signs on both sides
    differ and to none when they agree, so tangential touches are not
    counted.  Circle counts are cyclic.  The count costs one evaluation
    of f on the grid; locations are refined by bisection when first
    read, and reported sorted.
    """
    _check_count_args(grid_n)
    ts = dom.grid(grid_n)
    return grid_sign_report(f, dom, ts, sample(f, ts))


def grid_sign_report(f: Func1D, dom: Domain, ts: np.ndarray,
                     vals: np.ndarray) -> SignChangeReport:
    """count_sign_changes from f's values vals on the grid ts =
    dom.grid(n), for a caller that has sampled them already; locations
    are refined from f when first read."""
    ii, jj, degenerate = _sign_transitions(vals, dom.is_circle)
    if degenerate:
        return SignChangeReport(0, _no_roots, True)
    roots = _root_finder(lambda m: sample(f, dom.wrap(m)), dom, ts, vals, ii, jj)
    return SignChangeReport(ii.size, roots, False)


def count_extrema(f: Func1D, dom: Domain,
                  grid_n: int = DEFAULT_GRID_N) -> SignChangeReport:
    """Count local extrema of f as sign changes of a central-difference
    derivative.

    On an interval the two endpoints always count as extrema and appear
    in locations; on the circle the count is cyclic (hence even).  A
    numerically constant f (range within DEFAULT_TOL_REL of its scale) comes
    back degenerate with count 0.  As for count_sign_changes, locations
    are refined only when first read.
    """
    _check_count_args(grid_n)
    ts = dom.grid(grid_n)
    return grid_extrema_report(f, dom, ts, sample(f, ts))


def grid_extrema_report(f: Func1D, dom: Domain, ts: np.ndarray,
                        vals: np.ndarray) -> SignChangeReport:
    """count_extrema from f's values vals on the grid ts = dom.grid(n),
    for a caller that has sampled them already; locations are refined
    from f when first read."""
    fscale = float(np.max(np.abs(vals))) if vals.size else 0.0
    if fscale == 0.0 or float(np.ptp(vals)) <= DEFAULT_TOL_REL * fscale:
        return SignChangeReport(0, _no_roots, True)

    h = dom.span / ts.size
    if dom.is_circle:
        dv = (np.roll(vals, -1) - np.roll(vals, 1)) / (2.0 * h)
        dts = ts
    else:
        dv = (vals[2:] - vals[:-2]) / (2.0 * h)
        dts = ts[1:-1]
    ii, jj, degenerate = _sign_transitions(dv, dom.is_circle)
    if degenerate and dom.is_circle:
        return SignChangeReport(0, _no_roots, True)
    # a degenerate derivative on an interval leaves no transitions: f is
    # monotone and only the endpoint extrema remain

    def dfun(m):
        return (sample(f, dom.wrap(m + h)) - sample(f, dom.wrap(m - h))) / (2.0 * h)

    roots = _root_finder(dfun, dom, dts, dv, ii, jj)
    if dom.is_circle:
        return SignChangeReport(ii.size, roots, False)
    return SignChangeReport(
        ii.size + 2,
        lambda: np.concatenate([[dom.a], roots(), [dom.b]]), False)
