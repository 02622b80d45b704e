"""Curves in R^d: catalog, convexity via hyperplane slicing, restricted
polynomial systems, orthogonal synthesis, and center-of-mass corollaries.

A curve is convex when no hyperplane meets it in more than d points,
counting tangential touches by their perturbation multiplicity.  On such
a curve the restrictions of low-degree polynomials behave like a
Chebyshev system, which turns every construction from the 1-D modules
into a statement about slicing: orthogonal functions must cross many
hyperplanes, and orthogonal synthesis on moment and trig curves shows
the nd + 1 bound sharp.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from . import funcspace as fs
from ._linalg import (RANK_RTOL, _planes_through, fix_leading_sign, smallest_direction,
                      svd_kernel)
from .annihilator import default_annihilator
from .chebsys import (COUNTEREXAMPLE, DEFAULT_TRIALS, NO_VIOLATION, ChebVerdict,
                      _chebyshev_probes, _check_trials, _span_rank, _span_rows,
                      dimension_estimate)
from .exceptions import NotChebyshevError
from .orthosynth import (RESIDUAL_TOL, StepWeight, ZeroBoundReport, _step_edges,
                         _zero_bound, moments_on_edges)

_MULT_SCALES = (1.0, 0.1, 0.01)
_CENTER_GAP_TOL = 1e-8  # center-of-mass mismatch per unit diameter


@dataclass(frozen=True)
class CurveRd:
    """Parametrized curve t -> x(t) in R^d.

    eval maps a 1-d parameter array to an (len, d) coordinate array.  A
    circle domain means the curve is closed; closed curves only make
    sense in even dimensions (an odd-dimensional one cannot cut every
    hyperplane an even number of times while staying within d), so an
    odd-d closed curve draws a warning.
    """

    eval: Callable
    d: int
    dom: fs.Domain
    label: str = ""

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("ambient dimension must be at least 2")
        if self.dom.is_circle and self.d % 2 == 1:
            warnings.warn("closed curves in odd dimension cannot be convex; "
                          "checks will report violations", stacklevel=3)

    def __call__(self, ts):
        return curve_points(self, ts)


def curve_points(curve: CurveRd, ts) -> np.ndarray:
    """Evaluate the curve on an array of parameters, (len, d) result."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    P = np.asarray(curve.eval(ts), dtype=float)
    if P.shape != (ts.size, curve.d):
        raise ValueError(f"curve eval returned shape {P.shape}, "
                         f"expected {(ts.size, curve.d)}")
    if not np.all(np.isfinite(P)):
        raise ValueError("curve eval produced non-finite coordinates")
    return P


def affine_image(curve: CurveRd, A, b=None) -> CurveRd:
    """The curve mapped through x -> A x + b.  A must be square and
    nonsingular, so convexity and the spanned function space survive."""
    A = np.asarray(A, dtype=float)
    d = curve.d
    off = np.zeros(d) if b is None else np.asarray(b, dtype=float)
    if A.shape != (d, d):
        raise ValueError(f"A must be {d}x{d}")
    if off.shape != (d,):
        raise ValueError(f"b must have length {d}")
    if not (np.isfinite(A).all() and np.isfinite(off).all()):
        raise ValueError("A and b must be finite")
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] <= RANK_RTOL * s[0]:
        raise ValueError("A must be nonsingular")

    def ev(ts, curve=curve, A=A, off=off):
        return curve_points(curve, ts) @ A.T + off

    return CurveRd(ev, d, curve.dom, label=f"affine({curve.label})")


# ---------------------------------------------------------------------------
# catalog


def moment_curve(d: int, a: float = -1.0, b: float = 1.0) -> CurveRd:
    """(t, t^2, ..., t^d): the basic convex curve on an interval, as
    left-to-right products (fs._int_powers; pow is slow on negative bases)."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return CurveRd(lambda ts: fs._int_powers(ts, d)[:, 1:], d,
                   fs.interval(a, b), f"moment:{d}")


def trig_curve(k: int) -> CurveRd:
    """(cos t, sin t, ..., cos kt, sin kt): closed convex curve in R^{2k}, the
    trig system's matrix without its constant, copied C-contiguous (BLAS
    can round a product with a strided sample differently)."""
    if k < 1:
        raise ValueError("need at least one harmonic")
    return CurveRd(lambda ts: np.ascontiguousarray(fs._trig_terms(ts, k)[:, 1:]),
                   2 * k, fs.circle(), f"trig:{k}")


def power_curve(alphas, a: float, b: float) -> CurveRd:
    """(t^a1, ..., t^ad), 0 < a < b: the power system's matrix minus its constant."""
    al = np.asarray(alphas, dtype=float)
    if al.ndim != 1 or al.size < 2:
        raise ValueError("need at least two exponents")
    if np.any(al <= 0) or np.any(np.diff(al) <= 0):
        raise ValueError("exponents must be positive and strictly increasing")
    if not 0 < a < b:
        raise ValueError("power curves need 0 < a < b")
    return CurveRd(lambda ts: np.column_stack([ts ** x for x in al]), al.size,
                   fs.interval(a, b), "power")


def exp_graph(a: float = -1.0, b: float = 1.0) -> CurveRd:
    return CurveRd(lambda ts: np.stack([ts, np.exp(ts)], axis=1), 2,
                   fs.interval(a, b), "expgraph")


def sine_graph(c: float = 6.0, a: float = 0.2, b: float | None = None) -> CurveRd:
    """(t, sin t + c): NOT convex once b - a > pi (an inflection fits
    inside), yet the homogeneous pair {t, sin t + c} stays Chebyshev of
    order 2 for large enough c.  The default window spans 1.4*pi."""
    if b is None:
        b = a + 1.4 * np.pi
    return CurveRd(lambda ts: np.stack([ts, np.sin(ts) + c], axis=1), 2,
                   fs.interval(a, b), "sinegraph")


def smoothed_polygon(m: int, r_frac: float = 0.1) -> CurveRd:
    """Regular m-gon (circumradius 1) with corners rounded by arcs of
    radius r_frac * apothem, parametrized by arc length over [0, 2pi).

    With corner radius r = r_frac * cos(pi/m) the tangency points cut
    each edge at fraction r_frac from its ends, so any r_frac in (0, 1)
    gives a valid C^1 convex closed curve.  Distances from the center
    range over [cos(pi/m), 1 - r_frac*(1 - cos(pi/m))]: circles of
    intermediate radius cross the boundary 2m times.
    """
    if m < 3:
        raise ValueError("need at least 3 sides")
    if not 0.0 < r_frac < 1.0:
        raise ValueError("corner fraction must lie in (0, 1)")
    apothem = np.cos(np.pi / m)
    r = r_frac * apothem
    theta = fs.TWO_PI * np.arange(m) / m
    V = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    C = (1.0 - r_frac) * V  # rounding-arc centers
    nxt = (np.arange(m) + 1) % m
    edge = V[nxt] - V
    # tangency fraction along each edge is r_frac itself
    A = V + r_frac * 0.5 * edge          # arc exit near V[i]
    B = V[nxt] - r_frac * 0.5 * edge     # arc entry near V[i+1]
    seg_len = (1.0 - r_frac) * float(np.linalg.norm(edge[0]))
    arc_len = r * fs.TWO_PI / m
    lens = np.empty(2 * m)
    lens[0::2] = seg_len
    lens[1::2] = arc_len
    t_edges = np.concatenate([[0.0], np.cumsum(lens)]) * (fs.TWO_PI / lens.sum())
    # arc at vertex j runs from B[j-1] to A[j], centered at C[j]
    start_vec = B[np.arange(m) - 1] - C
    phi0 = np.arctan2(start_vec[:, 1], start_vec[:, 0])
    sweep = fs.TWO_PI / m

    def ev(ts):
        t = np.mod(ts, fs.TWO_PI)
        idx = np.clip(np.searchsorted(t_edges, t, side="right") - 1, 0, 2 * m - 1)
        frac = (t - t_edges[idx]) / (t_edges[idx + 1] - t_edges[idx])
        out = np.empty((t.size, 2))
        seg = idx % 2 == 0
        i = idx // 2
        if np.any(seg):
            si, sf = i[seg], frac[seg]
            out[seg] = A[si] + sf[:, None] * (B[si] - A[si])
        if np.any(~seg):
            aj = (i[~seg] + 1) % m
            phi = phi0[aj] + frac[~seg] * sweep
            out[~seg] = C[aj] + r * np.stack([np.cos(phi), np.sin(phi)], axis=1)
        return out

    return CurveRd(ev, 2, fs.circle(), f"smoothedpolygon:{m}")


# ---------------------------------------------------------------------------
# restricted polynomial systems


def monomial_multi_indices(n: int, d: int):
    """The C(n+d, d) exponent tuples with |alpha| <= n, ordered by degree
    then by descending leading exponents, as a fresh list."""
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    return list(_multi_indices(n, d))


@lru_cache(maxsize=64)
def _multi_indices(n: int, d: int) -> tuple:
    return tuple(alpha for deg in range(n + 1) for alpha in _compositions(deg, d))


def _compositions(total: int, slots: int):
    if slots == 1:
        return [(total,)]
    return [(first,) + rest
            for first in range(total, -1, -1)
            for rest in _compositions(total - first, slots - 1)]


def monomial_values(X, alphas) -> np.ndarray:
    """Values x^alpha at each row x of X for each exponent tuple alpha:
    an (len(X), len(alphas)) matrix."""
    X = np.asarray(X, dtype=float)
    A = np.asarray(alphas).reshape(-1, X.shape[1])
    E = A.astype(np.intp)
    if (E != A).any() or E.min(initial=0) < 0:
        raise ValueError("exponents must be nonnegative integers")
    # pow, not fs._int_powers: construct_masses' SVD kernel basis jumps under
    # ulp changes.  Each coordinate's powers are taken once; np.take keeps the
    # product C-contiguous (fancy indexing would not, and BLAS would round
    # the downstream products differently)
    Pw = X[:, :, None] ** np.arange(E.max(initial=0) + 1, dtype=float)
    M = Pw[:, 0].take(E[:, 0], axis=1)
    for j in range(1, X.shape[1]):
        M *= Pw[:, j].take(E[:, j], axis=1)
    return M


def restrict_polynomials(curve: CurveRd, n: int) -> fs.Basis:
    """The restrictions t -> x(t)^alpha of all monomials of degree <= n, as
    the columns of a fill that evaluates the curve once per node array.
    For n = 1 the fill is [1, x(t)], the same floats without the powers:
    x**0.0 and x**1.0 are exact."""
    alphas = monomial_multi_indices(n, curve.d)
    labels = ["x^" + "".join(map(str, a)) for a in alphas]
    powers = _with_ones if n == 1 else lambda X: monomial_values(X, alphas)
    return fs.Basis.from_fill(labels, lambda ts: powers(curve_points(curve, ts)))


def polynomial_on_curve(poly: dict, curve: CurveRd) -> fs.Func1D:
    """The polynomial {exponent tuple: coefficient} restricted to the curve."""
    alphas, coeffs = list(poly), np.array(list(poly.values()), dtype=float)
    return fs.Func1D(lambda ts: monomial_values(curve_points(curve, ts), alphas) @ coeffs,
                     "poly")


def _with_ones(X) -> np.ndarray:
    """[1, X]: a column of ones before the columns of X."""
    M = np.empty((X.shape[0], X.shape[1] + 1))
    M[:, 0], M[:, 1:] = 1.0, X
    return M


# ---------------------------------------------------------------------------
# hyperplanes and convexity


@dataclass(frozen=True)
class Hyperplane:
    """Locus normal . x = offset with a unit, sign-canonical normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        w = np.asarray(self.normal, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise ValueError("normal must be a vector in R^d, d >= 2")
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0 or not np.isfinite(nrm):
            raise ValueError("normal must be nonzero and finite")
        if not np.isfinite(self.offset):
            raise ValueError("offset must be finite")
        v = fix_leading_sign(np.concatenate([w, [float(self.offset)]]) / nrm)
        object.__setattr__(self, "normal", v[:-1])
        object.__setattr__(self, "offset", float(v[-1]))

    def value(self, x):
        return np.asarray(x, dtype=float) @ self.normal - self.offset

    def func_on(self, curve: CurveRd) -> fs.Func1D:
        return fs.Func1D(lambda ts: curve_points(curve, ts) @ self.normal
                         - self.offset, "slice")


def hyperplane_through(points) -> Hyperplane:
    """The hyperplane through d finite, affinely independent points in R^d.
    A repeated point is refused outright: the kernel's minors of such a
    block are rounding, and so would be the plane's direction."""
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("need exactly d points in R^d")
    if not np.isfinite(P).all():
        raise ValueError("points must be finite")
    h = _planes_through(P[None])[0][0]
    if np.isnan(h[0]) or np.triu((P[:, None] == P).all(axis=2), 1).any():
        raise ValueError("points are affinely dependent")
    return Hyperplane(h[:-1], -h[-1])


@dataclass(frozen=True, eq=False)
class IntersectionCount:
    """Crossing count of one hyperplane with one curve.

    simple_roots are the transversal sign-change parameters, refined by
    bisection on their first read and cached (the counts need only the
    grid); count_with_multiplicity adds tangential touches, realized as
    the maximum crossing count under small parallel shifts of the plane.
    perturbation_used is the shift magnitude that attained the maximum
    (0 when the unshifted count did).  A curve lying inside the plane is
    degenerate and reports count = grid_n.
    """

    count_with_multiplicity: int
    _locate: Callable[[], np.ndarray] = field(repr=False)
    perturbation_used: float
    degenerate: bool = False

    @cached_property
    def simple_roots(self) -> np.ndarray:
        return self._locate()


def hyperplane_intersections(curve: CurveRd, hp: Hyperplane,
                             grid_n: int = fs.DEFAULT_GRID_N) -> IntersectionCount:
    """Count curve/hyperplane crossings with perturbation multiplicity.

    Shifts of 1e-3, 1e-4 and 1e-5 of the range of the slice functional
    are tried on both sides and the maximal count is reported.  The
    curve is evaluated on the grid once; simple_roots are refined from
    those grid values.
    """
    ts = fs._count_grid(curve.dom, grid_n)
    return _intersections(curve, hp, ts, fs.sample(hp.func_on(curve), ts))


def _intersections(curve, hp, ts, vals) -> IntersectionCount:
    """hyperplane_intersections from the slice values vals on the grid ts."""
    grid_n, dom = ts.size, curve.dom
    if not np.any(vals):
        return IntersectionCount(grid_n, fs._no_roots, 0.0, True)
    spread = float(np.ptp(vals))
    shifts = np.array([sgn * 1e-3 * scale * spread
                       for scale in _MULT_SCALES for sgn in (1.0, -1.0)])
    best, used = fs.count_grid_sign_changes(vals, dom.is_circle), 0.0
    # a shifted slice is counted exactly only when its raw flips exceed
    # best, as it cannot win otherwise; the first maximum sets perturbation_used
    counts = fs._counts_over(vals - shifts[:, None], dom.is_circle, best)
    for c, shift in zip(counts.tolist(), shifts.tolist()):
        if c > best:
            best, used = c, abs(shift)
    return IntersectionCount(
        best, lambda: fs.grid_sign_report(hp.func_on(curve), dom, ts, vals).locations,
        used, False)


@dataclass(frozen=True)
class ConvexityReport:
    status: str
    trials_run: int
    witness: Optional[Hyperplane] = None
    witness_count: Optional[IntersectionCount] = None

    @property
    def convex(self) -> bool:
        return self.status == NO_VIOLATION


def convexity_check(curve: CurveRd, trials: int = DEFAULT_TRIALS, rng_seed: int = 0,
                    grid_n: int = fs.DEFAULT_GRID_N) -> ConvexityReport:
    """Monte-Carlo falsification of convexity.

    Each trial slices with a random hyperplane (uniform normal, offset
    inside the projection range) and with a secant hyperplane through d
    sampled curve points; a slice crossing more than d times is a
    counterexample, recounted in full before it is returned.  Grid sign
    flips never exceed the true crossing count of a continuous slice
    functional, so a genuinely convex curve cannot be flagged; absence of
    a witness is still only evidence.  Trial t draws from
    derived_rng(rng_seed, t, 1).
    """
    _check_trials(trials)
    P = curve_points(curve, fs._count_grid(curve.dom, grid_n))
    return _convexity_probes(curve, P, trials, rng_seed)


def _convexity_draws(P, gens, m):
    """The probes of P, the curve on its grid, of m trials, one drawn from
    each Generator of gens in turn: rows (normal, -offset) (m, 2, d + 1) of
    a random plane and a secant through d points of P, and one row buffer
    (m, 2, 3, n) whose row 0 holds the two planes' values on P (rows 1 and
    2 are left to the caller).  NaN marks the offset and values of a random
    plane where P projects to a point, and a secant through affinely
    dependent points.

    Only the stream calls are made trial by trial, in two passes over gens:
    the normals, then uniform(0.02, 0.98) where the projection has a spread
    and choice(n, d), each trial's stream in a trial-by-trial loop's order.
    The arithmetic is that loop's, bit for bit, done on arrays: a vector's
    np.linalg.norm is sqrt(x . x), which a stacked row-by-column matmul
    takes as the same dot, and the stacked P @ w is one gemv per trial."""
    n, d = P.shape
    gens = list(gens)
    W = np.empty((m, d))
    for i, g in enumerate(gens):
        g.standard_normal(out=W[i])
    W /= np.sqrt(np.matmul(W[:, None], W[:, :, None]))[:, 0]
    rows = np.empty((m, 2, 3, n))
    proj = rows[:, 0, 0]
    np.matmul(P, W[:, :, None], out=proj[..., None])
    lo, hi = proj.min(axis=1), proj.max(axis=1)
    u, idx = np.empty(m), np.empty((m, d), np.intp)
    for i, (g, spread) in enumerate(zip(gens, (hi > lo).tolist())):
        u[i] = g.uniform(0.02, 0.98) if spread else np.nan
        idx[i] = g.choice(n, size=d, replace=False)
    off = lo + (hi - lo) * u
    proj -= off[:, None]
    H = np.empty((m, 2, d + 1))
    H[:, 0, :d], H[:, 0, d] = W, -off
    H[:, 1] = _planes_through(P[idx])[0]
    np.matmul(H[:, 1, :d], P.T, out=rows[:, 1, 0])
    rows[:, 1, 0] += H[:, 1, d:]
    return H, rows


def _convexity_probes(curve, P, trials, rng_seed):
    """convexity_check's probe loop over P, the curve on its counting grid,
    in the chunks of fs._probe_chunks: a slice that, shifted by 0 or +-1e-4
    of its spread, crosses more than d times is recounted by _intersections,
    in trial order, so verdict, trials_run and witness are a trial-by-trial
    loop's."""
    d, n = curve.d, P.shape[0]
    for start, stop, gens in fs._probe_chunks(rng_seed, trials, n, 1):
        H, rows = _convexity_draws(P, gens, stop - start)
        S = rows[:, :, 0]
        shift = 1e-4 * np.ptp(S, axis=2)[..., None]
        # S + shift is S minus the shift -1e-4 * spread, bit for bit
        np.subtract(S, shift, out=rows[:, :, 1])
        np.add(S, shift, out=rows[:, :, 2])
        counts = fs._counts_over(rows.reshape(-1, n), curve.dom.is_circle, d)
        # probe 2i is trial i's random slice, 2i + 1 its secant
        for k in np.flatnonzero((counts.reshape(-1, 3) > d).any(axis=1)).tolist():
            h = H.reshape(-1, d + 1)[k]
            hp = Hyperplane(h[:d], -h[d])
            full = _intersections(curve, hp, fs._count_grid(curve.dom, n),
                                  P @ hp.normal - hp.offset)
            if full.degenerate or full.count_with_multiplicity > d:
                return ConvexityReport(COUNTEREXAMPLE, start + k // 2 + 1, hp, full)
    return ConvexityReport(NO_VIOLATION, trials)


@dataclass(frozen=True)
class Theorem4Report:
    convexity: ConvexityReport
    chebyshev: ChebVerdict
    agree: bool
    dim: int


def theorem4_check(curve: CurveRd, trials: int = DEFAULT_TRIALS, rng_seed: int = 0,
                   grid_n: int = fs.DEFAULT_GRID_N) -> Theorem4Report:
    """Convexity of the curve and the Chebyshev property of its restricted
    affine functions stand or fall together.  One grid sample P of the
    curve serves all: the affine span, of rank d + 1, is read from every
    k-th row of [1, P]; the convexity loop, then the Chebyshev loop (on
    [1, P]) run on P with the shared seed, and the report says whether
    the verdicts agree."""
    _check_trials(trials)
    P = curve_points(curve, fs._count_grid(curve.dom, grid_n))
    G = _with_ones(P)
    dim = _span_rank(G[::max(1, grid_n // _span_rows(curve.d + 1))])
    if dim != curve.d + 1:
        raise ValueError(
            f"affine restrictions span dimension {dim}, not {curve.d + 1}: "
            "the curve lies inside a hyperplane")
    conv = _convexity_probes(curve, P, trials, rng_seed)
    cheb = _chebyshev_probes(restrict_polynomials(curve, 1), curve.dom, G, trials,
                             rng_seed)
    agree = conv.convex == (cheb.status == NO_VIOLATION)
    return Theorem4Report(conv, cheb, agree, dim)


# ---------------------------------------------------------------------------
# orthogonal functions on curves


@dataclass(frozen=True)
class CurveSynthResult:
    F: fs.Func1D
    step: StepWeight
    points: np.ndarray
    dim: int
    residuals: np.ndarray
    sign_report: fs.SignChangeReport


def construct_orthogonal_on_curve(curve: CurveRd, n: int,
                                  pieces: int | None = None,
                                  grid_n: int = fs.DEFAULT_GRID_N) -> CurveSynthResult:
    """Build F on the parameter domain orthogonal (weight 1) to every
    restricted monomial of degree <= n.

    Two passes.  First a step function on `pieces` equal parameter arcs:
    the kernel of the piece-moment matrix says which arcs carry which
    sign.  The sign flips of that kernel step (midpoints of any zeroed
    gaps) become prescribed zeros, and the step on the refined pieces is
    refit together with a smooth annihilator factor so the result is
    continuous with honest crossings at the active points.
    """
    dom = curve.dom
    fs._count_grid(dom, grid_n)  # rejects a bad grid_n before any basis evaluation
    funcs = restrict_polynomials(curve, n)
    dim = dimension_estimate(funcs, dom)
    if pieces is None:
        pieces = dim + 1
    if pieces <= dim:
        raise ValueError(f"need more than {dim} pieces, got {pieces}")
    edges = np.linspace(0.0, fs.TWO_PI, pieces + 1) if dom.is_circle \
        else np.linspace(dom.a, dom.b, pieces + 1)
    M = moments_on_edges(funcs, fs.constant(1.0), dom, edges)
    kernel, rank, _ = svd_kernel(M)
    if rank != dim:
        raise NotChebyshevError(
            f"piece moment matrix rank {rank} disagrees with span dimension {dim}")
    h = fix_leading_sign(kernel[:, -1])
    pts = _flip_points(h, edges, dom)
    if pts.size == 0:
        raise NotChebyshevError("kernel step has no sign flips to realize")
    g = default_annihilator(pts, dom)
    A = moments_on_edges(funcs, g, dom, _step_edges(dom, pts))
    h2 = fix_leading_sign(smallest_direction(A))
    residuals = A @ h2
    if float(np.max(np.abs(residuals))) > RESIDUAL_TOL:
        raise NotChebyshevError("refined orthogonality residual above tolerance")
    step = StepWeight(pts, h2, dom)
    F = fs.product(g, step.as_func(), label="F")
    rep = fs._sign_report(F, dom, grid_n, guesses=pts)
    return CurveSynthResult(F, step, pts, dim, residuals, rep)


def _flip_points(h: np.ndarray, edges: np.ndarray, dom: fs.Domain) -> np.ndarray:
    """Sign-flip boundaries of a step with heights h on the pieces cut by
    edges; a flip across a run of zeroed pieces lands on the run's
    midpoint."""
    ii, jj, _ = fs._sign_transitions(h, dom.is_circle)
    lo = edges[ii + 1]
    hi = edges[jj]
    hi = np.where(hi >= lo, hi, hi + fs.TWO_PI)
    pts = 0.5 * (lo + hi)
    return np.sort(np.mod(pts, fs.TWO_PI)) if dom.is_circle else np.sort(pts)


def theorem5_verify(curve: CurveRd, n: int, f, tol: float = RESIDUAL_TOL,
                    grid_n: int = fs.DEFAULT_GRID_N,
                    breaks=None) -> ZeroBoundReport:
    """Zero bound for functions orthogonal to all degree <= n restricted
    polynomials on a convex curve: at least n*d + 1 sign changes, n*d + 2
    when the curve is closed.  Not applicable when the residuals exceed
    tol or f is numerically zero.

    As in theorem1_check, residual integrals split the domain at f's
    sign-change locations plus any points passed in breaks.  Pass a
    construction's points: where its step flips sign together with the
    annihilator, F does not cross but keeps a kink."""
    if not isinstance(f, fs.Func1D):
        f = fs.Func1D(f, "f")
    bound = n * curve.d + (2 if curve.dom.is_circle else 1)
    return _zero_bound(f, restrict_polynomials(curve, n), curve.dom, bound,
                       None, tol, grid_n, breaks)


# ---------------------------------------------------------------------------
# centers of mass


def arc_speed(curve: CurveRd, ts) -> np.ndarray:
    """|x'(t)| by central differences of step 1e-6 of the domain length
    (one-sided at interval endpoints)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    h = 1e-6 * curve.dom.span
    tp, tm = ts + h, ts - h
    if not curve.dom.is_circle:
        tp = np.minimum(tp, curve.dom.b)
        tm = np.maximum(tm, curve.dom.a)
    diff = curve_points(curve, tp) - curve_points(curve, tm)
    return np.linalg.norm(diff, axis=1) / (tp - tm)


def center_of_mass(curve: CurveRd, rho: fs.Func1D | None = None):
    """Mass-weighted mean point with respect to arc length; rho = None
    means the uniform density.  Returns (point, mass); the mass must be
    positive."""
    return _centers_of_mass(curve, [rho])[0]


def _centers_of_mass(curve: CurveRd, densities):
    """center_of_mass for each density in turn, from one evaluation of
    the arc speed and the curve points on the quadrature nodes."""
    ts, ws = fs.quad_nodes(curve.dom)
    speed = ws * arc_speed(curve, ts)
    P = curve_points(curve, ts)
    out = []
    for rho in densities:
        dens = speed if rho is None else speed * fs.sample(rho, ts)
        mass = float(np.sum(dens))
        if mass <= 1e-12 * float(np.sum(np.abs(dens)) + 1e-300):
            raise ValueError("total mass is not positive; centroid undefined")
        out.append((P.T @ dens / mass, mass))
    return out


@dataclass(frozen=True)
class Prop1Report:
    applicable: bool
    passed: bool
    extrema: int
    bound: int
    center_gap: float
    degenerate: bool = False


def _diameter(P: np.ndarray) -> float:
    return float(np.linalg.norm(np.ptp(P, axis=0)))


def proposition1_check(curve: CurveRd, f: fs.Func1D,
                       grid_n: int = fs.DEFAULT_GRID_N) -> Prop1Report:
    """A positive density whose center of mass sits at the uniform center
    must oscillate: at least d + 2 extrema (endpoints included on an
    open curve).  Center mismatch makes the check not applicable; a
    numerically constant density is flagged degenerate, not failed."""
    dom = curve.dom
    ts = fs._count_grid(dom, grid_n)
    fv = fs.sample(f, ts)
    if float(np.min(fv)) <= 0.0:
        raise ValueError("density must be strictly positive")
    (c_u, _), (c_f, _) = _centers_of_mass(curve, [None, f])
    diam = _diameter(curve_points(curve, ts))
    gap = float(np.linalg.norm(c_f - c_u)) / max(diam, 1e-300)
    bound = curve.d + 2
    if gap > _CENTER_GAP_TOL:
        return Prop1Report(False, False, -1, bound, gap)
    rep = fs.grid_extrema_report(f, dom, ts, fv)
    if rep.degenerate:
        return Prop1Report(True, True, 0, bound, gap, True)
    return Prop1Report(True, rep.count >= bound, rep.count, bound, gap)


@dataclass(frozen=True)
class Prop1RelativeReport:
    applicable: bool
    passed: bool
    diff_sign_changes: int
    diff_bound: int
    ratio_extrema: int
    ratio_bound: int
    center_gap: float
    degenerate: bool = False


def proposition1_relative(curve: CurveRd, f: fs.Func1D, g: fs.Func1D,
                          grid_n: int = fs.DEFAULT_GRID_N) -> Prop1RelativeReport:
    """Two positive densities with a common center of mass: after matching
    total masses their difference changes sign at least d + 1 times
    (d + 2 on a closed curve) and their ratio has at least d + 2 extrema.
    Proportional densities are flagged degenerate."""
    dom = curve.dom
    ts = fs._count_grid(dom, grid_n)
    fv, gv = fs.sample(f, ts), fs.sample(g, ts)
    if float(np.min(fv)) <= 0.0 or float(np.min(gv)) <= 0.0:
        raise ValueError("densities must be strictly positive")
    (c_f, mf), (c_g, mg) = _centers_of_mass(curve, [f, g])
    diam = _diameter(curve_points(curve, ts))
    gap = float(np.linalg.norm(c_f - c_g)) / max(diam, 1e-300)
    diff_bound = curve.d + (2 if dom.is_circle else 1)
    ratio_bound = curve.d + 2
    if gap > _CENTER_GAP_TOL:
        return Prop1RelativeReport(False, False, -1, diff_bound, -1,
                                   ratio_bound, gap)
    scale = mf / mg
    dvals = fv - scale * gv
    if np.max(np.abs(dvals)) <= fs.DEFAULT_TOL_REL * np.max(np.abs(fv)):
        return Prop1RelativeReport(True, True, 0, diff_bound, 0, ratio_bound,
                                   gap, True)
    diff = fs.Func1D(lambda t: fs.sample(f, t) - scale * fs.sample(g, t), "f-g")
    ratio = fs.Func1D(lambda t: fs.sample(f, t) / fs.sample(g, t), "f/g")
    drep = fs.grid_sign_report(diff, dom, ts, dvals)
    rrep = fs.grid_extrema_report(ratio, dom, ts, fv / gv)
    passed = (drep.count >= diff_bound) and \
        (rrep.degenerate or rrep.count >= ratio_bound)
    return Prop1RelativeReport(True, passed, drep.count, diff_bound,
                               rrep.count, ratio_bound, gap)
