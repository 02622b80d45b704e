"""Constructive orthogonality through step-weight null spaces.

The central device: for a system of order n and a set of prescribed
sign-change points, the integrals of (annihilator x basis function)
over the pieces cut by the points form an n x (n+1) moment matrix.
Its null direction is a set of step heights; against a Chebyshev system
the heights come out strictly one-signed, which yields
  - an orthogonal function F = annihilator * step  (prescribed zeros),
  - a constant-sign weight rho = step * |f|        (given f),
realizing the two constructive theorems verified by this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import funcspace as fs
from .annihilator import LOC_TOL, default_annihilator
from .chebsys import ChebSystem, _as_basis
from ._linalg import RANK_RTOL, fix_leading_sign
from .exceptions import NotChebyshevError

RESIDUAL_TOL = 1e-8
_HEIGHT_FLOOR = 1e-12


def m_of(dom: fs.Domain, n: int) -> int:
    """Minimal forced sign-change count: n on an interval, n+1 on the
    circle (where n must be odd)."""
    if n < 1:
        raise ValueError("order must be positive")
    if dom.is_circle:
        if n % 2 == 0:
            raise ValueError("circle systems have odd order")
        return n + 1
    return n


@dataclass(frozen=True)
class StepWeight:
    """Piecewise-constant heights on the arcs cut by breakpoints.

    Interval pieces are (a, x1), [x1, x2), ..., [xq, b), so there are
    q+1 heights; circle pieces are the q arcs [xi, xi+1) taken
    cyclically.  A narrowed weight (from reducing an over-prescribed
    sign set) carries its active window in `support`: inside [lo, hi)
    the interval piece rule applies, outside the weight is 0.

    Synthesis guarantees heights of one strict sign at unit norm; the
    dataclass itself only checks shapes and ordering, so the curve-side
    constructions can reuse it for mixed-sign kernels.
    """

    breakpoints: np.ndarray
    heights: np.ndarray
    dom: fs.Domain
    support: Optional[tuple] = None

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        hs = np.asarray(self.heights, dtype=float)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "heights", hs)
        if bp.ndim != 1 or hs.ndim != 1:
            raise ValueError("breakpoints and heights must be 1-d")
        if bp.size and np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if self.support is not None:
            lo, hi = self.support
            if not (lo < hi):
                raise ValueError("empty support window")
            if bp.size and (bp[0] <= lo or bp[-1] >= hi):
                raise ValueError("breakpoints must lie inside the support window")
            want = bp.size + 1
        elif self.dom.is_circle:
            if bp.size < 1:
                raise ValueError("a circle step weight needs at least one breakpoint")
            want = bp.size
        else:
            want = bp.size + 1
        if hs.size != want:
            raise ValueError(f"expected {want} heights, got {hs.size}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        flat = np.atleast_1d(t).astype(float)
        if self.dom.is_circle:
            flat = np.mod(flat, fs.TWO_PI)
        if self.support is None and self.dom.is_circle:
            idx = np.searchsorted(self.breakpoints, flat, side="right") - 1
            vals = self.heights[idx]  # idx -1 wraps to the last cyclic arc
        else:
            idx = np.searchsorted(self.breakpoints, flat, side="right")
            vals = self.heights[idx]
            if self.support is not None:
                lo, hi = self.support
                vals = np.where((flat >= lo) & (flat < hi), vals, 0.0)
        return vals.reshape(t.shape)

    def as_func(self, label: str = "step") -> fs.Func1D:
        return fs.Func1D(self.__call__, label)


@dataclass(frozen=True)
class SynthResult:
    """Outcome of a synthesis: exactly one of F (orthogonal function) or
    rho (constant-sign weight) is set."""

    F: Optional[fs.Func1D]
    rho: Optional[fs.Func1D]
    step: StepWeight
    residuals: np.ndarray
    sign_report: fs.SignChangeReport


# ---------------------------------------------------------------------------
# moment matrices


def _step_edges(dom: fs.Domain, breakpoints) -> np.ndarray:
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or (bp.size and np.any(np.diff(bp) <= 0)):
        raise ValueError("breakpoints must be strictly increasing")
    if bp.size and not dom.all_inside(bp):
        raise ValueError("breakpoints must lie inside the domain")
    if dom.is_circle:
        if bp.size < 1:
            raise ValueError("circle pieces need at least one breakpoint")
        return np.concatenate([bp, [bp[0] + fs.TWO_PI]])
    return np.concatenate([[dom.a], bp, [dom.b]])


def moments_on_edges(basis, g: fs.Func1D, dom: fs.Domain, edges) -> np.ndarray:
    """Matrix of per-piece integrals of g * f_j between consecutive edges."""
    ts, ws, sizes = fs.segment_rules(dom, edges[:-1], edges[1:])
    wg, B = ws * fs.sample(g, ts), fs.basis_matrix(basis, ts)
    ends = np.cumsum(sizes)
    return np.array([wg[a:b] @ B[a:b] for a, b in zip(ends - sizes, ends)],
                    dtype=float).T


def moment_matrix(sys, g: fs.Func1D, breakpoints) -> np.ndarray:
    """n x pieces matrix with entry (j, i) = integral of g * f_j over
    piece i of the domain as cut by the breakpoints."""
    basis, dom = _as_basis(sys)
    edges = _step_edges(dom, breakpoints)
    return moments_on_edges(basis, g, dom, edges)


def null_direction(A) -> np.ndarray:
    """Unit kernel vector of an n x (n+1) moment matrix, first component
    positive.  Rank below n means the system is not Chebyshev on the
    given pieces; that raises a diagnostic."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != A.shape[0] + 1:
        raise ValueError("expected an n x (n+1) moment matrix")
    n = A.shape[0]
    if n < 1:
        raise ValueError("order must be at least 1")
    _, s, vh = np.linalg.svd(A)
    if s[0] == 0.0 or s[-1] <= RANK_RTOL * s[0]:
        raise NotChebyshevError(
            "moment matrix rank below order: system not Chebyshev on these pieces")
    p = fix_leading_sign(vh[-1])
    if np.max(np.abs(A @ p)) > 1e-10 * s[0]:
        raise NotChebyshevError("null direction residual exceeds tolerance")
    return p


def _require_one_sign(p: np.ndarray):
    mags = np.abs(p)
    if np.min(mags) <= _HEIGHT_FLOOR * np.max(mags):
        raise NotChebyshevError(
            "step heights contain a numerical zero; the one-sign claim fails "
            "(input system not Chebyshev on these pieces?)")
    if np.any(p > 0) and np.any(p < 0):
        raise NotChebyshevError(
            "step heights are not one-signed; the input system is not "
            "Chebyshev on these pieces")


# ---------------------------------------------------------------------------
# the two constructions


def synth_orthogonal(sys: ChebSystem, points,
                     grid_n: int = fs.DEFAULT_GRID_N) -> SynthResult:
    """Build F changing sign exactly at the prescribed points and
    orthogonal to every basis function (weight 1).

    points must be strictly increasing, interior, and exactly
    m_of(dom, order) of them.  F = annihilator(points) * step, with the
    step heights the moment-matrix null direction.  The one-sign height
    claim, the residuals (<= 1e-8), and the realized sign-change
    locations (within 1e-6) are all verified before returning.
    """
    dom = sys.dom
    fs._count_grid(dom, grid_n)  # rejects a bad grid_n before any basis evaluation
    m = m_of(dom, sys.order_n)
    pts = np.asarray(points, dtype=float)
    if pts.size != m:
        raise ValueError(f"need exactly {m} points, got {pts.size}")
    g = default_annihilator(pts, dom)
    A = moment_matrix(sys, g, pts)
    p = null_direction(A)
    _require_one_sign(p)
    step = StepWeight(pts, p, dom)
    F = fs.product(g, step.as_func(), label="F")
    residuals = A @ p
    if np.max(np.abs(residuals)) > RESIDUAL_TOL:
        raise NotChebyshevError("orthogonality residual above tolerance")
    rep = fs._sign_report(F, dom, grid_n, guesses=pts)
    if rep.degenerate or rep.count != m or \
            np.max(np.abs(np.sort(rep.locations) - np.sort(pts))) > LOC_TOL:
        raise NotChebyshevError(
            "synthesized function does not change sign exactly at the "
            "prescribed points")
    return SynthResult(F=F, rho=None, step=step, residuals=residuals,
                       sign_report=rep)


def synth_weight(sys: ChebSystem, f: fs.Func1D,
                 grid_n: int = fs.DEFAULT_GRID_N) -> SynthResult:
    """Build a constant-sign weight rho making f orthogonal to the system.

    f needs at least m = m_of(dom, order) sign changes.  With more than
    m, the domain is narrowed: the first m sign points (in parameter
    order, from 0 on the circle) are kept, and rho vanishes identically
    from the (m+1)-th sign point onward.  rho = step * |f| is continuous
    because |f| vanishes at every junction.
    """
    dom = sys.dom
    m = m_of(dom, sys.order_n)
    rep = fs.count_sign_changes(f, dom, grid_n)
    if rep.degenerate or rep.count < m:
        raise ValueError(
            f"f has {rep.count} sign changes but orthogonality to an order-"
            f"{sys.order_n} system forces at least m = {m}")
    pts = rep.locations

    def f_abs_f(t):
        v = fs.sample(f, t)
        return v * np.abs(v)

    g = fs.Func1D(f_abs_f, "f|f|")
    if rep.count > m:
        kept = pts[:m]
        cut = float(pts[m])
        if dom.is_circle:
            support = (float(kept[0]), cut)
            inner = kept[1:]
        else:
            support = (dom.a, cut)
            inner = kept
        edges = np.concatenate([[support[0]], inner, [support[1]]])
    else:
        inner, support, edges = pts, None, _step_edges(dom, pts)
    A = moments_on_edges(sys.basis, g, dom, edges)
    p = null_direction(A)
    _require_one_sign(p)
    step = StepWeight(inner, p, dom, support=support)
    rho = fs.Func1D(lambda t: step(t) * np.abs(fs.sample(f, t)), "rho")
    residuals = A @ p
    if np.max(np.abs(residuals)) > RESIDUAL_TOL:
        raise NotChebyshevError("weighted orthogonality residual above tolerance")
    return SynthResult(F=None, rho=rho, step=step, residuals=residuals,
                       sign_report=rep)


@dataclass(frozen=True)
class ZeroBoundReport:
    """Outcome of a theorem-of-zeros check (Theorems 1, 5 and 6).

    applicable says whether the hypotheses held.  A report that does not
    apply has sign_changes = -1 and passed = False; Theorem 6 also says
    in message which hypothesis failed, and Theorems 1 and 5 say there
    when the count was taken on the union of the counting grid and the
    residuals' quadrature nodes, and when the sign changes it lacks sit
    under the zero tolerance.
    """

    applicable: bool
    passed: bool
    sign_changes: int
    bound: int
    max_residual: float
    message: str = ""


def theorem1_check(sys: ChebSystem, f: fs.Func1D,
                   rho: fs.Func1D | None = None,
                   tol: float = RESIDUAL_TOL,
                   grid_n: int = fs.DEFAULT_GRID_N,
                   breaks=None) -> ZeroBoundReport:
    """Verify the forced-zero bound: if f is rho-orthogonal to the whole
    system (all residuals <= tol) and f*rho is not numerically zero,
    then f must have at least m_of(dom, order) sign changes.  The check
    is _zero_bound's; when rho came from a synthesis, pass the step's
    breakpoints and support edges in breaks."""
    bound = m_of(sys.dom, sys.order_n)
    return _zero_bound(f, sys.basis, sys.dom, bound, rho, tol, grid_n, breaks)


def _zero_bound(f, basis, dom, bound, rho, tol, grid_n, breaks) -> ZeroBoundReport:
    """The theorem-of-zeros check of f against the functions in basis.

    f's sign changes are counted by fs._sign_report, so the count and
    refined crossings of a synthesis of the same f object are reused.
    The residual integrals of f * rho * basis are split at those crossings
    and at breaks, so that step discontinuities do not poison the
    quadrature.  The count is held to bound when the residuals are within
    tol and f * rho does not vanish on the residuals' quadrature nodes
    (with no rho, f vanishing on the counting grid is the report's
    degeneracy).  A count short of bound is taken again on the sorted
    union of the counting grid and those nodes, where the residuals were
    proved, so a sign change between two grid nodes is not missed; the
    larger count is reported.  When that count is still short but the raw
    flips of f > 0 there reach bound, message says so."""
    fs._check_tol(tol)
    rep = fs._sign_report(f, dom, grid_n, guesses=breaks)
    cuts = np.asarray(rep.locations, dtype=float)
    if breaks is not None:
        extra = np.asarray(breaks, dtype=float)
        if dom.is_circle:
            extra = dom.wrap(extra)
        else:
            extra = extra[(extra > dom.a) & (extra < dom.b)]
        cuts = np.union1d(cuts, extra)

    ts, ws = fs.rule_with_breaks(dom, cuts)
    prod = fs.sample(f, ts) if rho is None else fs.sample(f, ts) * fs.sample(rho, ts)
    residuals = (ws * prod) @ fs.basis_matrix(basis, ts)
    max_res = float(np.max(np.abs(residuals)))
    vanishes = rho is not None and float(np.max(np.abs(prod))) == 0.0
    if max_res > tol or rep.degenerate or vanishes:
        return ZeroBoundReport(False, False, -1, bound, max_res)
    count, message = rep.count, ""
    if count < bound:
        union = np.union1d(fs._count_grid(dom, grid_n), ts)
        uvals = fs.sample(f, union)
        recount = fs.count_grid_sign_changes(uvals, dom.is_circle)
        if recount > count:
            count = recount
            message = "counted on the union of the counting grid and the quadrature nodes"
        if count < bound and fs._raw_flips(uvals[None], dom.is_circle)[0] >= bound:
            message += ("; " if message else "") + (
                "the missing sign changes sit under the zero tolerance")
    return ZeroBoundReport(True, count >= bound, count, bound, max_res, message)
