"""Domains, scalar functions, bases, quadrature, sign-change counting,
and the seeded streams of the probe loops.

Every integral and zero count in the package goes through this module.
Integrals use one rule (quad_nodes, segment_rules).  Counts use one rule,
stated by count_sign_changes; count_extrema applies it to a derivative.
basis_matrix is the one way to evaluate a basis, and _count_grid the one
way an entry point gets its counting grid.  Grids of up to DEFAULT_GRID_N
points and the circle's quadrature nodes are shared read-only arrays, so
a counted or integrated f must not write to its input.
"""

from __future__ import annotations

import math
import numbers
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
# halvings per f evaluation that _bisect_roots guarantees on average, so
# that no refinement takes more than _MAX_ROUNDS calls of f.  It sets only
# the worst case: its multisection trees serve brackets whose guesses keep
# missing
_MULTISECT_DEPTH = 5
_MAX_ROUNDS = -(-_BISECT_ITERS // _MULTISECT_DEPTH)
# levels a secant-guided walk lists beyond where its two one-sided secants
# part: the walk agrees with bisection about down to the level whose
# midpoints are as far apart as the guess is from the root
_WALK_SLACK = 3


def derived_rng(seed, *keys):
    """Deterministic generator keyed by (seed, key, ...), so that a trial
    seeded as derived_rng(seed, trial) does not depend on execution order.

    The stream is default_rng([seed, *keys]), each value taken mod 2**63,
    handed to SeedSequence as the uint32 words NumPy would split it into
    (least significant first): the same entropy, without the coercion of
    a list.
    """
    words = []
    for v in (seed, *keys):
        v = int(v) % (2 ** 63)
        words += (v & 0xFFFFFFFF, v >> 32) if v >> 32 else (v,)
    return np.random.default_rng(np.array(words, dtype=np.uint32))


# trials per probe chunk are capped so that each probe row of a chunk holds
# at most this many values
_CHUNK_SAMPLES = 2 ** 18


def _chunk_bounds(trials: int, rows: int):
    """The probe loops' one schedule: (start, stop) for chunks of 2, 8, 32,
    128, ... trials, cut at the budget and at _CHUNK_SAMPLES // rows trials
    (rows: the values per probe row).  The short first chunk keeps an early
    counterexample cheap; a later chunk takes in a shorter remainder of
    the budget if that fits under the cap."""
    cap = max(1, _CHUNK_SAMPLES // rows)
    start, size = 0, 2
    while start < trials:
        stop = min(trials, start + size, start + cap)
        if start and trials - stop < min(4 * size, cap) and trials - start <= cap:
            stop = trials
        yield start, stop
        start, size = stop, 4 * size


def _probe_chunks(seed, trials: int, rows: int, *keys):
    """(start, stop, gens) for the chunks of _chunk_bounds(trials, rows):
    gens yields derived_rng(seed, t, *keys) for the trials t of
    start..stop-1 in turn, so a trial's draws do not depend on the chunk
    bounds."""
    for start, stop in _chunk_bounds(trials, rows):
        gens = (derived_rng(seed, t, *keys) for t in range(start, stop))
        yield start, stop, gens


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


@lru_cache(maxsize=32)
def _shared_grid(dom: Domain, n: int) -> np.ndarray:
    g = dom.grid(n)
    g.flags.writeable = False
    return g


def _grid(dom: Domain, n: int) -> np.ndarray:
    """dom.grid(n)'s floats: for n <= DEFAULT_GRID_N one read-only array per
    (domain, n), shared by every caller (the last 32 pairs are kept), and a
    fresh array per call for larger grids."""
    return _shared_grid(dom, n) if n <= DEFAULT_GRID_N else dom.grid(n)


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


def _int_powers(t, k: int) -> np.ndarray:
    """t**0, ..., t**k along a new last axis, by left-to-right products:
    column j is column j-1 times t, so column 1 is t exactly, column 2 is
    t*t correctly rounded, and column j is within (j-1)*2**-52 relative of
    t**j.  Special values (0, -0.0, +-1, overflow) come out as under pow;
    NumPy's pow is about 20 times slower than this on a negative base."""
    t = np.asarray(t, dtype=float)
    P = np.empty(t.shape + (k + 1,))
    P[..., 0] = 1.0
    for j in range(1, k + 1):
        np.multiply(P[..., j - 1], t, out=P[..., j])
    return P


# circle grid size n -> (_grid(circle(), n), [(cos g, sin g), (cos 2g, sin 2g), ...])
_HARMONIC_ROWS: dict = {}


def _harmonics(ts, k: int):
    """[(cos(m g), sin(m g)) for m = 1..k] when ts is the circle grid
    g = circle().grid(n) of n <= DEFAULT_GRID_N points, else None.

    Rows are np.cos(m * g) and np.sin(m * g), the inline expression's
    floats, computed once on the shared grid, read-only and kept for the
    life of the process.  Larger grids are not cached; callers compute
    them one harmonic at a time to bound peak memory."""
    ts = np.asarray(ts)
    n = ts.shape[0] if ts.ndim == 1 else 0
    # the first two points reject almost every other array before a full compare
    if not 2 <= n <= DEFAULT_GRID_N or ts[0] != 0.0 or ts[1] != TWO_PI / n:
        return None
    g, rows = _HARMONIC_ROWS.get(n) or (_grid(circle(), n), [])
    if ts is not g and not np.array_equal(ts, g):
        return None
    _HARMONIC_ROWS[n] = g, rows
    for m in range(len(rows) + 1, k + 1):
        c, s = np.cos(m * g), np.sin(m * g)
        c.flags.writeable = s.flags.writeable = False
        rows.append((c, s))
    return rows[:k]


def _trig_terms(ts: np.ndarray, k: int) -> np.ndarray:
    """[1, cos t, sin t, ..., cos kt, sin kt] at the 1-d ts, filled in place
    from _harmonics' rows where it serves ts, else one m at a time."""
    rows = _harmonics(ts, k)
    M = np.ones((ts.size, 2 * k + 1))
    for m in range(1, k + 1):
        M[:, 2 * m - 1], M[:, 2 * m] = (
            (np.cos(m * ts), np.sin(m * ts)) if rows is None else rows[m - 1])
    return M


def _trig_series(ts, c0: float, pairs, curvature: bool = False):
    """c0 + sum of a_m cos(mt) + b_m sin(mt), (a_m, b_m) = pairs[m - 1], added
    in order of m; with curvature, term m is scaled by 1 - m**2 (R = h + h''
    of a support function h).  cos and sin come from _harmonics' rows where
    it serves ts, else are computed inside their term, which is built in
    place, so peak memory stays that of the plain expression."""
    ts = np.asarray(ts, dtype=float)
    rows = _harmonics(ts, len(pairs))
    out = np.full_like(ts, c0)
    for m, (a, b) in enumerate(pairs, start=1):
        if rows is None:
            term = a * np.cos(m * ts)
            term += b * np.sin(m * ts)
        else:
            c, s = rows[m - 1]
            term = a * c
            term += b * s
        if curvature:
            term *= 1.0 - m * m
        out += term
    return out


class Basis(tuple):
    """Func1D members with one matrix(ts) -> (len(ts), len(basis)) callable:
    Basis(funcs) samples member j into column j."""

    _fill = None

    @classmethod
    def from_fill(cls, labels: Sequence[str], fill: Callable) -> Basis:
        """A family defined by its matrix fill(ts), ts 1-d: member j is
        column j of fill on its raveled input, contiguous, in its shape."""
        def column(t, j):
            return np.ascontiguousarray(self.matrix(t)[:, j]).reshape(np.shape(t))

        self = cls(Func1D(lambda t, j=j: column(t, j), s) for j, s in enumerate(labels))
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


def _gauss_pieces(los, his, panels):
    """Composite Gauss-Legendre nodes and weights on every [lo, hi] with
    its own panel count, in one array pass, piece after piece.  Panel
    edges are np.linspace(lo, hi, panels + 1)'s floats, i * ((hi - lo) /
    panels) + lo with the last edge set to hi."""
    x, w = _gauss_panel()
    cum = np.cumsum(panels)
    piece = np.repeat(np.arange(panels.size), panels)
    i = np.arange(cum[-1]) - np.repeat(cum - panels, panels)
    step = ((his - los) / panels)[piece]
    lo = los[piece]
    left = i * step + lo
    right = (i + 1) * step + lo
    right[cum - 1] = his
    mid = 0.5 * (left + right)
    half = 0.5 * (right - left)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


@lru_cache(maxsize=1)
def _circle_weights() -> np.ndarray:
    ws = np.full(CIRCLE_NODES, TWO_PI / CIRCLE_NODES)
    ws.flags.writeable = False
    return ws


def quad_nodes(dom: Domain):
    """Nodes and weights of the quadrature rule over the whole domain; on
    the circle both are shared read-only arrays, the nodes being
    _grid(circle(), CIRCLE_NODES)."""
    if dom.is_circle:
        return _grid(dom, CIRCLE_NODES), _circle_weights()
    return _gauss_pieces(np.array([dom.a]), np.array([dom.b]),
                         np.array([GAUSS_PANELS]))


def integrate(f: Func1D, dom: Domain) -> float:
    ts, ws = quad_nodes(dom)
    return float(ws @ sample(f, ts))


def segment_rules(dom: Domain, los, his):
    """Gauss nodes and weights on every segment [los[i], his[i]],
    concatenated in segment order, with each segment's node count.

    A segment gets at least 2 panels of PANEL_NODES nodes, at the node
    density of the domain rule.  On the circle a segment may extend past
    2pi; nodes are wrapped so periodic functions can be evaluated directly.
    """
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    if np.any(his <= los):
        raise ValueError("empty integration range")
    domain_nodes = CIRCLE_NODES if dom.is_circle else GAUSS_PANELS * PANEL_NODES
    frac = np.maximum((his - los) / dom.span, 1e-12)
    panels = np.maximum(2, np.ceil(domain_nodes * frac / PANEL_NODES).astype(int))
    ts, ws = _gauss_pieces(los, his, panels)
    return dom.wrap(ts), ws, panels * PANEL_NODES


def segment_rule(dom: Domain, lo: float, hi: float):
    """Gauss nodes and weights on one segment: segment_rules on [lo, hi]."""
    ts, ws, _ = segment_rules(dom, [lo], [hi])
    return ts, ws


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
    wide = np.diff(edges) > 1e-15 * dom.span
    ts, ws, _ = segment_rules(dom, edges[:-1][wide], edges[1:][wide])
    return ts, ws


def integrate_with_breaks(f: Func1D, dom: Domain, breaks) -> float:
    """Integrate f over the domain by rule_with_breaks."""
    ts, ws = rule_with_breaks(dom, breaks)
    return float(ws @ sample(f, ts))


# ---------------------------------------------------------------------------
# sign-change and extremum counting


@dataclass(frozen=True, eq=False)
class SignChangeReport:
    """Count of strict sign transitions (or extrema) and their locations.

    count and degenerate come from one pass over the grid; degenerate
    flags a numerically zero (sign counting) or constant (extremum
    counting) input, whose count is 0.  locations, sorted increasing (in
    [0, 2pi) on the circle) and of length count, is refined on its first
    read (_root_finder) and cached read-only.  A caller that reads only
    count never evaluates f between grid points, so a non-finite value of
    f there raises ValueError only when locations is read.
    """

    count: int
    _locate: Callable[[], np.ndarray] = field(repr=False)
    degenerate: bool = False

    @cached_property
    def locations(self) -> np.ndarray:
        out = self._locate()
        out.flags.writeable = False
        return out


def _no_roots() -> np.ndarray:
    return np.empty(0)


def _count_grid(dom: Domain, grid_n: int) -> np.ndarray:
    """_grid(dom, grid_n), the counting grid (read-only and shared up to
    DEFAULT_GRID_N points), for a grid_n that is an integer of at least
    64: every entry point that counts takes its grid here, before it
    evaluates a basis or decomposes a matrix."""
    if isinstance(grid_n, bool) or not isinstance(grid_n, numbers.Integral):
        raise ValueError(f"grid_n must be an integer, got {grid_n!r}")
    if grid_n < 64:
        raise ValueError("grid_n must be at least 64")
    return _grid(dom, grid_n)


def _check_tol(tol) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _sign_transitions(vals: np.ndarray, cyclic: bool):
    """Index arrays (ii, jj) of consecutive surviving samples with
    opposite sign, and whether the input is degenerate.

    Samples with |v| <= DEFAULT_TOL_REL * max|v| are dropped first, which
    collapses each zero run to the single transition across it.  An
    input with no surviving sample (empty, zero or NaN) is degenerate and
    gives empty integer arrays.
    """
    a = np.abs(vals)
    vmax = float(a.max()) if vals.size else 0.0
    keep = None  # no sample dropped: survivors are positions
    if not (vals.size and float(a.min()) > DEFAULT_TOL_REL * vmax):
        keep = np.nonzero(a > DEFAULT_TOL_REL * vmax)[0]
        if keep.size == 0:
            none = np.empty(0, dtype=int)
            return none, none, True
        vals = vals[keep]
    s = vals > 0
    ii = (s[:-1] != s[1:]).nonzero()[0]
    jj = ii + 1
    if cyclic and s[-1] != s[0]:
        ii, jj = np.append(ii, s.size - 1), np.append(jj, 0)
    if keep is not None:
        ii, jj = keep[ii], keep[jj]
    return ii, jj, False


def count_grid_sign_changes(vals, cyclic: bool) -> int:
    """Sign transitions of precomputed grid values under the counting
    rule of count_sign_changes (cyclic on a circle); 0 when every value
    is dropped as numerically zero."""
    ii, _, _ = _sign_transitions(np.asarray(vals, dtype=float), cyclic)
    return ii.size


def _raw_flips(vals: np.ndarray, cyclic: bool) -> np.ndarray:
    """Flips of vals > 0 along each row of a (k, n) array, with the wrap
    pair when cyclic.  They never undercount count_grid_sign_changes: raw
    signs flip at least once between consecutive kept samples of opposite
    sign."""
    k, n = vals.shape
    s = (vals > 0).ravel()
    flips = np.empty_like(s)
    np.not_equal(s[1:], s[:-1], out=flips[:-1])
    # a row's last slot would pair it with the next row; it holds the row's
    # wrap pair on a circle and no flip on an interval
    flips[n - 1::n] = (s[::n] != s[n - 1::n]) if cyclic else False
    return np.bincount(flips.nonzero()[0] // n, minlength=k)


def _counts_over(vals: np.ndarray, cyclic: bool, bound: int) -> np.ndarray:
    """A count for every row of a (k, n) array that exceeds bound exactly
    where count_grid_sign_changes' does, and equals it there: only rows
    whose _raw_flips exceed bound are counted exactly."""
    counts = _raw_flips(vals, cyclic)
    for i in (counts > bound).nonzero()[0].tolist():
        counts[i] = count_grid_sign_changes(vals[i], cyclic)
    return counts


def _secant(p1: float, v1: float, p2: float, v2: float) -> float:
    """Zero of the line through (p1, v1) and (p2, v2); NaN when v1 == v2
    or an input is NaN."""
    return p1 - v1 * (p1 - p2) / (v1 - v2) if v1 != v2 else math.nan


def _guess(lo: float, flo: float, lo2: float, flo2: float,
           hi: float, fhi: float, hi2: float, fhi2: float) -> float:
    """Where in [lo, hi] a bracket's next round looks for its root.

    (lo2, flo2) and (hi2, fhi2) are the previous ends on either side: the
    neighbouring grid samples in the first round, NaN where there is
    none.  The guess is the secant through the two latest points on one
    side, from the side whose error term |(g - p1)(g - p2)| is smaller:
    a step factor that changes sign at the root puts a kink there, and a
    secant across the kink (regula falsi) converges only linearly.
    Regula falsi through (lo, hi) stands in when neither side's secant
    lands in the bracket, the midpoint when that misses too.
    """
    g, best = 0.5 * (lo + hi), math.inf
    for p1, v1, p2, v2 in ((lo, flo, lo2, flo2), (hi, fhi, hi2, fhi2)):
        s = _secant(p1, v1, p2, v2)
        e = abs((s - p1) * (s - p2))
        if lo <= s <= hi and e < best:
            g, best = s, e
    if best == math.inf and fhi != flo:
        s = lo - flo * (hi - lo) / (fhi - flo)
        if lo <= s <= hi:
            g = s
    return g


def _bisect_roots(fvals: Callable, los: np.ndarray, his: np.ndarray,
                  vlos: np.ndarray, vhis: np.ndarray, guesses=None,
                  seeds=None) -> np.ndarray:
    """Vectorized root refinement: each (lo, hi) brackets one sign
    transition, and vlos and vhis hold the values of f at the ends, of
    opposite strict signs.  fvals maps an array of parameters to values.
    guesses, when given, holds a first guess per bracket (NaN or a point
    outside the bracket for none), and seeds = (lo2s, vlo2s, hi2s, vhi2s)
    the points beyond each end and f's values there, from which the first
    secants start.

    The result is the same floats as bisection's _BISECT_ITERS halvings,
    whose midpoints 0.5 * (lo + hi) are the only points tested; a guess
    of where each root lies only decides which of them one f call tests
    at once.  A bracket's first guess is its given guess when that lies
    in the bracket, and every other guess is _guess's secant.  Each round
    lists, for every bracket, bisection's own midpoints walking toward its
    guess, for the halvings left or until a midpoint rounds onto an end
    of its bracket, and evaluates f once on all of them.  A secant
    guess's walk stops sooner, _WALK_SLACK levels below where the
    midpoints are as far apart as the two one-sided secants: past that,
    the guess cannot tell which side the root is on.  Halvings are then
    accepted in order while the next listed point is the midpoint of the
    bracket the actual sign chose, and the first that disagrees is
    accepted too.  A bracket stops at the halving cap or once its
    midpoint rounds onto an end, where later halvings would leave it, and
    the result, bit for bit as it is.

    A round accepts at least one halving per bracket.  A bracket falls
    behind when a round of one halving could leave it more halvings than
    the rounds left after it take with trees _MULTISECT_DEPTH + 1 deep;
    it then lists, as multisection does, every midpoint of its next
    ceil(halvings left / rounds left) levels, and its walk continues
    below the leaf that holds the guess.  So no refinement makes more
    than _MAX_ROUNDS calls of f.

    f is evaluated on arrays of many points instead of one per bracket,
    so an f whose rounding at a point depends on the array around it (a
    BLAS matrix-vector product, as in combination) can see other signs
    where its rounding noise decides them, next to the root, and place
    the root there differently from one-halving-per-call bisection.
    """
    out = 0.5 * (los + his)
    nan = math.nan
    none = [nan] * los.size
    a2s, fa2s, c2s, fc2s = (none,) * 4 if seeds is None else (
        np.asarray(x, dtype=float).tolist() for x in seeds)
    given = {} if guesses is None else dict(enumerate(
        np.asarray(guesses, dtype=float).tolist()))
    # a bracket in refinement: (index, sign at lo, halvings left, lo, f(lo),
    # the lo before it, f there, and the same three at hi)
    active = [(b, sb, _BISECT_ITERS, a, fa, a2, fa2, c, fc, c2, fc2)
              for b, (a, c, sb, fa, fc, a2, fa2, c2, fc2) in enumerate(zip(
                  los.tolist(), his.tolist(), np.sign(vlos).tolist(),
                  vlos.tolist(), vhis.tolist(), a2s, fa2s, c2s, fc2s))
              if a < 0.5 * (a + c) < c]
    rounds_left = _MAX_ROUNDS
    while active:
        pts, plans = [], []
        add = pts.append
        for st in active:
            b, _, n, a, fa, a2, fa2, c, fc, c2, fc2 = st
            g, walk_n = given.pop(b, nan), n
            if not a <= g <= c:
                g = _guess(a, fa, a2, fa2, c, fc, c2, fc2)
                spread = abs(_secant(a, fa, a2, fa2) - _secant(c, fc, c2, fc2))
                if spread > 0.0:
                    levels = math.frexp((c - a) / spread)[1] + _WALK_SLACK
                    walk_n = min(n, max(1, levels))
            depth = 0
            if n - 1 > (_MULTISECT_DEPTH + 1) * (rounds_left - 1):
                depth = -(-n // rounds_left)
            ends, leaf, start = None, 0, len(pts)
            if depth:
                # every bracket depth halvings could reach: ends[i] is
                # pts[start + i - 1], bisection's midpoint of its parents
                m = 1 << depth
                ends = [a] * m + [c]
                step = m
                while step > 1:
                    h = step >> 1
                    for i in range(h, m, h << 1):
                        ends[i] = 0.5 * (ends[i - h] + ends[i + h])
                    step = h
                pts += ends[1:-1]
                h = m >> 1
                while h:
                    if not g <= ends[leaf + h]:
                        leaf += h
                    h >>= 1
                a, c = ends[leaf], ends[leaf + 1]
            walk = len(pts)
            for _ in range(min(walk_n, n - depth)):
                mid = 0.5 * (a + c)
                if mid == a or mid == c:
                    break
                add(mid)
                if g <= mid:
                    c = mid
                else:
                    a = mid
            plans.append((st, g, start, depth, ends, leaf, walk, len(pts)))
        fv = fvals(np.fromiter(pts, float, len(pts))).tolist()
        nxt = []
        for st, g, start, depth, ends, leaf, walk, stop in plans:
            # sb is 1 or -1: the sign at point k is the sign at lo when
            # fv[k] * sb > 0, as np.sign(fv[k]) == sb also for NaN and zeros
            b, sb, n, a, fa, a2, fa2, c, fc, c2, fc2 = st
            i, h = 0, (1 << depth) >> 1
            while h:
                k = start + i + h - 1
                if fv[k] * sb > 0:
                    i += h
                    a2, fa2, a, fa = a, fa, ends[i], fv[k]
                else:
                    c2, fc2, c, fc = c, fc, ends[i + h], fv[k]
                h >>= 1
            n -= depth
            if i == leaf:
                for k in range(walk, stop):
                    x, v = pts[k], fv[k]
                    n -= 1
                    # the walk went left at x exactly when g <= x
                    if v * sb > 0:
                        a2, fa2, a, fa = a, fa, x, v
                        if g <= x:
                            break
                    else:
                        c2, fc2, c, fc = c, fc, x, v
                        if not g <= x:
                            break
            if n and a < 0.5 * (a + c) < c:
                nxt.append((b, sb, n, a, fa, a2, fa2, c, fc, c2, fc2))
            else:
                out[b] = 0.5 * (a + c)
        active = nxt
        rounds_left -= 1
    return out


def _root_finder(fvals: Callable, dom: Domain, ts: np.ndarray,
                 vals: np.ndarray, ii: np.ndarray, jj: np.ndarray,
                 guesses=None) -> Callable[[], np.ndarray]:
    """Deferred refinement of the transitions (ii, jj) found on (ts, vals):
    the returned callable yields the sorted roots of fvals.  Each side's
    secant starts from the neighbouring grid sample, and a bracket that
    holds one of guesses (points where f is known to cross) walks toward
    it first.  The brackets are gathered from ts and vals only when it is
    called, once (SignChangeReport.locations caches the result): most
    reports are read for their count alone.  The call then lets ts and
    vals go, so a report kept after its locations were read holds no grid
    values."""
    def roots():
        nonlocal ts, vals
        los = ts[ii]
        his = ts[jj]
        his = np.where(his <= los, his + TWO_PI, his)  # only the cyclic closing pair
        vlos, vhis = vals[ii], vals[jj]
        vlo2, vhi2 = vals[ii - 1], vals[(jj + 1) % ts.size]
        h, last = ts[1] - ts[0], ts.size - 1
        ts = vals = None
        lo2, hi2 = los - h, his + h
        if not dom.is_circle:
            lo2[ii == 0] = np.nan
            hi2[jj == last] = np.nan
        first = None
        if guesses is not None:
            # each lo's first guess at or above it; _bisect_roots passes
            # over one beyond hi
            x = dom.wrap(np.asarray(guesses, dtype=float).ravel())
            if dom.is_circle:
                x = np.concatenate([x, x + TWO_PI])
            x = np.sort(np.append(x, math.inf))
            first = x[np.searchsorted(x, los)]
        return np.sort(dom.wrap(_bisect_roots(
            fvals, los, his, vlos, vhis, first, (lo2, vlo2, hi2, vhi2))))

    return roots


def count_sign_changes(f: Func1D, dom: Domain,
                       grid_n: int = DEFAULT_GRID_N) -> SignChangeReport:
    """Count strict sign changes of f on the domain's counting grid of
    grid_n (>= 64) points: the package's one counting rule.

    A sample within DEFAULT_TOL_REL of the largest magnitude counts as
    zero.  Zero runs collapse to one transition when the signs on both
    sides differ and to none when they agree, so tangential touches are
    not counted.  Counts on the circle are cyclic, hence even.  The
    report is computed once per function and counting grid (_sign_report).
    """
    return _sign_report(f, dom, grid_n)


def grid_sign_report(f: Func1D, dom: Domain, ts: np.ndarray,
                     vals: np.ndarray, *, guesses=None) -> SignChangeReport:
    """count_sign_changes from f's values vals on the grid ts =
    dom.grid(n), for a caller that has sampled them already; locations
    are refined from f when first read.  guesses are points where f is
    known or expected to cross (prescribed zeros, breaks); they decide
    only how many f calls refinement takes (see _bisect_roots)."""
    ii, jj, degenerate = _sign_transitions(vals, dom.is_circle)
    if degenerate:
        return SignChangeReport(0, _no_roots, True)
    roots = _root_finder(lambda m: sample(f, dom.wrap(m)), dom, ts, vals, ii, jj,
                         guesses)
    return SignChangeReport(ii.size, roots, False)


def _sign_report(f: Func1D, dom: Domain, grid_n: int,
                 guesses=None) -> SignChangeReport:
    """grid_sign_report of f on _count_grid(dom, grid_n), computed once per
    function and counting grid.  On a shared grid (up to
    DEFAULT_GRID_N points) the report is kept on f and freed with it, so a
    check of a function its synthesis counted neither samples the grid nor
    refines again; guesses count only on the first call, and decide only
    how many f calls refinement takes, not its floats.  The grid values
    are not kept (see _root_finder).  A larger grid keeps nothing."""
    ts = _count_grid(dom, grid_n)
    memo = {} if grid_n > DEFAULT_GRID_N else f.__dict__.setdefault("_sign_reports", {})
    if (dom, grid_n) not in memo:
        # refined through a copy of f, so that f and its memo form no cycle
        memo[dom, grid_n] = grid_sign_report(
            Func1D(f.eval, f.label), dom, ts, sample(f, ts), guesses=guesses)
    return memo[dom, grid_n]


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
    ts = _count_grid(dom, grid_n)
    return grid_extrema_report(f, dom, ts, sample(f, ts))


def grid_extrema_report(f: Func1D, dom: Domain, ts: np.ndarray,
                        vals: np.ndarray) -> SignChangeReport:
    """count_extrema from f's values vals on the grid ts = dom.grid(n),
    for a caller that has sampled them already; locations are refined
    from f when first read."""
    hi, lo = (float(vals.max()), float(vals.min())) if vals.size else (0.0, 0.0)
    fscale = max(hi, -lo)  # max|v|
    if fscale == 0.0 or hi - lo <= DEFAULT_TOL_REL * fscale:
        return SignChangeReport(0, _no_roots, True)

    h = dom.span / ts.size
    dv = np.empty_like(vals)
    np.subtract(vals[2:], vals[:-2], out=dv[1:-1])
    dv[0], dv[-1] = vals[1] - vals[-1], vals[0] - vals[-2]  # wrapping on the circle
    dv, dts = (dv, ts) if dom.is_circle else (dv[1:-1], ts[1:-1])
    dv /= 2.0 * h
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
