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
sharpened between the bracketing grid samples, but only when a report's
`locations` is first read; callers that need only the count (every lower
bound in the package) never evaluate f between grid points.  Refinement
gives bisection's floats.  One f evaluation tests, for every bracket,
bisection's own midpoints walking toward a secant guess of its root, and
the halvings are kept while f's signs agree with the walk; a bracket
stops once it has shrunk to float resolution, where further halvings
could not move it.  No refinement takes more than _MAX_ROUNDS
evaluations.
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
# missing, and no bracket of a seed-1 synth benchmark pass needs one
_MULTISECT_DEPTH = 5
_MAX_ROUNDS = -(-_BISECT_ITERS // _MULTISECT_DEPTH)


def derived_rng(seed, *keys):
    """Deterministic generator keyed by (seed, key, ...).

    Trials seeded as derived_rng(seed, trial_index) do not depend on
    execution order, so sequential and parallel sweeps see identical
    streams.  _trial_seeds and _pcg64_state reproduce these streams for a
    whole range of trial indices at once, bit for bit.
    """
    material = [int(seed) % (2 ** 63)] + [int(k) % (2 ** 63) for k in keys]
    return np.random.default_rng(material)


# SeedSequence's hash constants (NumPy NEP 19) and PCG64's 128-bit LCG
# multiplier (O'Neill 2014): both algorithms are fixed and stream-stable
_M32, _M128 = 2 ** 32 - 1, 2 ** 128 - 1
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_S16, _S32 = np.uint32(16), np.uint64(32)


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The constants of SeedSequence's successive hashmix calls, as a
    column: call j xors with entry j and multiplies by entry j + 1."""
    c = [init]
    for _ in range(calls):
        c.append(c[-1] * mult & _M32)
    return np.array(c, np.uint32)[:, None]


# mix_entropy makes 4 + 12 hashmix calls, generate_state(4, uint64) 8
_HASH_A = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)


def _mix_consts(src: int):
    """The constants of mixing pass src's three hashmix calls (of pool word
    src, one per other word), in the rows of the words they mix into."""
    xor, mul = np.zeros((4, 1), np.uint32), np.zeros((4, 1), np.uint32)
    rows, j = [i for i in range(4) if i != src], 4 + 3 * src
    xor[rows], mul[rows] = _HASH_A[j:j + 3], _HASH_A[j + 1:j + 4]
    return xor, mul


_MIX_PASSES = [_mix_consts(src) for src in range(4)]


def _hashmix(v, xor, mul):
    v = (v ^ xor) * mul
    return v ^ (v >> _S16)


def _seed_words(n: int) -> list:
    """SeedSequence's uint32 words of a nonnegative int, low word first."""
    words = [n & _M32]
    while n >> 32:
        n >>= 32
        words.append(n & _M32)
    return words


def _trial_seeds(seed, trials: int, *keys, start: int = 0) -> np.ndarray:
    """SeedSequence([seed, t, *keys]).generate_state(4, np.uint64) for t
    in range(start, trials), from derived_rng's seed material, hashed as
    arrays: a (trials - start, 4) uint64 array, one row per trial.

    _pcg64_state turns a row into the PCG64 state derived_rng(seed, t,
    *keys) starts from, so one reused Generator set to it in turn draws
    each trial's stream without a SeedSequence and a PCG64 per trial.
    """
    if trials > 2 ** 32:
        raise ValueError("trial keys past 2**32 take two seed words")
    words = _seed_words(int(seed) % (2 ** 63))
    at = len(words)
    words += [0] + [w for k in keys for w in _seed_words(int(k) % (2 ** 63))]
    if len(words) > 4:
        raise ValueError("seed material past SeedSequence's 4-word pool")
    pool = np.zeros((4, trials - start), np.uint32)
    pool[:len(words)] = np.array(words, np.uint32)[:, None]
    pool[at] = np.arange(start, trials, dtype=np.uint32)
    # SeedSequence.mix_entropy: hash each word, then mix every hashed
    # word into the other three; pass src leaves its own row as it is
    pool = _hashmix(pool, _HASH_A[:4], _HASH_A[1:5])
    for src, (xor, mul) in enumerate(_MIX_PASSES):
        r = pool * _MIX_L - _hashmix(pool[src], xor, mul) * _MIX_R
        keep = pool[src]
        pool = r ^ (r >> _S16)
        pool[src] = keep
    # generate_state(4, np.uint64): 8 words from the pool in turn, paired
    # little-endian
    out = _hashmix(np.concatenate([pool, pool]), _HASH_B[:8], _HASH_B[1:])
    out = out.astype(np.uint64)
    return (out[0::2] | out[1::2] << _S32).T


def _pcg64_state(words) -> dict:
    """The bit_generator state PCG64 seeds from a SeedSequence whose
    generate_state(4, np.uint64) is words (Python ints): srandom's state
    0, one LCG step, add the seed, one more step."""
    s_hi, s_lo, i_hi, i_lo = words
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


# below this many trials, one derived_rng per trial (about 22 us) costs less
# than one _trial_seeds hash (about 75 us) plus a state set per trial
_HASH_MIN_TRIALS = 5
# trials per probe chunk are capped so that each probe row of a chunk holds
# at most this many values
_CHUNK_SAMPLES = 2 ** 18


def _probe_chunks(seed, trials: int, rows: int, *keys):
    """The probe loops' one schedule: (start, stop, stream) for chunks of
    2, 8, 32, 128, ... trials, cut at the budget and at _CHUNK_SAMPLES //
    rows trials (rows: the values per probe row).  The short first chunk
    keeps an early counterexample cheap; a later chunk takes in a shorter
    remainder of the budget if that fits under the cap.  stream(t), for t
    in range(start, stop), is a Generator at the start of derived_rng(seed,
    t, *keys)'s stream until the next chunk: one derived_rng per trial in
    a chunk of under _HASH_MIN_TRIALS trials, else one reused Generator set
    to seed words hashed for the first such chunk alone, then for the rest
    of the budget, so a loop hashes at most twice."""
    cap = max(1, _CHUNK_SAMPLES // rows)
    g, start, size, end = None, 0, 2, 0
    while start < trials:
        stop = min(trials, start + size, start + cap)
        if start and trials - stop < min(4 * size, cap) and trials - start <= cap:
            stop = trials
        if stop > end and stop - start >= _HASH_MIN_TRIALS:
            end = stop if g is None else trials
            words, at = _trial_seeds(seed, end, *keys, start=start), start
            g = g or np.random.Generator(np.random.PCG64(0))
        if stop > end:
            yield start, stop, lambda t: derived_rng(seed, t, *keys)
        else:
            def stream(t, words=words[start - at:stop - at].tolist(), start=start):
                g.bit_generator.state = _pcg64_state(words[t - start])
                return g
            yield start, stop, stream
        start, size = stop, 4 * size


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


def quad_nodes(dom: Domain):
    """Nodes and weights of the quadrature rule over the whole domain."""
    if dom.is_circle:
        n = CIRCLE_NODES
        return np.arange(n) * (TWO_PI / n), np.full(n, TWO_PI / n)
    return _gauss_pieces(np.array([dom.a]), np.array([dom.b]),
                         np.array([GAUSS_PANELS]))


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
    """Count of strict sign transitions with their refined locations.

    count and degenerate come from one pass over the sample grid.
    locations is computed on its first read and cached, so the same array
    comes back on every later read.  It is refined to bisection's floats
    by guess-guided rounds of one f evaluation each (_bisect_roots), and
    stops once every bracket has reached float resolution.  A caller that
    reads only count never evaluates f between grid points, so a
    non-finite value of f there raises ValueError only when locations is
    read.

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
    if isinstance(grid_n, bool) or not isinstance(grid_n, numbers.Integral):
        raise ValueError(f"grid_n must be an integer, got {grid_n!r}")
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


def _grid_counts(vals: np.ndarray, cyclic: bool) -> np.ndarray:
    """count_grid_sign_changes of every row of a (k, n) array.  A dropped
    sample takes the sign of the kept one before it (after it, in a run
    opening its row), so a dropped run counts as in _sign_transitions."""
    k, n = vals.shape
    a = np.abs(vals)
    s = (vals > 0).ravel()
    drop = (~(a > DEFAULT_TOL_REL * a.max(axis=1, keepdims=True))).ravel().nonzero()[0]
    if drop.size:
        start = drop % n == 0
        start[0] = True
        start[1:] |= drop[1:] - drop[:-1] != 1
        end = np.ones_like(start)
        end[:-1] = start[1:]
        first = np.maximum.accumulate(np.where(start, drop, 0))
        last = np.minimum.accumulate(np.where(end, drop, s.size)[::-1])[::-1]
        src = np.where(first % n == 0, last + 1, first - 1)
        s[drop] = s[np.minimum(src, s.size - 1)]
    flips = (s[1:] != s[:-1]).nonzero()[0]
    counts = np.bincount(flips[flips % n != n - 1] // n, minlength=k)
    if cyclic:
        counts += s[::n] != s[n - 1::n]
    return counts


def _guess(lo: float, flo: float, lo2: float, flo2: float,
           hi: float, fhi: float, hi2: float, fhi2: float) -> float:
    """Where in [lo, hi] a bracket's next round looks for its root.

    (lo2, flo2) and (hi2, fhi2) are the previous ends on either side, NaN
    before an end has moved.  The guess is the secant through the two
    latest points on one side, from the side whose error term
    |(g - p1)(g - p2)| is smaller: a step factor that changes sign at the
    root puts a kink there, and a secant across the kink (regula falsi)
    converges only linearly.  Regula falsi through (lo, hi) stands in when
    neither side's secant lands in the bracket, the midpoint when that
    misses too.
    """
    g, best = 0.5 * (lo + hi), math.inf
    for p1, v1, p2, v2 in ((lo, flo, lo2, flo2), (hi, fhi, hi2, fhi2)):
        if v1 != v2:
            s = p1 - v1 * (p1 - p2) / (v1 - v2)
            e = abs((s - p1) * (s - p2))
            if lo <= s <= hi and e < best:
                g, best = s, e
    if best == math.inf and fhi != flo:
        s = lo - flo * (hi - lo) / (fhi - flo)
        if lo <= s <= hi:
            g = s
    return g


def _bisect_roots(fvals: Callable, los: np.ndarray, his: np.ndarray,
                  vlos: np.ndarray, vhis: np.ndarray) -> np.ndarray:
    """Vectorized root refinement: each (lo, hi) brackets one sign
    transition, and vlos and vhis hold the values of f at the ends, of
    opposite strict signs.  fvals maps an array of parameters to values.

    The result is the same floats as bisection's _BISECT_ITERS halvings,
    whose midpoints 0.5 * (lo + hi) are the only points tested; a guess
    of where each root lies (_guess) only decides which of them one f
    call tests at once.  Each round lists, for every bracket, bisection's
    own midpoints walking toward its guess, for the halvings left or
    until a midpoint rounds onto an end of its bracket, and evaluates f
    once on all of them.  Halvings are then accepted in order while the
    next listed point is the midpoint of the bracket the actual sign
    chose, and the first that disagrees is accepted too.  A bracket
    stops at the halving cap or once its midpoint rounds onto an end,
    where later halvings would leave it, and the result, bit for bit as
    it is.

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
    # a bracket in refinement: (index, sign at lo, halvings left, lo, f(lo),
    # the lo before it, f there, and the same three at hi)
    active = [(b, sb, _BISECT_ITERS, a, fa, nan, nan, c, fc, nan, nan)
              for b, (a, c, sb, fa, fc) in enumerate(zip(
                  los.tolist(), his.tolist(), np.sign(vlos).tolist(),
                  vlos.tolist(), vhis.tolist()))
              if a < 0.5 * (a + c) < c]
    rounds_left = _MAX_ROUNDS
    while active:
        pts, plans = [], []
        add = pts.append
        for st in active:
            n, a, fa, a2, fa2, c, fc, c2, fc2 = st[2:]
            g = _guess(a, fa, a2, fa2, c, fc, c2, fc2)
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
            for _ in range(n - depth):
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
                 vals: np.ndarray, ii: np.ndarray,
                 jj: np.ndarray) -> Callable[[], np.ndarray]:
    """Deferred refinement of the transitions (ii, jj) found on (ts, vals):
    the returned callable yields the sorted roots of fvals.  It keeps only
    the bracket arrays, not the grid a report outlives."""
    los = ts[ii]
    his = ts[jj]
    his = np.where(his <= los, his + TWO_PI, his)  # only the cyclic closing pair
    vlos, vhis = vals[ii], vals[jj]
    return lambda: np.sort(dom.wrap(_bisect_roots(fvals, los, his, vlos, vhis)))


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
