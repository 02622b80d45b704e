"""Chebyshev-system catalog, randomized verification, dimension estimation.

A system of order n is Chebyshev when no nontrivial combination of its
basis has n or more distinct zeros.  That property cannot be certified
numerically, so verify_chebyshev falsifies: it hunts for a combination
with too many sign changes, both directly (random coefficients) and
through sign flips of collocation determinants.  The honest verdict for
a clean run is therefore "NoViolationFound", never "proved".  The basis
is evaluated on the counting grid once per call, and each combination
is counted as that grid matrix times its coefficients; curves.theorem4_check
hands the probe loop [1, P] from the one curve sample P it also slices.

Probe loops take trials in the chunks of fs._probe_chunks (2, 8, 32,
128, ..., the schedule and the per-trial streams of every falsifier in
the package): drawn trial by trial, evaluated as arrays, counted in one
batched call per chunk by _run_probes (with theorem4_check's convexity
loop in lockstep), then read in trial order, so verdicts and witnesses
are a trial-by-trial loop's.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import funcspace as fs
from ._linalg import smallest_direction
from .exceptions import NotChebyshevError

GOLDEN_FRAC = 0.6180339887498949

DEFAULT_TRIALS = 500

# determinant signs from tuples this close to singular are not trusted
_DET_COND_FLOOR = 1e-12
_LOG_SURE_RATIO = math.log(100.0 * _DET_COND_FLOOR)
# halvings of _flip_witness's walk, and halvings per basis evaluation: 4
# was the fastest of 2-6 on the sine graph's affine functions and on
# {cos, sin} (6 was slower on the smoothed hexagon's quadratics)
_FLIP_HALVINGS = 80
_FLIP_DEPTH = 4

NO_VIOLATION = "NoViolationFound"
COUNTEREXAMPLE = "Counterexample"


@dataclass(frozen=True)
class ChebSystem:
    """An ordered basis with its domain; order_n is the basis length.

    The constructor enforces the parity law: on a circle a Chebyshev
    system always has odd order, so an even-length basis is rejected.
    Candidate spaces that may fail the law (restrictions of polynomials
    to closed curves, say) go through verify_chebyshev as a raw
    (basis, domain) pair instead.
    """

    basis: fs.Basis
    dom: fs.Domain

    def __post_init__(self):
        object.__setattr__(self, "basis", fs.as_basis(self.basis))
        if len(self.basis) < 1:
            raise ValueError("a system needs at least one basis function")
        if self.dom.is_circle and len(self.basis) % 2 == 0:
            raise ValueError("a Chebyshev system on the circle has odd order")

    @property
    def order_n(self) -> int:
        return len(self.basis)


def _as_basis(sys):
    """Accept a ChebSystem or a raw (funcs, dom) pair."""
    funcs, dom = (sys.basis, sys.dom) if isinstance(sys, ChebSystem) else sys
    return fs.as_basis(funcs), dom


# ---------------------------------------------------------------------------
# catalog


def _monomial(j: int) -> fs.Func1D:
    if j == 0:
        return fs.constant(1.0, "1")
    label = "x" if j == 1 else f"x^{j}"
    return fs.Func1D(lambda t, j=j: np.asarray(t, dtype=float) ** j, label)


def polynomial_system(n_deg: int, dom: fs.Domain | None = None) -> ChebSystem:
    """Monomials {1, x, ..., x^n_deg} on an interval (default (-1, 1))."""
    if n_deg < 0:
        raise ValueError("degree must be nonnegative")
    if dom is None:
        dom = fs.interval(-1.0, 1.0)
    if dom.is_circle:
        raise ValueError("polynomial systems live on an interval")
    return ChebSystem(tuple(_monomial(j) for j in range(n_deg + 1)), dom)


def trig_system(k_harm: int) -> ChebSystem:
    """{1, cos x, sin x, ..., cos kx, sin kx} on the circle, order 2k+1."""
    if k_harm < 0:
        raise ValueError("harmonic count must be nonnegative")
    basis = [fs.constant(1.0, "1")]
    for m in range(1, k_harm + 1):
        basis.append(fs.Func1D(lambda t, m=m: np.cos(m * np.asarray(t, dtype=float)),
                               f"cos{m}x"))
        basis.append(fs.Func1D(lambda t, m=m: np.sin(m * np.asarray(t, dtype=float)),
                               f"sin{m}x"))
    return ChebSystem(tuple(basis), fs.circle())


def power_system(alphas: Sequence[float], dom: fs.Domain) -> ChebSystem:
    """{1, t^a1, ..., t^ad} on an interval with a > 0, exponents increasing."""
    al = np.asarray(alphas, dtype=float)
    if al.size < 1 or np.any(al <= 0) or np.any(np.diff(al) <= 0):
        raise ValueError("exponents must be positive and strictly increasing")
    if dom.is_circle or dom.a <= 0:
        raise ValueError("power systems need an interval with positive left endpoint")
    basis = [fs.constant(1.0, "1")]
    for a in al:
        basis.append(fs.Func1D(lambda t, a=a: np.asarray(t, dtype=float) ** a,
                               f"t^{a:g}"))
    return ChebSystem(tuple(basis), dom)


# ---------------------------------------------------------------------------
# collocation and verification


def collocation_matrix(sys, points) -> np.ndarray:
    """Matrix of basis values, one row per point, one column per function."""
    basis, dom = _as_basis(sys)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size < 1:
        raise ValueError("points must be a nonempty 1-d list")
    if np.any(np.diff(pts) <= 0):
        raise ValueError("points must be strictly increasing")
    if not dom.all_inside(pts):
        raise ValueError("points must lie inside the domain")
    return fs.basis_matrix(basis, pts)


@dataclass(frozen=True)
class ChebVerdict:
    status: str
    trials_run: int
    witness_coeffs: Optional[np.ndarray] = None
    witness_zero_count: Optional[int] = None


def _stratified_fracs(rng, n: int) -> np.ndarray:
    # one fraction per stratum with a 5% wall on each side: strictly
    # increasing, never nearly coincident
    u = rng.uniform(size=n)
    return (np.arange(n) + 0.05 + 0.9 * u) / n


def _stratified_tuple(rng, dom: fs.Domain, n: int) -> np.ndarray:
    return dom.a + dom.span * _stratified_fracs(rng, n)


def _clustered_tuple(rng, dom: fs.Domain, n: int) -> np.ndarray:
    # tuples confined to a random subwindow, biased narrow: determinant
    # sign flips of a non-Chebyshev system are often local, invisible to
    # one-point-per-stratum sampling over the whole domain.  Circle
    # tuples are sorted back into canonical [0, 2pi) order so signs stay
    # comparable whatever the window position.
    w = dom.span * (0.05 + 0.95 * rng.uniform() ** 2)
    if dom.is_circle:
        return np.sort(dom.wrap(rng.uniform() * fs.TWO_PI
                                + w * _stratified_fracs(rng, n)))
    lo = dom.a + (dom.span - w) * rng.uniform()
    return lo + w * _stratified_fracs(rng, n)


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


def _flip_witness(basis, G, cyclic, pts_ref, sign_ref, pts_bad):
    """Bisect the segment between two point tuples whose collocation
    determinants disagree in sign, land on a near-singular tuple, and
    return (coeffs, count) for its null combination if that combination
    really has >= n sign changes on the grid where G holds the basis.

    Multisection, bisection's tuples: a round builds the 2**k + 1 tuples
    that k = _FLIP_DEPTH halvings can reach, signs the interior ones from
    one basis evaluation, and walks bisection's path through them.
    """
    n = len(basis)
    lo, hi = pts_ref, pts_bad
    done = 0
    while done < _FLIP_HALVINGS:
        k = min(_FLIP_DEPTH, _FLIP_HALVINGS - done)
        m = 2 ** k
        ends = np.empty((m + 1, n))
        ends[0], ends[m] = lo, hi
        step = m
        while step > 1:
            ends[step // 2::step] = 0.5 * (ends[:-1:step] + ends[step::step])
            step //= 2
        Ms = fs.basis_matrix(basis, ends[1:m]).reshape(m - 1, n, n)
        sign, informative = _det_signs(Ms)
        at, step = 0, m // 2
        while step:
            j = at + step - 1  # Ms row of bisection's next midpoint, ends[at + step]
            if not informative[j]:
                break
            if sign[j] == sign_ref:
                at += step
            step //= 2
        if step:
            break
        lo, hi = ends[at], ends[at + 1]
        done += k
    coeffs = smallest_direction(Ms[j])
    count = fs.count_grid_sign_changes(G @ coeffs, cyclic)
    if count >= n:
        return coeffs, count
    return None


def _check_trials(trials) -> None:
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be at least 1")


def _run_probes(cyclic: bool, *loops) -> list:
    """Run probe loops in lockstep and return their verdicts.  A loop is
    a generator that yields a chunk's (k, grid_n) grid values, is sent
    their k sign-change counts, and returns its verdict; one batched count
    serves every loop still running."""
    verdicts = [None] * len(loops)
    rows = {}

    def advance(i, counts):
        try:
            rows[i] = loops[i].send(counts)
        except StopIteration as stop:
            rows.pop(i, None)
            verdicts[i] = stop.value

    for i in range(len(loops)):
        advance(i, None)
    while rows:
        live = list(rows)
        counts = fs._grid_counts(np.concatenate([rows[i] for i in live])
                                 if len(live) > 1 else rows[live[0]], cyclic)
        at = 0
        for i in live:
            k = len(rows[i])
            advance(i, counts[at:at + k])
            at += k
    return verdicts


def verify_chebyshev(sys, trials: int = DEFAULT_TRIALS, rng_seed: int = 0,
                     grid_n: int = fs.DEFAULT_GRID_N) -> ChebVerdict:
    """Randomized falsification of the Chebyshev property.

    Three seeded probes per trial: collocation determinants over (i)
    stratified ordered point tuples spanning the domain and (ii) tuples
    clustered in a random subwindow must keep one sign (the first
    informative tuple fixes the reference; circle tuples are kept in
    ascending [0, 2pi) order, fixing the cyclic orientation); (iii) a
    random unit coefficient vector must give a combination with at most
    n-1 sign changes.  The first verified violation is returned as a
    Counterexample with coefficients whose combination demonstrably has
    >= n sign changes; a determinant flip that cannot be converted into
    such a witness raises a diagnostic instead.

    Trials run in chunks of 2, 8, 32, 128, ..., trial t drawn from
    derived_rng(rng_seed, t); a chunk's tuples are signed from one basis
    evaluation and one stacked slogdet, its combinations counted in one
    batched call, and its trials read in order: verdict, trials_run and
    witness are those of a trial-by-trial loop.

    sys may be a ChebSystem or a raw (funcs, dom) pair; the raw form
    exists so candidate spaces of even order on the circle (which the
    ChebSystem constructor rejects outright) can still be examined.
    """
    basis, dom = _as_basis(sys)
    _check_trials(trials)
    fs._check_count_args(grid_n)
    G = fs.basis_matrix(basis, dom.grid(grid_n))
    return _run_probes(dom.is_circle,
                       _chebyshev_probes(basis, dom, G, trials, rng_seed))[0]


def _chebyshev_draws(dom, n, stream, start, stop):
    """Trials start..stop-1's stratified and clustered tuples, drawn from
    stream(t), interleaved as rows of a (2m, n) array, and unit coefficient
    vectors (m, n; NaN, which counts 0, for an all-zero draw)."""
    m = stop - start
    pts, C = np.empty((2 * m, n)), np.full((m, n), np.nan)
    for i in range(m):
        g = stream(start + i)
        pts[2 * i] = _stratified_tuple(g, dom, n)
        pts[2 * i + 1] = _clustered_tuple(g, dom, n)
        coeffs = g.normal(size=n)
        norm = np.linalg.norm(coeffs)
        if norm != 0.0:
            C[i] = coeffs / norm
    return pts, C


def _chebyshev_probes(basis, dom, G, trials, rng_seed):
    """verify_chebyshev's probe loop, counting on G, the basis's matrix on
    the counting grid; a generator for _run_probes."""
    n = len(basis)
    ref_sign = 0.0
    ref_pts = None
    for start, stop, stream in fs._probe_chunks(rng_seed, trials, G.shape[0]):
        pts, C = _chebyshev_draws(dom, n, stream, start, stop)
        sign, informative = _det_signs(fs.basis_matrix(basis, pts).reshape(-1, n, n))
        counts = yield np.matmul(G, C[:, :, None])[..., 0]
        for i in range(stop - start):
            for j in (2 * i, 2 * i + 1):
                if not informative[j]:
                    continue
                if ref_sign == 0.0:
                    ref_sign, ref_pts = sign[j], pts[j]
                elif sign[j] != ref_sign:
                    witness = _flip_witness(basis, G, dom.is_circle, ref_pts,
                                            ref_sign, pts[j])
                    if witness is not None:
                        return ChebVerdict(COUNTEREXAMPLE, start + i + 1,
                                           witness[0], witness[1])
                    raise NotChebyshevError(
                        "collocation determinant changed sign between sampled "
                        "tuples but no sign-change witness could be extracted")
            if counts[i] >= n:
                return ChebVerdict(COUNTEREXAMPLE, start + i + 1, C[i], int(counts[i]))
    return ChebVerdict(NO_VIOLATION, trials, None, None)


# ---------------------------------------------------------------------------
# dimension estimation


def spread_points(dom: fs.Domain, n: int) -> np.ndarray:
    """n low-discrepancy points strictly inside the domain: equal spacing
    with a fixed golden-ratio fractional offset (deterministic)."""
    fr = (np.arange(n) + GOLDEN_FRAC) / n
    if dom.is_circle:
        return fr * fs.TWO_PI
    return dom.a + dom.span * fr


def dimension_estimate(funcs: Sequence[fs.Func1D], dom: fs.Domain) -> int:
    """Numerical rank of the span of funcs: singular values above 1e-8 of
    the largest, of their values on max(4 * len(funcs), 64) spread
    points."""
    funcs = fs.as_basis(funcs)
    pts = spread_points(dom, max(4 * len(funcs), 64))
    s = np.linalg.svd(fs.basis_matrix(funcs, pts), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-8 * s[0]))
