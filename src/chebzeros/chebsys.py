"""Chebyshev-system catalog, randomized verification, dimension estimation.

A system of order n is Chebyshev when no nontrivial combination of its
basis has n or more distinct zeros.  That property cannot be certified
numerically, so verify_chebyshev falsifies: a clean run is
"NoViolationFound", evidence and never proof, and a "Counterexample"
carries a combination with n or more sign changes under the counting
rule of fs.count_sign_changes.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import funcspace as fs
from ._linalg import _det_signs, smallest_direction
from .exceptions import NotChebyshevError

GOLDEN_FRAC = 0.6180339887498949

DEFAULT_TRIALS = 500

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


def polynomial_system(n_deg: int, dom: fs.Domain | None = None) -> ChebSystem:
    """Monomials {1, x, ..., x^n_deg} on an interval (default (-1, 1)), the
    columns of fs._int_powers (pow is slow on negative bases)."""
    if n_deg < 0:
        raise ValueError("degree must be nonnegative")
    if dom is None:
        dom = fs.interval(-1.0, 1.0)
    if dom.is_circle:
        raise ValueError("polynomial systems live on an interval")
    labels = ["1", "x", *(f"x^{j}" for j in range(2, n_deg + 1))][:n_deg + 1]
    return ChebSystem(fs.Basis.from_fill(labels, lambda ts: fs._int_powers(ts, n_deg)),
                      dom)


def trig_system(k_harm: int) -> ChebSystem:
    """The columns of fs._trig_terms: {1, cos x, ..., sin kx} on the circle."""
    if k_harm < 0:
        raise ValueError("harmonic count must be nonnegative")
    labels = ["1"] + [f"{f}{m}x" for m in range(1, k_harm + 1) for f in ("cos", "sin")]
    return ChebSystem(fs.Basis.from_fill(labels, lambda ts: fs._trig_terms(ts, k_harm)),
                      fs.circle())


def power_system(alphas: Sequence[float], dom: fs.Domain) -> ChebSystem:
    """{1, t^a1, ..., t^ad} on an interval with a > 0, exponents increasing."""
    al = np.asarray(alphas, dtype=float)
    if al.size < 1 or np.any(al <= 0) or np.any(np.diff(al) <= 0):
        raise ValueError("exponents must be positive and strictly increasing")
    if dom.is_circle or dom.a <= 0:
        raise ValueError("power systems need an interval with positive left endpoint")
    labels = ["1"] + [f"t^{a:g}" for a in al]
    return ChebSystem(fs.Basis.from_fill(
        labels, lambda ts: np.column_stack([ts ** a for a in (0.0, *al)])), dom)


# ---------------------------------------------------------------------------
# verification


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


def verify_chebyshev(sys, trials: int = DEFAULT_TRIALS, rng_seed: int = 0,
                     grid_n: int = fs.DEFAULT_GRID_N) -> ChebVerdict:
    """Randomized falsification of the Chebyshev property.

    Three seeded probes per trial: collocation determinants over (i)
    stratified ordered point tuples spanning the domain and (ii) tuples
    clustered in a random subwindow must keep one sign (the first
    informative tuple fixes the reference; circle tuples are kept in
    ascending [0, 2pi) order, fixing the cyclic orientation); (iii) a
    random unit coefficient vector must give a combination with at most
    n-1 sign changes on the counting grid.  The first verified violation
    is returned as a Counterexample whose coefficients give >= n sign
    changes; a determinant flip that cannot be converted into such a
    witness raises NotChebyshevError.  Trial t draws from
    derived_rng(rng_seed, t), so a verdict depends only on the inputs.

    sys may be a ChebSystem or a raw (funcs, dom) pair; the raw form
    exists so candidate spaces of even order on the circle (which the
    ChebSystem constructor rejects outright) can still be examined.
    """
    basis, dom = _as_basis(sys)
    _check_trials(trials)
    G = fs.basis_matrix(basis, fs._count_grid(dom, grid_n))
    return _chebyshev_probes(basis, dom, G, trials, rng_seed)


def _chebyshev_draws(dom, n, gens, m):
    """The stratified and clustered tuples of m trials, one trial drawn
    from each Generator of gens in turn, interleaved as rows of a (2m, n)
    array, and unit coefficient vectors (m, n; NaN, which counts 0, for an
    all-zero draw).  Only the stream calls are made trial by trial; the
    chunk's arithmetic is that of _stratified_tuple, _clustered_tuple and
    the normalized normal(size=n), bit for bit, done on arrays."""
    k = 2 * n + 2
    D = np.empty((m, k + n))
    for i, g in enumerate(gens):
        # the doubles of uniform(size=n), uniform(), uniform() and
        # uniform(size=n) are one run of the stream: one random call
        g.random(out=D[i, :k])
        D[i, k:] = g.normal(size=n)
    # _stratified_fracs of both uniform blocks at once; columns n and n + 1,
    # the window's two draws, come out unused
    F = (np.arange(k) % (n + 2) + 0.05 + 0.9 * D[:, :k]) / n
    # Python's pow, as _clustered_tuple takes it: it rounds u ** 2
    # differently from u * u for about one draw in 1200
    sq = np.array([x ** 2 for x in D[:, n].tolist()])
    w, u = (dom.span * (0.05 + 0.95 * sq))[:, None], D[:, n + 1, None]
    pts = np.empty((m, 2, n))
    pts[:, 0] = dom.a + dom.span * F[:, :n]
    if dom.is_circle:
        pts[:, 1] = np.sort(dom.wrap(u * fs.TWO_PI + w * F[:, n + 2:]), axis=1)
    else:
        pts[:, 1] = dom.a + (dom.span - w) * u + w * F[:, n + 2:]
    # np.linalg.norm of a vector is sqrt(x . x), and a stacked row-by-column
    # matmul takes the same dot
    Z = D[:, k:]
    norm = np.sqrt(np.matmul(Z[:, None], Z[:, :, None]))[:, 0]
    norm[norm == 0.0] = np.nan
    return pts.reshape(2 * m, n), Z / norm


def _chebyshev_probes(basis, dom, G, trials, rng_seed):
    """verify_chebyshev's probe loop, counting on G, the basis's matrix on
    the counting grid.  Trials run in the chunks of fs._probe_chunks, each
    chunk's arithmetic done on arrays (_chebyshev_draws) and its
    combinations counted in one fs._counts_over call, and are read in
    order: verdict, trials_run and witness are a trial-by-trial loop's."""
    n = len(basis)
    ref_sign = 0.0
    ref_pts = None
    for start, stop, gens in fs._probe_chunks(rng_seed, trials, G.shape[0]):
        pts, C = _chebyshev_draws(dom, n, gens, stop - start)
        sign, informative = _det_signs(fs.basis_matrix(basis, pts).reshape(-1, n, n))
        counts = fs._counts_over(np.matmul(G, C[:, :, None])[..., 0], dom.is_circle, n - 1)
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


def _span_rows(n_funcs: int) -> int:
    return max(4 * n_funcs, 64)  # the fewest rows a span test of n_funcs takes


def _span_rank(M: np.ndarray) -> int:
    """Numerical rank of M's column span: singular values over 1e-8 of the max."""
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > 1e-8 * s[0])) if s.size and s[0] != 0.0 else 0


def dimension_estimate(funcs: Sequence[fs.Func1D], dom: fs.Domain) -> int:
    """_span_rank of funcs' values on _span_rows(len(funcs)) spread points."""
    pts = spread_points(dom, _span_rows(len(funcs)))
    return _span_rank(fs.basis_matrix(funcs, pts))
