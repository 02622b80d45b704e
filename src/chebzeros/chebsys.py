"""Chebyshev-system catalog, randomized verification, dimension estimation.

A system of order n is Chebyshev when no nontrivial combination of its
basis has n or more distinct zeros.  That property cannot be certified
numerically, so verify_chebyshev falsifies: it hunts for a combination
with too many sign changes, both directly (random coefficients) and
through sign flips of collocation determinants.  The honest verdict for
a clean run is therefore "NoViolationFound", never "proved".  The basis
is evaluated on the counting grid once per call, and each combination
is counted as that grid matrix times its coefficients.
"""

from __future__ import annotations

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


def _det_sign(M: np.ndarray):
    """(sign, informative): sign of det M, untrusted near singularity."""
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= _DET_COND_FLOOR * s[0]:
        return 0.0, False
    sign, _ = np.linalg.slogdet(M)
    return float(sign), sign != 0.0


def _flip_witness(basis, G, cyclic, pts_ref, sign_ref, pts_bad):
    """Walk the segment between two point tuples whose collocation
    determinants disagree in sign, land on a near-singular tuple, and
    return (coeffs, count) for its null combination if that combination
    really has >= n sign changes on the grid where G holds the basis."""
    lo, hi = pts_ref.copy(), pts_bad.copy()
    mid = 0.5 * (lo + hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        sign, informative = _det_sign(fs.basis_matrix(basis, mid))
        if not informative:
            break
        if sign == sign_ref:
            lo = mid
        else:
            hi = mid
    coeffs = smallest_direction(fs.basis_matrix(basis, mid))
    count = fs.count_grid_sign_changes(G @ coeffs, cyclic)
    if count >= len(basis):
        return coeffs, count
    return None


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

    sys may be a ChebSystem or a raw (funcs, dom) pair; the raw form
    exists so candidate spaces of even order on the circle (which the
    ChebSystem constructor rejects outright) can still be examined.
    """
    basis, dom = _as_basis(sys)
    n = len(basis)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    fs._check_count_args(grid_n)
    G = fs.basis_matrix(basis, dom.grid(grid_n))
    ref_sign = 0.0
    ref_pts = None
    for trial in range(trials):
        rng = fs.derived_rng(rng_seed, trial)

        for pts in (_stratified_tuple(rng, dom, n),
                    _clustered_tuple(rng, dom, n)):
            sign, informative = _det_sign(fs.basis_matrix(basis, pts))
            if not informative:
                continue
            if ref_sign == 0.0:
                ref_sign, ref_pts = sign, pts
            elif sign != ref_sign:
                witness = _flip_witness(basis, G, dom.is_circle, ref_pts,
                                        ref_sign, pts)
                if witness is not None:
                    return ChebVerdict(COUNTEREXAMPLE, trial + 1,
                                       witness[0], witness[1])
                raise NotChebyshevError(
                    "collocation determinant changed sign between sampled "
                    "tuples but no sign-change witness could be extracted")

        coeffs = rng.normal(size=n)
        norm = np.linalg.norm(coeffs)
        if norm == 0.0:
            continue
        coeffs = coeffs / norm
        count = fs.count_grid_sign_changes(G @ coeffs, dom.is_circle)
        if count >= n:
            return ChebVerdict(COUNTEREXAMPLE, trial + 1, coeffs, count)
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
