"""Generalized polynomials with prescribed roots.

These are the sign-matching factors the synthesis machinery multiplies
against step weights: products (x - x_i) on an interval, products
sin((x - x_i)/2) on the circle, and for a general Chebyshev system the
combination whose roots of odd multiplicity sit exactly at a prescribed
simple set and roots of even multiplicity at a prescribed double set.
Feasibility for a system of order n is the strict count condition
2p + q < n over p double and q simple roots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import funcspace as fs
from .chebsys import ChebSystem, spread_points
from ._linalg import svd_kernel
from .exceptions import NotChebyshevError

LOC_TOL = 1e-6

# exclusion radius around prescribed roots for the "no other zeros" scan
_SCAN_GRID = 4096
_SCAN_RADIUS = 1e-4


@dataclass(frozen=True)
class RootPrescription:
    """Simple (odd-multiplicity) and double (even-multiplicity) roots."""

    simple_roots: tuple = ()
    double_roots: tuple = ()

    def __post_init__(self):
        sr = tuple(float(x) for x in self.simple_roots)
        dr = tuple(float(x) for x in self.double_roots)
        object.__setattr__(self, "simple_roots", sr)
        object.__setattr__(self, "double_roots", dr)
        allr = sorted(sr + dr)
        if any(b - a <= 0 for a, b in zip(allr, allr[1:])):
            raise ValueError("prescribed roots must be pairwise distinct")
        if list(sr) != sorted(sr) or list(dr) != sorted(dr):
            raise ValueError("root lists must be sorted increasing")

    @property
    def q(self) -> int:
        return len(self.simple_roots)

    @property
    def p(self) -> int:
        return len(self.double_roots)

    def feasible_for(self, order_n: int) -> bool:
        return 2 * self.p + self.q < order_n


def _check_roots(roots: np.ndarray, dom: fs.Domain):
    if roots.ndim != 1:
        raise ValueError("roots must be a 1-D sequence")
    if roots.size and np.any(np.diff(np.sort(roots)) <= 0):
        raise ValueError("roots must be pairwise distinct")
    if roots.size and not dom.all_inside(roots):
        raise ValueError("roots must lie strictly inside the domain")


def _root_product(rts: np.ndarray, factor, label: str) -> fs.Func1D:
    """prod factor(x - x_i) as a running product over the roots, in
    np.prod's left-to-right order; the empty product is 1."""
    if rts.size == 0:
        return fs.constant(1.0, "1")

    def ev(t):
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        vals = factor(flat - rts[0])
        for r in rts[1:]:
            vals *= factor(flat - r)
        return vals.reshape(t.shape)

    return fs.Func1D(ev, label)


def poly_annihilator(roots, dom: fs.Domain) -> fs.Func1D:
    """prod (x - x_i) on an interval; the empty product is 1."""
    if dom.is_circle:
        raise ValueError("poly_annihilator is for interval domains")
    rts = np.asarray(roots, dtype=float)
    _check_roots(rts, dom)
    return _root_product(rts, lambda d: d, "prod(x-xi)")


def trig_annihilator(roots) -> fs.Func1D:
    """prod sin((x - x_i)/2) on the circle; root count must be even so the
    product actually changes sign at each root (cyclic parity)."""
    rts = np.asarray(roots, dtype=float)
    _check_roots(rts, fs.circle())
    if rts.size % 2 != 0:
        raise ValueError("circle root count must be even")
    return _root_product(rts, lambda d: np.sin(0.5 * d), "prod sin((x-xi)/2)")


def default_annihilator(points, dom: fs.Domain) -> fs.Func1D:
    """The domain-appropriate product annihilator."""
    return trig_annihilator(points) if dom.is_circle else poly_annihilator(points, dom)


# ---------------------------------------------------------------------------
# Krein-style prescriptions on a general system


def _condition_matrix(sys: ChebSystem, rp: RootPrescription, h: float) -> np.ndarray:
    pts = np.asarray(rp.simple_roots + rp.double_roots, dtype=float)
    dr = np.asarray(rp.double_roots, dtype=float)
    B = fs.basis_matrix(sys.basis, np.concatenate([pts, dr + h, dr - h]))
    k, p = pts.size, dr.size
    return np.vstack([B[:k], (B[k:k + p] - B[k + p:]) / (2.0 * h)])


def _fix_probe_sign(combo: fs.Func1D, dom: fs.Domain, coeffs: np.ndarray) -> np.ndarray:
    # positive value at the first decisive probe point, starting from the
    # domain midpoint
    probes = np.concatenate([[dom.a + 0.5 * dom.span], spread_points(dom, 33)])
    vals = fs.sample(combo, dom.wrap(probes))
    vmax = float(np.max(np.abs(vals)))
    if vmax == 0.0:
        return coeffs
    for v in vals:
        if abs(v) > 1e-9 * vmax:
            return coeffs if v > 0 else -coeffs
    return coeffs


def _scan_nodes(dom: fs.Domain, rp: RootPrescription) -> np.ndarray:
    """The scan grid minus small neighborhoods of the prescribed roots."""
    ts = dom.grid(_SCAN_GRID)
    dist = np.full(ts.shape, np.inf)
    for r in rp.simple_roots + rp.double_roots:
        d = ts - r
        if dom.is_circle:
            d = (d + np.pi) % fs.TWO_PI - np.pi
        np.minimum(dist, np.abs(d), out=dist)
    return ts[dist > _SCAN_RADIUS]


def _verify_candidate(sys: ChebSystem, rp: RootPrescription, coeffs,
                      grid: np.ndarray, scan: np.ndarray):
    combo = fs.combination(sys.basis, coeffs, "annihilator")
    rep = fs.grid_sign_report(combo, sys.dom, grid, fs.sample(combo, grid),
                              guesses=rp.simple_roots)
    if rep.degenerate or rep.count != rp.q:
        return False
    want = np.sort(np.asarray(rp.simple_roots, dtype=float))
    if rp.q and np.max(np.abs(np.sort(rep.locations) - want)) > LOC_TOL:
        return False
    # no zeros away from the prescription
    vals = np.abs(fs.sample(combo, scan))
    if vals.size and np.min(vals) <= 1e-9 * float(np.max(vals)):
        return False
    return True


def general_annihilator(sys: ChebSystem, rp: RootPrescription,
                        grid_n: int = fs.DEFAULT_GRID_N) -> np.ndarray:
    """Unit coefficient vector whose combination vanishes exactly at the
    prescription: simple roots with a sign change, double roots without.

    Parameters
    ----------
    sys : the Chebyshev system supplying the basis.
    rp : the root prescription; needs 2p + q < order.
    grid_n : sign-counting grid size (>= 64) of the post-verification.

    A double root is a value condition plus a central-difference
    derivative condition of step 1e-5 of the domain length.

    The conditions define a kernel of dimension >= order - (2p + q).
    Candidates from that kernel are tried in a deterministic order
    (smallest singular direction, kernel basis vectors, then seeded
    random kernel combinations) and each is post-verified: sign changes
    exactly at the simple roots (within 1e-6) and no other zeros on a
    scan grid that excludes small root neighborhoods.  Failure of every
    candidate signals that the input system is not actually Chebyshev.
    """
    n = sys.order_n
    if not rp.feasible_for(n):
        raise ValueError(
            f"infeasible prescription: 2p + q = {2 * rp.p + rp.q} >= order {n}")
    dom = sys.dom
    grid = fs._count_grid(dom, grid_n)
    allr = np.asarray(rp.simple_roots + rp.double_roots, dtype=float)
    _check_roots(allr, dom)
    h = 1e-5 * dom.span
    if rp.p and not dom.is_circle:
        margin = min(np.min(np.asarray(rp.double_roots) - dom.a),
                     np.min(dom.b - np.asarray(rp.double_roots)))
        if margin <= h:
            raise ValueError("double roots sit too close to the endpoints "
                             "for finite differencing")

    M = _condition_matrix(sys, rp, h)
    if M.shape[0] == 0:
        # empty prescription: the whole coefficient space is the kernel
        kernel = np.eye(n)
        fixed = list(kernel.T)
    else:
        kernel, _, _ = svd_kernel(M)
        if kernel.shape[1] == 0:
            raise NotChebyshevError(
                "prescription conditions have no numerical kernel although "
                "2p + q < order; system is degenerate on these points")
        fixed = [kernel[:, -1]] + list(kernel[:, :-1].T)

    def candidates():  # random combinations are drawn only once needed
        yield from fixed
        rng = fs.derived_rng(7, n, rp.q, rp.p)
        for _ in range(24):
            v = kernel @ rng.normal(size=kernel.shape[1])
            nv = np.linalg.norm(v)
            if nv > 0:
                yield v / nv

    scan = _scan_nodes(dom, rp)
    for cand in candidates():
        cand = cand / np.linalg.norm(cand)
        if _verify_candidate(sys, rp, cand, grid, scan):
            combo = fs.combination(sys.basis, cand)
            return _fix_probe_sign(combo, dom, cand)
    raise NotChebyshevError(
        "no kernel combination realizes the prescription; the input system "
        "appears not to be Chebyshev on this domain")
