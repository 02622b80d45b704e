"""Polygonal lines: discrete convexity, moment-orthogonal vertex masses,
mass-difference sign counts, and the side-length comparison lemma for
polygons sharing a normal fan.

The discrete picture mirrors the continuous one with sums over vertices
in place of integrals: masses in the null space of a multivariate
Vandermonde matrix must change sign many times along a convex polygonal
line, and for two convex polygons with parallel sides the side-length
differences are exactly such a mass system on the polygon of unit
normals (they sum to zero against every normal by the closure identity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import funcspace as fs
from ._linalg import _det_signs, _planes_through, fix_leading_sign, svd_kernel
from .chebsys import COUNTEREXAMPLE, DEFAULT_TRIALS, NO_VIOLATION, _check_trials
from .curves import Hyperplane, _with_ones, monomial_multi_indices, monomial_values
from .orthosynth import ZeroBoundReport

VERTEX_REJECT_TOL = 1e-9
MASS_RESIDUAL_TOL = 1e-10
_CONVEXITY_SEED = 1729  # fixed internal seed for hypothesis screening
_CONVEXITY_TRIALS = 200  # probes of the convexity hypothesis in theorem6_check


@dataclass(frozen=True)
class PolyLine:
    """Ordered vertices in R^d, optionally closed into a cycle."""

    vertices: np.ndarray
    closed: bool = False

    def __post_init__(self):
        V = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", V)
        if V.ndim != 2 or V.shape[1] < 2:
            raise ValueError("vertices must be a (k, d) array with d >= 2")
        if not np.all(np.isfinite(V)):
            raise ValueError("vertices must be finite")
        k = V.shape[0]
        if k < (3 if self.closed else 2):
            raise ValueError("too few vertices")
        e = self.edge_vectors()
        scale = float(np.max(np.abs(V))) or 1.0
        if np.any(np.linalg.norm(e, axis=1) <= 1e-12 * scale):
            raise ValueError("consecutive vertices must be distinct")

    @property
    def k(self) -> int:
        return self.vertices.shape[0]

    @property
    def d(self) -> int:
        return self.vertices.shape[1]

    def edge_vectors(self) -> np.ndarray:
        V = self.vertices
        return _next(V) - V if self.closed else V[1:] - V[:-1]


@dataclass(frozen=True)
class MassVector:
    """Real masses attached to the vertices of a polyline."""

    masses: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", m)
        if m.ndim != 1 or m.size == 0:
            raise ValueError("masses must be a nonempty 1-d array")
        if not np.all(np.isfinite(m)):
            raise ValueError("masses must be finite")


def _next(a: np.ndarray) -> np.ndarray:
    """NumPy's roll of a by -1 along axis 0, bit for bit, without its cost."""
    return np.concatenate((a[1:], a[:1]))


def _masses_of(x, k: int | None = None) -> np.ndarray:
    m = (x if isinstance(x, MassVector) else MassVector(np.ravel(x))).masses
    if k is not None and m.size != k:
        raise ValueError(f"expected {k} masses, got {m.size}")
    return m


# ---------------------------------------------------------------------------
# sign counting


def cyclic_sign_changes(values, closed: bool) -> int:
    """Adjacent opposite-sign pairs after dropping entries with
    |v| <= DEFAULT_TOL_REL * max|v|, wrapping once on a closed line.  All entries
    dropped counts as 0; an empty list raises ValueError."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("empty value list")
    return fs.count_grid_sign_changes(v, closed)


# ---------------------------------------------------------------------------
# discrete convexity


def hyperplane_crossings(P: PolyLine, hp: Hyperplane) -> Optional[int]:
    """Edges whose endpoint values straddle the hyperplane strictly; None
    when it passes within VERTEX_REJECT_TOL * max|V| (1 if 0) of a vertex."""
    vals = hp.value(P.vertices)
    scale = float(np.max(np.abs(P.vertices))) or 1.0
    if float(np.min(np.abs(vals))) <= VERTEX_REJECT_TOL * scale:
        return None
    s = np.sign(vals)
    return int(np.sum(s != _next(s) if P.closed else s[:-1] != s[1:]))


def _convex_certificate(V: np.ndarray) -> Optional[bool]:
    """Exact convexity for closed planar polygons: one turning direction
    and a single winding.  None when all turns are collinear."""
    e = _next(V) - V
    e2 = _next(e)
    cross = e[:, 0] * e2[:, 1] - e[:, 1] * e2[:, 0]
    cmax = float(np.max(np.abs(cross)))
    if cmax == 0.0:
        return None
    s = np.sign(cross[np.abs(cross) > 1e-12 * cmax])
    if (s > 0).any() and (s < 0).any():
        return False
    total = float(np.sum(np.arctan2(cross, np.sum(e * e2, axis=1))))
    return abs(abs(total) - fs.TWO_PI) <= 1e-6


def _test_tuples(m: int, k: int) -> np.ndarray:
    """The k(m - k) + 1 increasing k-tuples of range(m) that test strict
    total positivity of an m x k matrix's maximal minors (the rectangles
    seed of Gr(k, m); Postnikov, arXiv math/0609764): [0, k) and
    [0, p) + [q, q + k - p) for p < k, p < q <= m - k + p, as intp rows."""
    p = np.repeat(np.arange(k), m - k)[:, None]
    q = p + 1 + np.tile(np.arange(m - k), k)[:, None]
    j = np.arange(k)
    return np.vstack([j, np.where(j < p, j, q + j - p)])


def _sign_regular(P: PolyLine) -> Optional[bool]:
    """Whether A = [1, (V - v_1) / max|V - v_1|] is strictly sign regular
    of order d+1: every (d+1)-minor over increasing vertex tuples has one
    strict sign.  The minors over _test_tuples decide it: where all of
    them have a sign that _det_signs trusts, and all share it, every other
    minor has that strict sign too (each is a subtraction-free expression
    in them, after a column sign flip if they are negative).  Then no
    vertex-avoiding hyperplane cuts the line more than d times (the
    variation-diminishing theorem: Gantmacher & Krein 1950; Karlin, Total
    Positivity, 1968, ch. 5), and on a closed line with even d the cyclic
    count, which is even, is at most the linear count plus one, so at
    most d as well.  False only says the strict test fails (a test minor
    untrusted or of the other sign), not that the line is not convex.

    None where the minors do not decide: closed planar polygons (the
    cheaper _convex_certificate decides those), closed lines with odd d,
    and m <= d + 1 vertices."""
    m, d = P.k, P.d
    if (P.closed and (d == 2 or d % 2)) or m <= d + 1:
        return None
    U = P.vertices - P.vertices[0]
    A = np.insert(U / np.max(np.abs(U)), 0, 1.0, axis=1)
    sign, trusted = _det_signs(A[_test_tuples(m, d + 1)])
    return bool(trusted.all() and (sign == sign[0]).all())


@dataclass(frozen=True)
class PolyConvexityReport:
    status: str
    trials_run: int
    witness: Optional[Hyperplane] = None
    crossings: Optional[int] = None
    certified: Optional[bool] = None

    @property
    def convex(self) -> bool:
        return self.status == NO_VIOLATION


def polyline_convexity_check(P: PolyLine, trials: int = DEFAULT_TRIALS,
                             rng_seed: int = 0) -> PolyConvexityReport:
    """A convex polygonal line is cut by every vertex-avoiding hyperplane
    at most d times.

    Closed planar polygons get an exact turn-sign certificate; otherwise
    seeded random hyperplanes and secants through perturbed edge midpoints
    are drawn and screened as arrays in the chunks of fs._chunk_bounds,
    the chunk from start to stop from one stream derived_rng(rng_seed,
    start, 2), so a trial's draws depend on its chunk's bounds as well as
    on its index; the exact test confirms flagged trials in trial order.
    A non-convexity certificate without a sampled witness still reports a
    counterexample.
    """
    _check_trials(trials)
    V = P.vertices
    cert = _convex_certificate(V) if (P.closed and P.d == 2) else None
    if cert is True:
        return PolyConvexityReport(NO_VIOLATION, 0, certified=True)
    mids = 0.5 * (V + _next(V)) if P.closed else 0.5 * (V[:-1] + V[1:])
    scale = float(np.max(np.abs(V))) or 1.0
    for start, stop in fs._chunk_bounds(trials, P.k):
        g = fs.derived_rng(rng_seed, start, 2)
        H, trusted = _probe_draws(V, mids, scale, g, stop - start)
        for i in np.flatnonzero(_screen(P, H, trusted, scale)).tolist():
            hit = _probe_hit(P, H[i])
            if hit is not None:
                return PolyConvexityReport(COUNTEREXAMPLE, start + i + 1, *hit, cert)
    if cert is False:
        hit = _midpoint_secant_witness(P, mids, scale) or (None, None)
        return PolyConvexityReport(COUNTEREXAMPLE, trials, *hit, False)
    return PolyConvexityReport(NO_VIOLATION, trials, certified=cert)


def _probe_draws(V, mids, scale, g, n):
    """n trials' probes from the Generator g, as rows (normal, -offset)
    (n, 2, d + 1): a random plane (offset NaN where V projects to a
    point), then the secant through d perturbed edge midpoints if there
    are d, and which rows `_screen` may trust (every random plane, and the
    secants `_planes_through` trusts).

    g draws whole arrays in turn: normals (n, d), offsets uniform(0.02,
    0.98) (n,), then, if m >= d midpoints, selections (the first d of an
    argsort of an (n, m) uniform block: an exactly uniform ordered
    d-subset per row) and perturbations (n, d, d).  Every row is drawn,
    flat ones too, so no row shifts another row's draws.  The norms and
    projections are the dot and matrix-vector products a per-trial loop
    takes, bit for bit."""
    d, m = V.shape[1], mids.shape[0]
    Z = g.standard_normal((n, d))
    u = g.uniform(0.02, 0.98, n)
    W = Z / np.sqrt(np.matmul(Z[:, None, :], Z[:, :, None])[:, 0])
    proj = np.matmul(V, W[:, :, None])[..., 0]
    lo, hi = np.min(proj, axis=1), np.max(proj, axis=1)
    H = np.column_stack([W, -np.where(hi > lo, lo + (hi - lo) * u, np.nan)])[:, None]
    if m < d:
        return H, np.ones((n, 1), bool)
    sel = np.argsort(g.random((n, m)), axis=1)[:, :d]
    S, trusted = _planes_through(mids[sel] + 1e-3 * scale * g.standard_normal((n, d, d)))
    return np.concatenate([H, S[:, None]], axis=1), np.column_stack([np.ones(n, bool), trusted])


def _probe_hit(P, H):
    """(witness, crossings) of the first row (normal, -offset) of H that
    cuts P more than d times; NaN rows are skipped."""
    for h in H[~np.isnan(H[:, -1])]:
        hp = Hyperplane(h[:-1], -h[-1])
        c = hyperplane_crossings(P, hp)
        if c is not None and c > P.d:
            return hp, c
    return None


def _screen(P, H, trusted, scale) -> np.ndarray:
    """Per trial, False only when `_probe_hit` surely finds no hit on its
    rows H[i]: a row that is not trusted counts as NaN, and every
    vertex must clear the vertex reject band plus 1e-6, in units of scale
    (max|V|, 1 if 0), far wider than the trusted rows' errors."""
    V, d = P.vertices, P.d
    rows = np.where(trusted[..., None], H, np.nan).reshape(-1, d + 1)
    vals = V @ rows[:, :d].T + rows[:, d]
    s = np.sign(vals)
    flips = np.sum(s != _next(s) if P.closed else s[:-1] != s[1:], axis=0)
    cut = ~(np.min(np.abs(vals), axis=0) > (VERTEX_REJECT_TOL + 1e-6) * scale) | (flips > d)
    return cut.reshape(trusted.shape).any(axis=1)


def _midpoint_secant_witness(P: PolyLine, mids: np.ndarray, scale: float):
    # deterministic sweep: lines through pairs (i, j > i) of edge midpoints
    # at least 1e-12 of scale (max|V|) apart, each shifted by 0, +1e-7 and
    # -1e-7 of scale to clear vertex hits; the planes are solved in units
    # of scale (so none is dropped as far), one kernel call per i, so
    # memory stays linear in the midpoints
    for i in range(mids.shape[0] - 1):
        pairs = np.stack(np.broadcast_arrays(mids[i], mids[i + 1:]), axis=1)
        H = _planes_through(pairs / scale)[0]
        H[np.linalg.norm(mids[i + 1:] - mids[i], axis=1) <= 1e-12 * scale] = np.nan
        H = np.repeat(H * [1.0, 1.0, scale], 3, axis=0)
        H[:, -1] -= np.tile([0.0, 1e-7 * scale, -1e-7 * scale], len(pairs))
        if (hit := _probe_hit(P, H)) is not None:
            return hit
    return None


# ---------------------------------------------------------------------------
# moment masses


def vandermonde_moment_matrix(P: PolyLine, n: int) -> np.ndarray:
    """C(n+d, d) x k matrix of monomial values at the vertices.  For n = 1
    it is [1, V].T, the same floats without the powers: x**0.0 and x**1.0
    are exact."""
    if n == 1:
        return _with_ones(P.vertices).T
    return monomial_values(P.vertices, monomial_multi_indices(n, P.d)).T


def construct_masses(P: PolyLine, n: int, rng_seed: int = 0) -> MassVector:
    """Seeded random unit vector in the null space of the vertex moment
    matrix; exercises the whole kernel rather than one fixed direction."""
    M = vandermonde_moment_matrix(P, n)
    basis, rank, _ = svd_kernel(M)
    if basis.shape[1] == 0:
        raise ValueError(
            f"moment matrix has trivial null space (rank {rank} = vertex count); "
            "need more vertices")
    rng = fs.derived_rng(rng_seed, P.k, n)
    coef = rng.standard_normal(basis.shape[1])
    nrm = float(np.linalg.norm(coef))
    v = basis[:, 0] if nrm == 0.0 else basis @ (coef / nrm)
    v = fix_leading_sign(v / np.linalg.norm(v))
    if float(np.max(np.abs(M @ v))) > MASS_RESIDUAL_TOL:
        raise RuntimeError("null-space residual above tolerance")
    return MassVector(v)


def theorem6_check(P: PolyLine, n: int, f,
                   tol: float = MASS_RESIDUAL_TOL) -> ZeroBoundReport:
    """Masses annihilating all vertex moments of degree <= n on a convex
    polygonal line must change sign at least dn+1 times (dn+2 closed).

    The convexity hypothesis is certified by _sign_regular where its
    minors decide it; elsewhere polyline_convexity_check screens it with
    _CONVEXITY_TRIALS probes.  On a certified line no probe can cut the
    line more than d times, so the screen could only have read
    NoViolationFound there and skipping it leaves every report as it was.
    """
    fs._check_tol(tol)
    masses = _masses_of(f, P.k)
    bound = P.d * n + (2 if P.closed else 1)
    if not (_sign_regular(P) or polyline_convexity_check(
            P, _CONVEXITY_TRIALS, _CONVEXITY_SEED).convex):
        return ZeroBoundReport(False, False, -1, bound, float("nan"),
                               "hypothesis violated: not convex")
    res = float(np.max(np.abs(vandermonde_moment_matrix(P, n) @ masses)))
    if res > tol:
        return ZeroBoundReport(False, False, -1, bound, res,
                               "masses do not annihilate the moments")
    count = cyclic_sign_changes(masses, P.closed)
    return ZeroBoundReport(True, count >= bound, count, bound, res)


# ---------------------------------------------------------------------------
# planar generators and the normal-fan lemma


def random_convex_polygon(k: int, rng_seed: int = 0) -> PolyLine:
    """Convex position: stratified jittered angles on a random ellipse."""
    if k < 3:
        raise ValueError("need at least 3 vertices")
    rng = fs.derived_rng(rng_seed, k)
    ang = fs.TWO_PI * (np.arange(k) + 0.1 + 0.8 * rng.uniform(size=k)) / k
    a, b = rng.uniform(0.5, 1.5, size=2)
    V = np.stack([a * np.cos(ang), b * np.sin(ang)], axis=1)
    return PolyLine(V, closed=True)


def edge_normals_and_lengths(P: PolyLine):
    """Outward unit edge normals and side lengths of a closed planar
    polygon, in traversal order (orientation handled either way)."""
    if not P.closed or P.d != 2:
        raise ValueError("need a closed planar polygon")
    e = P.edge_vectors()
    L = np.linalg.norm(e, axis=1)
    x, y = P.vertices[:, 0], P.vertices[:, 1]
    area = 0.5 * float(np.sum(x * _next(y) - _next(x) * y))
    if area > 0:
        N = np.stack([e[:, 1], -e[:, 0]], axis=1)
    else:
        N = np.stack([-e[:, 1], e[:, 0]], axis=1)
    return N / L[:, None], L


def polygon_from_normals(normals, lengths) -> PolyLine:
    """Closed convex polygon with the given outward normals and side
    lengths.  The normals must wind once counterclockwise and the edge
    data must satisfy the closure identity sum(l_i n_i) = 0."""
    N = np.asarray(normals, dtype=float)
    L = np.asarray(lengths, dtype=float)
    if N.ndim != 2 or N.shape[1] != 2 or N.shape[0] < 3:
        raise ValueError("need at least 3 normals in R^2")
    if L.shape != (N.shape[0],) or np.any(L <= 0):
        raise ValueError("need one positive length per normal")
    nrms = np.linalg.norm(N, axis=1)
    if np.any(np.abs(nrms - 1.0) > 1e-9):
        raise ValueError("normals must be unit vectors")
    N = N / nrms[:, None]
    ang = np.arctan2(N[:, 1], N[:, 0])
    gaps = np.mod(_next(ang) - ang, fs.TWO_PI)
    if np.any(gaps <= 0) or abs(float(np.sum(gaps)) - fs.TWO_PI) > 1e-6:
        raise ValueError("normals must be sorted counterclockwise, winding once")
    if float(np.linalg.norm(L @ N)) > 1e-9 * float(L.sum()):
        raise ValueError("edge data does not close")
    edges = L[:, None] * np.stack([-N[:, 1], N[:, 0]], axis=1)
    V = np.vstack([np.zeros(2), np.cumsum(edges, axis=0)[:-1]])
    return PolyLine(V - V.mean(axis=0), closed=True)


@dataclass(frozen=True)
class Prop2Report:
    applicable: bool
    passed: bool
    sign_changes: int
    bound: int
    degenerate: bool = False
    message: str = ""


def proposition2_check(P: PolyLine, f, g, tol: float = 1e-8) -> Prop2Report:
    """Two positive vertex mass systems with equal totals and equal first
    moments: their difference changes sign at least d+1 times (d+2 on a
    closed line)."""
    fs._check_tol(tol)
    fm = _masses_of(f, P.k)
    gm = _masses_of(g, P.k)
    if np.min(fm) <= 0 or np.min(gm) <= 0:
        raise ValueError("mass systems must be strictly positive")
    bound = P.d + (2 if P.closed else 1)
    tot = max(float(np.sum(fm)), float(np.sum(gm)))
    coord = max(float(np.max(np.abs(P.vertices))), 1.0)
    if abs(float(np.sum(fm) - np.sum(gm))) > tol * tot:
        return Prop2Report(False, False, -1, bound, message="totals differ")
    if float(np.max(np.abs(P.vertices.T @ (fm - gm)))) > tol * tot * coord:
        return Prop2Report(False, False, -1, bound, message="centers differ")
    diffs = fm - gm
    if np.max(np.abs(diffs)) <= fs.DEFAULT_TOL_REL * np.max(np.maximum(fm, gm)):
        return Prop2Report(True, True, 0, bound, degenerate=True)
    count = cyclic_sign_changes(diffs, P.closed)
    return Prop2Report(True, count >= bound, count, bound)


@dataclass(frozen=True)
class AleksandrovReport:
    applicable: bool
    passed: bool
    sign_changes: int
    bound: int
    diffs: np.ndarray
    degenerate: bool = False
    prop2: Optional[Prop2Report] = None
    message: str = ""


def aleksandrov_check(M1: PolyLine, M2: PolyLine,
                      tol: float = 1e-8) -> AleksandrovReport:
    """Two convex polygons with pairwise parallel sides and equal
    perimeters: the side-length differences change sign at least 4 times.

    The reduction driving the bound is exposed in the report: the
    differences are masses on the polygon of unit normals, where the
    closure identity makes totals and first moments match, so the
    positive-pair difference bound with d = 2 applies verbatim.
    """
    fs._check_tol(tol)
    empty = np.empty(0)
    if M1.k != M2.k:
        return AleksandrovReport(False, False, -1, 4, empty,
                                 message="side counts differ")
    try:
        n1, l1 = edge_normals_and_lengths(M1)
        n2, l2 = edge_normals_and_lengths(M2)
    except ValueError as e:
        return AleksandrovReport(False, False, -1, 4, empty, message=str(e))
    if float(np.max(np.abs(n1 - n2))) > VERTEX_REJECT_TOL:
        return AleksandrovReport(False, False, -1, 4, empty,
                                 message="normal fans differ")
    p1, p2 = float(np.sum(l1)), float(np.sum(l2))
    if abs(p1 - p2) > tol * max(p1, p2):
        return AleksandrovReport(False, False, -1, 4, empty,
                                 message="perimeters differ")
    diffs = l1 - l2
    prop2 = proposition2_check(PolyLine(n1, closed=True), l1, l2,
                               tol=max(tol, 1e-7))
    if np.max(np.abs(diffs)) <= fs.DEFAULT_TOL_REL * np.max(np.maximum(l1, l2)):
        return AleksandrovReport(True, True, 0, 4, diffs, degenerate=True,
                                 prop2=prop2)
    count = cyclic_sign_changes(diffs, closed=True)
    return AleksandrovReport(True, count >= 4, count, 4, diffs, prop2=prop2)


def aleksandrov_pair(k: int, rng_seed: int = 0):
    """Deterministic test pair: a random convex polygon and a second one
    with the same normal fan, sides perturbed then projected back onto
    the closure identity and rescaled to equal perimeter."""
    M1 = random_convex_polygon(k, rng_seed)
    N, l1 = edge_normals_and_lengths(M1)
    G = N.T @ N  # 2x2, invertible since the fan spans the plane
    rng = fs.derived_rng(rng_seed, k, 3)
    for _ in range(100):
        raw = l1 * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, size=k))
        l2 = raw - N @ np.linalg.solve(G, N.T @ raw)
        if float(np.min(l2)) > 0.05 * float(np.mean(l2)):
            break
    else:
        raise RuntimeError("could not sample positive closing side lengths")
    l2 = l2 * (float(np.sum(l1)) / float(np.sum(l2)))
    return M1, polygon_from_normals(N, l2)


def proposition2_pair(P: PolyLine, rng_seed: int = 0):
    """Positive mass pair on P with matching totals and first moments:
    all-ones plus/minus a seeded kernel direction of the degree-1
    moment matrix."""
    basis, _, _ = svd_kernel(vandermonde_moment_matrix(P, 1))
    if basis.shape[1] == 0:
        raise ValueError("vertex count too small for a nontrivial pair")
    rng = fs.derived_rng(rng_seed, P.k, 5)
    w = basis @ rng.standard_normal(basis.shape[1])
    wmax = float(np.max(np.abs(w)))
    if wmax == 0.0:
        w = basis[:, 0]
        wmax = float(np.max(np.abs(w)))
    w = w / wmax
    f = np.ones(P.k)
    return MassVector(f), MassVector(f + 0.5 * w)


# ---------------------------------------------------------------------------
# text I/O


def parse_polyline(text: str) -> PolyLine:
    """One `x y [z ...]` line per vertex; a `#closed` header closes it."""
    closed = False
    rows = []
    for line in text.splitlines():
        t = line.strip()
        if not t:
            continue
        if t.startswith("#"):
            if t[1:].strip().lower() == "closed":
                closed = True
            continue
        rows.append([float(x) for x in t.split()])
    if not rows:
        raise ValueError("no vertices in polyline text")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("inconsistent coordinate counts")
    return PolyLine(np.array(rows, dtype=float), closed)


def format_polyline(P: PolyLine) -> str:
    lines = ["#closed"] if P.closed else []
    lines += [" ".join(f"{x:.17g}" for x in v) for v in P.vertices]
    return "\n".join(lines) + "\n"
