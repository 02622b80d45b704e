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

import contextlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import funcspace as fs
from ._linalg import fix_leading_sign, svd_kernel
from .chebsys import COUNTEREXAMPLE, DEFAULT_TRIALS, NO_VIOLATION, _check_trials
from .curves import (Hyperplane, hyperplane_through, monomial_multi_indices,
                     monomial_values)
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
        if self.closed:
            return np.roll(V, -1, axis=0) - V
        return V[1:] - V[:-1]


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


def _masses_of(x, k: int | None = None) -> np.ndarray:
    m = x.masses if isinstance(x, MassVector) else np.asarray(x, dtype=float)
    m = m.ravel()
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
    if P.closed:
        return int(np.sum(s != np.roll(s, -1)))
    return int(np.sum(s[:-1] != s[1:]))


def _convex_certificate(V: np.ndarray) -> Optional[bool]:
    """Exact convexity for closed planar polygons: one turning direction
    and a single winding.  None when all turns are collinear."""
    e = np.roll(V, -1, axis=0) - V
    e2 = np.roll(e, -1, axis=0)
    cross = e[:, 0] * e2[:, 1] - e[:, 1] * e2[:, 0]
    cmax = float(np.max(np.abs(cross)))
    if cmax == 0.0:
        return None
    s = np.sign(cross[np.abs(cross) > 1e-12 * cmax])
    if (s > 0).any() and (s < 0).any():
        return False
    total = float(np.sum(np.arctan2(cross, np.sum(e * e2, axis=1))))
    return abs(abs(total) - fs.TWO_PI) <= 1e-6


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
    seeded random hyperplanes and secants through perturbed edge midpoints,
    trial t drawn from derived_rng(rng_seed, t, 2), are screened as arrays
    in the chunks of fs._probe_chunks, and the exact test confirms flagged
    trials in trial order.  A non-convexity certificate without a sampled
    witness still reports a counterexample.
    """
    _check_trials(trials)
    V = P.vertices
    cert = _convex_certificate(V) if (P.closed and P.d == 2) else None
    if cert is True:
        return PolyConvexityReport(NO_VIOLATION, 0, certified=True)
    mids = 0.5 * (V + np.roll(V, -1, axis=0)) if P.closed else 0.5 * (V[:-1] + V[1:])
    scale = float(np.max(np.abs(V))) or 1.0
    for start, stop, stream in fs._probe_chunks(rng_seed, trials, P.k, 2):
        W, off, pts = _probe_draws(V, mids, scale, stream, start, stop)
        for i in np.flatnonzero(_screen(P, W, off, pts)).tolist():
            hit = _probe_hit(P, W[i], off[i], None if pts is None else pts[i])
            if hit is not None:
                return PolyConvexityReport(COUNTEREXAMPLE, start + i + 1, *hit, cert)
    if cert is False:
        hit = _midpoint_secant_witness(P, mids)
        if hit is not None:
            return PolyConvexityReport(COUNTEREXAMPLE, trials, hit[0], hit[1], False)
        return PolyConvexityReport(COUNTEREXAMPLE, trials, None, None, False)
    return PolyConvexityReport(NO_VIOLATION, trials, certified=cert)


def _probe_draws(V, mids, scale, stream, start, stop):
    """Trials start..stop-1's draws, trial t from stream(t): unit normals
    W (n, d), offsets (NaN where V projects to a point) and d perturbed
    edge midpoints per trial ((n, d, d), None when there are fewer than d
    midpoints).  The norms and projections are the dot and matrix-vector
    products a per-trial loop takes, bit for bit."""
    n, d, m = stop - start, V.shape[1], mids.shape[0]
    Z, u = np.empty((n, d)), np.zeros(n)  # 0 where no uniform is drawn
    sel, E = np.empty((n, d), dtype=np.intp), np.empty((n, d, d))

    def draw(i, uniform):
        g = stream(start + i)
        Z[i] = g.standard_normal(d)
        if uniform:
            u[i] = g.uniform(0.02, 0.98)
        if m >= d:
            sel[i] = g.choice(m, size=d, replace=False)
            E[i] = g.standard_normal((d, d))

    for i in range(n):
        draw(i, True)
    W = Z / np.sqrt(np.matmul(Z[:, None, :], Z[:, :, None])[:, 0])
    proj = np.matmul(V, W[:, :, None])[..., 0]
    lo, hi = np.min(proj, axis=1), np.max(proj, axis=1)
    flat = ~(hi > lo)
    for i in np.flatnonzero(flat).tolist():
        draw(i, False)  # no uniform: the later draws move up the stream
    off = np.where(flat, np.nan, lo + (hi - lo) * u)
    return W, off, (mids[sel] + 1e-3 * scale * E if m >= d else None)


def _probe_hit(P, w, off, pts):
    """(witness, crossings) of a trial's first exact probe cutting P > d times."""
    planes = [] if np.isnan(off) else [Hyperplane(w, float(off))]
    if pts is not None:
        with contextlib.suppress(ValueError):  # affinely dependent points
            planes.append(hyperplane_through(pts))
    for hp in planes:
        c = hyperplane_crossings(P, hp)
        if c is not None and c > P.d:
            return hp, c
    return None


def _screen(P, W, off, pts) -> np.ndarray:
    """Per trial, False only when `_probe_hit` surely finds no hit.  Each
    probe is a column (normal, -offset), NaN if undrawn or degenerate, and
    every vertex must clear a band far wider than the last-bit errors:
    the vertex reject band plus 1e-6, both in units of max|V| (1 if 0)."""
    V, d = P.vertices, P.d
    H = np.column_stack([W, -off])
    if pts is not None:
        v = np.linalg.svd(np.insert(pts, d, 1.0, axis=2))[2][:, -1]
        nrm = np.linalg.norm(v[:, :d], axis=1, keepdims=True)
        H = np.concatenate([H, v / np.where(nrm > 1e-6, nrm, np.nan)])
    vals = np.insert(V, d, 1.0, axis=1) @ H.T
    s = np.sign(vals)
    flips = np.sum(s != np.roll(s, -1, axis=0) if P.closed else s[:-1] != s[1:], axis=0)
    band = (VERTEX_REJECT_TOL + 1e-6) * (float(np.max(np.abs(V))) or 1.0)
    cut = ~(np.min(np.abs(vals), axis=0) > band) | (flips > d)
    return cut.reshape(-1, len(W)).any(axis=0)


def _midpoint_secant_witness(P: PolyLine, mids: np.ndarray):
    # deterministic sweep: lines through pairs of edge midpoints, with
    # tiny parallel shifts to clear any vertex hits
    scale = float(np.max(np.abs(P.vertices))) or 1.0
    for i in range(mids.shape[0]):
        for j in range(i + 1, mids.shape[0]):
            t = mids[j] - mids[i]
            nrm = float(np.linalg.norm(t))
            if nrm <= 1e-12 * scale:
                continue
            w = np.array([-t[1], t[0]]) / nrm
            base = float(w @ mids[i])
            for off in (base, base + 1e-7 * scale, base - 1e-7 * scale):
                hp = Hyperplane(w, off)
                c = hyperplane_crossings(P, hp)
                if c is not None and c > P.d:
                    return hp, c
    return None


# ---------------------------------------------------------------------------
# moment masses


def vandermonde_moment_matrix(P: PolyLine, n: int) -> np.ndarray:
    """C(n+d, d) x k matrix of monomial values at the vertices."""
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
    polygonal line must change sign at least dn+1 times (dn+2 closed)."""
    masses = _masses_of(f, P.k)
    bound = P.d * n + (2 if P.closed else 1)
    conv = polyline_convexity_check(P, _CONVEXITY_TRIALS, _CONVEXITY_SEED)
    if not conv.convex:
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
    area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
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
    gaps = np.mod(np.roll(ang, -1) - ang, fs.TWO_PI)
    if np.any(gaps <= 0) or abs(float(np.sum(gaps)) - fs.TWO_PI) > 1e-6:
        raise ValueError("normals must be sorted counterclockwise, winding once")
    if float(np.linalg.norm(L @ N)) > 1e-9:
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
    if float(np.max(np.abs(diffs))) <= 1e-9 * float(np.max(np.maximum(fm, gm))):
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
    if float(np.max(np.abs(diffs))) <= 1e-9 * float(np.max(np.maximum(l1, l2))):
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
