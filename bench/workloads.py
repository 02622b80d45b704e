"""Seeded workloads: instance generation, the library calls each record
makes, and a correctness gate that does not trust the library's own
pass flags.

Every record is one library call sequence on one generated instance.
`run` is what the timed loop executes; `verdict` extracts the statuses,
trial counts and zero counts that the verdict digest hashes; `check`
recomputes the claim with plain numpy (dense-grid sign counts, its own
bisection and Gauss quadrature) and returns True when it holds.

All public names are reached through the `cz` and `fs` module objects at
call time, so the tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import chebzeros as cz
from chebzeros import funcspace as fs

PROBES = 200            # falsifier budget, as in the CLI's composite checks
# Every workload keeps a pass near 0.3 s, so that a 30-s run times each
# record in 50-100 passes; see NOTES.md for why that many.
# falsify's full-budget records (convex curves, Chebyshev systems) run
# this many probes instead: every trial does the same work.  Records
# that stop at their first witness keep PROBES.
FULL_RUN_PROBES = 1
# falsify repeats every instance with this many probe seeds, so that the
# median and tail of a pass do not hang on a few records
REPEATS = 3
NO_VIOLATION = "NoViolationFound"
COUNTEREXAMPLE = "Counterexample"

LOC_TOL = 1e-6
RESIDUAL_TOL = 1e-8
MASS_TOL = 1e-10
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Record:
    name: str
    run: Callable[[], Any]
    verdict: Callable[[Any], tuple]
    check: Callable[[Any], bool]


# ---------------------------------------------------------------------------
# independent gate: dense grids, own bisection, own quadrature

_DENSE_N = 16384
_ZERO_REL = 1e-9
_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)


def _dense_grid(dom) -> np.ndarray:
    if dom.is_circle:
        return np.arange(_DENSE_N) * (TWO_PI / _DENSE_N)
    h = (dom.b - dom.a) / _DENSE_N
    return dom.a + h * (np.arange(_DENSE_N) + 0.5)


def _flips(vals: np.ndarray, cyclic: bool):
    """Index pairs of consecutive non-negligible samples of opposite sign."""
    vmax = float(np.max(np.abs(vals))) if vals.size else 0.0
    if vmax == 0.0:
        return np.empty(0, int), np.empty(0, int)
    keep = np.nonzero(np.abs(vals) > _ZERO_REL * vmax)[0]
    s = np.sign(vals[keep])
    k = np.nonzero(s[:-1] != s[1:])[0]
    lo, hi = keep[k], keep[k + 1]
    if cyclic and keep.size >= 2 and s[0] != s[-1]:
        lo, hi = np.append(lo, keep[-1]), np.append(hi, keep[0])
    return lo, hi


def sign_changes(vals, cyclic: bool) -> int:
    return int(_flips(np.asarray(vals, dtype=float), cyclic)[0].size)


def roots(fn, dom) -> np.ndarray:
    """Sorted sign-change locations of fn, bracketed on a dense grid and
    bisected to float resolution."""
    ts = _dense_grid(dom)
    vals = fn(ts)
    i, j = _flips(vals, dom.is_circle)
    lo, hi = ts[i], ts[j]
    hi = np.where(hi <= lo, hi + TWO_PI, hi)
    slo = np.sign(vals[i])
    for _ in range(60):
        if lo.size == 0:
            break
        mid = 0.5 * (lo + hi)
        vm = fn(np.mod(mid, TWO_PI) if dom.is_circle else mid)
        same = np.sign(vm) == slo
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    r = 0.5 * (lo + hi)
    return np.sort(np.mod(r, TWO_PI) if dom.is_circle else r)


def loc_err(found, want) -> float:
    found, want = np.sort(np.asarray(found)), np.sort(np.asarray(want, dtype=float))
    if found.size != want.size:
        return math.inf
    return float(np.max(np.abs(found - want))) if found.size else 0.0


def _edges(dom, breaks) -> np.ndarray:
    b = np.unique(np.asarray(breaks, dtype=float))
    if dom.is_circle:
        b = np.unique(np.mod(b, TWO_PI))
        return np.concatenate([b, [b[0] + TWO_PI]]) if b.size else np.array([0.0, TWO_PI])
    b = b[(b > dom.a) & (b < dom.b)]
    return np.concatenate([[dom.a], b, [dom.b]])


def residuals(weight, basis_vals, dom, breaks) -> np.ndarray:
    """Integrals of weight * basis_j over the domain, with Gauss panels
    split at the breaks.  basis_vals maps nodes to a (k, nodes) array."""
    ts, ws = [], []
    edges = _edges(dom, breaks)
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo <= 1e-13:
            continue
        e = np.linspace(lo, hi, 5)
        mid, half = 0.5 * (e[:-1] + e[1:]), 0.5 * np.diff(e)
        ts.append((mid[:, None] + half[:, None] * _GL_X).ravel())
        ws.append((half[:, None] * _GL_W).ravel())
    t = np.concatenate(ts)
    if dom.is_circle:
        t = np.mod(t, TWO_PI)
    return basis_vals(t) @ (np.concatenate(ws) * weight(t))


def _system_vals(sys):
    return lambda t: np.stack([f.eval(t) for f in sys.basis])


def _curve_monomial_vals(curve, n):
    alphas = [a for a in itertools.product(range(n + 1), repeat=curve.d) if sum(a) <= n]
    A = np.asarray(alphas, dtype=float)

    def vals(t):
        X = np.asarray(curve.eval(t), dtype=float)
        return np.prod(X[None, :, :] ** A[:, None, :], axis=2)

    return vals


def _one_signed(h) -> bool:
    h = np.asarray(h, dtype=float)
    mags = np.abs(h)
    return bool((np.all(h > 0) or np.all(h < 0)) and np.min(mags) > 1e-12 * np.max(mags))


def _combination_vals(funcs, coeffs):
    return lambda t: sum(c * f.eval(t) for c, f in zip(coeffs, funcs))


def _stratified(rng, dom, m) -> np.ndarray:
    fr = (np.arange(m) + 0.1 + 0.8 * rng.uniform(size=m)) / m
    return TWO_PI * fr if dom.is_circle else dom.a + (dom.b - dom.a) * fr


# ---------------------------------------------------------------------------
# falsify: the theorem4 instance set and Chebyshev verification


def _theorem4(name, curve, rng_seed, convex) -> Record:
    probes = FULL_RUN_PROBES if convex else PROBES

    def run():
        return cz.theorem4_check(curve, trials=probes, rng_seed=rng_seed)

    def verdict(r):
        wc = r.convexity.witness_count
        return (r.convexity.status, r.convexity.trials_run, r.chebyshev.status,
                r.chebyshev.trials_run, r.chebyshev.witness_zero_count,
                None if wc is None else wc.count_with_multiplicity, r.dim)

    def check(r):
        if convex:
            return (r.convexity.status == NO_VIOLATION and r.chebyshev.status == NO_VIOLATION
                    and r.convexity.trials_run == probes and r.chebyshev.trials_run == probes
                    and r.dim == curve.d + 1)
        if r.convexity.status != COUNTEREXAMPLE or r.chebyshev.status != COUNTEREXAMPLE:
            return False
        ts = _dense_grid(curve.dom)
        funcs = cz.restrict_polynomials(curve, 1)
        combo = _combination_vals(funcs, r.chebyshev.witness_coeffs)(ts)
        hp = r.convexity.witness
        s = np.asarray(curve.eval(ts)) @ hp.normal - hp.offset
        spread = float(np.ptp(s))
        slice_count = max(sign_changes(s - k * spread, curve.dom.is_circle)
                          for k in (0.0, 1e-3, -1e-3, 1e-4, -1e-4, 1e-5, -1e-5))
        return (sign_changes(combo, curve.dom.is_circle) >= len(funcs)
                and slice_count > curve.d)

    return Record(name, run, verdict, check)


def _verify(name, system, rng_seed, expect) -> Record:
    funcs, dom = (system.basis, system.dom) if isinstance(system, cz.ChebSystem) else system
    probes = FULL_RUN_PROBES if expect == NO_VIOLATION else PROBES

    def run():
        return cz.verify_chebyshev(system, trials=probes, rng_seed=rng_seed)

    def verdict(v):
        return (v.status, v.trials_run, v.witness_zero_count)

    def check(v):
        if expect == NO_VIOLATION:
            return v.status == NO_VIOLATION and v.trials_run == probes
        vals = _combination_vals(funcs, v.witness_coeffs)(_dense_grid(dom))
        return v.status == COUNTEREXAMPLE and sign_changes(vals, dom.is_circle) >= len(funcs)

    return Record(name, run, verdict, check)


def _catalog_systems():
    return ([(f"poly{k}", cz.polynomial_system(k)) for k in range(1, 5)]
            + [("trig1", cz.trig_system(1)), ("trig2", cz.trig_system(2)),
               ("power2", cz.power_system([2.0 ** 0.5, 3.0 ** 0.5],
                                          fs.interval(1.0, math.e)))])


def falsify(seed: int) -> list:
    recs = []
    catalog = [cz.moment_curve(2), cz.moment_curve(3), cz.moment_curve(4),
               cz.trig_curve(1), cz.trig_curve(2),
               cz.power_curve([2.0 ** 0.5, 3.0 ** 0.5], 1.0, math.e),
               cz.exp_graph(), cz.smoothed_polygon(6)]
    curves = [(c.label, c) for c in catalog]
    for t, d in enumerate((2, 3, 4)):
        rng = fs.derived_rng(seed, 14, t)
        s = 0.05 / (d + 1)
        A = np.eye(d) + s * rng.uniform(-1.0, 1.0, (d, d))
        b = rng.uniform(-0.5, 0.5, d)
        curves.append((f"affine moment:{d}", cz.affine_image(cz.moment_curve(d), A, b)))
    # order 2 on the circle breaks the parity law: always a counterexample
    pair = ((fs.Func1D(np.cos, "cos"), fs.Func1D(np.sin, "sin")), fs.circle())
    # the seed makes the instances; the falsifier's own probe seeds are
    # fixed, as under the CLI's default --seed 0.  A single probe's cost
    # depends on where it falls, and seeded probes moved the median record
    # between 2.4 and 4.6 ms from seed to seed
    for j in range(REPEATS):
        rng_seed = j
        for label, c in curves:
            recs.append(_theorem4(f"theorem4 {label} #{j}", c, rng_seed, convex=True))
        recs.append(_theorem4(f"theorem4 sinegraph #{j}", cz.sine_graph(), rng_seed,
                              convex=False))
        for label, system in _catalog_systems():
            recs.append(_verify(f"verify {label} #{j}", system, rng_seed, NO_VIOLATION))
        recs.append(_verify(f"verify even pair #{j}", pair, rng_seed, COUNTEREXAMPLE))
    return recs


# ---------------------------------------------------------------------------
# synth: prescribed-zero synthesis, weights, annihilators, curve synthesis

_ORTH_PER_SYSTEM = 2
_WEIGHT_PER_SYSTEM = 1
_THM1_PER_SYSTEM = 1
_ANNIH_PER_SYSTEM = 1
_CURVE_PER_CONFIG = 1
# one double root and as many simple roots as fit (a one-dimensional
# kernel), order at most 5.  Beyond that general_annihilator rejects
# some valid prescriptions: its no-other-zeros scan reads |value| < 1e-9
# max just outside the 1e-4 exclusion radius of a double root, and its
# candidate search misses on wider kernels (see NOTES.md)
_ANNIH_MAX_ORDER = 5


def _synth_systems():
    return ([(f"poly{k}", cz.polynomial_system(k)) for k in range(1, 9)]
            + [(f"trig{k}", cz.trig_system(k)) for k in range(1, 5)]
            + [("power2", cz.power_system([2.0 ** 0.5, 3.0 ** 0.5], fs.interval(1.0, math.e))),
               ("power3", cz.power_system([0.5, 1.5, 2.5], fs.interval(0.5, 2.0)))])


def _check_orth(system, pts, r) -> bool:
    dom, m = system.dom, len(pts)
    found = roots(r.F.eval, dom)
    res = residuals(r.F.eval, _system_vals(system), dom, pts)
    return (found.size == m and r.sign_report.count == m
            and loc_err(found, pts) <= LOC_TOL
            and loc_err(r.sign_report.locations, pts) <= LOC_TOL
            and float(np.max(np.abs(res))) <= RESIDUAL_TOL
            and float(np.max(np.abs(r.residuals))) <= RESIDUAL_TOL
            and _one_signed(r.step.heights))


def _check_weight(system, f, pts, r) -> bool:
    dom = system.dom
    step = r.step
    breaks = list(pts) + list(step.breakpoints) + list(step.support or ())
    res = residuals(lambda t: f.eval(t) * r.rho.eval(t), _system_vals(system), dom, breaks)
    return (sign_changes(f.eval(_dense_grid(dom)), dom.is_circle) == len(pts)
            and r.sign_report.count == len(pts)
            and loc_err(r.sign_report.locations, pts) <= LOC_TOL
            and float(np.max(np.abs(res))) <= RESIDUAL_TOL
            and float(np.max(np.abs(r.residuals))) <= RESIDUAL_TOL
            and _one_signed(step.heights))


def _synth_orth_record(name, system, pts) -> Record:
    return Record(name, lambda: cz.synth_orthogonal(system, pts),
                  lambda r: (r.sign_report.count, r.step.heights.size),
                  lambda r: _check_orth(system, pts, r))


def _synth_weight_record(name, system, pts) -> Record:
    def run():
        f = cz.default_annihilator(pts, system.dom)
        return f, cz.synth_weight(system, f)

    return Record(name, run,
                  lambda o: (o[1].sign_report.count, o[1].step.heights.size,
                             o[1].step.support is not None),
                  lambda o: _check_weight(system, o[0], pts, o[1]))


def _theorem1_record(name, system, pts, weighted) -> Record:
    m = cz.m_of(system.dom, system.order_n)

    def run():
        if weighted:
            f = cz.default_annihilator(pts, system.dom)
            r = cz.synth_weight(system, f)
            br = list(r.step.breakpoints) + list(r.step.support or ())
            return f, r, cz.theorem1_check(system, f, r.rho, breaks=br)
        r = cz.synth_orthogonal(system, pts)
        return r.F, r, cz.theorem1_check(system, r.F, breaks=r.step.breakpoints)

    def check(o):
        f, r, rep = o
        ok = _check_weight(system, f, pts, r) if weighted else _check_orth(system, pts, r)
        mine = sign_changes(f.eval(_dense_grid(system.dom)), system.dom.is_circle)
        return (ok and mine >= m and rep.sign_changes == mine
                and rep.max_residual <= RESIDUAL_TOL)

    return Record(name, run,
                  lambda o: (o[2].applicable, o[2].passed, o[2].sign_changes, o[2].bound),
                  check)


def _annihilator_record(name, system, rp) -> Record:
    dom = system.dom

    def check(coeffs):
        vals = _combination_vals(system.basis, coeffs)
        found = roots(vals, dom)
        scale = float(np.max(np.abs(vals(_dense_grid(dom)))))
        at_double = np.abs(vals(np.asarray(rp.double_roots))) if rp.p else np.zeros(1)
        return (found.size == rp.q and loc_err(found, rp.simple_roots) <= LOC_TOL
                and float(np.max(at_double)) <= 1e-8 * scale)

    return Record(name, lambda: cz.general_annihilator(system, rp),
                  lambda c: (len(c), rp.q, rp.p), check)


def _curve_record(name, curve, n, t) -> Record:
    dom = curve.dom
    bound = n * curve.d + (2 if dom.is_circle else 1)

    def run():
        dim = cz.dimension_estimate(cz.restrict_polynomials(curve, n), dom)
        res = cz.construct_orthogonal_on_curve(curve, n, pieces=dim + 1 + t % 4)
        return res, cz.theorem5_verify(curve, n, res.F)

    def check(o):
        res, rep = o
        found = roots(res.F.eval, dom)
        mine = residuals(res.F.eval, _curve_monomial_vals(curve, n), dom, res.points)
        # crossings sit at prescribed points; a point where the kernel
        # step flips sign with the annihilator cancels, so not every one.
        # theorem5_verify's own residual is not gated: it splits its
        # quadrature only at crossings, so a cancelled point's kink can
        # push it past 1e-8 (its flags still enter the digest)
        near = [float(np.min(np.abs(res.points - x))) for x in found]
        return (found.size >= bound and res.sign_report.count == found.size
                and rep.sign_changes == found.size
                and max(near, default=0.0) <= LOC_TOL
                and float(np.max(np.abs(mine))) <= RESIDUAL_TOL
                and float(np.max(np.abs(res.residuals))) <= RESIDUAL_TOL)

    return Record(name, run,
                  lambda o: (o[0].sign_report.count, o[0].points.size, o[0].dim,
                             o[1].applicable, o[1].passed, o[1].sign_changes, o[1].bound),
                  check)


def synth(seed: int) -> list:
    recs = []
    for si, (label, system) in enumerate(_synth_systems()):
        dom, n = system.dom, system.order_n
        m = cz.m_of(dom, n)
        for t in range(_ORTH_PER_SYSTEM):
            pts = _stratified(fs.derived_rng(seed, 21, si, t), dom, m)
            recs.append(_synth_orth_record(f"synth_orthogonal {label} t={t}", system, pts))
        if label.startswith("poly"):
            nodes = np.sort(np.polynomial.legendre.leggauss(m)[0])
            recs.append(_synth_orth_record(f"synth_orthogonal {label} gauss", system, nodes))
        elif label.startswith("trig"):
            nodes = TWO_PI * (np.arange(m) + 0.5) / m
            recs.append(_synth_orth_record(f"synth_orthogonal {label} equispaced",
                                           system, nodes))
        extra = 2 if dom.is_circle else 1
        # synth_weight raises NotChebyshevError on about 1% of 9-point
        # narrowings of poly8 (see NOTES.md), so poly8 is not narrowed
        narrow = label != "poly8"
        for t in range(_WEIGHT_PER_SYSTEM if narrow else 0):
            pts = _stratified(fs.derived_rng(seed, 22, si, t), dom, m + extra)
            recs.append(_synth_weight_record(f"synth_weight {label} t={t}", system, pts))
        for t in range(_THM1_PER_SYSTEM):
            weighted = narrow and (si + t) % 2 == 1  # after synth_weight or synth_orthogonal
            pts = _stratified(fs.derived_rng(seed, 23, si, t), dom,
                              m + extra if weighted else m)
            recs.append(_theorem1_record(f"theorem1 {label} t={t}", system, pts, weighted))
        if 3 <= n <= _ANNIH_MAX_ORDER:
            for t in range(_ANNIH_PER_SYSTEM):
                # one double root, n - 3 simple ones (even on the circle)
                rng = fs.derived_rng(seed, 24, si, t)
                where = _stratified(rng, dom, n - 2)
                k = rng.permutation(n - 2)[0]
                rp = cz.RootPrescription(simple_roots=tuple(np.delete(where, k)),
                                         double_roots=(where[k],))
                recs.append(_annihilator_record(f"general_annihilator {label} t={t}",
                                                system, rp))
    configs = [("moment:2", 1), ("moment:2", 2), ("moment:3", 1),
               ("trig:1", 1), ("trig:1", 2), ("trig:2", 1)]
    for ci, (kind, n) in enumerate(configs):
        for t in range(_CURVE_PER_CONFIG):
            rng = fs.derived_rng(seed, 25, ci, t)
            d = int(kind.split(":")[1])
            if kind.startswith("moment"):
                a = -2.0 + 1.5 * rng.uniform()
                curve = cz.moment_curve(d, a, a + 0.8 + 1.2 * rng.uniform())
            else:
                curve = cz.trig_curve(d)
            recs.append(_curve_record(f"curve {kind} n={n} t={t}", curve, n, t))
    return recs


# ---------------------------------------------------------------------------
# oscillation: curvature extrema of ovals and vertex masses on polygons

_OVALS = 30
_BLASCHKE = 15
_POLYGONS = 8
_POLYLINES = 3


def _int_seed(seed, *keys) -> int:
    return int(fs.derived_rng(seed, *keys).integers(2 ** 31))


def _extrema(vals) -> int:
    return sign_changes(np.roll(vals, -1) - vals, cyclic=True)


def _four_vertex_record(name, oval) -> Record:
    def run():
        return cz.four_vertex_check(oval), cz.verify_R_orthogonality(oval)

    def check(o):
        rep, (rc, rs) = o
        ts = _dense_grid(fs.circle())
        R = cz.radius_of_curvature(oval).eval(ts)
        h = TWO_PI / ts.size
        mc, ms = abs(h * float(R @ np.cos(ts))), abs(h * float(R @ np.sin(ts)))
        return (_extrema(R) >= 4 and rep.extrema >= 4
                and max(rc, rs, mc, ms) <= MASS_TOL)

    return Record(name, run, lambda o: (o[0].passed, o[0].extrema, o[0].degenerate), check)


def _blaschke_record(name, o1, o2) -> Record:
    def check(rep):
        ts = _dense_grid(fs.circle())
        ratio = (cz.radius_of_curvature(o1).eval(ts) / cz.radius_of_curvature(o2).eval(ts))
        return _extrema(ratio) >= 4 and rep.extrema >= 4

    return Record(name, lambda: cz.blaschke_ratio_check(o1, o2),
                  lambda r: (r.passed, r.extrema), check)


def _vertex_moments(V, masses, n) -> np.ndarray:
    alphas = [a for a in itertools.product(range(n + 1), repeat=V.shape[1]) if sum(a) <= n]
    A = np.asarray(alphas, dtype=float)
    return np.prod(V[None, :, :] ** A[:, None, :], axis=2) @ masses


def _theorem6_record(name, P, n, mass_seed) -> Record:
    bound = P.d * n + (2 if P.closed else 1)

    def run():
        mv = cz.construct_masses(P, n, mass_seed)
        return mv, cz.theorem6_check(P, n, mv)

    def check(o):
        mv, rep = o
        mine = sign_changes(mv.masses, P.closed)
        res = float(np.max(np.abs(_vertex_moments(P.vertices, mv.masses, n))))
        return res <= MASS_TOL and mine >= bound and rep.sign_changes == mine

    return Record(name, run,
                  lambda o: (o[1].applicable, o[1].passed, o[1].sign_changes, o[1].bound),
                  check)


def _prop2_record(name, P, pair_seed) -> Record:
    def run():
        f, g = cz.proposition2_pair(P, pair_seed)
        return f, g, cz.proposition2_check(P, f, g)

    def check(o):
        f, g, rep = o
        diff = f.masses - g.masses
        tot = float(np.sum(f.masses))
        scale = tot * max(1.0, float(np.max(np.abs(P.vertices))))
        mine = sign_changes(diff, P.closed)
        return (abs(float(np.sum(diff))) <= 1e-8 * tot
                and float(np.max(np.abs(P.vertices.T @ diff))) <= 1e-8 * scale
                and mine >= P.d + 2 and rep.sign_changes == mine)

    return Record(name, run, lambda o: (o[2].applicable, o[2].passed, o[2].sign_changes),
                  check)


def _aleksandrov_record(name, k, pair_seed) -> Record:
    def run():
        M1, M2 = cz.aleksandrov_pair(k, pair_seed)
        return M1, M2, cz.aleksandrov_check(M1, M2)

    def check(o):
        M1, M2, rep = o
        e1, e2 = M1.edge_vectors(), M2.edge_vectors()
        l1, l2 = np.linalg.norm(e1, axis=1), np.linalg.norm(e2, axis=1)
        parallel = np.max(np.abs(e1 / l1[:, None] - e2 / l2[:, None]))
        mine = sign_changes(l1 - l2, cyclic=True)
        return (parallel <= 1e-9 and abs(l1.sum() - l2.sum()) <= 1e-8 * l1.sum()
                and mine >= 4 and rep.sign_changes == mine)

    return Record(name, run, lambda o: (o[2].applicable, o[2].passed, o[2].sign_changes),
                  check)


def _polyline_record(name, P, rng_seed) -> Record:
    def check(rep):
        return (rep.status == NO_VIOLATION and rep.trials_run == PROBES
                and rep.certified is None)

    return Record(name, lambda: cz.polyline_convexity_check(P, PROBES, rng_seed),
                  lambda r: (r.status, r.trials_run, r.certified), check)


def _inscribed_polyline(kind, k, rng):
    """Vertices on a convex curve: open moment curves in R^2 and R^3,
    the closed trig curve in R^4.  Inscribed polylines stay convex."""
    if kind == "trig:2":
        t = _stratified(rng, fs.circle(), k)
        V = np.stack([np.cos(t), np.sin(t), np.cos(2 * t), np.sin(2 * t)], axis=1)
        return cz.PolyLine(V, closed=True)
    d = int(kind.split(":")[1])
    t = _stratified(rng, fs.interval(-1.0, 1.0), k)
    return cz.PolyLine(t[:, None] ** np.arange(1, d + 1)[None, :], closed=False)


def oscillation(seed: int) -> list:
    recs = []
    for t in range(_OVALS):
        amp = float(fs.derived_rng(seed, 31, t).uniform(0.2, 0.8))
        oval = cz.random_oval(2 + t % 4, amp, _int_seed(seed, 32, t))
        recs.append(_four_vertex_record(f"four_vertex t={t}", oval))
    for t in range(_BLASCHKE):
        o1 = cz.random_oval(2 + t % 4, 0.55, _int_seed(seed, 33, t))
        o2 = cz.random_oval(1 + t % 3, 0.35, _int_seed(seed, 34, t))
        recs.append(_blaschke_record(f"blaschke t={t}", o1, o2))
    for t in range(_POLYGONS):
        n = 1 + t % 2
        P = cz.random_convex_polygon(8 + t % 9, _int_seed(seed, 35, t))
        recs.append(_theorem6_record(f"theorem6 k={P.k} n={n} t={t}", P, n,
                                     _int_seed(seed, 36, t)))
    for t in range(_POLYGONS):
        P = cz.random_convex_polygon(6 + t % 7, _int_seed(seed, 37, t))
        recs.append(_prop2_record(f"proposition2 k={P.k} t={t}", P, _int_seed(seed, 38, t)))
    for t in range(_POLYGONS):
        recs.append(_aleksandrov_record(f"aleksandrov k={5 + t % 8} t={t}", 5 + t % 8,
                                        _int_seed(seed, 39, t)))
    for t in range(_POLYLINES):
        kind = ("moment:2", "moment:3", "trig:2")[t % 3]
        P = _inscribed_polyline(kind, 10 + 2 * t, fs.derived_rng(seed, 40, t))
        recs.append(_polyline_record(f"polyline_convexity {kind} t={t}", P,
                                     _int_seed(seed, 41, t)))
        recs.append(_theorem6_record(f"theorem6 {kind} t={t}", P, 1, _int_seed(seed, 42, t)))
    return recs


WORKLOADS = {"falsify": falsify, "synth": synth, "oscillation": oscillation}
