"""Command line front end.

Three command families:
  verify  - seeded sweeps that try to break a bound and report pass/fail
  synth   - run a single construction and print its data
  curve   - convexity verdict or spanned-space dimension for one curve

Reports are JSON (default) or CSV.  Exit code 0 means every checked
bound held, 1 means some instance violated a bound, 2 means the request
itself was invalid.  With a fixed --seed the output is reproducible;
--no-timing zeroes the wall-clock field so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import funcspace as fs
from .annihilator import RootPrescription, default_annihilator, general_annihilator
from .chebsys import (COUNTEREXAMPLE, NO_VIOLATION, polynomial_system,
                      power_system, trig_system, verify_chebyshev)
from .curves import (affine_image, construct_orthogonal_on_curve, convexity_check,
                     curve_points, dimension_estimate, exp_graph, moment_curve,
                     power_curve, proposition1_check, proposition1_relative,
                     restrict_polynomials, sine_graph, smoothed_polygon,
                     theorem4_check, theorem5_verify, trig_curve)
from .discrete import (aleksandrov_check, aleksandrov_pair, construct_masses,
                       parse_polyline, polygon_from_normals,
                       proposition2_check, proposition2_pair,
                       random_convex_polygon, theorem6_check)
from .exceptions import NotChebyshevError
from .fourvertex import (OvalSupport, blaschke_ratio_check, four_vertex_check,
                         radius_of_curvature, random_oval,
                         verify_R_orthogonality)
from .orthosynth import m_of, synth_orthogonal, synth_weight, theorem1_check

Record = Tuple[str, bool, str, str]

_PROBES = 200          # falsification budget inside composite checks
_EXC = (ValueError, NotChebyshevError, RuntimeError)

_DEFAULT_TRIALS = {
    "assertion1": 10, "hurwitz": 10, "theorem1": 6, "theorem3-sharpness": 8,
    "theorem4": 8, "theorem5": 4, "theorem6": 5, "prop1": 10, "prop2": 10,
    "fourvertex": 12, "blaschke": 8, "aleksandrov": 10,
    "example1": 1, "example2": 1, "example5": 1, "example6": 1, "all": 3,
}


def _trials(args) -> int:
    t = args.trials if args.trials is not None else _DEFAULT_TRIALS[args.what]
    if t < 1:
        raise ValueError("--trials must be at least 1")
    return t


def _points_for(rng, dom: fs.Domain, m: int) -> np.ndarray:
    fr = (np.arange(m) + 0.1 + 0.8 * rng.uniform(size=m)) / m
    if dom.is_circle:
        return fs.TWO_PI * fr
    return dom.a + dom.span * fr


# ---------------------------------------------------------------------------
# spec-string parsing


def _floats(csv_text: str) -> List[float]:
    try:
        return [float(x) for x in csv_text.split(",") if x != ""]
    except ValueError:
        raise ValueError(f"not a comma list of numbers: {csv_text!r}")


def parse_system(spec: str):
    """poly:DEG[:a:b] | trig:K | power:a1,a2,...:lo:hi"""
    parts = spec.split(":")
    kind = parts[0]
    if kind == "poly":
        if len(parts) not in (2, 4):
            raise ValueError("poly spec is poly:DEG[:a:b]")
        deg = int(parts[1])
        dom = fs.interval(float(parts[2]), float(parts[3])) \
            if len(parts) == 4 else None
        return polynomial_system(deg, dom)
    if kind == "trig":
        if len(parts) != 2:
            raise ValueError("trig spec is trig:K")
        return trig_system(int(parts[1]))
    if kind == "power":
        if len(parts) != 4:
            raise ValueError("power spec is power:a1,a2,...:lo:hi")
        return power_system(_floats(parts[1]),
                            fs.interval(float(parts[2]), float(parts[3])))
    raise ValueError(f"unknown system kind {kind!r}")


def parse_curve(spec: str):
    """moment:d[:a:b] | trig:k | power:a1,...:lo:hi | expgraph[:a:b] |
    smoothedpolygon:m[:r] | sinegraph[:c:a:b]"""
    parts = spec.split(":")
    kind = parts[0]
    if kind == "moment":
        if len(parts) == 2:
            return moment_curve(int(parts[1]))
        if len(parts) == 4:
            return moment_curve(int(parts[1]), float(parts[2]), float(parts[3]))
        raise ValueError("moment spec is moment:d[:a:b]")
    if kind == "trig":
        if len(parts) != 2:
            raise ValueError("trig spec is trig:k")
        return trig_curve(int(parts[1]))
    if kind == "power":
        if len(parts) != 4:
            raise ValueError("power spec is power:a1,...:lo:hi")
        return power_curve(_floats(parts[1]), float(parts[2]), float(parts[3]))
    if kind == "expgraph":
        if len(parts) == 1:
            return exp_graph()
        if len(parts) == 3:
            return exp_graph(float(parts[1]), float(parts[2]))
        raise ValueError("expgraph spec is expgraph[:a:b]")
    if kind == "smoothedpolygon":
        if len(parts) == 2:
            return smoothed_polygon(int(parts[1]))
        if len(parts) == 3:
            return smoothed_polygon(int(parts[1]), float(parts[2]))
        raise ValueError("smoothedpolygon spec is smoothedpolygon:m[:r]")
    if kind == "sinegraph":
        if len(parts) == 1:
            return sine_graph()
        if len(parts) == 4:
            return sine_graph(float(parts[1]), float(parts[2]), float(parts[3]))
        raise ValueError("sinegraph spec is sinegraph[:c:a:b]")
    raise ValueError(f"unknown curve kind {kind!r}")


def parse_func(spec: str, dom: fs.Domain) -> fs.Func1D:
    """poly:c0,c1,... | trig:a0,a1,b1[,a2,b2,...] | roots:r1,r2,..."""
    parts = spec.split(":", 1)
    if len(parts) != 2:
        raise ValueError("function spec is kind:numbers")
    kind, data = parts
    cs = _floats(data)
    if kind == "poly":
        co = np.asarray(cs, dtype=float)

        def pe(t, co=co):
            return np.polynomial.polynomial.polyval(np.asarray(t, float), co)

        return fs.Func1D(pe, spec)
    if kind == "trig":
        if len(cs) % 2 != 1:
            raise ValueError("trig function spec needs a0,a1,b1,...")
        a0, rest = cs[0], cs[1:]

        def te(t, a0=a0, rest=rest):
            t = np.asarray(t, dtype=float)
            out = np.full_like(t, a0)
            for i in range(0, len(rest), 2):
                k = i // 2 + 1
                out += rest[i] * np.cos(k * t) + rest[i + 1] * np.sin(k * t)
            return out

        return fs.Func1D(te, spec)
    if kind == "roots":
        return default_annihilator(sorted(cs), dom)
    raise ValueError(f"unknown function kind {kind!r}")


# ---------------------------------------------------------------------------
# verify runners


def _safe(instance: str, expected: str, thunk: Callable[[], Tuple[bool, str]],
          out: List[Record]) -> None:
    try:
        ok, observed = thunk()
    except _EXC as e:
        ok, observed = False, f"error: {e}"
    out.append((instance, ok, expected, observed))


def run_assertion1(args) -> List[Record]:
    # orthogonal to n polynomials => at least n sign changes; prescribed
    # points realize exactly n, including the Gauss nodes
    recs: List[Record] = []
    trials = _trials(args)
    for n in range(1, 7):
        sys = polynomial_system(n - 1)
        for t in range(trials):
            rng = fs.derived_rng(args.seed, 10, n, t)
            pts = _points_for(rng, sys.dom, n)
            _safe(f"n={n} t={t}", f">= {n}", lambda s=sys, p=pts, n=n: (
                (lambda r: (r.sign_report.count >= n,
                            str(r.sign_report.count)))(synth_orthogonal(s, p))
            ), recs)
        nodes = np.polynomial.legendre.leggauss(n)[0]
        _safe(f"n={n} gauss-nodes", f"== {n}", lambda s=sys, p=nodes, n=n: (
            (lambda r: (r.sign_report.count == n,
                        str(r.sign_report.count)))(synth_orthogonal(s, p))
        ), recs)
    return recs


def run_hurwitz(args) -> List[Record]:
    # orthogonal to harmonics through order k => at least 2k+2 sign
    # changes on the circle, and 2k+2 is attainable
    recs: List[Record] = []
    trials = _trials(args)
    ks = [args.harmonics] if args.harmonics else [1, 2, 3]
    for k in ks:
        sys = trig_system(k)
        m = m_of(sys.dom, sys.order_n)
        for t in range(trials):
            rng = fs.derived_rng(args.seed, 11, k, t)
            pts = _points_for(rng, sys.dom, m)
            _safe(f"k={k} t={t}", f">= {m}", lambda s=sys, p=pts, m=m: (
                (lambda r: (r.sign_report.count >= m,
                            str(r.sign_report.count)))(synth_orthogonal(s, p))
            ), recs)
        _safe(f"k={k} minimal", f"== {m}", lambda s=sys, m=m: (
            (lambda r: (r.sign_report.count == m, str(r.sign_report.count)))(
                synth_orthogonal(s, _points_for(fs.derived_rng(args.seed, 11, m),
                                                s.dom, m)))
        ), recs)
    return recs


def _system_catalog():
    return [polynomial_system(k) for k in range(1, 5)] + \
        [trig_system(1), trig_system(2),
         power_system([2.0 ** 0.5, 3.0 ** 0.5], fs.interval(1.0, float(np.e)))]


def run_theorem1(args) -> List[Record]:
    # a function with a constant-sign weight making it orthogonal to the
    # whole system has at least m sign changes
    recs: List[Record] = []
    trials = _trials(args)
    for si, sys in enumerate(_system_catalog()):
        m = m_of(sys.dom, sys.order_n)
        for t in range(trials):
            rng = fs.derived_rng(args.seed, 12, si, t)
            if t % 2 == 0:
                pts = _points_for(rng, sys.dom, m)

                def check(s=sys, p=pts):
                    r = synth_orthogonal(s, p)
                    rep = theorem1_check(s, r.F, tol=args.tol,
                                         grid_n=args.grid)
                    return (rep.applicable and rep.passed,
                            f"count={rep.sign_changes} res={rep.max_residual:.1e}")
            else:
                extra = 2 if sys.dom.is_circle else 1
                pts = _points_for(rng, sys.dom, m + extra)

                def check(s=sys, p=pts):
                    f = default_annihilator(p, s.dom)
                    r = synth_weight(s, f)
                    br = list(r.step.breakpoints) + list(r.step.support or ())
                    rep = theorem1_check(s, f, r.rho, tol=args.tol,
                                         grid_n=args.grid, breaks=br)
                    return (rep.applicable and rep.passed,
                            f"count={rep.sign_changes} res={rep.max_residual:.1e}")
            _safe(f"sys{si} m={m} t={t}", f">= {m}", check, recs)
    return recs


def run_theorem3_sharpness(args) -> List[Record]:
    # the prescribed sign points are realized exactly, nothing extra
    recs: List[Record] = []
    trials = _trials(args)
    for si, sys in enumerate(_system_catalog()):
        m = m_of(sys.dom, sys.order_n)
        for t in range(trials):
            rng = fs.derived_rng(args.seed, 13, si, t)
            pts = _points_for(rng, sys.dom, m)

            def check(s=sys, p=pts, m=m):
                r = synth_orthogonal(s, p)
                err = float(np.max(np.abs(np.sort(r.sign_report.locations)
                                          - np.sort(p))))
                return (r.sign_report.count == m and err <= 1e-6,
                        f"count={r.sign_report.count} locerr={err:.1e}")

            _safe(f"sys{si} m={m} t={t}", f"== {m} within 1e-6", check, recs)
    return recs


def run_theorem4(args) -> List[Record]:
    # convexity of the curve and the Chebyshev property of its affine
    # restrictions are the same thing; verdicts must agree either way
    recs: List[Record] = []
    convex_catalog = [moment_curve(2), moment_curve(3), moment_curve(4),
                      trig_curve(1), trig_curve(2),
                      power_curve([2.0 ** 0.5, 3.0 ** 0.5], 1.0, float(np.e)),
                      exp_graph(), smoothed_polygon(6)]
    for c in convex_catalog:
        _safe(c.label, "agree, convex", lambda c=c: (
            (lambda r: (r.agree and r.convexity.convex,
                        f"agree={r.agree} conv={r.convexity.status} "
                        f"cheb={r.chebyshev.status}"))(
                theorem4_check(c, trials=_PROBES, rng_seed=args.seed))
        ), recs)
    _safe("sinegraph", "agree, not convex", lambda: (
        (lambda r: (r.agree and not r.convexity.convex,
                    f"agree={r.agree} conv={r.convexity.status} "
                    f"cheb={r.chebyshev.status}"))(
            theorem4_check(sine_graph(), trials=_PROBES, rng_seed=args.seed))
    ), recs)
    for t in range(_trials(args)):
        d = 2 + t % 3
        rng = fs.derived_rng(args.seed, 14, t)
        s = 0.05 / (d + 1)
        A = np.eye(d) + s * rng.uniform(-1.0, 1.0, (d, d))
        b = rng.uniform(-0.5, 0.5, d)
        cur = affine_image(moment_curve(d), A, b)
        _safe(f"perturbed moment:{d} t={t}", "agree, convex", lambda c=cur: (
            (lambda r: (r.agree and r.convexity.convex,
                        f"agree={r.agree} conv={r.convexity.status} "
                        f"cheb={r.chebyshev.status}"))(
                theorem4_check(c, trials=_PROBES, rng_seed=args.seed + t))
        ), recs)
    return recs


def run_theorem5(args) -> List[Record]:
    # a function orthogonal to all degree-n polynomial restrictions on a
    # convex curve in R^d has at least nd+1 sign changes (nd+2 closed)
    recs: List[Record] = []
    trials = _trials(args)
    configs = [("moment:2", 1), ("moment:2", 2), ("moment:3", 1),
               ("trig:1", 1), ("trig:1", 2)]
    for ci, (ck, n) in enumerate(configs):
        for t in range(trials):
            rng = fs.derived_rng(args.seed, 15, ci, t)
            if ck.startswith("moment"):
                d = int(ck.split(":")[1])
                a = -2.0 + 1.5 * rng.uniform()
                cur = moment_curve(d, a, a + 0.8 + 1.2 * rng.uniform())
            else:
                cur = trig_curve(1)
            bound = n * cur.d + (2 if cur.dom.is_circle else 1)

            def check(c=cur, n=n, t=t, bound=bound):
                dim = dimension_estimate(restrict_polynomials(c, n), c.dom)
                res = construct_orthogonal_on_curve(c, n, pieces=dim + 1 + t % 4)
                rep = theorem5_verify(c, n, res.F, tol=args.tol,
                                      grid_n=args.grid)
                return (rep.applicable and rep.passed,
                        f"count={rep.sign_changes} res={rep.max_residual:.1e}")

            _safe(f"{ck} n={n} t={t}", f">= {bound}", check, recs)
    _safe("moment:2 n=1 minimal", "== 3", lambda: (
        (lambda r: (r.sign_report.count == 3, str(r.sign_report.count)))(
            construct_orthogonal_on_curve(moment_curve(2), 1, pieces=4))
    ), recs)
    return recs


def run_theorem6(args) -> List[Record]:
    # vertex masses annihilating all moments of degree <= n on a convex
    # polygon change sign at least dn+2 times around it
    recs: List[Record] = []
    trials = _trials(args)
    ns = [args.n] if args.n else [1, 2]
    ks = [args.k] if args.k else [8, 12, 16]
    for n in ns:
        for k in ks:
            if k <= (n + 1) * (n + 2) // 2:
                raise ValueError(f"k={k} too small for n={n}")
            for t in range(trials):
                seed = fs.derived_rng(args.seed, 16, n, k, t).integers(2 ** 31)

                def check(n=n, k=k, seed=int(seed)):
                    P = random_convex_polygon(k, seed)
                    mv = construct_masses(P, n, seed)
                    rep = theorem6_check(P, n, mv, tol=min(args.tol, 1e-10))
                    return (rep.applicable and rep.passed,
                            f"count={rep.sign_changes} res={rep.max_residual:.1e}")

                _safe(f"n={n} k={k} t={t}", f">= {2 * n + 2}", check, recs)
    return recs


def run_prop1(args) -> List[Record]:
    # densities on the unit circle whose weighted center of mass stays
    # at the center have at least 4 extrema; ditto ratio/difference pairs
    recs: List[Record] = []
    circ = trig_curve(1)
    for t in range(_trials(args)):
        M = 2 + t % 4
        amp = 0.25 + 0.5 * ((3 * t) % 7) / 7.0
        f = radius_of_curvature(random_oval(M, amp, args.seed * 1000 + t))
        _safe(f"oval t={t}", ">= 4", lambda f=f: (
            (lambda r: (r.applicable and r.passed,
                        f"extrema={r.extrema} gap={r.center_gap:.1e}"))(
                proposition1_check(circ, f, grid_n=args.grid))
        ), recs)
        if t % 2 == 1:
            g = radius_of_curvature(random_oval(M + 1, 0.4, args.seed * 991 + t))
            _safe(f"pair t={t}", ">= 4 twice", lambda f=f, g=g: (
                (lambda r: (r.applicable and r.passed,
                            f"diff={r.diff_sign_changes} "
                            f"ratio={r.ratio_extrema}"))(
                    proposition1_relative(circ, f, g, grid_n=args.grid))
            ), recs)
    shifted = fs.Func1D(lambda u: 1.0 + 0.5 * np.cos(u), "shifted")
    _safe("off-center density", "not applicable", lambda: (
        (lambda r: (not r.applicable, f"applicable={r.applicable}"))(
            proposition1_check(circ, shifted))
    ), recs)
    return recs


def run_prop2(args) -> List[Record]:
    # positive vertex mass pairs with equal totals and centers differ
    # with at least d+2 sign alternations around a closed polygon
    recs: List[Record] = []
    for t in range(_trials(args)):
        k = 6 + t % 7

        def check(k=k, t=t):
            P = random_convex_polygon(k, args.seed * 77 + t)
            f, g = proposition2_pair(P, args.seed * 13 + t)
            rep = proposition2_check(P, f, g, tol=args.tol)
            return (rep.applicable and rep.passed, f"count={rep.sign_changes}")

        _safe(f"k={k} t={t}", ">= 4", check, recs)
    return recs


def run_fourvertex(args) -> List[Record]:
    # curvature radius of an oval: at least 4 extrema, and structurally
    # zero first-harmonic integrals
    recs: List[Record] = []
    for t in range(_trials(args)):
        M = 1 + t % 5
        amp = 0.2 + 0.6 * ((2 * t) % 9) / 9.0

        def check(M=M, amp=amp, t=t):
            o = random_oval(M, amp, args.seed * 101 + t)
            rep = four_vertex_check(o, grid_n=args.grid)
            rc, rs = verify_R_orthogonality(o)
            return (rep.passed and rc <= 1e-10 and rs <= 1e-10,
                    f"extrema={rep.extrema} res={max(rc, rs):.1e}")

        _safe(f"oval t={t}", ">= 4, res <= 1e-10", check, recs)
    _safe("h=1+0.1cos2a", "== 4", lambda: (
        (lambda r: (r.passed and r.extrema == 4, str(r.extrema)))(
            four_vertex_check(OvalSupport(1.0, ((0.0, 0.0), (0.1, 0.0)))))
    ), recs)
    _safe("circle", "degenerate pass", lambda: (
        (lambda r: (r.passed and r.degenerate, f"degenerate={r.degenerate}"))(
            four_vertex_check(OvalSupport(1.0)))
    ), recs)
    return recs


def run_blaschke(args) -> List[Record]:
    # ratio of curvature radii of two ovals: at least 4 extrema
    recs: List[Record] = []
    for t in range(_trials(args)):
        def check(t=t):
            o1 = random_oval(2 + t % 4, 0.55, args.seed * 313 + t)
            o2 = random_oval(1 + t % 3, 0.35, args.seed * 631 + t)
            rep = blaschke_ratio_check(o1, o2, grid_n=args.grid)
            return (rep.passed, f"extrema={rep.extrema}")

        _safe(f"pair t={t}", ">= 4", check, recs)

    def reduction():
        o = random_oval(3, 0.5, args.seed + 5)
        b = blaschke_ratio_check(o, OvalSupport(1.0), grid_n=args.grid)
        f = four_vertex_check(o, grid_n=args.grid)
        return (b.reduces_to_four_vertex and b.extrema == f.extrema,
                f"ratio={b.extrema} plain={f.extrema}")

    _safe("vs circle", "counts match", reduction, recs)
    return recs


def run_aleksandrov(args) -> List[Record]:
    # convex polygons with parallel sides and equal perimeters: side
    # differences alternate at least 4 times
    recs: List[Record] = []
    for t in range(_trials(args)):
        k = 5 + t % 8

        def check(k=k, t=t):
            M1, M2 = aleksandrov_pair(k, args.seed * 57 + t)
            rep = aleksandrov_check(M1, M2, tol=args.tol)
            sub = rep.prop2 is not None and rep.prop2.applicable and rep.prop2.passed
            return (rep.applicable and rep.passed and sub,
                    f"count={rep.sign_changes} prop2={sub}")

        _safe(f"k={k} t={t}", ">= 4", check, recs)

    def rect_square():
        N = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        rep = aleksandrov_check(polygon_from_normals(N, [2, 1, 2, 1]),
                                polygon_from_normals(N, [1.5] * 4))
        return (rep.applicable and rep.sign_changes == 4,
                f"count={rep.sign_changes}")

    _safe("rectangle vs square", "== 4", rect_square, recs)

    def identical():
        M1, _ = aleksandrov_pair(7, args.seed + 3)
        rep = aleksandrov_check(M1, M1)
        return (rep.applicable and rep.passed and rep.degenerate,
                f"degenerate={rep.degenerate}")

    _safe("identical", "degenerate pass", identical, recs)
    return recs


def run_example1(args) -> List[Record]:
    # rounded hexagon: a mid-radius circle meets it 12 times, so the
    # restricted quadratics (6-dim space) cannot be a Chebyshev system
    recs: List[Record] = []
    K = smoothed_polygon(6)
    d = np.linalg.norm(curve_points(K, K.dom.grid(4096)), axis=1)

    def ranges():
        lo, hi = float(np.min(d)), float(np.max(d))
        ok = abs(lo - np.cos(np.pi / 6)) <= 1e-3 and abs(hi - 0.98660) <= 1e-3
        return ok, f"[{lo:.5f}, {hi:.5f}]"

    _safe("distance range", "[0.86603, 0.98660]", ranges, recs)
    r_mid = 0.5 * float(np.min(d) + np.max(d))
    ring = fs.Func1D(lambda t: np.sum(curve_points(K, np.atleast_1d(t)) ** 2,
                                      axis=1) - r_mid * r_mid, "ring")
    _safe("mid-circle crossings", "== 12", lambda: (
        (lambda r: (r.count == 12, str(r.count)))(
            fs.count_sign_changes(ring, K.dom, grid_n=args.grid))
    ), recs)
    _safe("quadratic restrictions", COUNTEREXAMPLE, lambda: (
        (lambda v: (v.status == COUNTEREXAMPLE,
                    f"{v.status} zeros={v.witness_zero_count}"))(
            verify_chebyshev((restrict_polynomials(K, 2), K.dom),
                             trials=2 * _PROBES, rng_seed=args.seed))
    ), recs)
    _safe("curve convexity", NO_VIOLATION, lambda: (
        (lambda r: (r.convex, r.status))(
            convexity_check(K, trials=_PROBES, rng_seed=args.seed))
    ), recs)
    return recs


def run_example2(args) -> List[Record]:
    # sine graph over a 1.4 pi window: not convex, affine restrictions
    # not Chebyshev, yet the homogeneous pair {t, sin t + c} is
    recs: List[Record] = []
    c = sine_graph()
    _safe("convexity", COUNTEREXAMPLE, lambda: (
        (lambda r: (not r.convex, r.status))(
            convexity_check(c, trials=_PROBES, rng_seed=args.seed))
    ), recs)
    _safe("theorem4 agreement", "agree on failure", lambda: (
        (lambda r: (r.agree and not r.convexity.convex, f"agree={r.agree}"))(
            theorem4_check(c, trials=_PROBES, rng_seed=args.seed))
    ), recs)
    pair = [fs.Func1D(lambda t: np.asarray(t, dtype=float), "t"),
            fs.Func1D(lambda t: np.sin(t) + 6.0, "sin+6")]
    _safe("homogeneous pair", NO_VIOLATION, lambda: (
        (lambda v: (v.status == NO_VIOLATION, v.status))(
            verify_chebyshev((pair, c.dom), trials=_PROBES, rng_seed=args.seed))
    ), recs)
    return recs


def run_example5(args) -> List[Record]:
    # power curve with irrational exponents on (1, e): convex, and the
    # matching power system is Chebyshev
    recs: List[Record] = []
    cur = power_curve([2.0 ** 0.5, 3.0 ** 0.5], 1.0, float(np.e))
    _safe("curve convexity", NO_VIOLATION, lambda: (
        (lambda r: (r.convex, r.status))(
            convexity_check(cur, trials=_PROBES, rng_seed=args.seed))
    ), recs)
    _safe("theorem4 agreement", "agree, convex", lambda: (
        (lambda r: (r.agree and r.convexity.convex, f"agree={r.agree}"))(
            theorem4_check(cur, trials=_PROBES, rng_seed=args.seed))
    ), recs)
    sys = power_system([2.0 ** 0.5, 3.0 ** 0.5], fs.interval(1.0, float(np.e)))
    _safe("power system", NO_VIOLATION, lambda: (
        (lambda v: (v.status == NO_VIOLATION, v.status))(
            verify_chebyshev(sys, trials=_PROBES, rng_seed=args.seed))
    ), recs)
    return recs


def run_example6(args) -> List[Record]:
    # (t, e^t): quadratic restrictions span all 6 dimensions, and an
    # orthogonal function needs at least 6 sign changes
    recs: List[Record] = []
    cur = exp_graph()
    _safe("restricted dimension", "== 6", lambda: (
        (lambda dim: (dim == 6, str(dim)))(
            dimension_estimate(restrict_polynomials(cur, 2), cur.dom))
    ), recs)

    def build():
        res = construct_orthogonal_on_curve(cur, 2, pieces=7)
        rep = theorem5_verify(cur, 2, res.F, tol=args.tol, grid_n=args.grid)
        return (res.sign_report.count >= 6 and rep.passed,
                f"count={res.sign_report.count} res={rep.max_residual:.1e}")

    _safe("orthogonal construction", ">= 6", build, recs)
    return recs


_RUNNERS: Dict[str, Callable] = {
    "assertion1": run_assertion1,
    "hurwitz": run_hurwitz,
    "theorem1": run_theorem1,
    "theorem3-sharpness": run_theorem3_sharpness,
    "theorem4": run_theorem4,
    "theorem5": run_theorem5,
    "theorem6": run_theorem6,
    "prop1": run_prop1,
    "prop2": run_prop2,
    "fourvertex": run_fourvertex,
    "blaschke": run_blaschke,
    "aleksandrov": run_aleksandrov,
    "example1": run_example1,
    "example2": run_example2,
    "example5": run_example5,
    "example6": run_example6,
}


def run_all(args) -> List[Record]:
    recs: List[Record] = []
    saved = args.trials
    args.trials = saved if saved is not None else _DEFAULT_TRIALS["all"]
    try:
        for name in _RUNNERS:
            what0 = args.what
            args.what = name
            try:
                for inst, ok, exp, obs in _RUNNERS[name](args):
                    recs.append((f"{name}: {inst}", ok, exp, obs))
            finally:
                args.what = what0
    finally:
        args.trials = saved
    return recs


# ---------------------------------------------------------------------------
# synth and curve commands


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return [float(v) for v in np.asarray(x, dtype=float).ravel()]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


def cmd_synth(args) -> dict:
    if args.what == "ortho":
        if not args.system or not args.points:
            raise ValueError("synth ortho needs --system and --points")
        sys = parse_system(args.system)
        pts = _floats(args.points)
        res = synth_orthogonal(sys, pts, grid_n=args.grid)
        return {
            "system": args.system, "points": pts,
            "heights": _jsonable(res.step.heights),
            "breakpoints": _jsonable(res.step.breakpoints),
            "max_residual": float(np.max(np.abs(res.residuals))),
            "sign_changes": res.sign_report.count,
            "locations": _jsonable(res.sign_report.locations),
        }
    if args.what == "weight":
        if not args.system or not args.func:
            raise ValueError("synth weight needs --system and --func")
        sys = parse_system(args.system)
        f = parse_func(args.func, sys.dom)
        res = synth_weight(sys, f, grid_n=args.grid)
        return {
            "system": args.system, "func": args.func,
            "heights": _jsonable(res.step.heights),
            "breakpoints": _jsonable(res.step.breakpoints),
            "support": _jsonable(np.asarray(res.step.support))
            if res.step.support is not None else None,
            "max_residual": float(np.max(np.abs(res.residuals))),
            "sign_changes": res.sign_report.count,
        }
    if args.what == "masses":
        if not args.poly or args.n is None:
            raise ValueError("synth masses needs --poly FILE and --n")
        with open(args.poly, "r", encoding="utf-8") as fh:
            P = parse_polyline(fh.read())
        mv = construct_masses(P, args.n, args.seed)
        rep = theorem6_check(P, args.n, mv)
        return {
            "poly": args.poly, "n": args.n, "k": P.k, "closed": P.closed,
            "masses": _jsonable(mv.masses),
            "max_residual": rep.max_residual,
            "sign_changes": rep.sign_changes,
            "bound": rep.bound,
        }
    if args.what == "annihilator":
        if not args.system:
            raise ValueError("synth annihilator needs --system")
        sys = parse_system(args.system)
        rp = RootPrescription(
            simple_roots=tuple(_floats(args.simple)) if args.simple else (),
            double_roots=tuple(_floats(args.double)) if args.double else ())
        co = general_annihilator(sys, rp)
        return {
            "system": args.system,
            "simple": list(rp.simple_roots), "double": list(rp.double_roots),
            "coeffs": _jsonable(co),
        }
    raise ValueError(f"unknown synth subcommand {args.what!r}")


def cmd_curve(args) -> Tuple[dict, int]:
    if not args.curve:
        raise ValueError("this command needs --curve")
    cur = parse_curve(args.curve)
    if args.what == "convexity":
        trials = args.trials if args.trials is not None else _PROBES
        r = convexity_check(cur, trials=trials, rng_seed=args.seed,
                            grid_n=args.grid)
        payload = {"curve": args.curve, "status": r.status,
                   "trials_run": r.trials_run}
        if r.witness is not None:
            payload["witness_normal"] = _jsonable(r.witness.normal)
            payload["witness_offset"] = float(r.witness.offset)
            payload["witness_crossings"] = r.witness_count.count_with_multiplicity
        return payload, 0
    if args.what == "dimension":
        n = args.n if args.n is not None else 1
        dim = dimension_estimate(restrict_polynomials(cur, n), cur.dom)
        return {"curve": args.curve, "n": n, "dimension": dim}, 0
    raise ValueError(f"unknown curve subcommand {args.what!r}")


# ---------------------------------------------------------------------------
# report emission


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_verify(records: List[Record], args, elapsed_ms: int) -> int:
    failures = [{"instance": i, "expected": e, "observed": o}
                for (i, ok, e, o) in records if not ok]
    if args.format == "csv":
        buf = io.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(["instance", "ok", "expected", "observed"])
        for i, ok, e, o in records:
            wr.writerow([i, int(ok), e, o])
        _emit(buf.getvalue(), args)
    else:
        report = {
            "schema": 1,
            "command": f"verify {args.what}",
            "seed": args.seed,
            "trials_run": len(records),
            "pass_count": len(records) - len(failures),
            "fail_count": len(failures),
            "failures": failures,
            "wall_time_ms": elapsed_ms,
        }
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args)
    return 1 if failures else 0


def _emit_payload(payload: dict, args) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(["key", "value"])
        for k in sorted(payload):
            v = payload[k]
            wr.writerow([k, json.dumps(v) if isinstance(v, (list, dict))
                         else v])
        _emit(buf.getvalue(), args)
    else:
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--trials", type=int, default=None,
                   help="instances per configuration (command default varies)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="orthogonality residual tolerance")
    p.add_argument("--grid", type=int, default=fs.DEFAULT_GRID_N,
                   help="sign-counting grid size")
    p.add_argument("--out", default=None, help="write the report here")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--no-timing", action="store_true",
                   help="report wall_time_ms as 0 for reproducible bytes")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chebzeros",
        description="sign-change bounds for functions orthogonal to "
                    "Chebyshev systems, on curves and polygons")
    sub = p.add_subparsers(dest="cmd", required=True)

    pv = sub.add_parser("verify", help="run a seeded verification sweep")
    pv.add_argument("what", choices=list(_RUNNERS) + ["all"])
    _add_common(pv)
    pv.add_argument("--harmonics", type=int, default=None,
                    help="hurwitz: restrict to one harmonic order")
    pv.add_argument("--n", type=int, default=None,
                    help="theorem6: moment degree")
    pv.add_argument("--k", type=int, default=None,
                    help="theorem6: vertex count")

    ps = sub.add_parser("synth", help="run one construction and print it")
    ps.add_argument("what", choices=["ortho", "weight", "masses", "annihilator"])
    _add_common(ps)
    ps.add_argument("--system", default=None,
                    help="poly:DEG[:a:b] | trig:K | power:a1,..:lo:hi")
    ps.add_argument("--points", default=None,
                    help="comma list of prescribed sign points")
    ps.add_argument("--func", default=None,
                    help="poly:c0,c1,.. | trig:a0,a1,b1,.. | roots:r1,..")
    ps.add_argument("--poly", default=None, help="polyline file")
    ps.add_argument("--n", type=int, default=None, help="moment degree")
    ps.add_argument("--simple", default=None, help="comma list of simple roots")
    ps.add_argument("--double", default=None, help="comma list of double roots")

    pc = sub.add_parser("curve", help="convexity verdict or dimension")
    pc.add_argument("what", choices=["convexity", "dimension"])
    _add_common(pc)
    pc.add_argument("--curve", default=None,
                    help="moment:d[:a:b] | trig:k | power:a1,..:lo:hi | "
                         "expgraph[:a:b] | smoothedpolygon:m[:r] | "
                         "sinegraph[:c:a:b]")
    pc.add_argument("--n", type=int, default=None,
                    help="dimension: polynomial degree (default 1)")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        t0 = time.perf_counter()
        if args.cmd == "verify":
            runner = run_all if args.what == "all" else _RUNNERS[args.what]
            records = runner(args)
            ms = 0 if args.no_timing else int((time.perf_counter() - t0) * 1000)
            return _emit_verify(records, args, ms)
        if args.cmd == "synth":
            payload = cmd_synth(args)
            _emit_payload(payload, args)
            return 0
        payload, rc = cmd_curve(args)
        _emit_payload(payload, args)
        return rc
    except _EXC as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
