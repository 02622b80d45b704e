"""Command line front end.

Three command families:
  verify  - seeded sweeps that try to break a bound and report pass/fail
  synth   - run a single construction and print its data
  curve   - convexity verdict or spanned-space dimension for one curve

Reports are JSON (default) or CSV.  Exit code 0 means every checked
bound held, 1 means some instance violated a bound or could not be
checked (an error record), 2 means the request itself was invalid.
With a fixed --seed the output is reproducible; --no-timing zeroes the
wall-clock field so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

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
from .fourvertex import (ORTHO_TOL, OvalSupport, blaschke_ratio_check,
                         four_vertex_check, radius_of_curvature, random_oval,
                         verify_R_orthogonality)
from .orthosynth import m_of, synth_orthogonal, synth_weight, theorem1_check

# instance, expected, check; check() returns (ok, observed)
Case = Tuple[str, str, Callable[[], Tuple[bool, str]]]


class Record(NamedTuple):
    instance: str
    ok: bool
    expected: str
    observed: str
    error: Optional[str] = None        # message when the check raised


_PROBES = 200          # falsification budget inside composite checks
_EXC = (ValueError, NotChebyshevError, RuntimeError)


def _trials(args, default: int) -> int:
    # --trials when given, else 3 under `verify all`, else the family's own
    if args.trials is not None:
        return args.trials
    return 3 if args.what == "all" else default


def _points_for(rng, dom: fs.Domain, m: int) -> np.ndarray:
    fr = (np.arange(m) + 0.1 + 0.8 * rng.uniform(size=m)) / m
    return fs.TWO_PI * fr if dom.is_circle else dom.a + dom.span * fr


# ---------------------------------------------------------------------------
# spec-string parsing


def _floats(csv_text: str) -> List[float]:
    try:
        return [float(x) for x in csv_text.split(",") if x != ""]
    except ValueError:
        raise ValueError(f"not a comma list of numbers: {csv_text!r}")


_SYSTEM_FORMS = {"poly": "poly:DEG[:a:b]", "trig": "trig:K",
                 "power": "power:a1,a2,...:lo:hi"}


def parse_system(spec: str):
    """One of the forms in _SYSTEM_FORMS, e.g. poly:3 or trig:2."""
    kind, *parts = spec.split(":")
    if kind == "poly" and len(parts) in (1, 3):
        dom = fs.interval(*map(float, parts[1:])) if parts[1:] else None
        return polynomial_system(int(parts[0]), dom)
    if kind == "trig" and len(parts) == 1:
        return trig_system(int(parts[0]))
    if kind == "power" and len(parts) == 3:
        return power_system(_floats(parts[0]), fs.interval(*map(float, parts[1:])))
    if kind in _SYSTEM_FORMS:
        raise ValueError(f"{kind} spec is {_SYSTEM_FORMS[kind]}")
    raise ValueError(f"unknown system kind {kind!r}")


# curve kind: (constructor, one parser per argument, accepted argument
# counts, spec form)
_CURVE_SPECS = {
    "moment": (moment_curve, (int, float, float), (1, 3), "moment:d[:a:b]"),
    "trig": (trig_curve, (int,), (1,), "trig:k"),
    "power": (power_curve, (_floats, float, float), (3,), "power:a1,...:lo:hi"),
    "expgraph": (exp_graph, (float, float), (0, 2), "expgraph[:a:b]"),
    "smoothedpolygon": (smoothed_polygon, (int, float), (1, 2),
                        "smoothedpolygon:m[:r]"),
    "sinegraph": (sine_graph, (float, float, float), (0, 3),
                  "sinegraph[:c:a:b]"),
}


def parse_curve(spec: str):
    """One of the forms in _CURVE_SPECS, e.g. moment:3 or sinegraph."""
    kind, *parts = spec.split(":")
    if kind not in _CURVE_SPECS:
        raise ValueError(f"unknown curve kind {kind!r}")
    make, parsers, counts, form = _CURVE_SPECS[kind]
    if len(parts) not in counts:
        raise ValueError(f"{kind} spec is {form}")
    return make(*(parse(x) for parse, x in zip(parsers, parts)))


def parse_func(spec: str, dom: fs.Domain) -> fs.Func1D:
    """poly:c0,c1,... | trig:a0,a1,b1[,a2,b2,...] | roots:r1,r2,..."""
    parts = spec.split(":", 1)
    if len(parts) != 2:
        raise ValueError("function spec is kind:numbers")
    kind, data = parts
    cs = _floats(data)
    if kind == "poly":
        if not cs:
            raise ValueError("poly function spec needs c0,c1,...")
        co = np.asarray(cs, dtype=float)

        def pe(t, co=co):
            return np.polynomial.polynomial.polyval(np.asarray(t, float), co)

        return fs.Func1D(pe, spec)
    if kind == "trig":
        if len(cs) % 2 != 1:
            raise ValueError("trig function spec needs a0,a1,b1,...")
        a0, pairs = cs[0], tuple(zip(cs[1::2], cs[2::2]))
        return fs.Func1D(lambda t: fs._trig_series(t, a0, pairs), spec)
    if kind == "roots":
        return default_annihilator(sorted(cs), dom)
    raise ValueError(f"unknown function kind {kind!r}")


# ---------------------------------------------------------------------------
# verify families: each is a generator of cases, run by run_verify


def _synth_count_case(args, instance: str, sys, pts, m: int,
                      exact: bool = False) -> Case:
    # F synthesized to change sign at pts: >= m sign changes, == m if exact
    def check():
        count = synth_orthogonal(sys, pts, grid_n=args.grid).sign_report.count
        return (count == m if exact else count >= m), str(count)

    return instance, f"{'==' if exact else '>='} {m}", check


def _bound_report(rep) -> Tuple[bool, str]:
    return (rep.applicable and rep.passed,
            f"count={rep.sign_changes} res={rep.max_residual:.1e}")


def _theorem4_case(args, instance: str, expected: str, curve, convex: bool,
                   seed: int) -> Case:
    def check():
        r = theorem4_check(curve, trials=_PROBES, rng_seed=seed,
                           grid_n=args.grid)
        return (r.agree and r.convexity.convex == convex,
                f"agree={r.agree} conv={r.convexity.status} "
                f"cheb={r.chebyshev.status}")

    return instance, expected, check


def _falsifier_case(args, instance: str, expected: str, falsify, target,
                    trials: int = _PROBES) -> Case:
    # falsify is verify_chebyshev or convexity_check; the verdict must
    # carry the expected status, and shows its witness zero count if any
    def check():
        v = falsify(target, trials=trials, rng_seed=args.seed,
                    grid_n=args.grid)
        zeros = getattr(v, "witness_zero_count", None)
        return (v.status == expected,
                v.status if zeros is None else f"{v.status} zeros={zeros}")

    return instance, expected, check


def assertion1_cases(args) -> Iterator[Case]:
    # orthogonal to n polynomials => at least n sign changes; prescribed
    # points realize exactly n, including the Gauss nodes
    trials = _trials(args, 10)
    for n in range(1, 7):
        sys = polynomial_system(n - 1)
        for t in range(trials):
            pts = _points_for(fs.derived_rng(args.seed, 10, n, t), sys.dom, n)
            yield _synth_count_case(args, f"n={n} t={t}", sys, pts, n)
        nodes = np.polynomial.legendre.leggauss(n)[0]
        yield _synth_count_case(args, f"n={n} gauss-nodes", sys, nodes, n,
                                exact=True)


def hurwitz_cases(args) -> Iterator[Case]:
    # orthogonal to harmonics through order k => at least 2k+2 sign
    # changes on the circle, and 2k+2 is attainable
    trials = _trials(args, 10)
    for k in [args.harmonics] if args.harmonics is not None else [1, 2, 3]:
        sys = trig_system(k)
        m = m_of(sys.dom, sys.order_n)
        for t in range(trials):
            pts = _points_for(fs.derived_rng(args.seed, 11, k, t), sys.dom, m)
            yield _synth_count_case(args, f"k={k} t={t}", sys, pts, m)
        pts = _points_for(fs.derived_rng(args.seed, 11, m), sys.dom, m)
        yield _synth_count_case(args, f"k={k} minimal", sys, pts, m,
                                exact=True)


def _system_catalog():
    return [polynomial_system(k) for k in range(1, 5)] + \
        [trig_system(1), trig_system(2),
         power_system([2.0 ** 0.5, 3.0 ** 0.5], fs.interval(1.0, float(np.e)))]


def theorem1_cases(args) -> Iterator[Case]:
    # a function with a constant-sign weight making it orthogonal to the
    # whole system has at least m sign changes
    trials = _trials(args, 6)
    for si, sys in enumerate(_system_catalog()):
        m = m_of(sys.dom, sys.order_n)
        for t in range(trials):
            # even t: F synthesized at m points; odd t: a weight making the
            # annihilator of m + 1 points (m + 2 on the circle) orthogonal
            weighted = t % 2 == 1
            extra = (2 if sys.dom.is_circle else 1) if weighted else 0
            pts = _points_for(fs.derived_rng(args.seed, 12, si, t), sys.dom,
                              m + extra)

            def check(s=sys, p=pts, weighted=weighted):
                if not weighted:
                    r = synth_orthogonal(s, p, grid_n=args.grid)
                    return _bound_report(theorem1_check(
                        s, r.F, tol=args.tol, grid_n=args.grid))
                f = default_annihilator(p, s.dom)
                r = synth_weight(s, f, grid_n=args.grid)
                br = list(r.step.breakpoints) + list(r.step.support or ())
                return _bound_report(theorem1_check(
                    s, f, r.rho, tol=args.tol, grid_n=args.grid, breaks=br))

            yield f"sys{si} m={m} t={t}", f">= {m}", check


def theorem3_sharpness_cases(args) -> Iterator[Case]:
    # the prescribed sign points are realized exactly, nothing extra
    trials = _trials(args, 8)
    for si, sys in enumerate(_system_catalog()):
        m = m_of(sys.dom, sys.order_n)
        for t in range(trials):
            pts = _points_for(fs.derived_rng(args.seed, 13, si, t), sys.dom, m)

            def check(s=sys, p=pts, m=m):
                r = synth_orthogonal(s, p, grid_n=args.grid)
                err = float(np.max(np.abs(np.sort(r.sign_report.locations)
                                          - np.sort(p))))
                return (r.sign_report.count == m and err <= 1e-6,
                        f"count={r.sign_report.count} locerr={err:.1e}")

            yield f"sys{si} m={m} t={t}", f"== {m} within 1e-6", check


def theorem4_cases(args) -> Iterator[Case]:
    # convexity of the curve and the Chebyshev property of its affine
    # restrictions are the same thing; verdicts must agree either way
    trials = _trials(args, 8)
    convex_catalog = [moment_curve(2), moment_curve(3), moment_curve(4),
                      trig_curve(1), trig_curve(2),
                      power_curve([2.0 ** 0.5, 3.0 ** 0.5], 1.0, float(np.e)),
                      exp_graph(), smoothed_polygon(6)]
    for c in convex_catalog:
        yield _theorem4_case(args, c.label, "agree, convex", c, True, args.seed)
    yield _theorem4_case(args, "sinegraph", "agree, not convex", sine_graph(),
                         False, args.seed)
    for t in range(trials):
        d = 2 + t % 3
        rng = fs.derived_rng(args.seed, 14, t)
        s = 0.05 / (d + 1)
        A = np.eye(d) + s * rng.uniform(-1.0, 1.0, (d, d))
        b = rng.uniform(-0.5, 0.5, d)
        cur = affine_image(moment_curve(d), A, b)
        yield _theorem4_case(args, f"perturbed moment:{d} t={t}",
                             "agree, convex", cur, True, args.seed + t)


def theorem5_cases(args) -> Iterator[Case]:
    # a function orthogonal to all degree-n polynomial restrictions on a
    # convex curve in R^d has at least nd+1 sign changes (nd+2 closed)
    trials = _trials(args, 4)
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

            def check(c=cur, n=n, t=t):
                dim = dimension_estimate(restrict_polynomials(c, n), c.dom)
                res = construct_orthogonal_on_curve(
                    c, n, pieces=dim + 1 + t % 4, grid_n=args.grid)
                return _bound_report(theorem5_verify(
                    c, n, res.F, tol=args.tol, grid_n=args.grid,
                    breaks=res.points))

            yield f"{ck} n={n} t={t}", f">= {bound}", check

    def minimal():
        r = construct_orthogonal_on_curve(moment_curve(2), 1, pieces=4,
                                          grid_n=args.grid)
        return r.sign_report.count == 3, str(r.sign_report.count)

    yield "moment:2 n=1 minimal", "== 3", minimal


def theorem6_cases(args) -> Iterator[Case]:
    # vertex masses annihilating all moments of degree <= n on a convex
    # polygon change sign at least dn+2 times around it
    trials = _trials(args, 5)
    for n in [args.n] if args.n is not None else [1, 2]:
        for k in [args.k] if args.k is not None else [8, 12, 16]:
            if k <= (n + 1) * (n + 2) // 2:
                raise ValueError(f"k={k} too small for n={n}")
            for t in range(trials):
                seed = fs.derived_rng(args.seed, 16, n, k, t).integers(2 ** 31)

                def check(n=n, k=k, seed=int(seed)):
                    P = random_convex_polygon(k, seed)
                    mv = construct_masses(P, n, seed)
                    return _bound_report(theorem6_check(
                        P, n, mv, tol=min(args.tol, 1e-10)))

                yield f"n={n} k={k} t={t}", f">= {2 * n + 2}", check


def prop1_cases(args) -> Iterator[Case]:
    # densities on the unit circle whose weighted center of mass stays
    # at the center have at least 4 extrema; ditto ratio/difference pairs
    circ = trig_curve(1)
    for t in range(_trials(args, 10)):
        M = 2 + t % 4
        amp = 0.25 + 0.5 * ((3 * t) % 7) / 7.0
        f = radius_of_curvature(random_oval(M, amp, args.seed * 1000 + t))

        def oval(f=f):
            r = proposition1_check(circ, f, grid_n=args.grid)
            return (r.applicable and r.passed,
                    f"extrema={r.extrema} gap={r.center_gap:.1e}")

        yield f"oval t={t}", ">= 4", oval
        if t % 2 == 1:
            g = radius_of_curvature(random_oval(M + 1, 0.4, args.seed * 991 + t))

            def pair(f=f, g=g):
                r = proposition1_relative(circ, f, g, grid_n=args.grid)
                return (r.applicable and r.passed,
                        f"diff={r.diff_sign_changes} ratio={r.ratio_extrema}")

            yield f"pair t={t}", ">= 4 twice", pair

    def off_center():
        shifted = fs.Func1D(lambda u: 1.0 + 0.5 * np.cos(u), "shifted")
        r = proposition1_check(circ, shifted, grid_n=args.grid)
        return not r.applicable, f"applicable={r.applicable}"

    yield "off-center density", "not applicable", off_center


def prop2_cases(args) -> Iterator[Case]:
    # positive vertex mass pairs with equal totals and centers differ
    # with at least d+2 sign alternations around a closed polygon
    for t in range(_trials(args, 10)):
        k = 6 + t % 7

        def check(k=k, t=t):
            P = random_convex_polygon(k, args.seed * 77 + t)
            f, g = proposition2_pair(P, args.seed * 13 + t)
            rep = proposition2_check(P, f, g, tol=args.tol)
            return (rep.applicable and rep.passed, f"count={rep.sign_changes}")

        yield f"k={k} t={t}", ">= 4", check


def fourvertex_cases(args) -> Iterator[Case]:
    # curvature radius of an oval: at least 4 extrema, and structurally
    # zero first-harmonic integrals.  Two to five harmonics: an oval of the
    # first harmonic alone is a translated circle, which passes as degenerate
    for t in range(_trials(args, 12)):
        M = 2 + t % 4
        amp = 0.2 + 0.6 * ((2 * t) % 9) / 9.0

        def check(M=M, amp=amp, t=t):
            o = random_oval(M, amp, args.seed * 101 + t)
            rep = four_vertex_check(o, grid_n=args.grid)
            rc, rs = verify_R_orthogonality(o)
            return (rep.passed and rc <= ORTHO_TOL and rs <= ORTHO_TOL,
                    f"extrema={rep.extrema} res={max(rc, rs):.1e}")

        yield f"oval t={t}", f">= 4, res <= {ORTHO_TOL:g}", check

    def exact():
        r = four_vertex_check(OvalSupport(1.0, ((0.0, 0.0), (0.1, 0.0))),
                              grid_n=args.grid)
        return r.passed and r.extrema == 4, str(r.extrema)

    def circle():
        r = four_vertex_check(OvalSupport(1.0), grid_n=args.grid)
        return r.passed and r.degenerate, f"degenerate={r.degenerate}"

    yield "h=1+0.1cos2a", "== 4", exact
    yield "circle", "degenerate pass", circle


def blaschke_cases(args) -> Iterator[Case]:
    # ratio of curvature radii of two ovals: at least 4 extrema
    for t in range(_trials(args, 8)):
        def check(t=t):
            o1 = random_oval(2 + t % 4, 0.55, args.seed * 313 + t)
            o2 = random_oval(1 + t % 3, 0.35, args.seed * 631 + t)
            rep = blaschke_ratio_check(o1, o2, grid_n=args.grid)
            return (rep.passed, f"extrema={rep.extrema}")

        yield f"pair t={t}", ">= 4", check

    def reduction():
        o = random_oval(3, 0.5, args.seed + 5)
        b = blaschke_ratio_check(o, OvalSupport(1.0), grid_n=args.grid)
        f = four_vertex_check(o, grid_n=args.grid)
        return (b.reduces_to_four_vertex and b.extrema == f.extrema,
                f"ratio={b.extrema} plain={f.extrema}")

    yield "vs circle", "counts match", reduction


def aleksandrov_cases(args) -> Iterator[Case]:
    # convex polygons with parallel sides and equal perimeters: side
    # differences alternate at least 4 times
    for t in range(_trials(args, 10)):
        k = 5 + t % 8

        def check(k=k, t=t):
            M1, M2 = aleksandrov_pair(k, args.seed * 57 + t)
            rep = aleksandrov_check(M1, M2, tol=args.tol)
            sub = rep.prop2 is not None and rep.prop2.applicable and rep.prop2.passed
            return (rep.applicable and rep.passed and sub,
                    f"count={rep.sign_changes} prop2={sub}")

        yield f"k={k} t={t}", ">= 4", check

    def rect_square():
        N = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
        rep = aleksandrov_check(polygon_from_normals(N, [2, 1, 2, 1]),
                                polygon_from_normals(N, [1.5] * 4))
        return (rep.applicable and rep.sign_changes == 4,
                f"count={rep.sign_changes}")

    def identical():
        M1, _ = aleksandrov_pair(7, args.seed + 3)
        rep = aleksandrov_check(M1, M1)
        return (rep.applicable and rep.passed and rep.degenerate,
                f"degenerate={rep.degenerate}")

    yield "rectangle vs square", "== 4", rect_square
    yield "identical", "degenerate pass", identical


def example1_cases(args) -> Iterator[Case]:
    # rounded hexagon: a mid-radius circle meets it 12 times, so the
    # restricted quadratics (6-dim space) cannot be a Chebyshev system
    K = smoothed_polygon(6)
    d = np.linalg.norm(curve_points(K, K.dom.grid(4096)), axis=1)

    def ranges():
        lo, hi = float(np.min(d)), float(np.max(d))
        ok = abs(lo - np.cos(np.pi / 6)) <= 1e-3 and abs(hi - 0.98660) <= 1e-3
        return ok, f"[{lo:.5f}, {hi:.5f}]"

    r_mid = 0.5 * float(np.min(d) + np.max(d))
    ring = fs.Func1D(lambda t: np.sum(curve_points(K, np.atleast_1d(t)) ** 2,
                                      axis=1) - r_mid * r_mid, "ring")

    def crossings():
        r = fs.count_sign_changes(ring, K.dom, grid_n=args.grid)
        return r.count == 12, str(r.count)

    yield "distance range", "[0.86603, 0.98660]", ranges
    yield "mid-circle crossings", "== 12", crossings
    yield _falsifier_case(args, "quadratic restrictions", COUNTEREXAMPLE,
                          verify_chebyshev, (restrict_polynomials(K, 2), K.dom),
                          trials=2 * _PROBES)
    yield _falsifier_case(args, "curve convexity", NO_VIOLATION,
                          convexity_check, K)


def example2_cases(args) -> Iterator[Case]:
    # sine graph over a 1.4 pi window: not convex, affine restrictions
    # not Chebyshev, yet the homogeneous pair {t, sin t + c} is
    c = sine_graph()
    pair = [fs.Func1D(lambda t: np.asarray(t, dtype=float), "t"),
            fs.Func1D(lambda t: np.sin(t) + 6.0, "sin+6")]
    yield _falsifier_case(args, "convexity", COUNTEREXAMPLE, convexity_check, c)
    yield _theorem4_case(args, "theorem4 agreement", "agree on failure", c,
                         False, args.seed)
    yield _falsifier_case(args, "homogeneous pair", NO_VIOLATION,
                          verify_chebyshev, (pair, c.dom))


def example5_cases(args) -> Iterator[Case]:
    # power curve with irrational exponents on (1, e): convex, and the
    # matching power system is Chebyshev
    cur = power_curve([2.0 ** 0.5, 3.0 ** 0.5], 1.0, float(np.e))
    sys = power_system([2.0 ** 0.5, 3.0 ** 0.5], fs.interval(1.0, float(np.e)))
    yield _falsifier_case(args, "curve convexity", NO_VIOLATION,
                          convexity_check, cur)
    yield _theorem4_case(args, "theorem4 agreement", "agree, convex", cur,
                         True, args.seed)
    yield _falsifier_case(args, "power system", NO_VIOLATION,
                          verify_chebyshev, sys)


def example6_cases(args) -> Iterator[Case]:
    # (t, e^t): quadratic restrictions span all 6 dimensions, and an
    # orthogonal function needs at least 6 sign changes
    cur = exp_graph()

    def dimension():
        dim = dimension_estimate(restrict_polynomials(cur, 2), cur.dom)
        return dim == 6, str(dim)

    def build():
        res = construct_orthogonal_on_curve(cur, 2, pieces=7, grid_n=args.grid)
        rep = theorem5_verify(cur, 2, res.F, tol=args.tol, grid_n=args.grid,
                              breaks=res.points)
        return (res.sign_report.count >= 6 and rep.passed,
                f"count={res.sign_report.count} res={rep.max_residual:.1e}")

    yield "restricted dimension", "== 6", dimension
    yield "orthogonal construction", ">= 6", build


FAMILIES: Dict[str, Callable[..., Iterator[Case]]] = {
    "assertion1": assertion1_cases,
    "hurwitz": hurwitz_cases,
    "theorem1": theorem1_cases,
    "theorem3-sharpness": theorem3_sharpness_cases,
    "theorem4": theorem4_cases,
    "theorem5": theorem5_cases,
    "theorem6": theorem6_cases,
    "prop1": prop1_cases,
    "prop2": prop2_cases,
    "fourvertex": fourvertex_cases,
    "blaschke": blaschke_cases,
    "aleksandrov": aleksandrov_cases,
    "example1": example1_cases,
    "example2": example2_cases,
    "example5": example5_cases,
    "example6": example6_cases,
}
# the families of fixed records, which take no --trials
_FIXED = ("example1", "example2", "example5", "example6")


def run_verify(args) -> List[Record]:
    """Records of one family, or of every family under `all` with the
    family name as instance prefix.  A check raising a library exception
    gives an error record, not a failed one."""
    if args.trials is not None and args.what in _FIXED:
        raise ValueError(f"verify {args.what} runs fixed records and takes no --trials")
    names = list(FAMILIES) if args.what == "all" else [args.what]
    records: List[Record] = []
    for name in names:
        prefix = f"{name}: " if args.what == "all" else ""
        for instance, expected, check in FAMILIES[name](args):
            try:
                ok, observed = check()
                error = None
            except _EXC as e:
                ok, observed, error = False, f"error: {e}", str(e)
            records.append(Record(prefix + instance, ok, expected, observed,
                                  error))
    return records


# ---------------------------------------------------------------------------
# synth and curve commands


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return [float(v) for v in np.asarray(x, dtype=float).ravel()]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


def _step_payload(res) -> dict:
    return {"heights": _jsonable(res.step.heights),
            "breakpoints": _jsonable(res.step.breakpoints),
            "max_residual": float(np.max(np.abs(res.residuals))),
            "sign_changes": res.sign_report.count}


def cmd_ortho(args) -> dict:
    pts = _floats(args.points)
    res = synth_orthogonal(parse_system(args.system), pts, grid_n=args.grid)
    return {"system": args.system, "points": pts, **_step_payload(res),
            "locations": _jsonable(res.sign_report.locations)}


def cmd_weight(args) -> dict:
    sys = parse_system(args.system)
    res = synth_weight(sys, parse_func(args.func, sys.dom), grid_n=args.grid)
    return {"system": args.system, "func": args.func, **_step_payload(res),
            "support": _jsonable(np.asarray(res.step.support))
            if res.step.support is not None else None}


def cmd_masses(args) -> dict:
    with open(args.poly, "r", encoding="utf-8") as fh:
        P = parse_polyline(fh.read())
    mv = construct_masses(P, args.n, args.seed)
    rep = theorem6_check(P, args.n, mv, tol=min(args.tol, 1e-10))
    res = rep.max_residual
    return {"poly": args.poly, "n": args.n, "k": P.k, "closed": P.closed,
            "masses": _jsonable(mv.masses), "applicable": rep.applicable,
            "passed": rep.passed, "message": rep.message, "bound": rep.bound,
            "max_residual": res if np.isfinite(res) else None,
            "sign_changes": rep.sign_changes if rep.applicable else None}


def cmd_annihilator(args) -> dict:
    rp = RootPrescription(
        simple_roots=tuple(_floats(args.simple)) if args.simple else (),
        double_roots=tuple(_floats(args.double)) if args.double else ())
    co = general_annihilator(parse_system(args.system), rp, grid_n=args.grid)
    return {"system": args.system, "simple": list(rp.simple_roots),
            "double": list(rp.double_roots), "coeffs": _jsonable(co)}


def cmd_convexity(args) -> dict:
    r = convexity_check(parse_curve(args.curve), trials=args.trials,
                        rng_seed=args.seed, grid_n=args.grid)
    payload = {"curve": args.curve, "status": r.status, "trials_run": r.trials_run}
    if r.witness is not None:
        payload["witness_normal"] = _jsonable(r.witness.normal)
        payload["witness_offset"] = float(r.witness.offset)
        payload["witness_crossings"] = r.witness_count.count_with_multiplicity
    return payload


def cmd_dimension(args) -> dict:
    cur = parse_curve(args.curve)
    dim = dimension_estimate(restrict_polynomials(cur, args.n), cur.dom)
    return {"curve": args.curve, "n": args.n, "dimension": dim}


# ---------------------------------------------------------------------------
# report emission


def _emit(header: List[str], rows, report: dict, args) -> None:
    """rows under header as CSV with --format csv, else report as JSON;
    to --out when given, else to stdout."""
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_verify(records: List[Record], args, elapsed_ms: int) -> int:
    failures = [{"instance": r.instance, "expected": r.expected,
                 "observed": r.observed}
                for r in records if not r.ok and r.error is None]
    errors = [{"instance": r.instance, "expected": r.expected,
               "message": r.error}
              for r in records if r.error is not None]
    report = {
        "schema": 2,
        "command": f"verify {args.what}",
        "seed": args.seed,
        "trials_run": len(records),
        "pass_count": len(records) - len(failures) - len(errors),
        "fail_count": len(failures),
        "failures": failures,
        "error_count": len(errors),
        "errors": errors,
        "wall_time_ms": elapsed_ms,
    }
    _emit(["instance", "ok", "expected", "observed"],
          [[r.instance, int(r.ok), r.expected, r.observed] for r in records],
          report, args)
    return 0 if all(r.ok for r in records) else 1


def _emit_payload(payload: dict, args) -> None:
    _emit(["key", "value"],
          [[k, json.dumps(v) if isinstance(v, (list, dict)) else v]
           for k, v in sorted(payload.items())], payload, args)


# ---------------------------------------------------------------------------
# argument parsing: each command's parser is its whole contract, the flags
# it takes, which of them it needs, and their ranges and defaults


def _ranged(parse, ok, rule: str):
    # an argparse type: a value outside the rule exits 2 naming the flag
    def convert(text):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, not {text}")
        return value

    convert.__name__ = parse.__name__  # argparse's "invalid int value"
    return convert


_SEED = dict(type=int, default=0)
_TRIALS = dict(type=_ranged(int, lambda v: v >= 1, "at least 1"))
_GRID = dict(type=_ranged(int, lambda v: v >= 64, "at least 64"),
             default=fs.DEFAULT_GRID_N)
_TOL = dict(type=_ranged(float, lambda v: np.isfinite(v) and v > 0.0,
                         "finite and positive"), default=1e-8)
_COUNT = dict(type=_ranged(int, lambda v: v >= 0, "nonnegative"))
_SPEC = dict(required=True)


def _command(sub, name: str, run, help: str, **flags) -> argparse.ArgumentParser:
    """A command taking exactly the given flags (name: add_argument
    keywords) and the report's --out and --format; run handles it."""
    p = sub.add_parser(name, help=help)
    for flag, kw in flags.items():
        p.add_argument("--" + flag.replace("_", "-"), **kw)
    p.add_argument("--out", default=None, help="write the report to this file, not stdout")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="report format (default json)")
    p.set_defaults(run=run)
    return p


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chebzeros",
        description="sign-change bounds for functions orthogonal to "
                    "Chebyshev systems, on curves and polygons")
    sub = p.add_subparsers(dest="cmd", required=True)

    pv = _command(
        sub, "verify", run_verify, "run a seeded verification sweep",
        seed=dict(_SEED, help="base seed of the instances and probe streams"),
        trials=dict(_TRIALS, help="instances per family, >= 1 (default: its own; 3 under "
                                  "all); the example families run fixed records"),
        grid=dict(_GRID, help="sign-counting grid size of every check that counts (>= 64)"),
        tol=dict(_TOL, help="residual tolerance of the zero-bound and mass checks "
                            "(finite, > 0; theorem6 uses at most 1e-10)"),
        no_timing=dict(action="store_true", help="report wall_time_ms as 0 for equal reruns"),
        harmonics=dict(_COUNT, help="hurwitz: restrict to one harmonic order (>= 0)"),
        n=dict(_COUNT, help="theorem6: moment degree (>= 0)"),
        k=dict(_COUNT, help="theorem6: vertex count (>= 0)"))
    pv.add_argument("what", choices=list(FAMILIES) + ["all"])

    ps = sub.add_parser("synth", help="run one construction and print it"
                        ).add_subparsers(dest="what", required=True)
    system = dict(_SPEC, help="the Chebyshev system: " + " | ".join(_SYSTEM_FORMS.values()))
    grid = dict(_GRID, help="sign-counting grid size (>= 64)")
    _command(ps, "ortho", cmd_ortho,
             "a function changing sign exactly at the points, orthogonal to the system",
             system=system, points=dict(_SPEC, help="comma list of its sign points"), grid=grid)
    _command(ps, "weight", cmd_weight,
             "a constant-sign weight making the function orthogonal to the system",
             system=system, grid=grid,
             func=dict(_SPEC, help="the function: poly:c0,.. | trig:a0,a1,b1,.. | roots:r1,.."))
    _command(ps, "annihilator", cmd_annihilator,
             "a combination of the system with prescribed simple and double roots",
             system=system, simple=dict(help="comma list of simple roots"),
             double=dict(help="comma list of double roots"), grid=grid)
    _command(ps, "masses", cmd_masses,
             "vertex masses annihilating a polyline's moments, with their check",
             poly=dict(_SPEC, help="polyline file, one vertex per line"),
             n=dict(_COUNT, required=True, help="moment degree (>= 0)"),
             seed=dict(_SEED, help="seed of the random kernel direction"),
             tol=dict(_TOL, help="moment residual tolerance (finite, > 0); at most "
                                 "1e-10 is used"))

    pc = sub.add_parser("curve", help="convexity verdict or dimension"
                        ).add_subparsers(dest="what", required=True)
    curve = dict(_SPEC, help="the curve: " + " | ".join(c[-1] for c in _CURVE_SPECS.values()))
    _command(pc, "convexity", cmd_convexity, "seeded falsifier of the curve's convexity",
             curve=curve, seed=dict(_SEED, help="probe seed"),
             trials=dict(_TRIALS, default=_PROBES,
                         help=f"probe budget (>= 1, default {_PROBES})"),
             grid=dict(_GRID, help="sign-counting grid size of each probe (>= 64)"))
    _command(pc, "dimension", cmd_dimension,
             "dimension of the polynomials of degree <= n restricted to the curve",
             curve=curve, n=dict(_COUNT, default=1, help="polynomial degree (>= 0, default 1)"))
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        t0 = time.perf_counter()
        out = args.run(args)
        if args.cmd == "verify":
            ms = 0 if args.no_timing else int((time.perf_counter() - t0) * 1000)
            return _emit_verify(out, args, ms)
        _emit_payload(out, args)
        return 0 if out.get("passed", True) else 1
    except _EXC + (OSError,) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
