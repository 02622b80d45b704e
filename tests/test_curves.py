import warnings

import numpy as np
import pytest

import chebzeros as cz
from chebzeros import funcspace as fs
from chebzeros.chebsys import COUNTEREXAMPLE, NO_VIOLATION
from chebzeros.exceptions import NotChebyshevError


# ---------------------------------------------------------------------------
# catalog geometry


def test_hexagon_distance_range():
    hexc = cz.smoothed_polygon(6)
    P = cz.curve_points(hexc, hexc.dom.grid(4096))
    r = np.linalg.norm(P, axis=1)
    apothem = np.cos(np.pi / 6)
    rmax = 1.0 - 0.1 * (1.0 - apothem)
    assert np.min(r) == pytest.approx(apothem, abs=1e-4)
    assert np.max(r) == pytest.approx(rmax, abs=1e-4)


def test_hexagon_midcircle_crossings():
    hexc = cz.smoothed_polygon(6)
    apothem = np.cos(np.pi / 6)
    r_mid = 0.5 * (apothem + 1.0 - 0.1 * (1.0 - apothem))
    f = fs.Func1D(lambda t: np.linalg.norm(cz.curve_points(hexc, np.atleast_1d(t)),
                                           axis=1) - r_mid)
    rep = fs.count_sign_changes(f, hexc.dom, 4096)
    assert rep.count == 12


def test_smoothed_polygon_is_continuous():
    hexc = cz.smoothed_polygon(5, r_frac=0.25)
    ts = hexc.dom.grid(8192)
    P = cz.curve_points(hexc, ts)
    gaps = np.linalg.norm(np.diff(P, axis=0), axis=1)
    gaps = np.append(gaps, np.linalg.norm(P[0] - P[-1]))
    # uniform parameter spacing must give near-uniform chord lengths
    assert np.max(gaps) < 3.0 * np.min(gaps)


def test_arc_speed_unit_circle():
    circ = cz.trig_curve(1)
    ts = np.linspace(0.3, 6.0, 40)
    sp = cz.arc_speed(circ, ts)
    assert np.max(np.abs(sp - 1.0)) < 1e-6


def test_affine_image_validation():
    c = cz.moment_curve(2)
    with pytest.raises(ValueError):
        cz.affine_image(c, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        cz.affine_image(c, np.eye(3))


@pytest.mark.parametrize("A, b", [
    ([[1.0, np.nan], [0.0, 1.0]], None),
    ([[np.inf, 0.0], [0.0, 1.0]], None),
    (np.eye(2), [0.0, np.nan]),
    (np.eye(2), [np.inf, 0.0]),
], ids=["nan-A", "inf-A", "nan-b", "inf-b"])
def test_affine_image_rejects_non_finite(A, b):
    # refused at construction, before the determinant test sees a NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            cz.affine_image(cz.moment_curve(2), A, b)


# ---------------------------------------------------------------------------
# monomial bookkeeping


def test_monomial_multi_indices_oracles():
    assert cz.monomial_multi_indices(1, 2) == [(0, 0), (1, 0), (0, 1)]
    assert len(cz.monomial_multi_indices(2, 2)) == 6
    assert len(cz.monomial_multi_indices(3, 3)) == 20


def test_restricted_dimensions():
    c3 = cz.moment_curve(3)
    funcs = cz.restrict_polynomials(c3, 2)
    # powers t^0 .. t^6 survive on (t, t^2, t^3)
    assert cz.dimension_estimate(funcs, c3.dom) == 7
    eg = cz.exp_graph()
    assert cz.dimension_estimate(cz.restrict_polynomials(eg, 2), eg.dom) == 6


# ---------------------------------------------------------------------------
# hyperplanes


def test_hyperplane_through_oracle():
    hp = cz.hyperplane_through([(-1.0, 1.0), (1.0, 1.0)])
    assert np.linalg.norm(hp.normal) == pytest.approx(1.0, abs=1e-12)
    assert abs(hp.normal[0]) < 1e-12
    assert hp.offset / hp.normal[1] == pytest.approx(1.0, abs=1e-12)
    assert hp.value(np.array([[0.3, 1.0]]))[0] == pytest.approx(0.0, abs=1e-12)


def test_hyperplane_through_wrong_count():
    with pytest.raises(ValueError):
        cz.hyperplane_through([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


@pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
def test_hyperplane_rejects_non_finite_offset(offset):
    # a NaN offset would make every slice value NaN, which the crossing
    # counts then read as sign changes
    with pytest.raises(ValueError, match="offset"):
        cz.Hyperplane([0.0, 1.0], offset)


def test_parabola_tangent_multiplicity():
    par = cz.moment_curve(2)
    hp = cz.Hyperplane(np.array([0.0, 1.0]), 0.0)
    ic = cz.hyperplane_intersections(par, hp)
    assert ic.count_with_multiplicity == 2
    assert ic.perturbation_used > 0
    assert not ic.degenerate


def test_circle_diameter_simple_crossings():
    circ = cz.trig_curve(1)
    hp = cz.Hyperplane(np.array([1.0, 0.0]), 0.0)
    ic = cz.hyperplane_intersections(circ, hp)
    assert ic.count_with_multiplicity == 2
    assert ic.perturbation_used == 0.0
    assert np.allclose(np.sort(ic.simple_roots),
                       [np.pi / 2, 3 * np.pi / 2], atol=1e-6)


def test_hyperplane_intersections_evaluates_curve_once():
    calls = []
    base = cz.trig_curve(1)

    def ev(ts):
        calls.append(np.size(ts))
        return base.eval(ts)

    circ = cz.CurveRd(ev, 2, base.dom, "counted")
    hp = cz.Hyperplane(np.array([1.0, 0.0]), 0.0)
    ic = cz.hyperplane_intersections(circ, hp, grid_n=512)
    assert calls == [512]
    assert ic.count_with_multiplicity == 2
    # roots are refined only when read, from the grid values sampled
    # above: bisection only, no second grid pass
    roots = ic.simple_roots
    assert len(calls) > 1 and 512 not in calls[1:]
    assert ic.simple_roots is roots
    assert np.allclose(roots, [np.pi / 2, 3 * np.pi / 2], atol=1e-6)


def _line_curve():
    return cz.CurveRd(lambda ts: np.stack([ts, 0.0 * ts], axis=1), 2,
                      fs.interval(-1.0, 1.0), "line")


@pytest.mark.parametrize("curve, normal, offset", [
    (cz.moment_curve(2), [0.0, 1.0], 0.0),        # tangent: shifted count
    (cz.trig_curve(1), [1.0, 0.0], 0.0),          # two simple crossings
    (cz.sine_graph(), [0.8, 1.0], 6.0 + 0.8 * np.pi),  # three crossings
    (cz.moment_curve(3), [0.3, -0.5, 1.0], 0.01),
    (_line_curve(), [0.0, 1.0], 0.0),             # curve inside the plane
], ids=["tangent", "diameter", "sine", "moment3", "degenerate"])
def test_intersections_from_grid_values_match_public(curve, normal, offset):
    from chebzeros.curves import _intersections
    hp = cz.Hyperplane(np.array(normal), offset)
    ts = curve.dom.grid(fs.DEFAULT_GRID_N)
    P = cz.curve_points(curve, ts)
    got = _intersections(curve, hp, ts, P @ hp.normal - hp.offset)
    want = cz.hyperplane_intersections(curve, hp)
    for f in ("count_with_multiplicity", "perturbation_used", "degenerate"):
        assert getattr(got, f) == getattr(want, f)
    assert got.simple_roots.tobytes() == want.simple_roots.tobytes()


def test_theorem4_witness_count_matches_public_recount():
    c = cz.sine_graph()
    conv = cz.theorem4_check(c, trials=8).convexity
    assert conv.status == COUNTEREXAMPLE
    got, want = conv.witness_count, cz.hyperplane_intersections(c, conv.witness)
    for f in ("count_with_multiplicity", "perturbation_used", "degenerate"):
        assert getattr(got, f) == getattr(want, f)
    assert got.simple_roots.tobytes() == want.simple_roots.tobytes()


# ---------------------------------------------------------------------------
# convexity and the equivalence check


def test_catalog_curves_convex():
    for c in [cz.moment_curve(2), cz.moment_curve(3), cz.trig_curve(2),
              cz.exp_graph(), cz.smoothed_polygon(6)]:
        rep = cz.convexity_check(c, trials=120)
        assert rep.convex, c.label


def test_sine_graph_not_convex():
    rep = cz.convexity_check(cz.sine_graph(), trials=300)
    assert rep.status == COUNTEREXAMPLE
    assert rep.witness is not None
    assert rep.witness_count.count_with_multiplicity > 2


def test_convexity_check_checks_grid_on_entry():
    # a convex curve flags no probe, so only an entry check can raise
    with pytest.raises(ValueError, match="grid_n"):
        cz.convexity_check(cz.moment_curve(2), trials=50, grid_n=10)
    with pytest.raises(ValueError, match="grid_n"):
        cz.convexity_check(cz.sine_graph(), trials=50, grid_n=10)


def _theorem4_inputs(seed):
    curves = [cz.moment_curve(2), cz.moment_curve(3), cz.moment_curve(4),
              cz.trig_curve(1), cz.trig_curve(2),
              cz.power_curve([2.0 ** 0.5, 3.0 ** 0.5], 1.0, float(np.e)),
              cz.exp_graph(), cz.smoothed_polygon(6), cz.sine_graph()]
    rng = np.random.default_rng(seed)
    for d in (2, 3, 4):
        A = np.eye(d) + 0.05 / (d + 1) * rng.uniform(-1.0, 1.0, (d, d))
        curves.append(cz.affine_image(cz.moment_curve(d), A,
                                      rng.uniform(-0.5, 0.5, d)))
    return curves


@pytest.mark.parametrize("trials, seed", [(1, 0), (1, 1), (1, 2), (8, 0), (8, 1),
                                          (8, 2), (200, 0), (200, 1)])
def test_theorem4_matches_separate_falsifiers(trials, seed):
    # one curve sample read by both probe loops gives, bit for bit, what
    # the two public falsifiers give when each samples the curve itself
    for c in _theorem4_inputs(seed):
        rep = cz.theorem4_check(c, trials=trials, rng_seed=seed)
        conv = cz.convexity_check(c, trials=trials, rng_seed=seed)
        cheb = cz.verify_chebyshev((cz.restrict_polynomials(c, 1), c.dom),
                                   trials=trials, rng_seed=seed)
        got, want = rep.convexity, conv
        assert (got.status, got.trials_run) == (want.status, want.trials_run), c.label
        assert (got.witness is None) == (want.witness is None), c.label
        if want.witness is not None:
            assert got.witness.normal.tobytes() == want.witness.normal.tobytes()
            assert (np.float64(got.witness.offset).tobytes()
                    == np.float64(want.witness.offset).tobytes())
            assert (got.witness_count.count_with_multiplicity
                    == want.witness_count.count_with_multiplicity)
            assert got.witness_count.perturbation_used == want.witness_count.perturbation_used
        got, want = rep.chebyshev, cheb
        assert (got.status, got.trials_run) == (want.status, want.trials_run), c.label
        assert got.witness_zero_count == want.witness_zero_count, c.label
        assert (got.witness_coeffs is None) == (want.witness_coeffs is None), c.label
        if want.witness_coeffs is not None:
            assert got.witness_coeffs.tobytes() == want.witness_coeffs.tobytes()


def test_theorem4_agreement_both_ways():
    good = cz.theorem4_check(cz.moment_curve(2), trials=150)
    assert good.agree and good.convexity.convex
    assert good.chebyshev.status == NO_VIOLATION
    bad = cz.theorem4_check(cz.sine_graph(), trials=400)
    assert bad.agree
    assert not bad.convexity.convex
    assert bad.chebyshev.status == COUNTEREXAMPLE


def test_theorem4_affine_invariance():
    rng = np.random.default_rng(3)
    A = np.eye(2) + 0.02 * rng.uniform(-1, 1, (2, 2))
    b = rng.uniform(-0.5, 0.5, 2)
    img = cz.affine_image(cz.moment_curve(2), A, b)
    rep = cz.theorem4_check(img, trials=150)
    assert rep.agree and rep.convexity.convex


def test_theorem4_planar_curve_rejected():
    # a straight line spans only dimension 2 of the 3 affine functions
    line = cz.CurveRd(lambda ts: np.stack([ts, 2 * ts], axis=1), 2,
                      fs.interval(-1.0, 1.0), "line")
    with pytest.raises(ValueError):
        cz.theorem4_check(line, trials=10)


def test_trials_and_grid_must_be_integers():
    c = cz.moment_curve(2)
    for trials in (True, 2.0, 2.5):
        for check in (cz.convexity_check, cz.theorem4_check):
            with pytest.raises(ValueError, match="trials must be an integer"):
                check(c, trials=trials)
    for grid_n in (100.5, 2048.0, False):
        with pytest.raises(ValueError, match="grid_n must be an integer"):
            cz.convexity_check(c, trials=2, grid_n=grid_n)
        with pytest.raises(ValueError, match="grid_n must be an integer"):
            cz.hyperplane_intersections(c, cz.Hyperplane(np.array([0.0, 1.0]), 0.5),
                                        grid_n=grid_n)
    assert cz.convexity_check(c, trials=np.int64(2), grid_n=np.int64(100)).convex


# ---------------------------------------------------------------------------
# batched convexity probes against the trial-by-trial loop


def _reference_intersections(curve, hp, ts, vals):
    """The count of one shifted slice per call, kept as the reference."""
    from chebzeros.curves import IntersectionCount, _MULT_SCALES
    grid_n, dom = ts.size, curve.dom
    if not np.any(vals):
        return IntersectionCount(grid_n, fs._no_roots, 0.0, True)
    spread = float(np.ptp(vals))
    best, used = fs.count_grid_sign_changes(vals, dom.is_circle), 0.0
    for scale in _MULT_SCALES:
        delta = 1e-3 * scale * spread
        if delta == 0.0:
            continue
        for sgn in (1.0, -1.0):
            c = fs.count_grid_sign_changes(vals - sgn * delta, dom.is_circle)
            if c > best:
                best, used = c, delta
    return IntersectionCount(
        best, lambda: fs.grid_sign_report(hp.func_on(curve), dom, ts, vals).locations,
        used, False)


def _reference_convexity_probes(curve, P, trials, rng_seed, grid_n):
    """The trial-by-trial probe loop, kept as the reference."""
    from chebzeros.curves import ConvexityReport, Hyperplane, hyperplane_through

    def confirmed(hp, svals):
        d, cyclic = curve.d, curve.dom.is_circle
        spread = float(np.ptp(svals))
        shifts = (0.0,) if spread == 0.0 else (0.0, 1e-4 * spread, -1e-4 * spread)
        if all(fs.count_grid_sign_changes(svals - s, cyclic) <= d for s in shifts):
            return None
        full = _reference_intersections(curve, hp, curve.dom.grid(P.shape[0]),
                                        P @ hp.normal - hp.offset)
        if full.degenerate or full.count_with_multiplicity > d:
            return hp, full
        return None

    d = curve.d
    for trial in range(trials):
        rng = fs.derived_rng(rng_seed, trial, 1)
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        proj = P @ w
        lo, hi = float(np.min(proj)), float(np.max(proj))
        if hi > lo:
            off = lo + (hi - lo) * rng.uniform(0.02, 0.98)
            hit = confirmed(Hyperplane(w, off), proj - off)
            if hit is not None:
                return ConvexityReport(COUNTEREXAMPLE, trial + 1, *hit)
        idx = rng.choice(grid_n, size=d, replace=False)
        try:
            hp = hyperplane_through(P[idx])
        except ValueError:
            continue
        hit = confirmed(hp, P @ hp.normal - hp.offset)
        if hit is not None:
            return ConvexityReport(COUNTEREXAMPLE, trial + 1, *hit)
    return ConvexityReport(NO_VIOLATION, trials)


def _assert_same_count(got, want):
    for f in ("count_with_multiplicity", "perturbation_used", "degenerate"):
        assert getattr(got, f) == getattr(want, f)
        assert type(getattr(got, f)) is type(getattr(want, f))
    assert got.simple_roots.tobytes() == want.simple_roots.tobytes()


def _assert_same_convexity(got, want):
    assert (got.status, got.trials_run) == (want.status, want.trials_run)
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        assert got.witness.normal.tobytes() == want.witness.normal.tobytes()
        assert (np.float64(got.witness.offset).tobytes()
                == np.float64(want.witness.offset).tobytes())
        _assert_same_count(got.witness_count, want.witness_count)


def _point_curve():
    # every projection is flat and every secant degenerate
    return cz.CurveRd(lambda ts: np.ones((ts.size, 2)), 2, fs.interval(0.0, 1.0), "point")


BUDGETS = (1, 2, 3, 8, 9, 40, 200)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_convexity_matches_reference_loop(seed):
    from chebzeros.chebsys import _run_probes
    from chebzeros.curves import ConvexityReport, _convexity_probes
    for c in _theorem4_inputs(seed) + [_line_curve(), _point_curve()]:
        P = cz.curve_points(c, c.dom.grid(fs.DEFAULT_GRID_N))
        ref = _reference_convexity_probes(c, P, max(BUDGETS), seed, P.shape[0])
        for b in BUDGETS:
            # a trial's outcome does not depend on the budget
            want = ref if ref.status == COUNTEREXAMPLE and ref.trials_run <= b \
                else ConvexityReport(NO_VIOLATION, b)
            got = _run_probes(c.dom.is_circle, _convexity_probes(c, P, b, seed))[0]
            _assert_same_convexity(got, want)
        _assert_same_convexity(cz.convexity_check(c, max(BUDGETS), seed), ref)


@pytest.mark.parametrize("curve", [cz.moment_curve(3), cz.trig_curve(2), _point_curve()],
                         ids=lambda c: c.label)
def test_screen_rows_are_the_shifted_slices(curve):
    # each slice is screened unshifted and shifted by 1e-4 and -1e-4 of its
    # spread, the values the trial-by-trial screen counted
    from chebzeros.curves import _convexity_draws, _convexity_probes
    P = cz.curve_points(curve, curve.dom.grid(fs.DEFAULT_GRID_N))
    rows = next(_convexity_probes(curve, P, 2, 0)).reshape(2, 2, 3, -1)
    start, stop, stream = next(fs._probe_chunks(0, 2, P.shape[0], 1))
    _, _, S = _convexity_draws(P, stream, start, stop)
    for sv, screened in zip(S.reshape(4, -1), rows.reshape(4, 3, -1)):
        spread = float(np.ptp(sv))
        for shift, row in zip((0.0, 1e-4 * spread, -1e-4 * spread), screened):
            assert (sv - shift).tobytes() == row.tobytes()


@pytest.mark.parametrize("curve", _theorem4_inputs(4) + [_line_curve()],
                         ids=lambda c: c.label)
def test_intersections_match_one_count_per_shift(curve):
    from chebzeros.curves import _intersections
    ts = curve.dom.grid(fs.DEFAULT_GRID_N)
    P = cz.curve_points(curve, ts)
    rng = np.random.default_rng(3)
    planes = [cz.hyperplane_through(P[rng.choice(ts.size, curve.d, replace=False)])
              for _ in range(10)]
    for _ in range(10):
        w = rng.standard_normal(curve.d)
        proj = P @ w
        planes.append(cz.Hyperplane(w, float(rng.uniform(proj.min(), proj.max()))))
        # tangent-like: through the extreme point of the projection
        planes.append(cz.Hyperplane(w, float(proj.max())))
    for hp in planes:
        vals = P @ hp.normal - hp.offset
        _assert_same_count(_intersections(curve, hp, ts, vals),
                           _reference_intersections(curve, hp, ts, vals))


# ---------------------------------------------------------------------------
# orthogonal functions on curves


def test_construct_minimal_counts():
    # minimal sign changes realized exactly on the basic examples
    for curve, n, want in [(cz.moment_curve(2), 1, 3),
                           (cz.moment_curve(2), 2, 5),
                           (cz.moment_curve(3), 1, 4),
                           (cz.trig_curve(1), 1, 4)]:
        res = cz.construct_orthogonal_on_curve(curve, n)
        assert res.sign_report.count == want, (curve.label, n)
        assert np.max(np.abs(res.residuals)) <= 1e-8
        t5 = cz.theorem5_verify(curve, n, res.F)
        assert t5.applicable and t5.passed


def test_theorem5_samples_f_once_on_quadrature_nodes(size_log):
    # besides the count grid and root refinement, f is evaluated in one
    # call on all quadrature nodes, not once per restricted polynomial
    par = cz.moment_curve(2)
    res = cz.construct_orthogonal_on_curve(par, 2)
    f, sizes = size_log(res.F)
    rep = cz.theorem5_verify(par, 2, f)
    assert rep.applicable and rep.passed
    assert size_log.refine_calls > 0
    quad = [n for n in sizes if n != fs.DEFAULT_GRID_N]
    assert len(quad) == 1 and quad[0] >= 16
    assert sizes.count(fs.DEFAULT_GRID_N) == 1


def test_theorem5_breaks_at_the_construction_points():
    # the step flips sign with the annihilator at one prescribed point, so
    # F does not cross there but keeps a kink, which a quadrature split
    # only at F's crossings integrates to a residual past 1e-8
    curve = cz.moment_curve(3, -1.631063481149745, 0.22492273760209058)
    dim = cz.dimension_estimate(cz.restrict_polynomials(curve, 1), curve.dom)
    res = cz.construct_orthogonal_on_curve(curve, 1, pieces=dim + 2)
    assert res.sign_report.count == res.points.size - 1
    plain = cz.theorem5_verify(curve, 1, res.F)
    assert not plain.applicable and plain.max_residual > 1e-8
    rep = cz.theorem5_verify(curve, 1, res.F, breaks=res.points)
    assert rep.applicable and rep.passed
    assert rep.sign_changes == 4 and rep.max_residual <= 1e-15


def test_theorem5_not_applicable_reports_no_count():
    # a report that does not apply carries no count, as in Theorem 1
    rep = cz.theorem5_verify(cz.moment_curve(2), 1, lambda t: t + 0.4)
    assert not rep.applicable and not rep.passed
    assert rep.sign_changes == -1


def _svd_log(monkeypatch):
    """Bytes of every matrix np.linalg.svd is asked to decompose."""
    seen = []
    svd = np.linalg.svd

    def spy(A, *args, **kwargs):
        A = np.asarray(A, dtype=float)
        seen.append((A.shape, A.tobytes()))
        return svd(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


def test_construct_decomposes_each_matrix_once(monkeypatch):
    # span dimension, piece moments and refined moments: three matrices,
    # one SVD each
    seen = _svd_log(monkeypatch)
    cz.construct_orthogonal_on_curve(cz.moment_curve(2), 1)
    assert len(seen) == 3 and len(set(seen)) == 3


def test_construct_rejects_too_few_pieces():
    with pytest.raises(ValueError):
        cz.construct_orthogonal_on_curve(cz.moment_curve(2), 1, pieces=3)


def test_theorem5_not_applicable():
    par = cz.moment_curve(2)
    f = fs.Func1D(lambda t: np.asarray(t, float) + 0.4)
    rep = cz.theorem5_verify(par, 1, f)
    assert not rep.applicable


# ---------------------------------------------------------------------------
# secant hyperplane products


def test_support_product_full_groups():
    par = cz.moment_curve(2)
    sp = cz.support_product_polynomial(par, [-0.6, -0.2, 0.2, 0.6])
    assert len(sp.factors) == 2
    assert sp.delta == 0.0
    F = cz.polynomial_on_curve(sp.poly, par)
    rep = fs.count_sign_changes(F, par.dom)
    assert rep.count == 4
    assert np.max(np.abs(np.sort(rep.locations)
                         - [-0.6, -0.2, 0.2, 0.6])) < 1e-6


def test_support_product_short_group_open():
    par = cz.moment_curve(2)
    sp = cz.support_product_polynomial(par, [0.0])
    F = cz.polynomial_on_curve(sp.poly, par)
    rep = fs.count_sign_changes(F, par.dom)
    assert rep.count == 1
    assert abs(rep.locations[0]) < 1e-6
    assert sp.delta > 0


def test_support_product_short_group_3d():
    c = cz.moment_curve(3)
    pts = [-0.7, -0.4, -0.1, 0.3, 0.6]
    sp = cz.support_product_polynomial(c, pts)
    F = cz.polynomial_on_curve(sp.poly, c)
    rep = fs.count_sign_changes(F, c.dom)
    assert rep.count == 5
    assert np.max(np.abs(np.sort(rep.locations) - pts)) < 1e-6


def test_support_product_closed_short_group():
    circ = cz.trig_curve(2)  # d = 4; 2 points leave d - l = 2 aux
    sp = cz.support_product_polynomial(circ, [1.0, 2.0])
    F = cz.polynomial_on_curve(sp.poly, circ)
    rep = fs.count_sign_changes(F, circ.dom)
    assert rep.count == 2
    assert np.max(np.abs(np.sort(rep.locations) - [1.0, 2.0])) < 1e-6
    assert 0 < sp.delta < 1e-2


def test_support_product_samples_grid_once_per_halving():
    par = cz.moment_curve(2)
    sizes = []

    def ev(t):
        sizes.append(np.size(t))
        return par.eval(t)

    logged = cz.CurveRd(ev, par.d, par.dom, "logged")
    sp = cz.support_product_polynomial(logged, [0.0])
    # delta starts at 1e-2 of the span and halves after each pass
    passes = round(np.log2(1e-2 * par.dom.span / sp.delta)) + 1
    assert passes >= 2
    assert sizes.count(fs.DEFAULT_GRID_N) == passes


def test_support_product_odd_count_closed_refused():
    # a single crossing is impossible on a closed curve
    with pytest.raises(NotChebyshevError):
        cz.support_product_polynomial(cz.trig_curve(1), [1.0])


# ---------------------------------------------------------------------------
# centers of mass


def test_center_of_mass_oracle():
    # right half circle arc: centroid x = sin(pi/2)/(pi/2) * ... use the
    # full circle with density concentrated by the formula below instead:
    # uniform circle has centroid 0
    circ = cz.trig_curve(1)
    c, mass = cz.center_of_mass(circ)
    assert np.max(np.abs(c)) < 1e-10
    assert mass == pytest.approx(2 * np.pi, abs=1e-8)
    # density 1 + cos t shifts the centroid to (1/2, 0)
    rho = fs.Func1D(lambda t: 1.0 + np.cos(t))
    c2, m2 = cz.center_of_mass(circ, rho)
    assert np.allclose(c2, [0.5, 0.0], atol=1e-10)
    assert m2 == pytest.approx(2 * np.pi, abs=1e-8)


def test_center_of_mass_zero_mass():
    circ = cz.trig_curve(1)
    rho = fs.Func1D(lambda t: np.cos(t))
    with pytest.raises(ValueError):
        cz.center_of_mass(circ, rho)


def test_proposition1_balanced_density():
    circ = cz.trig_curve(1)
    f = fs.Func1D(lambda t: 1.0 + 0.3 * np.cos(2 * t))
    rep = cz.proposition1_check(circ, f)
    assert rep.applicable and rep.passed
    assert rep.extrema >= 4


def test_proposition1_offcenter_not_applicable():
    circ = cz.trig_curve(1)
    f = fs.Func1D(lambda t: 1.0 + 0.5 * np.cos(t))
    rep = cz.proposition1_check(circ, f)
    assert not rep.applicable


def test_proposition1_requires_positive():
    circ = cz.trig_curve(1)
    f = fs.Func1D(lambda t: np.cos(2 * t))
    with pytest.raises(ValueError):
        cz.proposition1_check(circ, f)


def test_proposition1_relative_pair():
    circ = cz.trig_curve(1)
    f = fs.Func1D(lambda t: 1.0 + 0.3 * np.cos(2 * t))
    g = fs.Func1D(lambda t: 1.0 - 0.2 * np.sin(2 * t))
    rep = cz.proposition1_relative(circ, f, g)
    assert rep.applicable and rep.passed
    assert rep.diff_sign_changes >= 4
    assert rep.ratio_extrema >= 4


def test_proposition1_relative_proportional_degenerate():
    circ = cz.trig_curve(1)
    f = fs.Func1D(lambda t: 1.0 + 0.3 * np.cos(2 * t))
    g = fs.Func1D(lambda t: 2.0 + 0.6 * np.cos(2 * t))
    rep = cz.proposition1_relative(circ, f, g)
    assert rep.applicable and rep.passed and rep.degenerate


def _size_log(fn):
    """fn wrapped as a Func1D that logs the size of every array it gets."""
    sizes = []

    def ev(t):
        sizes.append(np.size(t))
        return fn(t)

    return fs.Func1D(ev, "logged"), sizes


def test_proposition1_samples_density_once_on_grid():
    # one grid sample serves positivity and the extrema count; the other
    # evaluation is the center-of-mass quadrature
    circ = cz.trig_curve(1)
    f, sizes = _size_log(lambda t: 1.0 + 0.3 * np.cos(2 * t))
    rep = cz.proposition1_check(circ, f)
    assert rep.applicable and rep.passed
    assert sizes == [fs.DEFAULT_GRID_N, fs.quad_nodes(circ.dom)[0].size]


def test_proposition1_relative_samples_each_density_once_on_grid():
    circ = cz.trig_curve(1)
    f, fsizes = _size_log(lambda t: 1.0 + 0.3 * np.cos(2 * t))
    g, gsizes = _size_log(lambda t: 1.0 - 0.2 * np.sin(2 * t))
    rep = cz.proposition1_relative(circ, f, g)
    assert rep.applicable and rep.passed
    for sizes in (fsizes, gsizes):
        assert sizes == [fs.DEFAULT_GRID_N, fs.quad_nodes(circ.dom)[0].size]


def _logged_curve(curve):
    """curve wrapped to log the size of every parameter array it gets."""
    sizes = []

    def ev(ts):
        sizes.append(np.size(ts))
        return curve.eval(ts)

    return cz.CurveRd(ev, curve.d, curve.dom, curve.label), sizes


def test_proposition1_evaluates_curve_once_per_node_set():
    # arc speed (two shifted node sets) and points on the quadrature
    # nodes serve both centers of mass; the grid gives the diameter
    circ, sizes = _logged_curve(cz.trig_curve(1))
    f = fs.Func1D(lambda t: 1.0 + 0.3 * np.cos(2 * t))
    g = fs.Func1D(lambda t: 1.0 - 0.2 * np.sin(2 * t))
    nq = fs.quad_nodes(circ.dom)[0].size
    assert cz.proposition1_check(circ, f).applicable
    assert sizes == [nq, nq, nq, fs.DEFAULT_GRID_N]
    sizes.clear()
    assert cz.proposition1_relative(circ, f, g).applicable
    assert sizes == [nq, nq, nq, fs.DEFAULT_GRID_N]


def test_proposition1_checks_grid_on_entry():
    # a small grid raises even when the density is off center, where no
    # count would run
    circ = cz.trig_curve(1)
    f = fs.Func1D(lambda t: 1.0 + 0.5 * np.cos(t))
    g = fs.Func1D(lambda t: 1.0 + 0.3 * np.cos(2 * t))
    with pytest.raises(ValueError, match="grid_n"):
        cz.proposition1_check(circ, f, grid_n=10)
    with pytest.raises(ValueError, match="grid_n"):
        cz.proposition1_relative(circ, f, g, grid_n=10)
