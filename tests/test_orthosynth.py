import math

import numpy as np
import pytest

import chebzeros as cz
from chebzeros import funcspace as fs
from chebzeros.exceptions import NotChebyshevError


def test_m_of_values():
    assert cz.m_of(fs.interval(-1, 1), 3) == 3
    assert cz.m_of(fs.circle(), 3) == 4
    with pytest.raises(ValueError):
        cz.m_of(fs.circle(), 2)


def test_moment_matrix_frozen_oracle():
    # {1, x} on (-1,1), g = (t-1/3)(t+1/3), breaks at +-1/3; exact row
    # integrals of g and t*g over the three pieces
    sys = cz.polynomial_system(1)
    g = cz.poly_annihilator([-1 / 3, 1 / 3], sys.dom)
    A = cz.moment_matrix(sys, g, [-1 / 3, 1 / 3])
    expect = np.array([[20 / 81, -4 / 81, 20 / 81],
                       [-16 / 81, 0.0, 16 / 81]])
    assert np.max(np.abs(A - expect)) < 1e-12


def test_null_direction_oracle():
    sys = cz.polynomial_system(1)
    g = cz.poly_annihilator([-1 / 3, 1 / 3], sys.dom)
    A = cz.moment_matrix(sys, g, [-1 / 3, 1 / 3])
    p = cz.null_direction(A)
    expect = np.array([1.0, 10.0, 1.0]) / np.sqrt(102.0)
    assert np.max(np.abs(p - expect)) < 1e-10


def test_step_weight_interval_pieces():
    w = cz.StepWeight(np.array([0.0]), np.array([2.0, -3.0]),
                      fs.interval(-1.0, 1.0))
    assert w(np.array([-0.5]))[0] == 2.0
    assert w(np.array([0.5]))[0] == -3.0
    # breakpoint itself belongs to the right piece
    assert w(np.array([0.0]))[0] == -3.0


def test_step_weight_circle_wrap():
    w = cz.StepWeight(np.array([1.0, 4.0]), np.array([5.0, 7.0]), fs.circle())
    assert w(np.array([2.0]))[0] == 5.0
    assert w(np.array([5.0]))[0] == 7.0
    # before the first breakpoint we are on the wrapping arc [4, 1)
    assert w(np.array([0.5]))[0] == 7.0
    assert w(np.array([0.5 + 2 * np.pi]))[0] == 7.0


def test_step_weight_support_zeroing():
    w = cz.StepWeight(np.array([0.0]), np.array([1.0, -1.0]),
                      fs.interval(-2.0, 2.0), support=(-1.0, 1.0))
    ts = np.array([-1.5, -0.5, 0.5, 1.5])
    assert np.allclose(w(ts), [0.0, 1.0, -1.0, 0.0])


def test_step_weight_validation():
    dom = fs.interval(-1.0, 1.0)
    with pytest.raises(ValueError):
        cz.StepWeight(np.array([0.3, 0.1]), np.array([1.0, 1.0, 1.0]), dom)
    with pytest.raises(ValueError):
        cz.StepWeight(np.array([0.0]), np.array([1.0]), dom)
    with pytest.raises(ValueError):
        cz.StepWeight(np.array([]), np.array([1.0]), fs.circle())


def test_synth_orthogonal_interval():
    sys = cz.polynomial_system(1)
    res = cz.synth_orthogonal(sys, [-1 / 3, 1 / 3])
    assert res.rho is None and res.F is not None
    assert np.max(np.abs(res.residuals)) <= 1e-8
    assert res.sign_report.count == 2
    assert np.max(np.abs(np.sort(res.sign_report.locations)
                         - np.array([-1 / 3, 1 / 3]))) <= 1e-6
    # heights strictly one sign
    assert np.min(res.step.heights) > 0 or np.max(res.step.heights) < 0


def test_synth_orthogonal_circle():
    sys = cz.trig_system(1)
    pts = [0.5, 1.7, 3.1, 5.2]
    res = cz.synth_orthogonal(sys, pts)
    assert res.sign_report.count == 4
    assert np.max(np.abs(np.sort(res.sign_report.locations)
                         - np.sort(pts))) <= 1e-6


def _synth_instances():
    # the benchmark's systems at seeded stratified points, two per system,
    # and the Gauss (poly) or equispaced (trig) nodes
    systems = ([cz.polynomial_system(k) for k in range(1, 9)]
               + [cz.trig_system(k) for k in range(1, 5)]
               + [cz.power_system([2.0 ** 0.5, 3.0 ** 0.5], fs.interval(1.0, math.e)),
                  cz.power_system([0.5, 1.5, 2.5], fs.interval(0.5, 2.0))])
    for si, sys in enumerate(systems):
        dom = sys.dom
        m = cz.m_of(dom, sys.order_n)
        for t in range(2):
            rng = fs.derived_rng(0, 21, si, t)
            fr = (np.arange(m) + 0.1 + 0.8 * rng.uniform(size=m)) / m
            yield sys, fs.TWO_PI * fr if dom.is_circle else dom.a + dom.span * fr
        if si < 8:
            yield sys, np.sort(np.polynomial.legendre.leggauss(m)[0])
        elif si < 12:
            yield sys, fs.TWO_PI * (np.arange(m) + 0.5) / m


def test_prescribed_points_refine_in_one_call(size_log):
    # F crosses exactly at the prescribed points, so walks toward them
    # take all of bisection's halvings in one f call; theorem1_check's
    # breaks are the same points.  Secant guesses alone took 141 calls
    # for the 40 syntheses and 141 for their theorem1 checks
    for n, (sys, pts) in enumerate(_synth_instances(), 1):
        before = size_log.refine_calls
        res = cz.synth_orthogonal(sys, pts)
        assert size_log.refine_calls == before + 1
        rep = cz.theorem1_check(sys, res.F, breaks=res.step.breakpoints)
        assert rep.applicable and rep.passed
        assert size_log.refine_calls == before + 1
    assert n == 40


def _grid_samples(samples, f, dom):
    grid = fs._count_grid(dom, fs.DEFAULT_GRID_N)
    return sum(g is f and ts is grid for g, ts in samples)


def test_theorem1_after_synth_orthogonal_reuses_its_count(sample_log):
    # the synthesis samples F on the counting grid once and refines once;
    # theorem1_check then neither samples F there nor refines, and a fresh
    # wrapper of the same F counts and checks to the same bytes
    log = sample_log
    for sys, pts in _synth_instances():
        del log.samples[:]
        before = log.refines
        res = cz.synth_orthogonal(sys, pts)
        assert _grid_samples(log.samples, res.F, sys.dom) == 1
        assert log.refines == before + 1
        del log.samples[:]
        rep = cz.theorem1_check(sys, res.F, breaks=res.step.breakpoints)
        assert _grid_samples(log.samples, res.F, sys.dom) == 0
        assert log.refines == before + 1
        fresh = fs.Func1D(res.F.eval)
        assert rep == cz.theorem1_check(sys, fresh, breaks=res.step.breakpoints)
        again = fs.count_sign_changes(fs.Func1D(res.F.eval), sys.dom)
        assert rep.sign_changes == again.count == res.sign_report.count
        assert again.locations.tobytes() == res.sign_report.locations.tobytes()


def test_theorem1_after_synth_weight_reuses_its_count(sample_log):
    # synth_weight's count of f and its crossings serve theorem1_check,
    # which refines nothing and samples f on no counting grid: the test
    # that f * rho vanishes reads the quadrature nodes
    log = sample_log
    for sys, pts in _synth_instances():
        f = cz.default_annihilator(pts, sys.dom)
        res = cz.synth_weight(sys, f)
        breaks = list(res.step.breakpoints) + list(res.step.support or ())
        del log.samples[:]
        before = log.refines
        rep = cz.theorem1_check(sys, f, res.rho, breaks=breaks)
        assert rep.applicable and rep.passed
        assert _grid_samples(log.samples, f, sys.dom) == 0
        assert log.refines == before
        fresh = fs.Func1D(f.eval)
        assert rep == cz.theorem1_check(sys, fresh, res.rho, breaks=breaks)
        again = fs.count_sign_changes(fresh, sys.dom)
        assert again.count == res.sign_report.count == rep.sign_changes
        assert again.locations.tobytes() == res.sign_report.locations.tobytes()


def test_guesses_do_not_move_the_shared_locations():
    # whichever caller counts F first on a grid decides the guesses of its
    # one refinement; with the prescribed points or without, the floats agree
    for sys, pts in _synth_instances():
        F = cz.synth_orthogonal(sys, pts).F
        guided = fs._sign_report(fs.Func1D(F.eval), sys.dom, fs.DEFAULT_GRID_N,
                                 guesses=pts)
        plain = fs.count_sign_changes(fs.Func1D(F.eval), sys.dom)
        assert guided.count == plain.count == pts.size
        assert guided.locations.tobytes() == plain.locations.tobytes()


def test_synth_orthogonal_wrong_count():
    sys = cz.polynomial_system(1)
    with pytest.raises(ValueError):
        cz.synth_orthogonal(sys, [0.0])


def test_synth_weight_exact_m():
    sys = cz.polynomial_system(2)
    f = cz.poly_annihilator([-0.6, 0.0, 0.6], sys.dom)
    res = cz.synth_weight(sys, f)
    assert res.F is None and res.rho is not None
    ts, ws = fs.quad_nodes(sys.dom)
    for fj in sys.basis:
        v = ws @ (fs.sample(f, ts) * fs.sample(fj, ts) * fs.sample(res.rho, ts))
        assert abs(v) < 1e-7
    ts = sys.dom.grid(512)
    rv = fs.sample(res.rho, ts)
    assert np.min(rv) > 0 or np.max(rv) < 0


def test_synth_weight_narrowing_interval():
    # 4 sign changes against an order-2 system: keep the first two,
    # weight must vanish beyond the third sign point
    sys = cz.polynomial_system(1)
    f = cz.poly_annihilator([-0.6, -0.2, 0.2, 0.6], sys.dom)
    res = cz.synth_weight(sys, f)
    lo, hi = res.step.support
    assert lo == sys.dom.a
    assert hi == pytest.approx(0.2, abs=1e-6)
    ts = np.linspace(0.3, 0.95, 50)
    assert np.max(np.abs(fs.sample(res.rho, ts))) == 0.0
    ts, ws = fs.quad_nodes(sys.dom)
    for fj in sys.basis:
        v = ws @ (fs.sample(f, ts) * fs.sample(fj, ts) * fs.sample(res.rho, ts))
        assert abs(v) < 1e-7


def test_synth_weight_narrowing_circle():
    sys = cz.trig_system(1)
    f = cz.trig_annihilator([0.4, 1.2, 2.0, 2.8, 3.6, 4.4])
    res = cz.synth_weight(sys, f)
    lo, hi = res.step.support
    assert lo == pytest.approx(0.4, abs=1e-6)
    assert hi == pytest.approx(3.6, abs=1e-6)
    ts = np.linspace(3.7, 2 * np.pi - 0.05, 60)
    assert np.max(np.abs(fs.sample(res.rho, ts))) == 0.0
    ts, ws = fs.quad_nodes(sys.dom)
    for fj in sys.basis:
        v = ws @ (fs.sample(f, ts) * fs.sample(fj, ts) * fs.sample(res.rho, ts))
        assert abs(v) < 1e-7


def test_synth_weight_too_few_sign_changes():
    sys = cz.polynomial_system(2)
    f = cz.poly_annihilator([0.0], sys.dom)
    with pytest.raises(ValueError):
        cz.synth_weight(sys, f)


def test_non_chebyshev_heights_mixed():
    # {1, t^2} is not Chebyshev on (-1,1); the null heights come out
    # mixed-sign and synthesis must refuse
    funcs = (fs.constant(1.0), fs.Func1D(lambda t: np.asarray(t, float) ** 2))
    sys = cz.ChebSystem(funcs, fs.interval(-1.0, 1.0))
    with pytest.raises(NotChebyshevError):
        cz.synth_orthogonal(sys, [-0.5, 0.5])


def test_height_flip_breaks_orthogonality():
    # contrapositive: perturbing one synthesized height off the null
    # direction leaves a visible moment residual
    sys = cz.polynomial_system(1)
    g = cz.poly_annihilator([-1 / 3, 1 / 3], sys.dom)
    A = cz.moment_matrix(sys, g, [-1 / 3, 1 / 3])
    p = cz.null_direction(A)
    bad = p.copy()
    bad[1] = -bad[1]
    assert np.max(np.abs(A @ bad)) > 1e-4


def test_theorem1_positive_case():
    sys = cz.polynomial_system(2)
    res = cz.synth_orthogonal(sys, [-0.5, 0.0, 0.5])
    rep = cz.theorem1_check(sys, res.F, breaks=res.step.breakpoints)
    assert rep.applicable and rep.passed
    assert rep.sign_changes == 3 and rep.bound == 3
    assert rep.max_residual <= 1e-8


def test_theorem1_weighted_case():
    sys = cz.trig_system(1)
    f = cz.trig_annihilator([0.7, 1.9, 3.3, 4.8])
    res = cz.synth_weight(sys, f)
    rep = cz.theorem1_check(sys, f, rho=res.rho,
                            breaks=res.step.breakpoints)
    assert rep.applicable and rep.passed
    assert rep.sign_changes == 4 and rep.bound == 4


@pytest.mark.parametrize("weighted", [False, True])
def test_theorem1_samples_f_once_on_quadrature_nodes(weighted, size_log):
    # besides the count grid and root refinement, f and rho are
    # evaluated in one call on all quadrature nodes, not once per basis
    # function
    if weighted:
        sys = cz.trig_system(1)
        f = cz.trig_annihilator([0.7, 1.9, 3.3, 4.8])
        res = cz.synth_weight(sys, f)
        rho, rho_sizes = size_log(res.rho)
    else:
        sys = cz.polynomial_system(2)
        res = cz.synth_orthogonal(sys, [-0.5, 0.0, 0.5])
        f, rho, rho_sizes = res.F, None, []
    f, sizes = size_log(f)
    rep = cz.theorem1_check(sys, f, rho=rho, breaks=res.step.breakpoints)
    assert rep.applicable and rep.passed
    assert size_log.refine_calls > 0
    quad = [n for n in sizes if n != fs.DEFAULT_GRID_N]
    assert len(quad) == 1 and quad[0] >= 16
    # one sample on the count grid serves the count; the vanishing test
    # reads f * rho on the quadrature nodes
    assert sizes.count(fs.DEFAULT_GRID_N) == 1
    if weighted:
        assert rho_sizes == [quad[0]]


@pytest.mark.parametrize("off_grid_only", [False, True])
def test_theorem1_not_applicable_when_f_rho_vanishes_on_the_nodes(off_grid_only):
    # residuals of a product that is zero on every quadrature node are
    # vacuous, whatever rho is on the counting grid
    sys = cz.polynomial_system(2)
    res = cz.synth_orthogonal(sys, [-0.5, 0.0, 0.5])

    def rho_eval(t):
        t = np.asarray(t, dtype=float)
        on_grid = off_grid_only and t.size == fs.DEFAULT_GRID_N
        return np.full_like(t, 1.0 if on_grid else 0.0)

    rep = cz.theorem1_check(sys, res.F, rho=fs.Func1D(rho_eval),
                            breaks=res.step.breakpoints)
    assert not rep.applicable and not rep.passed
    assert rep.sign_changes == -1 and rep.max_residual == 0.0


def _gap_step(basis, dom, breaks):
    """The step with these breaks whose heights are the null direction of
    its piece moments against basis: orthogonal to basis, and changing
    sign at every break."""
    from chebzeros.orthosynth import _step_edges, moments_on_edges
    A = moments_on_edges(basis, fs.constant(1.0), dom, _step_edges(dom, breaks))
    return cz.StepWeight(breaks, cz.null_direction(A), dom).as_func()


def test_theorem1_counts_a_gap_the_grid_misses():
    # heights (5.4e-5, -1, 1.9e-4): no node of the counting grid lies in
    # [0.3, 0.3002], but 32 nodes of the residual rule do
    sys = cz.polynomial_system(1)
    f = _gap_step(sys.basis, sys.dom, [0.3, 0.3002])
    assert fs.count_sign_changes(f, sys.dom).count == 0
    rep = cz.theorem1_check(sys, f, breaks=[0.3, 0.3002])
    assert rep.applicable and rep.passed
    assert rep.sign_changes == 2 and rep.bound == 2 and rep.max_residual < 1e-15
    assert "union" in rep.message
    # a count that reaches the bound on the grid is reported as before
    rep = cz.theorem1_check(sys, _gap_step(sys.basis, sys.dom, [0.1, 0.1001]),
                            breaks=[0.1, 0.1001])
    assert rep.passed and rep.sign_changes == 2 and rep.message == ""


@pytest.mark.parametrize("seed", range(4))
def test_zero_bound_counts_gaps_between_grid_nodes(seed):
    # every sign change of a step the residual rule proves orthogonal is
    # counted, though the counting grid sees one or none of them
    rng = fs.derived_rng(2038, seed)

    def in_one_cell(dom, first=1):
        # two breaks inside one cell of the counting grid, past node first
        ts = dom.grid(fs.DEFAULT_GRID_N)
        i = int(rng.integers(first, ts.size - 2))
        return ts[i] + (ts[i + 1] - ts[i]) * np.sort(rng.uniform(0.05, 0.95, 2))

    for sys in (cz.polynomial_system(1), cz.trig_system(0)):
        breaks = in_one_cell(sys.dom)
        f = _gap_step(sys.basis, sys.dom, breaks)
        rep = cz.theorem1_check(sys, f, breaks=breaks)
        assert rep.applicable and rep.passed and rep.sign_changes == 2, sys.dom
        assert "union" in rep.message
    # Theorem 5 on the parabola: at least 3 sign changes, two of them in
    # one cell of the right half of the grid
    curve = cz.moment_curve(2)
    breaks = np.concatenate([[rng.uniform(-0.9, -0.5)],
                             in_one_cell(curve.dom, fs.DEFAULT_GRID_N // 2)])
    f = _gap_step(cz.restrict_polynomials(curve, 1), curve.dom, breaks)
    assert fs.count_sign_changes(f, curve.dom).count == 1
    rep = cz.theorem5_verify(curve, 1, f, breaks=breaks)
    assert rep.applicable and rep.passed and rep.sign_changes == 3 == rep.bound
    assert "union" in rep.message


def test_theorem1_not_applicable():
    # f not orthogonal: report must say so instead of claiming the bound
    sys = cz.polynomial_system(2)
    f = fs.Func1D(lambda t: np.asarray(t, float) + 0.3)
    rep = cz.theorem1_check(sys, f)
    assert not rep.applicable
    assert not rep.passed


def test_zero_bound_checks_share_one_report():
    # Theorems 1, 5 and 6 report through one type
    sys = cz.polynomial_system(2)
    res = cz.synth_orthogonal(sys, [-0.5, 0.0, 0.5])
    curve = cz.moment_curve(2)
    F = cz.construct_orthogonal_on_curve(curve, 1).F
    P = cz.random_convex_polygon(9, rng_seed=0)
    reports = [cz.theorem1_check(sys, res.F, breaks=res.step.breakpoints),
               cz.theorem5_verify(curve, 1, F),
               cz.theorem6_check(P, 1, cz.construct_masses(P, 1))]
    for rep in reports:
        assert type(rep) is cz.ZeroBoundReport
        assert rep.applicable and rep.passed


def _square(side):
    N = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    return cz.polygon_from_normals(N, np.full(4, float(side)))


# each input is out of the check's hypothesis at tol=1e-8: not orthogonal,
# masses that do not annihilate, unequal totals, unequal perimeters
_TOL_CHECKS = {
    "theorem1": lambda tol: cz.theorem1_check(
        cz.polynomial_system(3), fs.Func1D(lambda t: t - 0.2), tol=tol),
    "theorem5": lambda tol: cz.theorem5_verify(
        cz.moment_curve(2), 1, fs.Func1D(lambda t: t - 0.2), tol=tol),
    "theorem6": lambda tol: cz.theorem6_check(
        cz.random_convex_polygon(5, rng_seed=0), 1, np.ones(5), tol=tol),
    "prop2": lambda tol: cz.proposition2_check(
        cz.random_convex_polygon(5, rng_seed=0), np.ones(5), 2 * np.ones(5), tol=tol),
    "aleksandrov": lambda tol: cz.aleksandrov_check(_square(2), _square(3), tol=tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-8])
@pytest.mark.parametrize("check", list(_TOL_CHECKS))
def test_tol_must_be_finite_and_positive(check, tol):
    # a NaN or infinite tolerance passed every residual test and let the
    # bound be held to inputs outside its hypothesis
    assert not _TOL_CHECKS[check](1e-8).applicable
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        _TOL_CHECKS[check](tol)


def test_synth_weight_samples_f_once_per_node():
    # the moment integrand f|f| takes one sample of f per node array
    sys = cz.polynomial_system(2)
    f = cz.default_annihilator([-0.6, -0.2, 0.3, 0.7], sys.dom)
    seen = []

    def ev(t):
        seen.append(np.array(t, dtype=float))
        return f(t)

    res = cz.synth_weight(sys, fs.Func1D(ev, "logged"))
    assert res.step.support is not None  # narrowed: 4 sign changes, m = 2
    keys = [(a.shape, a.tobytes()) for a in seen]
    assert len(set(keys)) == len(keys)
