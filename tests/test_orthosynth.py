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


def test_synth_orthogonal_wrong_count():
    sys = cz.polynomial_system(1)
    with pytest.raises(ValueError):
        cz.synth_orthogonal(sys, [0.0])


def test_synth_weight_exact_m():
    sys = cz.polynomial_system(2)
    f = cz.poly_annihilator([-0.6, 0.0, 0.6], sys.dom)
    res = cz.synth_weight(sys, f)
    assert res.F is None and res.rho is not None
    for fj in sys.basis:
        v = fs.inner_product(f, fj, res.rho, sys.dom)
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
    for fj in sys.basis:
        v = fs.inner_product(f, fj, res.rho, sys.dom)
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
    for fj in sys.basis:
        v = fs.inner_product(f, fj, res.rho, sys.dom)
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
    # one sample on the count grid serves the count and the vanishing test
    assert sizes.count(fs.DEFAULT_GRID_N) == 1
    if weighted:
        assert rho_sizes == [quad[0], fs.DEFAULT_GRID_N]


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
