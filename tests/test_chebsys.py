import numpy as np
import pytest

import chebzeros as cz
from chebzeros import funcspace as fs
from chebzeros.chebsys import COUNTEREXAMPLE, NO_VIOLATION


def test_polynomial_system_shape():
    sys = cz.polynomial_system(3)
    assert sys.order_n == 4
    assert sys.dom.a == -1.0 and sys.dom.b == 1.0
    ts = np.array([0.5])
    vals = [f(ts)[0] for f in sys.basis]
    assert np.allclose(vals, [1.0, 0.5, 0.25, 0.125])


def test_trig_system_order():
    sys = cz.trig_system(2)
    assert sys.order_n == 5
    assert sys.dom.is_circle


def test_even_order_circle_rejected():
    funcs = (fs.Func1D(np.cos), fs.Func1D(np.sin))
    with pytest.raises(ValueError):
        cz.ChebSystem(funcs, fs.circle())


def test_power_system_validation():
    with pytest.raises(ValueError):
        cz.power_system([1.0, 0.5], fs.interval(1.0, 2.0))
    with pytest.raises(ValueError):
        cz.power_system([1.0, 2.0], fs.interval(-1.0, 2.0))


def test_collocation_vandermonde_oracle():
    sys = cz.polynomial_system(2, fs.interval(-2.0, 2.0))
    M = cz.collocation_matrix(sys, [0.0, 0.5, 1.0])
    # Vandermonde det = product of pairwise differences
    assert np.linalg.det(M) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        cz.collocation_matrix(sys, [0.5, 0.5])


def test_catalog_systems_pass():
    for sys in [cz.polynomial_system(1), cz.polynomial_system(4),
                cz.trig_system(1),
                cz.power_system([2.0 ** 0.5, 3.0 ** 0.5],
                                fs.interval(1.0, float(np.e)))]:
        v = cz.verify_chebyshev(sys, trials=120)
        assert v.status == NO_VIOLATION
        assert v.trials_run == 120


def test_even_powers_flagged_with_witness():
    funcs = ([fs.Func1D(lambda t: np.ones_like(np.asarray(t, float))),
              fs.Func1D(lambda t: np.asarray(t, float) ** 2)],
             fs.interval(-1.0, 1.0))
    v = cz.verify_chebyshev(funcs, trials=200)
    assert v.status == COUNTEREXAMPLE
    assert v.witness_zero_count >= 2
    # the returned coefficients really demonstrate the violation
    combo = fs.combination(funcs[0], v.witness_coeffs)
    rep = fs.count_sign_changes(combo, funcs[1])
    assert rep.count == v.witness_zero_count


def test_localized_violation_found():
    # {1, t, sin t + 6} over a window containing an inflection: the
    # failure only shows on clustered point tuples
    dom = fs.interval(0.2, 0.2 + 1.4 * np.pi)
    funcs = ([fs.Func1D(lambda t: np.ones_like(np.asarray(t, float))),
              fs.Func1D(lambda t: np.asarray(t, float)),
              fs.Func1D(lambda t: np.sin(t) + 6.0)], dom)
    v = cz.verify_chebyshev(funcs, trials=300)
    assert v.status == COUNTEREXAMPLE
    assert v.witness_zero_count >= 3


def test_verify_evaluates_basis_on_grid_once():
    grid_n = 256
    grid_calls = []

    def counted(j):
        def ev(t):
            t = np.asarray(t, dtype=float)
            if t.size == grid_n:
                grid_calls.append(j)
            return t ** j
        return fs.Func1D(ev, f"x^{j}")

    sys = cz.ChebSystem(tuple(counted(j) for j in range(4)), fs.interval(-1.0, 1.0))
    v = cz.verify_chebyshev(sys, trials=20, grid_n=grid_n)
    assert v.status == NO_VIOLATION and v.trials_run == 20
    assert sorted(grid_calls) == [0, 1, 2, 3]


def test_verify_checks_count_args_on_entry():
    sys = cz.polynomial_system(2)
    with pytest.raises(ValueError, match="grid_n must be at least 64"):
        cz.verify_chebyshev(sys, trials=5, grid_n=10)


def test_verdict_deterministic():
    sys = cz.polynomial_system(2)
    a = cz.verify_chebyshev(sys, trials=50, rng_seed=7)
    b = cz.verify_chebyshev(sys, trials=50, rng_seed=7)
    assert a == b


def test_spread_points_deterministic_inside():
    for dom in [fs.interval(-2.0, 3.0), fs.circle()]:
        pts = cz.spread_points(dom, 17)
        assert dom.all_inside(pts)
        assert np.array_equal(pts, cz.spread_points(dom, 17))
        assert np.all(np.diff(pts) > 0)


def test_dimension_estimate_full_and_deficient():
    dom = fs.interval(-1.0, 1.0)
    basis = cz.polynomial_system(3).basis
    assert cz.dimension_estimate(basis, dom) == 4
    dep = list(basis) + [fs.Func1D(lambda t: 2.0 * np.asarray(t, float))]
    assert cz.dimension_estimate(dep, dom) == 4
    trig_sq = [fs.Func1D(lambda t: np.ones_like(np.asarray(t, float))),
               fs.Func1D(lambda t: np.cos(t) ** 2),
               fs.Func1D(lambda t: np.sin(t) ** 2)]
    assert cz.dimension_estimate(trig_sq, fs.circle()) == 2
