import numpy as np
import pytest

import chebzeros as cz
from chebzeros import funcspace as fs
from chebzeros.chebsys import COUNTEREXAMPLE, NO_VIOLATION
from chebzeros.exceptions import NotChebyshevError


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
    M = fs.basis_matrix(sys.basis, [0.0, 0.5, 1.0])
    # Vandermonde det = product of pairwise differences
    assert np.linalg.det(M) == pytest.approx(0.25, abs=1e-12)


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


def test_trials_and_grid_must_be_integers():
    sys = cz.polynomial_system(2)
    for trials in (True, 2.0, 2.5):
        with pytest.raises(ValueError, match="trials must be an integer"):
            cz.verify_chebyshev(sys, trials=trials)
    v = cz.verify_chebyshev(sys, trials=np.int64(2))
    assert v.status == NO_VIOLATION and v.trials_run == 2


# ---------------------------------------------------------------------------
# batched probes against the trial-by-trial loop


def _reference_det_sign(M):
    """The per-matrix determinant sign, kept as the reference."""
    from chebzeros._linalg import _DET_COND_FLOOR
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= _DET_COND_FLOOR * s[0]:
        return 0.0, False
    sign, _ = np.linalg.slogdet(M)
    return float(sign), sign != 0.0


def _reference_flip_witness(basis, G, cyclic, pts_ref, sign_ref, pts_bad):
    """The one-halving-per-evaluation walk, kept as the reference."""
    from chebzeros._linalg import smallest_direction
    lo, hi = pts_ref.copy(), pts_bad.copy()
    mid = 0.5 * (lo + hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        sign, informative = _reference_det_sign(fs.basis_matrix(basis, mid))
        if not informative:
            break
        if sign == sign_ref:
            lo = mid
        else:
            hi = mid
    coeffs = smallest_direction(fs.basis_matrix(basis, mid))
    count = fs.count_grid_sign_changes(G @ coeffs, cyclic)
    if count >= len(basis):
        return coeffs, count
    return None


def _reference_chebyshev_probes(basis, dom, G, trials, rng_seed):
    """The trial-by-trial probe loop, kept as the reference."""
    from chebzeros.chebsys import ChebVerdict, _clustered_tuple, _stratified_tuple
    n = len(basis)
    ref_sign = 0.0
    ref_pts = None
    for trial in range(trials):
        rng = fs.derived_rng(rng_seed, trial)
        for pts in (_stratified_tuple(rng, dom, n), _clustered_tuple(rng, dom, n)):
            sign, informative = _reference_det_sign(fs.basis_matrix(basis, pts))
            if not informative:
                continue
            if ref_sign == 0.0:
                ref_sign, ref_pts = sign, pts
            elif sign != ref_sign:
                witness = _reference_flip_witness(basis, G, dom.is_circle, ref_pts,
                                                  ref_sign, pts)
                if witness is not None:
                    return ChebVerdict(COUNTEREXAMPLE, trial + 1, witness[0], witness[1])
                raise NotChebyshevError("no witness")
        coeffs = rng.normal(size=n)
        norm = np.linalg.norm(coeffs)
        if norm == 0.0:
            continue
        coeffs = coeffs / norm
        count = fs.count_grid_sign_changes(G @ coeffs, dom.is_circle)
        if count >= n:
            return ChebVerdict(COUNTEREXAMPLE, trial + 1, coeffs, count)
    return ChebVerdict(NO_VIOLATION, trials, None, None)


BUDGETS = (1, 2, 3, 8, 9, 40, 200)


def _assert_same_verdict(got, want):
    assert (got.status, got.trials_run) == (want.status, want.trials_run)
    assert got.witness_zero_count == want.witness_zero_count
    assert type(got.witness_zero_count) is type(want.witness_zero_count)
    assert (got.witness_coeffs is None) == (want.witness_coeffs is None)
    if want.witness_coeffs is not None:
        assert got.witness_coeffs.tobytes() == want.witness_coeffs.tobytes()


def _oracle_systems(seed):
    """Restricted affine functions of catalog curves, seeded affine images
    and the sine graph, the even pair {cos, sin} on the circle, and the
    smoothed hexagon's quadratic restrictions (example1)."""
    curves = [cz.moment_curve(2), cz.moment_curve(3), cz.moment_curve(4),
              cz.trig_curve(1), cz.trig_curve(2),
              cz.power_curve([2.0 ** 0.5, 3.0 ** 0.5], 1.0, float(np.e)),
              cz.exp_graph(), cz.smoothed_polygon(6), cz.sine_graph()]
    rng = np.random.default_rng(seed)
    for d in (2, 3, 4):
        A = np.eye(d) + 0.05 / (d + 1) * rng.uniform(-1.0, 1.0, (d, d))
        curves.append(cz.affine_image(cz.moment_curve(d), A, rng.uniform(-0.5, 0.5, d)))
    out = [(cz.restrict_polynomials(c, 1), c.dom, 200) for c in curves]
    out.append(((fs.Func1D(np.cos, "cos"), fs.Func1D(np.sin, "sin")), fs.circle(), 200))
    hexagon = cz.smoothed_polygon(6)
    out.append((cz.restrict_polynomials(hexagon, 2), hexagon.dom, 400))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_chebyshev_matches_reference_loop(seed):
    from chebzeros.chebsys import _chebyshev_probes
    for funcs, dom, top in _oracle_systems(seed):
        basis = fs.as_basis(funcs)
        G = fs.basis_matrix(basis, dom.grid(fs.DEFAULT_GRID_N))
        ref = _reference_chebyshev_probes(basis, dom, G, top, seed)
        for b in sorted({*BUDGETS, top}):
            # a trial's outcome does not depend on the budget
            want = ref if ref.status == COUNTEREXAMPLE and ref.trials_run <= b \
                else cz.ChebVerdict(NO_VIOLATION, b, None, None)
            got = _chebyshev_probes(basis, dom, G, b, seed)
            _assert_same_verdict(got, want)
        _assert_same_verdict(cz.verify_chebyshev((funcs, dom), top, seed), ref)


def _flip_pairs():
    """(basis, dom, G, ref tuple, ref sign, flipped tuple) from the sine
    graph's affine restrictions, the even pair and the smoothed hexagon's
    quadratics: clustered tuples whose determinants disagree in sign."""
    from chebzeros.chebsys import _clustered_tuple
    hexagon, sine = cz.smoothed_polygon(6), cz.sine_graph()
    cases = [(cz.restrict_polynomials(sine, 1), sine.dom),
             (fs.as_basis([fs.Func1D(np.cos, "cos"), fs.Func1D(np.sin, "sin")]),
              fs.circle()),
             (cz.restrict_polynomials(hexagon, 2), hexagon.dom)]
    out = []
    for basis, dom in cases:
        G = fs.basis_matrix(basis, dom.grid(fs.DEFAULT_GRID_N))
        rng = np.random.default_rng(5)
        tuples = [_clustered_tuple(rng, dom, len(basis)) for _ in range(200)]
        signs = [_reference_det_sign(fs.basis_matrix(basis, t)) for t in tuples]
        good = [(t, s) for t, (s, ok) in zip(tuples, signs) if ok]
        ref_pts, ref_sign = good[0]
        flips = [t for t, s in good if s != ref_sign]
        assert flips
        out += [(basis, dom, G, ref_pts, ref_sign, t) for t in flips[:4]]
    return out


def test_flip_witness_matches_one_halving_per_evaluation():
    from chebzeros.chebsys import _flip_witness
    for basis, dom, G, ref_pts, ref_sign, bad in _flip_pairs():
        got = _flip_witness(basis, G, dom.is_circle, ref_pts, ref_sign, bad)
        want = _reference_flip_witness(basis, G, dom.is_circle, ref_pts, ref_sign, bad)
        assert (got is None) == (want is None)
        if want is not None:
            assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]


def test_stacked_det_signs_match_per_matrix():
    from chebzeros._linalg import _det_signs
    rng = np.random.default_rng(8)
    for n in range(1, 10):
        Ms = [rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
              for _ in range(40)]
        # singular values spread across the trust floor and the skip bound
        for ratio in (1e-8, 1e-10, 3e-11, 1e-11, 1e-12, 1e-13, 0.0):
            U, _ = np.linalg.qr(rng.standard_normal((n, n)))
            V, _ = np.linalg.qr(rng.standard_normal((n, n)))
            s = np.geomspace(1.0, max(ratio, 1e-300), n) if n > 1 else np.array([ratio])
            Ms.append(U @ np.diag(s) @ V.T)
        Ms.append(np.zeros((n, n)))
        if n > 1:
            Ms.append(np.ones((n, n)))
        sign, informative = _det_signs(np.array(Ms))
        for M, sg, ok in zip(Ms, sign, informative):
            want_sign, want_ok = _reference_det_sign(M)
            assert bool(ok) == bool(want_ok)
            if want_ok:
                assert sg == want_sign



def test_one_trial_budget_draws_one_stream_per_loop(monkeypatch):
    # each curve or Chebyshev trial t draws its own stream derived_rng(seed,
    # t, ...): a one-trial budget builds one stream per loop, 8 trials build 8
    calls = []
    derived = fs.derived_rng

    def spy(seed, *keys):
        calls.append(keys)
        return derived(seed, *keys)

    monkeypatch.setattr(fs, "derived_rng", spy)
    c = cz.moment_curve(3)
    assert cz.theorem4_check(c, trials=1).agree
    assert calls == [(0, 1), (0,)]
    calls.clear()
    assert cz.convexity_check(c, trials=1).convex
    assert cz.verify_chebyshev(cz.trig_system(2), trials=1).status == NO_VIOLATION
    assert calls == [(0, 1), (0,)]
    calls.clear()
    assert cz.theorem4_check(c, trials=8).agree
    assert calls == [(t, 1) for t in range(8)] + [(t,) for t in range(8)]
