"""One basis type: a Basis is a sequence of Func1D members with one
matrix(ts) callable, and restricted monomials evaluate the curve once per
node array."""

import math

import numpy as np
import pytest

import chebzeros as cz
from chebzeros import annihilator, funcspace as fs


def _logged(curve):
    """The same curve, recording the node count of every evaluation."""
    log = []

    def ev(ts):
        log.append(int(np.size(ts)))
        return curve.eval(ts)

    return cz.CurveRd(ev, curve.d, curve.dom, curve.label), log


def test_restricted_basis_matrix_evaluates_curve_once():
    c, log = _logged(cz.moment_curve(3))
    M = fs.basis_matrix(cz.restrict_polynomials(c, 2), c.dom.grid(2048))
    assert M.shape == (2048, 10)
    assert log == [2048]


def test_verify_chebyshev_on_restricted_affines_call_log():
    c, log = _logged(cz.moment_curve(3))
    v = cz.verify_chebyshev((cz.restrict_polynomials(c, 1), c.dom), trials=2,
                            rng_seed=0)
    assert v.status == cz.NO_VIOLATION
    # the grid, then both trials' two 4-point tuples in one evaluation
    assert log == [2048, 16]


def test_theorem4_check_call_log():
    c, log = _logged(cz.moment_curve(3))
    r = cz.theorem4_check(c, trials=1)
    assert r.agree and r.convexity.convex
    # one grid sample read by the span test and both probe loops, the
    # trial's two 4-point collocation tuples in one evaluation
    assert log == [2048, 8]


def test_theorem4_counterexample_call_log():
    c, log = _logged(cz.sine_graph())
    r = cz.theorem4_check(c, trials=8)
    assert r.convexity.status == cz.COUNTEREXAMPLE
    # the flagged slice is recounted from the probe loop's grid sample, not
    # from a second one.  The Chebyshev loop evaluates the first chunk's
    # four 3-point tuples at once, then walks the determinant flip of
    # trial 1 with one evaluation of 15 tuples per four halvings
    assert r.chebyshev.trials_run == 1
    assert log == [2048, 12] + [45] * 7


@pytest.mark.parametrize("curve", [
    cz.moment_curve(2), cz.moment_curve(4), cz.trig_curve(2),
    cz.power_curve([2.0 ** 0.5, 3.0 ** 0.5], 1.0, float(np.e)), cz.exp_graph(),
    cz.smoothed_polygon(6), cz.sine_graph(),
    cz.affine_image(cz.moment_curve(3), [[1.0, 0.2, 0.0], [0.0, 0.9, 0.1],
                                         [0.3, 0.0, 1.1]], [0.1, -0.2, 0.3]),
], ids=lambda c: c.label)
def test_one_and_curve_sample_is_the_affine_basis_matrix(curve):
    # theorem4_check counts on [1, P]: x**0.0 and x**1.0 are exact, so it
    # is the restricted affine functions' grid matrix bit for bit
    ts = curve.dom.grid(fs.DEFAULT_GRID_N)
    P = cz.curve_points(curve, ts)
    G = fs.basis_matrix(cz.restrict_polynomials(curve, 1), ts)
    assert np.array_equal(np.insert(P, 0, 1.0, axis=1), G)


def test_general_annihilator_checks_each_candidate_once(monkeypatch):
    seen = []
    verify = annihilator._verify_candidate

    def spy(sys, rp, coeffs, grid, scan):
        seen.append(np.array(coeffs))
        return verify(sys, rp, coeffs, grid, scan)

    monkeypatch.setattr(annihilator, "_verify_candidate", spy)
    rp = cz.RootPrescription(simple_roots=(0.6626953894475845,),
                             double_roots=(0.8364323271261284,))
    cz.general_annihilator(cz.polynomial_system(4), rp)
    assert len(seen) == 3
    assert len({v.tobytes() for v in seen}) == 3


@pytest.mark.parametrize("sys, rp", [
    (cz.polynomial_system(4), cz.RootPrescription((-0.3,), (0.4,))),
    (cz.trig_system(2), cz.RootPrescription((1.0, 4.0), ())),
    (cz.trig_system(3), cz.RootPrescription((1.0, 2.5), (4.0,))),
])
def test_condition_matrix_matches_three_evaluations(sys, rp):
    h = 1e-5 * sys.dom.span
    pts = np.asarray(rp.simple_roots + rp.double_roots)
    dr = np.asarray(rp.double_roots)
    deriv = (fs.basis_matrix(sys.basis, dr + h)
             - fs.basis_matrix(sys.basis, dr - h)) / (2.0 * h)
    want = np.vstack([fs.basis_matrix(sys.basis, pts), deriv])
    assert np.array_equal(annihilator._condition_matrix(sys, rp, h), want)


_CURVES = [cz.moment_curve(2), cz.moment_curve(3), cz.moment_curve(4),
           cz.trig_curve(1), cz.trig_curve(2),
           cz.power_curve([2.0 ** 0.5, 3.0 ** 0.5], 1.0, float(np.e)),
           cz.exp_graph(), cz.smoothed_polygon(6),
           cz.affine_image(cz.moment_curve(3),
                           [[1.0, 0.02, -0.01], [0.03, 0.98, 0.0],
                            [-0.02, 0.01, 1.01]], [0.1, -0.2, 0.05])]


@pytest.mark.parametrize("curve", _CURVES, ids=lambda c: c.label)
@pytest.mark.parametrize("n", [1, 2])
def test_restricted_matrix_bit_identical_to_members(curve, n):
    basis = cz.restrict_polynomials(curve, n)
    dom = curve.dom
    tuple4 = dom.a + dom.span * np.array([0.11, 0.37, 0.52, 0.9])
    for ts in (dom.grid(fs.DEFAULT_GRID_N), tuple4):
        cols = np.column_stack([fs.sample(f, ts) for f in basis])
        assert np.array_equal(fs.basis_matrix(basis, ts), cols)


def test_systems_and_raw_pairs_keep_a_basis():
    c = cz.moment_curve(2)
    basis = cz.restrict_polynomials(c, 1)
    assert isinstance(basis, fs.Basis)
    assert all(isinstance(f, fs.Func1D) for f in basis)
    assert cz.ChebSystem(basis, c.dom).basis is basis
    assert isinstance(cz.polynomial_system(3).basis, fs.Basis)
    assert fs.as_basis(basis) is basis


def test_user_list_with_scalar_only_member():
    def scalar_only(t):
        if np.ndim(t):
            raise TypeError("scalars only")
        return float(t) ** 2

    funcs = [fs.constant(1.0), fs.Func1D(scalar_only, "sq")]
    ts = np.array([0.1, 0.5, 0.9])
    M = fs.basis_matrix(funcs, ts)
    assert np.array_equal(M, np.column_stack([np.ones(3), ts ** 2]))


def test_non_finite_member_raises():
    funcs = [fs.constant(1.0),
             fs.Func1D(lambda t: np.where(t > 0.5, np.inf, 1.0), "inf")]
    with pytest.raises(ValueError):
        fs.basis_matrix(funcs, np.array([0.25, 0.75]))


def test_construct_evaluates_curve_once_per_moment_matrix():
    c, log = _logged(cz.moment_curve(2))
    cz.construct_orthogonal_on_curve(c, 2, pieces=8)
    # dimension estimate, then one call per moment matrix (unit weight, step)
    assert log == [64, 512, 512]


def _moments_per_piece(basis, g, dom, edges):
    """Reference: one rule, one g sample and one basis matrix per piece."""
    cols = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        ts, ws = fs.segment_rule(dom, lo, hi)
        cols.append((ws * fs.sample(g, ts)) @ fs.basis_matrix(basis, ts))
    return np.array(cols, dtype=float).T


_MOMENT_BASES = ([(s.basis, s.dom) for s in
                  [cz.polynomial_system(n) for n in (1, 4, 8)]
                  + [cz.trig_system(k) for k in (1, 3)]
                  + [cz.power_system([0.5, 1.3, 2.0], fs.interval(0.1, 2.0))]]
                 + [(cz.restrict_polynomials(c, n), c.dom)
                    for c in _CURVES[:5] for n in (1, 2)])


@pytest.mark.parametrize("i", range(len(_MOMENT_BASES)))
def test_moments_on_edges_bit_identical_to_per_piece(i):
    from chebzeros.orthosynth import _step_edges, moments_on_edges
    basis, dom = _MOMENT_BASES[i]
    g = fs.Func1D(lambda t: 1.0 + 0.5 * np.sin(3.0 * np.asarray(t)), "g")
    rng = np.random.default_rng([11, i])
    for extra in range(3):
        fr = np.sort(rng.uniform(0.02, 0.98, len(basis) + extra))
        edges = _step_edges(dom, dom.a + dom.span * fr)
        for weight in (fs.constant(1.0), g):
            assert np.array_equal(moments_on_edges(basis, weight, dom, edges),
                                  _moments_per_piece(basis, weight, dom, edges))


# ---------------------------------------------------------------------------
# integer powers by left-to-right products


def _products(ts, d):
    """Reference: columns t, t*t, (t*t)*t, ... one multiplication at a time."""
    cols = [ts]
    for _ in range(d - 1):
        cols.append(cols[-1] * ts)
    return np.column_stack(cols)


@pytest.mark.parametrize("d", range(2, 7))
def test_moment_curve_is_the_product_table(d):
    rng = np.random.default_rng([17, d])
    for a, b in ((-1.0, 1.0), (-2.0, 1.0)):
        c = cz.moment_curve(d, a, b)
        for ts in (c.dom.grid(fs.DEFAULT_GRID_N), rng.uniform(a, b, 500)):
            assert np.array_equal(cz.curve_points(c, ts), _products(ts, d))


def _assert_members_are_columns(basis, ts):
    M = basis.matrix(ts)
    assert M.shape == (ts.size, len(basis))
    for j, f in enumerate(basis):
        col = fs.sample(f, ts)
        assert col.flags.c_contiguous
        assert col.tobytes() == M[:, j].tobytes()


@pytest.mark.parametrize("n", range(9))
def test_polynomial_members_are_their_fill_columns(n):
    ts = np.concatenate([fs.interval(-1.0, 1.0).grid(fs.DEFAULT_GRID_N),
                         np.random.default_rng([19, n]).uniform(-2.0, 2.0, 300)])
    _assert_members_are_columns(cz.polynomial_system(n).basis, ts)


_FILLED_BASES = {
    **{f"trig:{k}": (cz.trig_system(k).basis, fs.circle()) for k in range(4)},
    "power": (cz.power_system([0.5, 2.0 ** 0.5, 2.5], fs.interval(0.1, 2.0)).basis,
              fs.interval(0.1, 2.0)),
    **{f"{c.label}@{n}": (cz.restrict_polynomials(c, n), c.dom)
       for c in _CURVES[:6] for n in (1, 2)},
}


@pytest.mark.parametrize("name", list(_FILLED_BASES))
def test_catalog_members_are_their_fill_columns(name):
    # trig, power and restricted members are the columns of their family's
    # matrix too, on the counting grid (the harmonic table's rows on the
    # circle) and on random nodes
    basis, dom = _FILLED_BASES[name]
    rng = np.random.default_rng([37, len(basis)])
    for ts in (dom.grid(fs.DEFAULT_GRID_N), dom.a + dom.span * rng.uniform(size=300)):
        _assert_members_are_columns(basis, ts)


@pytest.mark.parametrize("curve, sys", [
    (cz.moment_curve(2), cz.polynomial_system(2)),
    (cz.moment_curve(5), cz.polynomial_system(5)),
    (cz.trig_curve(1), cz.trig_system(1)),
    (cz.trig_curve(3), cz.trig_system(3)),
    (cz.power_curve([2.0 ** 0.5, 3.0 ** 0.5], 1.0, float(np.e)),
     cz.power_system([2.0 ** 0.5, 3.0 ** 0.5], fs.interval(1.0, float(np.e)))),
    (cz.power_curve([0.5, 1.5], 0.5, 2.0),
     cz.power_system([0.5, 1.5], fs.interval(0.5, 2.0))),
], ids=["moment:2", "moment:5", "trig:1", "trig:3", "power:sqrt", "power:half"])
def test_catalog_curve_is_its_system_matrix_without_constant(curve, sys):
    # the moment, trig and power curves have their Chebyshev system, minus
    # the constant, as coordinates: the same floats on every node set
    dom = curve.dom
    assert dom == sys.dom
    rng = np.random.default_rng([41, curve.d])
    for ts in (dom.grid(fs.DEFAULT_GRID_N), fs.quad_nodes(dom)[0],
               np.sort(dom.a + dom.span * rng.uniform(size=777))):
        P = cz.curve_points(curve, ts)
        assert np.array_equal(P, fs.basis_matrix(sys.basis, ts)[:, 1:])
        if dom.is_circle:
            assert P.flags.c_contiguous


def test_trig_matrix_reads_the_harmonic_table(monkeypatch):
    calls = []
    harmonics = fs._harmonics

    def counted(ts, k):
        rows = harmonics(ts, k)
        calls.append(rows is not None)
        return rows

    monkeypatch.setattr(fs, "_harmonics", counted)
    g = fs.circle().grid(fs.DEFAULT_GRID_N)
    M = cz.trig_system(2).basis.matrix(g)
    assert calls == [True]
    rows = harmonics(g, 2)
    assert np.array_equal(M[:, 1:], np.column_stack([x for cs in rows for x in cs]))


def test_int_powers_within_k_units_of_pow():
    rng = np.random.default_rng(23)
    mag = 10.0 ** rng.uniform(-3.0, 3.0, 20000)
    ts = np.concatenate([fs.interval(-1.0, 1.0).grid(fs.DEFAULT_GRID_N),
                         fs.interval(-2.0, 1.0).grid(fs.DEFAULT_GRID_N),
                         rng.uniform(-2.0, 2.0, 20000),
                         mag * rng.choice([-1.0, 1.0], mag.size)])
    P = fs._int_powers(ts, 8)
    assert np.array_equal(P[:, 0], np.ones(ts.size))
    assert np.array_equal(P[:, 1], ts)
    for k in range(2, 9):
        want = np.array([math.pow(t, k) for t in ts])
        err = np.abs(P[:, k] - want) / np.abs(want)
        assert err.max() <= k * 2.0 ** -52


def test_int_powers_special_values_as_pow():
    ts = np.array([0.0, -0.0, 1.0, -1.0, 1e200, -1e200])
    with np.errstate(over="ignore"):
        P = fs._int_powers(ts, 8)
        want = ts[:, None] ** np.arange(9)
    assert np.array_equal(P, want)
    assert np.array_equal(np.signbit(P), np.signbit(want))
    assert np.isinf(P[4:, 2:]).all()


def test_polynomial_members_take_0d_and_2d_inputs():
    basis = cz.polynomial_system(5).basis
    T = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    M = basis.matrix(T)
    row = basis.matrix(np.array([-0.3]))[0]
    for j, f in enumerate(basis):
        assert np.shape(f(-0.3)) == () and float(f(-0.3)) == row[j]
        assert f(T).shape == T.shape
        assert np.array_equal(f(T), M[:, j].reshape(T.shape))


def _pow_moment_curve(d):
    """Reference: the moment curve evaluated by NumPy pow."""
    powers = np.arange(1, d + 1)
    return cz.CurveRd(lambda ts: ts[:, None] ** powers[None, :], d,
                      fs.interval(-1.0, 1.0), f"moment:{d}")


def _pow_polynomial_system(n):
    """Reference: the monomials evaluated by NumPy pow, one sample each."""
    basis = [fs.constant(1.0, "1")] + [
        fs.Func1D(lambda t, j=j: np.asarray(t, dtype=float) ** j, f"x^{j}")
        for j in range(1, n + 1)]
    return cz.ChebSystem(tuple(basis), fs.interval(-1.0, 1.0))


def _affine_pair(i):
    d = 2 + i
    rng = np.random.default_rng([29, i])
    A = np.eye(d) + 0.05 / (d + 1) * rng.uniform(-1.0, 1.0, (d, d))
    b = rng.uniform(-0.5, 0.5, d)
    return (cz.affine_image(cz.moment_curve(d), A, b),
            cz.affine_image(_pow_moment_curve(d), A, b))


_CURVE_PAIRS = ([(cz.moment_curve(d), _pow_moment_curve(d)) for d in (2, 3, 4)]
                + [_affine_pair(i) for i in range(3)])


def _t4_summary(r):
    conv, cheb = r.convexity, r.chebyshev
    return (conv.status, conv.trials_run,
            conv.witness_count and conv.witness_count.count_with_multiplicity,
            cheb.status, cheb.trials_run, cheb.witness_zero_count, r.agree, r.dim)


@pytest.mark.parametrize("trials", [1, 8, 200])
@pytest.mark.parametrize("i", range(len(_CURVE_PAIRS)))
def test_theorem4_verdicts_match_pow_evaluation(i, trials):
    new, old = _CURVE_PAIRS[i]
    for seed in range(3):
        assert (_t4_summary(cz.theorem4_check(new, trials, seed))
                == _t4_summary(cz.theorem4_check(old, trials, seed)))


def _verdict(v):
    return v.status, v.trials_run, v.witness_zero_count


@pytest.mark.parametrize("trials", [1, 8, 200])
@pytest.mark.parametrize("n", range(1, 9))
def test_chebyshev_verdicts_match_pow_evaluation(n, trials):
    new, old = cz.polynomial_system(n), _pow_polynomial_system(n)
    for seed in range(3):
        assert (_verdict(cz.verify_chebyshev(new, trials, seed))
                == _verdict(cz.verify_chebyshev(old, trials, seed)))


@pytest.mark.parametrize("n", range(3, 9))
def test_synthesis_matches_pow_evaluation(n):
    rng = np.random.default_rng([31, n])
    for _ in range(3):
        m = n + 1
        pts = -1.0 + 2.0 * (np.arange(m) + 0.1 + 0.8 * rng.uniform(size=m)) / m
        got = []
        for sys in (cz.polynomial_system(n), _pow_polynomial_system(n)):
            r = cz.synth_orthogonal(sys, pts)
            rep = cz.theorem1_check(sys, r.F)
            got.append((r.sign_report.count, r.sign_report.locations,
                        (rep.applicable, rep.passed, rep.sign_changes, rep.bound)))
        (c1, loc1, rep1), (c2, loc2, rep2) = got
        assert c1 == c2 and rep1 == rep2 and rep1[1]
        assert np.abs(loc1 - loc2).max() <= 1e-12
