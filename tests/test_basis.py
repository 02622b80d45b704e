"""One basis type: a Basis is a sequence of Func1D members with one
matrix(ts) callable, and restricted monomials evaluate the curve once per
node array."""

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
    assert log == [2048, 4, 4, 4, 4]


def test_theorem4_check_call_log():
    c, log = _logged(cz.moment_curve(3))
    r = cz.theorem4_check(c, trials=1)
    assert r.agree and r.convexity.convex
    # dimension estimate, one grid sample read by both probe loops, two
    # collocation tuples
    assert log == [64, 2048, 4, 4]


def test_theorem4_counterexample_call_log():
    c, log = _logged(cz.sine_graph())
    r = cz.theorem4_check(c, trials=8)
    assert r.convexity.status == cz.COUNTEREXAMPLE
    # the flagged slice is recounted from the probe loop's grid sample, not
    # from a second one; then the Chebyshev probe's collocation tuples
    assert log == [64, 2048] + [3] * 31


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

    def spy(sys, rp, coeffs, grid_n):
        seen.append(np.array(coeffs))
        return verify(sys, rp, coeffs, grid_n)

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
