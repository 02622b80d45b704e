"""The annihilators, the restricted monomials and the piece moments take
running products over short axes; each must give the floats of the
np.prod / np.split expression it replaced, bit for bit."""

import itertools

import numpy as np
import pytest

import chebzeros as cz
from chebzeros import annihilator, funcspace as fs
from chebzeros.curves import monomial_multi_indices, monomial_values
from chebzeros.orthosynth import _step_edges, moments_on_edges


def _poly_reduce(t, rts):
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1)
    return np.prod(flat[:, None] - rts[None, :], axis=1).reshape(t.shape)


def _trig_reduce(t, rts):
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1)
    return np.prod(np.sin(0.5 * (flat[:, None] - rts[None, :])),
                   axis=1).reshape(t.shape)


def _inputs(dom, rng, rts):
    # refinement-style points: unsorted, some at the roots and beside them
    near = np.concatenate([rts, rts + 1e-9, rts - 1e-7])
    pts = np.concatenate([rng.uniform(dom.a, dom.b, 37), near])
    rng.shuffle(pts)
    return [np.float64(pts[0]), np.asarray(pts[1]), pts,
            pts[:36].reshape(6, 6), pts[:40].reshape(4, 10),
            dom.grid(fs.DEFAULT_GRID_N)]


@pytest.mark.parametrize("k", range(1, 11))
def test_poly_annihilator_is_the_reduction(k):
    dom = fs.interval(-1.3, 2.1)
    rng = np.random.default_rng([23, k])
    rts = np.sort(rng.uniform(dom.a + 0.01, dom.b - 0.01, k))
    f = cz.poly_annihilator(rts, dom)
    for t in _inputs(dom, rng, rts):
        got = f(t)
        assert got.shape == np.shape(t)
        assert np.array_equal(got, _poly_reduce(t, rts))


@pytest.mark.parametrize("k", range(2, 11, 2))
def test_trig_annihilator_is_the_reduction(k):
    dom = fs.circle()
    rng = np.random.default_rng([29, k])
    rts = np.sort(rng.uniform(0.01, fs.TWO_PI - 0.01, k))
    f = cz.trig_annihilator(rts)
    for t in _inputs(dom, rng, rts) + [np.array([-7.0, 9.5, 40.0])]:
        got = f(t)
        assert got.shape == np.shape(t)
        assert np.array_equal(got, _trig_reduce(t, rts))


@pytest.mark.parametrize("circle", [False, True])
def test_scan_nodes_are_the_min_distance_screen(circle):
    dom = fs.circle() if circle else fs.interval(-1.0, 1.0)
    ts = dom.grid(annihilator._SCAN_GRID)
    # two roots within the exclusion radius of a node, two away from any;
    # on the circle one sits just below 2pi, next to the node at 0
    near = ts[[700, 2900]] + 5e-5 if not circle else [ts[700] + 5e-5, fs.TWO_PI - 5e-5]
    rp = cz.RootPrescription((near[0], ts[1500] + 7e-4), (ts[2000] + 7e-4, near[1]))
    allr = np.asarray(rp.simple_roots + rp.double_roots)
    diff = ts[:, None] - allr[None, :]
    if circle:
        diff = (diff + np.pi) % fs.TWO_PI - np.pi
    want = ts[np.min(np.abs(diff), axis=1) > annihilator._SCAN_RADIUS]
    got = annihilator._scan_nodes(dom, rp)
    assert want.size == ts.size - 2
    assert np.array_equal(got, want)
    assert np.array_equal(annihilator._scan_nodes(dom, cz.RootPrescription()), ts)


def _monomial_reduce(X, alphas):
    X = np.asarray(X, dtype=float)
    A = np.asarray(alphas, dtype=float).reshape(-1, X.shape[1])
    return np.prod(X[:, None, :] ** A[None, :, :], axis=2)


@pytest.mark.parametrize("d", range(1, 5))
@pytest.mark.parametrize("n", range(5))
def test_monomial_values_is_the_reduction(d, n):
    rng = np.random.default_rng([31, d, n])
    special = np.array([0.0, -0.0, 1.0, -1.0, -2.5, 1e-3, -7.0, 3.0])
    X = np.concatenate([rng.normal(scale=3.0, size=(50, d)),
                        special[rng.integers(0, special.size, (30, d))],
                        np.array(list(itertools.product(special, repeat=d)))[:64]])
    alphas = monomial_multi_indices(n, d)
    want = _monomial_reduce(X, alphas)
    for Xo in (X, np.asfortranarray(X)):
        got = monomial_values(Xo, alphas)
        assert got.flags.c_contiguous
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    # an unordered subset of exponents, as polynomial_on_curve passes them
    sub = alphas[::-2]
    assert np.array_equal(monomial_values(X, sub), _monomial_reduce(X, sub))


def test_monomial_values_rejects_non_monomial_exponents():
    X = np.ones((3, 2))
    for bad in ([(1, -1)], [(0.5, 1)]):
        with pytest.raises(ValueError):
            monomial_values(X, bad)


def test_moments_on_edges_unequal_pieces_is_the_split():
    # a short and a long piece get different node counts
    sys = cz.polynomial_system(4)
    dom = sys.dom
    edges = _step_edges(dom, dom.a + dom.span * np.array([0.01, 0.02, 0.5, 0.97]))
    g = fs.Func1D(lambda t: 1.0 + 0.5 * np.sin(3.0 * np.asarray(t)), "g")
    ts, ws, sizes = fs.segment_rules(dom, edges[:-1], edges[1:])
    assert len(set(sizes.tolist())) > 1
    cuts = np.cumsum(sizes)[:-1]
    parts = zip(np.split(ws * fs.sample(g, ts), cuts),
                np.split(fs.basis_matrix(sys.basis, ts), cuts))
    want = np.array([wg @ Bp for wg, Bp in parts], dtype=float).T
    assert np.array_equal(moments_on_edges(sys.basis, g, dom, edges), want)
