import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import chebzeros as cz
from chebzeros import funcspace as fs


def test_interval_domain_basics():
    dom = fs.interval(-1.0, 2.0)
    assert not dom.is_circle
    assert dom.span == 3.0
    assert dom.all_inside([-0.5, 1.9])
    assert not dom.all_inside([-1.0])
    assert not dom.all_inside([2.0])
    with pytest.raises(ValueError):
        fs.interval(1.0, 1.0)


def test_circle_domain_basics():
    dom = fs.circle()
    assert dom.is_circle
    assert dom.span == pytest.approx(fs.TWO_PI)
    assert dom.wrap(fs.TWO_PI + 0.25) == pytest.approx(0.25)
    assert dom.wrap(-0.25) == pytest.approx(fs.TWO_PI - 0.25)
    assert dom.all_inside([0.0, 6.2])
    assert not dom.all_inside([fs.TWO_PI])


def test_grids():
    dom = fs.interval(0.0, 1.0)
    g = dom.grid(4)
    assert np.allclose(g, [0.125, 0.375, 0.625, 0.875])
    c = fs.circle().grid(8)
    assert np.allclose(c, np.arange(8) * fs.TWO_PI / 8)
    with pytest.raises(ValueError):
        dom.grid(1)


def test_derived_rng_deterministic_and_distinct():
    a = fs.derived_rng(3, 1, 2).standard_normal(4)
    b = fs.derived_rng(3, 1, 2).standard_normal(4)
    c = fs.derived_rng(3, 1, 3).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 1, 1729, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1,
                                  2 ** 63, -1])
@pytest.mark.parametrize("keys", [(2,), (1,), (0,), ()])
def test_trial_seeds_reproduce_default_rng(seed, keys):
    # one or two seed words, and the wrap of 2**63 and -1 modulo 2**63
    seeds = fs._trial_seeds(seed, 301, *keys)
    assert seeds.shape == (301, 4)
    g = np.random.Generator(np.random.PCG64(0))
    for t, words in enumerate(seeds.tolist()):
        want = np.random.default_rng([seed % 2 ** 63, t, *keys])
        state = fs._pcg64_state(words)
        assert state == want.bit_generator.state
        g.bit_generator.state = state
        assert g.standard_normal(3).tobytes() == want.standard_normal(3).tobytes()
        assert g.integers(2 ** 62) == want.integers(2 ** 62)


def test_trial_seeds_reject_material_past_the_pool():
    # a trial key of two words, or five words of seed material in all
    with pytest.raises(ValueError):
        fs._trial_seeds(0, 2 ** 32 + 1, 2)
    with pytest.raises(ValueError):
        fs._trial_seeds(2 ** 32, 3, 2 ** 32 + 5)


@pytest.mark.parametrize("start, stop", [(0, 1), (3, 7), (0, 8), (8, 40), (40, 200)])
def test_trial_streams_reproduce_derived_rng(start, stop):
    # trials start..stop-1 of a stop-trial budget, in probe chunks that
    # build one derived_rng per trial (all of them under a cap of 1 or 2
    # trials), hash one chunk's seed words, or slice the rest of the
    # budget's; all draw derived_rng's streams, again on recall
    assert np.array_equal(fs._trial_seeds(7, stop, 1, start=start),
                          fs._trial_seeds(7, stop, 1)[start:])
    for keys in [(), (1,)]:
        for rows in (9, 2048, 2 ** 17, 2 ** 18):
            for a, b, stream in fs._probe_chunks(7, stop, rows, *keys):
                ts = [t for t in range(a, b) if t >= start]
                for t in ts + ts[:1]:
                    want = fs.derived_rng(7, t, *keys)
                    g = stream(t)
                    assert g.standard_normal(3).tobytes() == \
                        want.standard_normal(3).tobytes()
                    assert g.uniform() == want.uniform()


def _chunk_ranges(trials, rows):
    return [(a, b) for a, b, _ in fs._probe_chunks(0, trials, rows)]


def test_probe_chunk_schedule():
    # 2, 8, 32, 128, ... trials; a remainder shorter than the next chunk
    # joins the chunk before it under the cap (2**18 // rows), never the
    # first chunk
    assert _chunk_ranges(200, 9) == [(0, 2), (2, 10), (10, 42), (42, 200)]
    assert _chunk_ranges(200, 2048) == [(0, 2), (2, 10), (10, 42), (42, 170),
                                        (170, 200)]
    assert _chunk_ranges(50, 2048) == [(0, 2), (2, 10), (10, 50)]
    assert _chunk_ranges(1, 9) == [(0, 1)]
    assert _chunk_ranges(3, 9) == [(0, 2), (2, 3)]
    assert _chunk_ranges(3, 2 ** 18) == [(0, 1), (1, 2), (2, 3)]
    for trials in (1, 2, 5, 11, 42, 43, 171, 1000):
        for rows in (1, 9, 2048, 2 ** 16, 2 ** 19):
            cap = max(1, 2 ** 18 // rows)
            got = _chunk_ranges(trials, rows)
            assert [a for a, _ in got] == [0] + [b for _, b in got[:-1]]
            assert got[-1][1] == trials and got[0][1] <= 2
            assert all(0 < b - a <= cap for a, b in got)


def _reference_grid_counts(rows, cyclic):
    return [fs.count_grid_sign_changes(r, cyclic) for r in rows]


@pytest.mark.parametrize("cyclic", [False, True])
def test_grid_counts_edge_rows(cyclic):
    rows = np.array([
        [0.0, 0.0, 1.0, -1.0, 0.0, 2.0, 0.0, 0.0],      # dropped runs at both ends
        [0.0] * 8,                                      # all dropped
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1e-12, -1.0, 1e-12, 1e-12, 1.0, -1e-12, 1.0, -1.0],  # near-zero runs
        [1.0, np.nan, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0],  # NaN row counts 0
        [-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0],
        [0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],      # one run, kept ends
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -3.0],      # one kept sample
        [np.inf, 1.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
    ])
    got = fs._grid_counts(rows, cyclic)
    assert got.tolist() == _reference_grid_counts(rows, cyclic)
    assert fs._grid_counts(rows[:, :1], cyclic).tolist() == \
        _reference_grid_counts(rows[:, :1], cyclic)
    assert fs._grid_counts(np.empty((0, 8)), cyclic).tolist() == []


_COUNT_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 1.0, -1.0]),
                          st.floats(-1e6, 1e6, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.lists(
           st.one_of(st.lists(_COUNT_VALUES, min_size=n, max_size=n),
                     st.just([0.0] * n), st.just([np.nan] * n),
                     st.lists(st.sampled_from([0.0, 1.0, -1.0, np.nan]),
                              min_size=n, max_size=n)),
           min_size=1, max_size=6)),
       st.booleans())
def test_grid_counts_match_one_row_at_a_time(rows, cyclic):
    rows = np.array(rows, dtype=float)
    assert fs._grid_counts(rows, cyclic).tolist() == _reference_grid_counts(rows, cyclic)


def test_sample_scalar_fallback():
    import math
    f = fs.Func1D(lambda t: math.sin(t))  # scalar-only callable
    ts = np.array([0.0, 0.5, 1.0])
    assert np.allclose(fs.sample(f, ts), np.sin(ts))


def test_sample_propagates_user_errors():
    calls = []

    def ev(t):
        calls.append(t)
        raise IndexError("bug in user code")

    with pytest.raises(IndexError):
        fs.sample(fs.Func1D(ev), np.linspace(0.0, 1.0, 64))
    assert len(calls) == 1  # no point-by-point retry


def test_sample_rejects_nonfinite():
    def ev(t):
        with np.errstate(divide="ignore"):
            return 1.0 / np.asarray(t)

    with pytest.raises(ValueError):
        fs.sample(fs.Func1D(ev), np.array([0.0, 1.0]))


def test_gauss_exact_on_polynomials():
    dom = fs.interval(-1.0, 2.0)
    for k in range(0, 13):
        f = fs.Func1D(lambda t, k=k: np.asarray(t, float) ** k)
        exact = (2.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert abs(fs.integrate(f, dom) - exact) <= 1e-12 * max(1.0, abs(exact))


def test_trapezoid_exact_on_trig():
    dom = fs.circle()
    f = fs.Func1D(lambda t: 2.0 + np.cos(3 * t) - 0.5 * np.sin(7 * t))
    assert abs(fs.integrate(f, dom) - 2.0 * fs.TWO_PI) <= 1e-12
    g = fs.Func1D(lambda t: np.cos(2 * t) * np.cos(2 * t))
    assert abs(fs.integrate(g, dom) - np.pi) <= 1e-12


def test_integrate_with_breaks_beats_plain_rule_on_kinks():
    dom = fs.interval(-1.0, 1.0)
    f = fs.Func1D(lambda t: np.abs(t))
    with_break = fs.integrate_with_breaks(f, dom, [0.0])
    assert abs(with_break - 1.0) <= 1e-13


def test_integrate_with_breaks_circle():
    dom = fs.circle()
    f = fs.Func1D(lambda t: np.sin(dom.wrap(t) / 2.0))  # kink at the wrap
    got = fs.integrate_with_breaks(f, dom, [0.0, 3.0])
    assert abs(got - 4.0) <= 1e-12


def test_basis_matrix_matches_column_stack():
    ts = np.linspace(-0.9, 0.8, 37)
    funcs = [fs.constant(2.0), fs.Func1D(np.sin),
             fs.Func1D(lambda t: float(t) ** 3)]  # scalar-only fallback
    M = fs.basis_matrix(funcs, ts)
    assert M.shape == (37, 3)
    assert np.array_equal(M, np.column_stack([fs.sample(f, ts) for f in funcs]))
    assert fs.basis_matrix([], ts).shape == (37, 0)


def test_combination_keeps_the_shape_of_t():
    funcs = [fs.constant(1.0), fs.Func1D(np.cos)]
    combo = fs.combination(funcs, [0.5, -2.0])
    t0 = np.float64(0.3)
    got0 = combo(t0)
    assert np.shape(got0) == ()
    assert got0 == pytest.approx(0.5 - 2.0 * np.cos(0.3), abs=1e-15)
    t2 = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    got2 = combo(t2)
    assert got2.shape == (3, 4)
    assert np.allclose(got2, 0.5 - 2.0 * np.cos(t2), atol=1e-15)


def test_count_grid_sign_changes_matches_count_sign_changes():
    for dom, f in [(fs.interval(-1.0, 1.0),
                    fs.Func1D(lambda t: (t - 0.3) * (t + 0.5) * t)),
                   (fs.circle(), fs.Func1D(lambda t: np.sin(3.0 * t) + 0.2))]:
        vals = fs.sample(f, dom.grid(fs.DEFAULT_GRID_N))
        got = fs.count_grid_sign_changes(vals, dom.is_circle)
        assert got == fs.count_sign_changes(f, dom).count
    assert fs.count_grid_sign_changes(np.zeros(8), cyclic=True) == 0


def test_inner_product_weighted():
    dom = fs.interval(0.0, 1.0)
    f = fs.Func1D(lambda t: np.asarray(t, float))
    g = fs.Func1D(lambda t: np.ones_like(np.asarray(t, float)))
    rho = fs.Func1D(lambda t: 3.0 * np.asarray(t, float) ** 2)
    assert fs.inner_product(f, g, rho, dom) == pytest.approx(0.75, abs=1e-13)
    assert fs.inner_product(f, g, None, dom) == pytest.approx(0.5, abs=1e-13)


def test_count_sign_changes_polynomial_oracle():
    dom = fs.interval(-1.0, 1.0)
    roots = np.array([-0.6, -0.1, 0.4, 0.8])
    f = fs.Func1D(lambda t: np.prod([np.asarray(t, float) - r for r in roots],
                                    axis=0))
    rep = fs.count_sign_changes(f, dom)
    assert rep.count == 4
    assert not rep.degenerate
    assert np.max(np.abs(np.sort(rep.locations) - roots)) <= 1e-9


def test_count_sign_changes_ignores_outside_roots():
    dom = fs.interval(-1.0, 1.0)
    f = fs.Func1D(lambda t: np.asarray(t, float) - 1.5)
    rep = fs.count_sign_changes(f, dom)
    assert rep.count == 0


def test_count_sign_changes_touch_is_not_a_change():
    dom = fs.interval(-1.0, 1.0)
    f = fs.Func1D(lambda t: (np.asarray(t, float) - 0.3) ** 2)
    rep = fs.count_sign_changes(f, dom)
    assert rep.count == 0


def test_count_sign_changes_degenerate_zero():
    dom = fs.interval(-1.0, 1.0)
    f = fs.Func1D(lambda t: np.zeros_like(np.asarray(t, float)))
    rep = fs.count_sign_changes(f, dom)
    assert rep.degenerate


def test_count_sign_changes_circle_even():
    dom = fs.circle()
    rep = fs.count_sign_changes(fs.Func1D(lambda t: np.sin(3 * t)), dom)
    assert rep.count == 6
    locs = np.sort(rep.locations)
    assert np.max(np.abs(locs - np.arange(6) * np.pi / 3)) <= 1e-9


def test_count_sign_changes_circle_wrap_transition():
    # single pair of zeros placed so one transition spans the wrap
    dom = fs.circle()
    f = fs.Func1D(lambda t: np.cos(t + 0.4))
    rep = fs.count_sign_changes(f, dom)
    assert rep.count == 2


def test_count_extrema_circle():
    dom = fs.circle()
    assert fs.count_extrema(fs.Func1D(np.sin), dom).count == 2
    assert fs.count_extrema(fs.Func1D(lambda t: np.sin(2 * t)), dom).count == 4
    rep = fs.count_extrema(fs.Func1D(lambda t: np.ones_like(t)), dom)
    assert rep.degenerate


def test_count_extrema_interval_counts_endpoints():
    dom = fs.interval(0.0, 1.0)
    rep = fs.count_extrema(fs.Func1D(lambda t: np.asarray(t, float)), dom)
    assert rep.count == 2
    rep = fs.count_extrema(
        fs.Func1D(lambda t: np.sin(3 * np.pi * np.asarray(t, float))), dom)
    assert rep.count == 5  # 3 interior plus both endpoints


def test_count_args_validation():
    dom = fs.interval(-1.0, 1.0)
    f = fs.Func1D(lambda t: np.asarray(t, float))
    with pytest.raises(ValueError):
        fs.count_sign_changes(f, dom, grid_n=8)


def test_quadrature_rule_is_fixed():
    # circle: 1024-node trapezoid; interval: 32 Gauss panels of 16 nodes
    ts, ws = fs.quad_nodes(fs.circle())
    assert ts.size == 1024 and np.all(ws == fs.TWO_PI / 1024)
    assert np.array_equal(ts, np.arange(1024) * (fs.TWO_PI / 1024))
    dom = fs.interval(-1.0, 2.0)
    ts, ws = fs.quad_nodes(dom)
    x16, _ = np.polynomial.legendre.leggauss(16)
    assert ts.size == 512
    assert np.allclose(ts[:16], -1.0 + (3.0 / 64) * (1.0 + x16), rtol=0, atol=1e-15)
    assert ws.sum() == pytest.approx(3.0, abs=1e-13)
    # segments: max(2, ceil(N * len/span / 16)) panels of 16 nodes, with
    # N = 1024 on the circle and 512 on an interval
    for d, lo, hi, panels in [(fs.circle(), 1.0, 1.0 + fs.TWO_PI / 3, 22),
                              (fs.circle(), 6.0, 6.5, 6),
                              (fs.circle(), 0.1, 0.1 + 1e-9, 2),
                              (dom, -1.0, 2.0, 32), (dom, 0.0, 0.5, 6),
                              (dom, 0.0, 1e-6, 2)]:
        ts, ws = fs.segment_rule(d, lo, hi)
        assert ts.size == ws.size == 16 * panels
        assert ws.sum() == pytest.approx(hi - lo, rel=1e-12)
    ts, _ = fs.segment_rule(fs.circle(), 6.0, 6.5)
    assert np.all((ts >= 0.0) & (ts < fs.TWO_PI))  # wrapped past 2pi


def _gauss_rule_reference(dom, lo, hi, panels=None):
    # the per-piece rule: np.linspace panel edges, one segment at a time
    x, w = np.polynomial.legendre.leggauss(fs.PANEL_NODES)
    if panels is None:
        domain_nodes = fs.CIRCLE_NODES if dom.is_circle else fs.GAUSS_PANELS * fs.PANEL_NODES
        frac = max((hi - lo) / dom.span, 1e-12)
        panels = max(2, int(math.ceil(domain_nodes * frac / fs.PANEL_NODES)))
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    ts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    return dom.wrap(ts), (half[:, None] * w[None, :]).ravel()


def _segment_edges(rng, dom):
    q = int(rng.integers(1, 12))
    if dom.is_circle:
        # arcs taken cyclically: the last one wraps past 2pi
        bp = np.sort(rng.uniform(0.0, fs.TWO_PI, q))
        return np.append(bp, bp[0] + fs.TWO_PI)
    bp = np.sort(rng.uniform(dom.a, dom.b, q))
    if q > 1:
        bp[1] = bp[0] + abs(bp[0]) * 1e-14  # a sliver segment
    return np.concatenate([[dom.a], bp, [dom.b]])


@pytest.mark.parametrize("dom", [fs.circle(), fs.interval(-1.0, 2.0),
                                 fs.interval(0.1, 2.0)], ids=str)
def test_segment_rules_match_the_per_piece_rule(dom):
    ts, ws = fs.quad_nodes(dom)
    if not dom.is_circle:
        want = _gauss_rule_reference(dom, dom.a, dom.b, fs.GAUSS_PANELS)
        assert np.array_equal(ts, want[0]) and np.array_equal(ws, want[1])
    for seed in range(40):
        edges = _segment_edges(fs.derived_rng(seed, 7), dom)
        pieces = [_gauss_rule_reference(dom, lo, hi)
                  for lo, hi in zip(edges[:-1], edges[1:])]
        ts, ws, sizes = fs.segment_rules(dom, edges[:-1], edges[1:])
        assert sizes.tolist() == [t.size for t, _ in pieces]
        assert np.array_equal(ts, np.concatenate([t for t, _ in pieces]))
        assert np.array_equal(ws, np.concatenate([w for _, w in pieces]))
        one = fs.segment_rule(dom, edges[-2], edges[-1])
        assert np.array_equal(one[0], pieces[-1][0])
        assert np.array_equal(one[1], pieces[-1][1])


@st.composite
def _root_lists(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    base = draw(st.lists(st.floats(-0.85, 0.85), min_size=n, max_size=n))
    roots = np.sort(np.asarray(base, dtype=float))
    if roots.size > 1 and np.min(np.diff(roots)) < 0.05:
        roots = np.linspace(-0.6, 0.6, roots.size)
    return roots


@settings(max_examples=40, deadline=None)
@given(_root_lists(), st.floats(0.1, 8.0), st.booleans())
def test_count_invariant_under_scaling_and_negation(roots, scale, flip):
    dom = fs.interval(-1.0, 1.0)
    c = -scale if flip else scale

    def ev(t, roots=roots, c=c):
        return c * np.prod([np.asarray(t, float) - r for r in roots], axis=0)

    rep = fs.count_sign_changes(fs.Func1D(ev), dom)
    assert rep.count == len(roots)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10 ** 6))
def test_circle_counts_always_even(k, seed):
    # transversal-zero trig functions on the circle change sign an even
    # number of times
    rng = fs.derived_rng(seed, 99)
    pts = np.sort(rng.uniform(0.0, fs.TWO_PI, size=2 * k))
    if np.min(np.diff(pts)) < 0.05 or pts[0] + fs.TWO_PI - pts[-1] < 0.05:
        pts = np.arange(2 * k) * fs.TWO_PI / (2 * k) + 0.1
    prod = fs.Func1D(lambda t, pts=pts: np.prod(
        [np.sin((np.asarray(t, float) - x) / 2.0) for x in pts], axis=0))
    rep = fs.count_sign_changes(prod, fs.circle())
    assert rep.count % 2 == 0
    assert rep.count == 2 * k


# ---------------------------------------------------------------------------
# lazy root refinement


class _Counted:
    """Array function that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return self.fn(np.asarray(t, float))


def _reference_bisect(fvals, los, his, slos):
    # the fixed 60-step bisection that refined locations must reproduce
    los, his = los.copy(), his.copy()
    for _ in range(60):
        mids = 0.5 * (los + his)
        same = np.sign(fvals(mids)) == slos
        los = np.where(same, mids, los)
        his = np.where(same, his, mids)
    return 0.5 * (los + his)


def _brackets(dom, ts, vals):
    # consecutive samples of opposite sign, with the sign at lo and the
    # values at both ends; the inputs below have no sample near zero, so no
    # tolerance collapse is involved
    s = np.sign(vals)
    ii = np.nonzero(s[:-1] != s[1:])[0]
    jj = ii + 1
    los, his = ts[ii], ts[jj]
    if dom.is_circle and s[-1] != s[0]:
        ii, jj = np.append(ii, ts.size - 1), np.append(jj, 0)
        los, his = np.append(los, ts[-1]), np.append(his, ts[0] + fs.TWO_PI)
    return los, his, s[ii], vals[ii], vals[jj]


def _grid_brackets(fn, dom, n):
    ts = dom.grid(n)
    return _brackets(dom, ts, fn(ts))


def _extrema_brackets(fn, dom, n):
    # the central-difference derivative and its brackets, as count_extrema
    # builds them
    ts = dom.grid(n)
    vals = fn(ts)
    h = dom.span / n
    if dom.is_circle:
        dts, dv = ts, (np.roll(vals, -1) - np.roll(vals, 1)) / (2.0 * h)
    else:
        dts, dv = ts[1:-1], (vals[2:] - vals[:-2]) / (2.0 * h)

    def dfun(m):
        return (fn(dom.wrap(m + h)) - fn(dom.wrap(m - h))) / (2.0 * h)

    return dfun, dts, dv


def _reference_roots(fvals, dom, ts, vals):
    los, his, slos, _, _ = _brackets(dom, ts, vals)
    return np.sort(dom.wrap(_reference_bisect(fvals, los, his, slos)))


# the worst case of f calls in one refinement: 60 halvings, 5 per call
_ROUNDS = math.ceil(60 / fs._MULTISECT_DEPTH)
_H_CIRCLE = fs.TWO_PI / fs.DEFAULT_GRID_N
_LAZY_CASES = [
    (fs.interval(-1.0, 1.0),
     lambda t: (t + 0.6) * (t + 0.1) * (t - 0.4) * (t - 0.8) * (t + 2.0)),
    # one root in the last grid cell, so a transition spans the wrap
    (fs.circle(), lambda t: np.sin(2.0 * t + _H_CIRCLE) + 0.3 * np.cos(5.0 * t)),
]


@pytest.mark.parametrize("dom, fn", _LAZY_CASES)
def test_count_sign_changes_refines_on_first_read(dom, fn):
    f = _Counted(fn)
    rep = fs.count_sign_changes(fs.Func1D(f), dom)
    assert rep.count > 0
    assert f.calls == 1  # the grid pass only

    locs = rep.locations
    refine_calls = f.calls - 1
    # one call per round, stopped at float resolution
    assert 0 < refine_calls <= _ROUNDS
    assert rep.locations is locs
    assert f.calls == 1 + refine_calls

    ts = dom.grid(fs.DEFAULT_GRID_N)
    want = _reference_roots(lambda m: fn(dom.wrap(m)), dom, ts, fn(ts))
    assert locs.size == rep.count
    assert locs.tobytes() == want.tobytes()


@pytest.mark.parametrize("dom, fn", _LAZY_CASES)
def test_count_extrema_refines_on_first_read(dom, fn):
    f = _Counted(fn)
    rep = fs.count_extrema(fs.Func1D(f), dom)
    assert f.calls == 1

    locs = rep.locations
    refine_calls = f.calls - 1
    assert 0 < refine_calls <= 2 * _ROUNDS  # two evaluations per central difference
    assert rep.locations is locs
    assert f.calls == 1 + refine_calls

    dfun, dts, dv = _extrema_brackets(fn, dom, fs.DEFAULT_GRID_N)
    want = _reference_roots(dfun, dom, dts, dv)
    if not dom.is_circle:
        want = np.concatenate([[dom.a], want, [dom.b]])
    assert locs.size == rep.count
    assert locs.tobytes() == want.tobytes()


def _multisection_cases():
    """(name, f, los, his, slos, vlos, vhis): bracket sets of one sign
    change each, with f's values at the bracket ends."""
    one = np.array([1.0])
    h = 2.0 / 64
    cases = [
        # the grid cell centered on an exact root at 0 never reaches float
        # resolution: 60 halvings
        ("root at 0", lambda t: t, np.array([-h / 2]), np.array([h / 2]), -one),
        # the first midpoint is the root itself, where f is exactly 0
        ("dyadic zero", lambda t: t - 0.25, np.array([0.0]), np.array([0.5]), -one),
        # three roots in one cell: the signs of a round are not monotone
        ("three roots", lambda t: (t - 0.1) * (t - 0.11) * (t - 0.13),
         np.array([0.09]), np.array([0.14]), -one),
        # a cubic expanded in powers rounds to noise of either sign near 0.3
        ("noisy root", lambda t: ((t - 0.9) * t + 0.27) * t - 0.027,
         np.array([0.2]), np.array([0.4]), -one),
        ("converged", lambda t: t - 0.5, np.array([0.5]),
         np.array([np.nextafter(0.5, 1.0)]), one),
        ("converged and not", lambda t: t - 0.5, np.array([0.5, 0.25]),
         np.array([np.nextafter(0.5, 1.0), 0.75]), np.array([1.0, -1.0])),
    ]
    cases = [(name, fn, los, his, slos, fn(los), fn(his))
             for name, fn, los, his, slos in cases]
    # closing pair of a circle: a root in the last grid cell, bracket past 2pi
    circ = fs.circle()
    line = fs.interval(-1.0, 1.0)
    wrap = lambda t: np.sin(2.0 * np.mod(t, fs.TWO_PI) + _H_CIRCLE)
    cases.append(("cyclic closing pair", wrap, *_grid_brackets(wrap, circ, 2048)))
    smooth = []
    for seed in range(60):
        rng = fs.derived_rng(seed, 5)
        roots = np.sort(rng.uniform(-0.95, 0.95, int(rng.integers(1, 7))))
        c = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        poly = lambda t, roots=roots, c=c: c * np.prod(
            [t - r for r in roots], axis=0)
        cases.append((f"poly {seed}", poly, *_grid_brackets(poly, line, 64)))
        pts = rng.uniform(0.0, fs.TWO_PI, 2 * int(rng.integers(1, 4)))
        trig = lambda t, pts=pts: np.prod(
            [np.sin((np.mod(t, fs.TWO_PI) - x) / 2.0) for x in pts], axis=0)
        cases.append((f"trig {seed}", trig, *_grid_brackets(trig, circ, 128)))
        smooth.append((poly, trig))
    # synthesis's F: an annihilator times a positive step that jumps at its
    # roots, so F has a kink at every root; and central-difference
    # derivatives, as count_extrema refines them
    for seed in range(12):
        rng = fs.derived_rng(seed, 6)
        for dom, q in [(line, int(rng.integers(1, 7))),
                       (circ, 2 * int(rng.integers(1, 4)))]:
            pts = np.sort(rng.uniform(dom.a, dom.b, q))
            heights = rng.uniform(0.2, 3.0, q if dom.is_circle else q + 1)
            step = cz.StepWeight(pts, heights, dom).as_func()
            kinked = fs.product(cz.default_annihilator(pts, dom), step)
            cases.append((f"kinked {dom.kind} {seed}", kinked,
                          *_grid_brackets(kinked, dom, fs.DEFAULT_GRID_N)))
            dfun, dts, dv = _extrema_brackets(kinked, dom, fs.DEFAULT_GRID_N)
            cases.append((f"kinked extrema {dom.kind} {seed}", dfun,
                          *_brackets(dom, dts, dv)))
    for seed, (poly, trig) in enumerate(smooth[:12]):
        dfun, dts, dv = _extrema_brackets(poly, line, 64)
        cases.append((f"poly extrema {seed}", dfun, *_brackets(line, dts, dv)))
        dfun, dts, dv = _extrema_brackets(trig, circ, 128)
        cases.append((f"trig extrema {seed}", dfun, *_brackets(circ, dts, dv)))
    return cases


_MULTISECTION_CASES = _multisection_cases()


@pytest.mark.parametrize("name, fn, los, his, slos, vlos, vhis", _MULTISECTION_CASES,
                         ids=[c[0] for c in _MULTISECTION_CASES])
def test_multisection_matches_bisection(name, fn, los, his, slos, vlos, vhis):
    f = _Counted(fn)
    got = fs._bisect_roots(f, los, his, vlos, vhis)
    want = _reference_bisect(fn, los, his, slos)
    assert got.tobytes() == want.tobytes()
    assert f.calls <= _ROUNDS
    if name == "root at 0":
        # regula falsi is exact on a line: all 60 halvings in one call
        assert f.calls == 1
    if name == "converged":
        assert f.calls == 0


@pytest.mark.parametrize("guess", ["lo", "hi", "nan"])
def test_refinement_survives_any_guess(monkeypatch, guess):
    # the guess decides only which bisection midpoints one call tests: a
    # guess pinned to an end of the bracket or not a number at all still
    # gives bisection's floats, within the worst case of calls
    pick = {"lo": lambda lo, *rest: lo, "hi": lambda *args: args[4],
            "nan": lambda *args: math.nan}[guess]
    monkeypatch.setattr(fs, "_guess", pick)
    calls = {}
    for name, fn, los, his, slos, vlos, vhis in _MULTISECTION_CASES:
        f = _Counted(fn)
        got = fs._bisect_roots(f, los, his, vlos, vhis)
        assert got.tobytes() == _reference_bisect(fn, los, his, slos).tobytes(), name
        calls[name] = f.calls
    assert 0 < max(calls.values()) <= _ROUNDS
    if guess == "lo":
        # walking away from the root at 0 leaves about one halving per call until
        # multisection trees take over: the 60-halving cap in exactly 12
        assert calls["root at 0"] == _ROUNDS


def test_guesses_halve_the_corpus_calls():
    # one 31-point multisection round per 5 halvings took 1282 calls on the
    # cases up to the seeded poly and trig brackets, and 223 on the kinked
    # sign changes; secant-guided walks take under half of each (a
    # fallback to plain multisection would not, nor would regula falsi
    # across the kinks, which took 229)
    smooth = kinked = 0
    for name, fn, los, his, _, vlos, vhis in _MULTISECTION_CASES:
        if "extrema" in name:
            continue
        f = _Counted(fn)
        fs._bisect_roots(f, los, his, vlos, vhis)
        if name.startswith("kinked"):
            kinked += f.calls
        else:
            smooth += f.calls
    assert smooth <= 1282 // 2
    assert kinked <= 223 // 2


@pytest.mark.parametrize("simple, double", [(1.5547091758634948, 0.7682624233497739),
                                            (1.3472121826813697, 0.7202641770831537)])
def test_multisection_on_a_blas_combination(simple, double):
    # an annihilator's combination is a matrix-vector product whose
    # rounding can depend on the batch size; these two prescriptions have
    # moved a root off the one-halving-per-call result by a few 1e-15
    sys = cz.power_system([0.5, 1.5, 2.5], fs.interval(0.5, 2.0))
    rp = cz.RootPrescription(simple_roots=(simple,), double_roots=(double,))
    f = fs.combination(sys.basis, cz.general_annihilator(sys, rp))
    dom = sys.dom
    rep = fs.count_sign_changes(f, dom)
    los, his, slos, _, _ = _grid_brackets(f, dom, fs.DEFAULT_GRID_N)
    want = np.sort(_reference_bisect(f, los, his, slos))
    assert rep.count == want.size == 1
    assert np.max(np.abs(rep.locations - want)) <= 1e-13


def test_count_only_never_evaluates_off_grid():
    dom = fs.interval(0.0, 1.0)
    grid = dom.grid(fs.DEFAULT_GRID_N)

    def ev(t):
        t = np.asarray(t, float)
        return np.where(np.isin(t, grid), t - 0.3, np.nan)

    rep = fs.count_sign_changes(fs.Func1D(ev), dom)
    assert rep.count == 1
    with pytest.raises(ValueError):
        rep.locations


# ---------------------------------------------------------------------------
# exact-root oracle: companion-matrix roots of polynomials, and the roots
# on |z| = 1 of the degree-2k polynomial z^k f(t), z = e^{it}, of trig
# polynomials (Boyd 2006)


def _assert_matches_exact(rep, roots, dom, f_prime, scale):
    """Count and locations of rep against exact roots; inputs whose roots
    are not simple and well separated are discarded."""
    h = dom.span / fs.DEFAULT_GRID_N
    roots = np.sort(roots)
    if dom.is_circle:
        gaps = np.diff(np.append(roots, roots[:1] + fs.TWO_PI))
    else:
        gaps = np.diff(np.concatenate([[dom.a], roots, [dom.b]]))
    assume(roots.size == 0 or np.min(gaps) >= 4.0 * h)
    # root error of a double-precision evaluation, relative to the slope
    assume(np.all(np.finfo(float).eps * scale <= 1e-12 * np.abs(f_prime(roots))))
    assert rep.count == roots.size
    dist = np.abs(rep.locations[:, None] - roots[None, :])
    if dom.is_circle:
        dist = np.minimum(dist, fs.TWO_PI - dist)
    assert roots.size == 0 or np.max(np.min(dist, axis=0)) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=7),
       st.floats(0.1, 1.0))
def test_count_matches_companion_matrix_roots(lower, lead):
    c = np.append(np.asarray(lower, float), lead)
    P = np.polynomial.polynomial
    dom = fs.interval(-1.0, 1.0)
    z = P.polyroots(c)
    real = z.real[np.abs(z.imag) <= 1e-9]
    h = dom.span / fs.DEFAULT_GRID_N
    # a real root just outside the domain would sit within 4 cells of an end
    assume(not np.any((real > dom.a - 4 * h) & (real < dom.a + 4 * h)))
    assume(not np.any((real > dom.b - 4 * h) & (real < dom.b + 4 * h)))
    inside = real[(real > dom.a) & (real < dom.b)]
    rep = fs.count_sign_changes(fs.Func1D(lambda t: P.polyval(t, c)), dom)
    _assert_matches_exact(rep, inside, dom, lambda r: P.polyval(r, P.polyder(c)),
                          float(np.sum(np.abs(c))))


_unit = st.floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(_unit, st.lists(st.tuples(_unit, _unit), max_size=3),
       st.floats(0.1, 1.0), st.floats(0.0, fs.TWO_PI))
def test_count_matches_trig_roots_on_unit_circle(a0, harmonics, amp, phase):
    # f = a0 + sum_j a_j cos(jt) + b_j sin(jt); the top harmonic k has
    # amplitude amp, so z^k f below has degree exactly 2k
    harmonics = harmonics + [(amp * np.cos(phase), amp * np.sin(phase))]
    k = len(harmonics)
    a = np.array([a0] + [ab[0] for ab in harmonics])
    b = np.array([0.0] + [ab[1] for ab in harmonics])
    j = np.arange(k + 1)

    def f(t):
        jt = np.multiply.outer(np.asarray(t, float), j)
        return np.cos(jt) @ a + np.sin(jt) @ b

    def f_prime(t):
        jt = np.multiply.outer(np.asarray(t, float), j)
        return (np.cos(jt) * j) @ b - (np.sin(jt) * j) @ a

    # z^k f = a0 z^k + sum_j (a_j - i b_j)/2 z^(k+j) + (a_j + i b_j)/2 z^(k-j)
    poly = np.zeros(2 * k + 1, complex)
    poly[k] = a0
    poly[k + 1:] = 0.5 * (a[1:] - 1j * b[1:])
    poly[k - 1::-1] = 0.5 * (a[1:] + 1j * b[1:])
    z = np.polynomial.polynomial.polyroots(poly)
    roots = np.mod(np.angle(z[np.abs(np.abs(z) - 1.0) <= 1e-9]), fs.TWO_PI)
    dom = fs.circle()
    rep = fs.count_sign_changes(fs.Func1D(f), dom)
    _assert_matches_exact(rep, roots, dom, f_prime,
                          float(np.sum(np.abs(a)) + np.sum(np.abs(b))))


_EXTREMA_CASES = [
    (fs.circle(), lambda t: np.sin(2.0 * t) + 0.3 * np.cos(5.0 * t)),
    (fs.interval(-1.0, 1.0), lambda t: (t + 0.6) * (t - 0.1) * (t - 0.7)),
    (fs.interval(0.0, 1.0), lambda t: np.full_like(t, 2.5)),  # degenerate
    (fs.interval(0.0, 1.0), lambda t: np.exp(t)),  # monotone
]


@pytest.mark.parametrize("dom, fn", _EXTREMA_CASES)
def test_grid_extrema_report_matches_count_extrema(dom, fn):
    f = fs.Func1D(fn)
    ts = dom.grid(fs.DEFAULT_GRID_N)
    rep = fs.grid_extrema_report(f, dom, ts, fn(ts))
    want = fs.count_extrema(f, dom)
    assert (rep.count, rep.degenerate) == (want.count, want.degenerate)
    assert rep.locations.tobytes() == want.locations.tobytes()


def test_grid_extrema_report_monotone_interval():
    dom = fs.interval(0.0, 1.0)
    ts = dom.grid(fs.DEFAULT_GRID_N)
    rep = fs.grid_extrema_report(fs.Func1D(np.exp), dom, ts, np.exp(ts))
    assert rep.count == 2 and not rep.degenerate
    assert rep.locations.tolist() == [0.0, 1.0]
