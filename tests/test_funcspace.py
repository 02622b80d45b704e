import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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


def test_import_leaves_numpy_random_unloaded():
    # a fresh `import chebzeros` loads numpy.random only if importing numpy
    # itself does (NumPy 1.x); NumPy 2.x loads it at the first draw
    import os
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(cz.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
            "import chebzeros; print(before, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out[1] == out[0]


@pytest.mark.parametrize("start, stop", [(0, 1), (3, 7), (0, 8), (8, 40), (40, 200)])
def test_trial_streams_reproduce_derived_rng(start, stop):
    # trials start..stop-1 of a stop-trial budget, in probe chunks of any
    # length (all of them under a cap of 1 or 2 trials) draw derived_rng's
    # streams
    for keys in [(), (1,)]:
        for rows in (9, 64, 2048, 2 ** 17, 2 ** 18):
            for a, b, gens in fs._probe_chunks(7, stop, rows, *keys):
                gens = list(gens)
                assert len(gens) == b - a
                for t, g in zip(range(a, b), gens):
                    if t < start:
                        continue
                    want = fs.derived_rng(7, t, *keys)
                    assert g.standard_normal(3).tobytes() == \
                        want.standard_normal(3).tobytes()
                    assert g.uniform() == want.uniform()


@pytest.mark.parametrize("material", [(0,), (7, 3), (7, 3, 1), (0, 0, 2), (-1, 5),
                                      (2 ** 32 - 1, 2 ** 32), (2 ** 63 - 1, 2 ** 63),
                                      (2 ** 64 + 5, -(2 ** 40)), (np.int64(9), True)])
def test_derived_rng_is_default_rng_of_the_material(material):
    # the uint32 words handed to SeedSequence are the ones it would make
    # of the list of values mod 2**63
    want = np.random.default_rng([int(v) % 2 ** 63 for v in material])
    got = fs.derived_rng(*material)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.standard_normal(5).tobytes() == want.standard_normal(5).tobytes()


def _chunk_ranges(trials, rows):
    # the schedule, which _probe_chunks yields as it is
    got = list(fs._chunk_bounds(trials, rows))
    assert [(a, b) for a, b, _ in fs._probe_chunks(0, trials, rows)] == got
    return got


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


def test_seed_hash_memory_is_bounded():
    # hashing a whole 10**6-trial budget at once peaked near 138 MiB
    import tracemalloc
    tracemalloc.start()
    try:
        for _ in fs._probe_chunks(0, 10 ** 6, 10, 2):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def _reference_grid_counts(rows, cyclic):
    """The counting rule in plain Python, row by row: drop |v| <= 1e-9
    max|v|, count strict sign changes of the survivors, plus the wrap pair
    when cyclic; a row with no survivor or with a NaN counts 0."""
    counts = []
    for row in np.asarray(rows, dtype=float).tolist():
        if any(math.isnan(v) for v in row):
            counts.append(0)
            continue
        vmax = max((abs(v) for v in row), default=0.0)
        signs = [v > 0 for v in row if abs(v) > 1e-9 * vmax]
        pairs = list(zip(signs, signs[1:]))
        if cyclic and signs:
            pairs.append((signs[-1], signs[0]))
        counts.append(sum(a != b for a, b in pairs))
    return counts


_COUNT_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 1.0, -1.0]),
                          st.floats(-1e6, 1e6, allow_nan=False))


_EDGE_ROWS = np.array([
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


_COUNT_ROWS = st.integers(1, 30).flatmap(lambda n: st.lists(
    st.one_of(st.lists(_COUNT_VALUES, min_size=n, max_size=n),
              st.just([0.0] * n), st.just([np.nan] * n),
              st.lists(st.sampled_from([0.0, 1.0, -1.0, np.nan]),
                       min_size=n, max_size=n)),
    min_size=1, max_size=6))


def _assert_screen_matches(rows, cyclic):
    # raw flips of vals > 0, row by row, never undercount; the screen's
    # count passes each bound exactly where the exact count does, and then
    # equals it
    exact = _reference_grid_counts(rows, cyclic)
    for row, want in zip(rows, exact):
        s = (row > 0).tolist()
        pairs = list(zip(s, s[1:])) + ([(s[-1], s[0])] if cyclic else [])
        assert sum(a != b for a, b in pairs) >= want
    for bound in range(7):
        got = fs._counts_over(rows, cyclic, bound).tolist()
        assert [c > bound for c in got] == [c > bound for c in exact]
        assert [c for c in got if c > bound] == [c for c in exact if c > bound]


@settings(max_examples=200, deadline=None)
@given(_COUNT_ROWS, st.booleans())
def test_counts_over_match_grid_counts_past_every_bound(rows, cyclic):
    _assert_screen_matches(np.array(rows, dtype=float), cyclic)


@pytest.mark.parametrize("cyclic", [False, True])
def test_counts_over_edge_rows(cyclic):
    _assert_screen_matches(_EDGE_ROWS, cyclic)
    _assert_screen_matches(_EDGE_ROWS[:, :1], cyclic)
    assert fs._counts_over(np.empty((0, 8)), cyclic, 0).tolist() == []


@settings(max_examples=200, deadline=None)
@given(_COUNT_ROWS, st.booleans())
@example(_EDGE_ROWS.tolist(), False)
@example(_EDGE_ROWS.tolist(), True)
@example(_EDGE_ROWS[:, :1].tolist(), True)
@example([[1.0, -1e-9, 1.0, -2e-9]], False)  # at the drop threshold and past it
def test_count_grid_sign_changes_matches_the_plain_rule(rows, cyclic):
    rows = np.array(rows, dtype=float)
    got = [fs.count_grid_sign_changes(r, cyclic) for r in rows]
    assert got == _reference_grid_counts(rows, cyclic)


def _reference_transitions(row, cyclic):
    """(ii, jj, degenerate) of the counting rule in plain Python: the
    consecutive survivors of opposite sign, the last and first when
    cyclic; a row with no survivor or with a NaN is degenerate."""
    if any(math.isnan(v) for v in row):
        return [], [], True
    vmax = max((abs(v) for v in row), default=0.0)
    keep = [i for i, v in enumerate(row) if abs(v) > 1e-9 * vmax]
    if not keep:
        return [], [], True
    pairs = list(zip(keep, keep[1:]))
    if cyclic and len(keep) >= 2:
        pairs.append((keep[-1], keep[0]))
    pairs = [(i, j) for i, j in pairs if (row[i] > 0) != (row[j] > 0)]
    return [i for i, _ in pairs], [j for _, j in pairs], False


def _at_threshold(scale, pattern):
    # max|v| is scale; "t" samples sit exactly at the drop threshold
    # 1e-9 * max|v|, "u" samples one float above it
    small = {"t": 1e-9 * scale, "u": float(np.nextafter(1e-9 * scale, np.inf))}
    return [scale] + [sgn * (scale if k == "1" else small[k]) for sgn, k in pattern]


_THRESHOLD_ROWS = st.builds(_at_threshold, st.floats(1e-300, 1e300), st.lists(
    st.tuples(st.sampled_from([1.0, -1.0]), st.sampled_from("1tu")), max_size=10))
_TRANSITION_ROWS = st.one_of(
    _COUNT_ROWS,
    st.lists(_THRESHOLD_ROWS, min_size=1, max_size=4),
    st.lists(st.lists(st.one_of(_COUNT_VALUES,
                                st.sampled_from([np.inf, -np.inf, np.nan])),
                      max_size=12), min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(_TRANSITION_ROWS, st.booleans())
@example(_EDGE_ROWS.tolist(), False)
@example(_EDGE_ROWS.tolist(), True)
@example([[], [0.0], [-0.0], [2.0], [1.0, -1.0], [-0.0, 0.0], [np.inf, -1.0],
          [np.nan, 1.0], [1.0, 1e-9], [1.0, -1e-9, -1.0, 1e-9]], True)
@example([[], [-3.0], [1.0, -1.0], [np.inf], [1.0, 1e-9, -1.0]], False)
def test_sign_transitions_match_the_plain_rule(rows, cyclic):
    # index arrays, their dtype and degeneracy, with and without dropped
    # samples
    for row in rows:
        ii, jj, degenerate = fs._sign_transitions(np.array(row, dtype=float), cyclic)
        assert ii.dtype == jj.dtype == np.dtype(int)
        assert (ii.tolist(), jj.tolist(), degenerate) == _reference_transitions(row, cyclic)


def test_extrema_degeneracy_edges():
    # degenerate exactly when the range is at most 1e-9 of max|v|; an inf
    # sample makes both infinite
    dom = fs.circle()
    ts = dom.grid(64)
    ripple = np.cos(ts)
    assert 1e9 - (1e9 - 1.0) == 1e-9 * 1e9  # a range of exactly 1e-9 of the scale
    cases = [(1e9 - 0.5 + 0.5 * ripple, True), (1e9 - 1.0 + ripple, False),
             (-1e9 + 0.5 + 0.5 * ripple, True), (-(2.0 + ripple), False),
             (np.where(ripple > 0.9, np.inf, ripple), True)]
    f = fs.Func1D(lambda t: -np.cos(t))
    for vals, degenerate in cases:
        rep = fs.grid_extrema_report(f, dom, ts, vals)
        assert rep.degenerate == degenerate
        assert rep.count == (0 if degenerate else 2)


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


def _grid_n_calls():
    """One valid call per public function that takes grid_n, by name."""
    dom, circ = fs.interval(-1.0, 1.0), fs.circle()
    poly3 = cz.polynomial_system(3)
    curve = cz.moment_curve(2)
    f = fs.Func1D(lambda t: np.cos(np.asarray(t, float)), "cos")
    pos = fs.Func1D(lambda t: 2.0 + np.cos(np.asarray(t, float)), "2+cos")
    pos2 = fs.Func1D(lambda t: 3.0 + np.sin(np.asarray(t, float)), "3+sin")
    oval = cz.random_oval(3, 0.5)
    hp = cz.hyperplane_through([[0.0, 0.0], [1.0, 1.0]])
    rp = cz.RootPrescription(simple_roots=(-0.3,), double_roots=(0.4,))
    return {
        "count_sign_changes": lambda **kw: cz.count_sign_changes(f, dom, **kw),
        "count_extrema": lambda **kw: cz.count_extrema(f, circ, **kw),
        "verify_chebyshev": lambda **kw: cz.verify_chebyshev(poly3, trials=2, **kw),
        "general_annihilator": lambda **kw: cz.general_annihilator(
            cz.polynomial_system(4), rp, **kw),
        "synth_orthogonal": lambda **kw: cz.synth_orthogonal(
            poly3, [-0.6, -0.1, 0.4, 0.8], **kw),
        "synth_weight": lambda **kw: cz.synth_weight(
            cz.polynomial_system(1), cz.poly_annihilator([-0.5, 0.5], dom), **kw),
        "theorem1_check": lambda **kw: cz.theorem1_check(poly3, f, **kw),
        "hyperplane_intersections": lambda **kw: cz.hyperplane_intersections(
            curve, hp, **kw),
        "convexity_check": lambda **kw: cz.convexity_check(curve, trials=2, **kw),
        "theorem4_check": lambda **kw: cz.theorem4_check(curve, trials=2, **kw),
        "construct_orthogonal_on_curve": lambda **kw: cz.construct_orthogonal_on_curve(
            curve, 1, **kw),
        "theorem5_verify": lambda **kw: cz.theorem5_verify(curve, 1, f, **kw),
        "proposition1_check": lambda **kw: cz.proposition1_check(
            cz.trig_curve(1), pos, **kw),
        "proposition1_relative": lambda **kw: cz.proposition1_relative(
            cz.trig_curve(1), pos, pos2, **kw),
        "four_vertex_check": lambda **kw: cz.four_vertex_check(oval, **kw),
        "blaschke_ratio_check": lambda **kw: cz.blaschke_ratio_check(oval, oval, **kw),
    }


_TAKES_GRID_N = sorted(
    name for name in cz.__all__
    if inspect.isfunction(getattr(cz, name))
    and "grid_n" in inspect.signature(getattr(cz, name)).parameters)


@pytest.mark.parametrize("name", _TAKES_GRID_N)
def test_every_grid_n_is_checked_before_any_decomposition(monkeypatch, name):
    # a function that takes grid_n and has no call above fails here too
    calls = _grid_n_calls()
    assert sorted(calls) == _TAKES_GRID_N
    call = calls[name]
    call()
    call(grid_n=np.int64(100))

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd ran before grid_n was checked")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for bad, msg in ((10, "at least 64"), (100.5, "an integer"), (2048.0, "an integer"),
                     (True, "an integer")):
        with pytest.raises(ValueError, match=f"grid_n must be {msg}"):
            call(grid_n=bad)


@pytest.mark.parametrize("dom", [fs.interval(-1.0, 1.0), fs.interval(0.5, 2.0), fs.circle()],
                         ids=["interval", "power-interval", "circle"])
def test_count_grid_is_one_shared_read_only_array(dom):
    for n in (64, 1000, fs.CIRCLE_NODES, fs.DEFAULT_GRID_N):
        g = fs._count_grid(dom, n)
        assert fs._count_grid(dom, n) is g
        assert fs._count_grid(dom, np.int64(n)) is g
        assert not g.flags.writeable
        assert g.tobytes() == dom.grid(n).tobytes()
        with pytest.raises(ValueError):
            g[0] = 1.0


def test_count_grid_past_the_default_size_is_fresh():
    for dom in (fs.interval(-1.0, 1.0), fs.circle()):
        for n in (fs.DEFAULT_GRID_N + 1, 4096):
            g = fs._count_grid(dom, n)
            assert g is not fs._count_grid(dom, n)
            assert g.flags.writeable
            assert g.tobytes() == dom.grid(n).tobytes()


def test_circle_quadrature_arrays_are_shared_and_read_only():
    n = fs.CIRCLE_NODES
    ts, ws = fs.quad_nodes(fs.circle())
    assert not ts.flags.writeable and not ws.flags.writeable
    assert ts.tobytes() == (np.arange(n) * (fs.TWO_PI / n)).tobytes()
    assert ws.tobytes() == np.full(n, fs.TWO_PI / n).tobytes()
    ts2, ws2 = fs.quad_nodes(fs.circle())
    assert ts2 is ts and ws2 is ws
    # the nodes are the counting grid of the same size
    assert fs._count_grid(fs.circle(), n) is ts
    assert fs.rule_with_breaks(fs.circle(), [])[0] is ts


def test_harmonic_rows_for_the_shared_grid_and_a_copy():
    for n in (fs.CIRCLE_NODES, fs.DEFAULT_GRID_N):
        g = fs._count_grid(fs.circle(), n)
        rows = fs._harmonics(g, 4)
        copy = fs._harmonics(np.array(g), 4)
        assert len(rows) == len(copy) == 4
        for m, ((c, s), (c2, s2)) in enumerate(zip(rows, copy), start=1):
            assert c is c2 and s is s2
            assert c.tobytes() == np.cos(m * g).tobytes()
            assert s.tobytes() == np.sin(m * g).tobytes()


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
    """Array function that counts its calls and the points it is called on."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.points = 0

    def __call__(self, t):
        self.calls += 1
        self.points += np.size(t)
        return self.fn(np.asarray(t, float))


def _reference_bisect(fvals, los, his, slos):
    # the fixed 60-step bisection that refined locations must reproduce
    los, his = _reference_brackets(fvals, los, his, slos)
    return 0.5 * (los + his)


def _reference_brackets(fvals, los, his, slos):
    # the brackets that bisection's 60 steps leave
    los, his = los.copy(), his.copy()
    for _ in range(60):
        mids = 0.5 * (los + his)
        same = np.sign(fvals(mids)) == slos
        los = np.where(same, mids, los)
        his = np.where(same, his, mids)
    return los, his


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


_H_LINE = 2.0 / fs.DEFAULT_GRID_N


@pytest.mark.parametrize("dom, fn", _LAZY_CASES + [
    # roots in the first and the last grid cell of an interval, whose
    # outer sides have no neighbouring sample
    (fs.interval(-1.0, 1.0), lambda t: (t + 1.0 - _H_LINE) * (t - 1.0 + _H_LINE))])
def test_root_finder_seeds_from_grid_neighbours(monkeypatch, dom, fn):
    # each side's previous end is the grid sample beyond the bracket,
    # wrapped on the circle to lie beyond it in the bracket's coordinates
    seen = []
    bisect = fs._bisect_roots

    def spy(fvals, *args):
        seen.append(args)
        return bisect(fvals, *args)

    monkeypatch.setattr(fs, "_bisect_roots", spy)
    ts = dom.grid(fs.DEFAULT_GRID_N)
    vals = fn(ts)
    rep = fs.grid_sign_report(fs.Func1D(fn), dom, ts, vals)
    assert rep.locations.size == rep.count > 0
    (los, his, _, _, guesses, (lo2, vlo2, hi2, vhi2)), = seen
    assert guesses is None
    h = dom.span / ts.size
    for ends, want in [(lo2, los - h), (hi2, his + h)]:
        # NaN past an end of an interval
        missing = (want < dom.a) | (want > dom.b)
        assert not (dom.is_circle and missing.any())
        assert np.isnan(ends[missing]).all()
        np.testing.assert_allclose(ends[~missing], want[~missing], rtol=0, atol=1e-12)
    for ends, got in [(lo2, vlo2), (hi2, vhi2)]:
        ends, got = ends[~np.isnan(ends)], got[~np.isnan(ends)]
        k = np.rint((dom.wrap(ends) - ts[0]) / h).astype(int) % ts.size
        assert got.tobytes() == vals[k].tobytes()


@pytest.mark.parametrize("dom, pts", [
    (fs.interval(-1.0, 1.0), [-0.6, -0.1, 0.4, 0.8]),
    # the last point lies in the closing cell of the circle, and guesses
    # are taken mod 2pi
    (fs.circle(), [0.3 - fs.TWO_PI, 1.9, 3.0, fs.TWO_PI - 1e-3]),
    # F is 0 on the grid sample at 0, so the closing bracket spans it and
    # reaches past 2pi
    (fs.circle(), [0.0, 1.9, 3.0, 4.4])])
def test_guesses_start_the_brackets_that_hold_them(dom, pts):
    # known crossings decide only where a bracket's first walk goes: a
    # bracket holding one reaches bisection's floats in one call, and
    # points in no bracket change nothing
    step = cz.StepWeight(np.sort(dom.wrap(np.asarray(pts))), np.linspace(0.5, 2.0, 4 + (
        not dom.is_circle)), dom).as_func()
    F = fs.product(cz.default_annihilator(np.sort(dom.wrap(np.asarray(pts))), dom), step)
    ts = dom.grid(fs.DEFAULT_GRID_N)
    want = fs.grid_sign_report(F, dom, ts, F(ts)).locations
    for guesses, most in [(pts, 1), ([], _ROUNDS), ([dom.a + 0.05, 2.9], _ROUNDS)]:
        f = _Counted(F)
        rep = fs.grid_sign_report(fs.Func1D(f), dom, ts, F(ts), guesses=guesses)
        assert rep.locations.tobytes() == want.tobytes()
        assert 1 <= f.calls <= most


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


def _given_and_seeds(fn, los, his, slos, vlos, vhis):
    """(label, guesses, seeds) for _bisect_roots: first guesses at the
    roots (the hi ends of bisection's last brackets, which the walk
    toward them reaches in bisection's own steps), at a wrong point inside
    each bracket, outside it and NaN, each with seeds at the grid
    neighbours (one bracket width out, as on a uniform grid) and with
    garbage seeds: a previous lo past hi with a value of the wrong sign,
    and a previous hi with an infinite value."""
    w = his - los
    guesses = {"root": _reference_brackets(fn, los, his, slos)[1],
               "inside": los + 0.3 * w, "outside": his + w,
               "nan": np.full(los.size, np.nan)}
    seeds = {"neighbours": (los - w, fn(los - w), his + w, fn(his + w)),
             "garbage": (his + w, -1e3 * vlos, los - 7.0 * w,
                         np.full(los.size, np.inf))}
    for g, guess in guesses.items():
        for s, seed in seeds.items():
            yield f"{g} {s}", guess, seed


@pytest.mark.parametrize("name, fn, los, his, slos, vlos, vhis", _MULTISECTION_CASES,
                         ids=[c[0] for c in _MULTISECTION_CASES])
def test_multisection_matches_bisection_from_any_start(name, fn, los, his, slos,
                                                       vlos, vhis):
    # first guesses and seeded secants decide only which of bisection's
    # midpoints a call tests: every start gives bisection's floats within
    # the worst case of calls, and a guess at the roots takes at most one
    want = _reference_bisect(fn, los, his, slos)
    for label, guess, seeds in _given_and_seeds(fn, los, his, slos, vlos, vhis):
        f = _Counted(fn)
        got = fs._bisect_roots(f, los, his, vlos, vhis, guess, seeds)
        assert got.tobytes() == want.tobytes(), label
        assert f.calls <= _ROUNDS, label
        if label.startswith("root"):
            assert f.calls <= 1, label


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
    # the same with first guesses and seeded secants, which the pinned
    # guess takes over from in the rounds after the first
    for name, fn, los, his, slos, vlos, vhis in _MULTISECTION_CASES:
        want = _reference_bisect(fn, los, his, slos)
        for label, given, seeds in _given_and_seeds(fn, los, his, slos, vlos, vhis):
            f = _Counted(fn)
            got = fs._bisect_roots(f, los, his, vlos, vhis, given, seeds)
            assert got.tobytes() == want.tobytes(), (name, label)
            assert f.calls <= _ROUNDS, (name, label)


def test_secant_walks_stop_where_the_secants_part():
    # with grid-neighbour seeds, walks sized by how far a bracket's two
    # one-sided secants agree list under half the 99529 points that full
    # walks list on these cases, for at most a tenth more than their 856
    # calls
    points = calls = 0
    for name, fn, los, his, slos, vlos, vhis in _MULTISECTION_CASES:
        w = his - los
        f = _Counted(fn)
        fs._bisect_roots(f, los, his, vlos, vhis, None,
                         (los - w, fn(los - w), his + w, fn(his + w)))
        points += f.points
        calls += f.calls
    assert points < 99529 // 2
    assert calls <= 856 * 11 // 10


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


@pytest.mark.parametrize("dom", [fs.interval(-1.0, 1.0), fs.circle()], ids=["interval", "circle"])
def test_report_lets_its_grid_go_once_refined(dom):
    # a report holds its grid and values only until its locations are read
    import gc
    import weakref
    f = fs.Func1D(lambda t: np.sin(5.0 * t) + 0.1)
    for report in (fs.grid_sign_report, fs.grid_extrema_report):
        ts = dom.grid(2 * fs.DEFAULT_GRID_N)  # a fresh array, not a shared grid
        vals = f(ts)
        held = [weakref.ref(ts)] + [weakref.ref(vals)] * (report is fs.grid_sign_report)
        rep = report(f, dom, ts, vals)
        del ts, vals
        gc.collect()
        assert all(r() is not None for r in held)
        assert rep.locations.size == rep.count > 0
        gc.collect()
        assert all(r() is None for r in held)


@pytest.mark.parametrize("dom", [fs.interval(-1.0, 1.0), fs.circle()], ids=["interval", "circle"])
def test_counts_once_per_function_and_counting_grid(dom, size_log):
    # each shared counting grid gets its own report, sampled and refined
    # once; a later count of the same function object returns it
    f, sizes = size_log(fs.Func1D(lambda t: np.sin(7.0 * t) + 0.1))
    small = fs.count_sign_changes(f, dom, 1024)
    full = fs.count_sign_changes(f, dom)
    assert small is not full and small.count == full.count > 0
    assert fs.count_sign_changes(f, dom, 1024) is small
    assert fs._sign_report(f, dom, fs.DEFAULT_GRID_N, guesses=[0.5]) is full
    assert full.locations is fs.count_sign_changes(f, dom).locations
    refined = size_log.refine_calls
    assert fs.count_sign_changes(f, dom).locations is full.locations
    assert size_log.refine_calls == refined
    assert sizes == [1024, fs.DEFAULT_GRID_N]
    # another function object with the same eval is counted afresh
    other = fs.count_sign_changes(fs.Func1D(f.eval), dom)
    assert other is not full and sizes == [1024] + [fs.DEFAULT_GRID_N] * 2


def test_counts_past_the_default_grid_keep_nothing(size_log):
    import weakref
    dom, n = fs.interval(-1.0, 1.0), 2 * fs.DEFAULT_GRID_N
    f, sizes = size_log(fs.Func1D(lambda t: np.sin(7.0 * t) + 0.1))
    rep = fs.count_sign_changes(f, dom, n)
    assert fs.count_sign_changes(f, dom, n) is not rep
    assert sizes == [n, n]
    held = weakref.ref(rep)
    del rep
    assert held() is None


def test_count_memo_dies_with_its_function():
    # the memo keeps a function's report, whose grid values go once its
    # locations are read, and the report goes with the function: the memo
    # holds no reference back to it, so no garbage collection is needed
    import weakref
    for dom in (fs.interval(-1.0, 1.0), fs.circle()):
        made = []

        def ev(t):
            v = np.cos(3.0 * t) + 0.2
            made.append(weakref.ref(v))
            return v

        f = fs.Func1D(ev)
        rep = fs.count_sign_changes(f, dom)
        grid_vals = made[0]
        assert grid_vals() is not None
        locations = rep.locations
        assert grid_vals() is None
        held = [weakref.ref(x) for x in (f, rep, locations)]
        del rep, locations
        assert all(r() is not None for r in held)
        del f
        assert all(r() is None for r in held)


def test_count_memo_is_read_only():
    # one report serves every count of a function, so its locations are
    # read-only
    rep = fs.count_sign_changes(fs.Func1D(lambda t: np.sin(7.0 * t)), fs.interval(-1.0, 1.0))
    assert rep.count == 5
    assert not rep.locations.flags.writeable
    with pytest.raises(ValueError):
        rep.locations[0] = 1.0


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


@pytest.mark.parametrize("n", [64, 2048, 999])
def test_grid_extrema_derivative_matches_roll(monkeypatch, n):
    # the central differences, bit for bit those of the np.roll expression
    # around the circle and of the interior slices on an interval
    seen = []
    transitions = fs._sign_transitions

    def spy(dv, cyclic):
        seen.append(dv.copy())
        return transitions(dv, cyclic)

    monkeypatch.setattr(fs, "_sign_transitions", spy)
    rng = fs.derived_rng(30, n)
    for dom in (fs.circle(), fs.interval(-1.0, 2.0)):
        ts = dom.grid(n)
        vals = np.cos(3.0 * ts) + 0.1 * rng.standard_normal(n)
        vals[::7] = -0.0
        seen.clear()
        fs.grid_extrema_report(fs.Func1D(np.cos), dom, ts, vals)
        h = dom.span / ts.size
        if dom.is_circle:
            want = (np.roll(vals, -1) - np.roll(vals, 1)) / (2.0 * h)
        else:
            want = (vals[2:] - vals[:-2]) / (2.0 * h)
        assert len(seen) == 1 and np.array_equal(seen[0], want)
        assert seen[0].tobytes() == want.tobytes()
