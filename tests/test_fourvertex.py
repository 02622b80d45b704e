import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import chebzeros as cz
from chebzeros import fourvertex as fv
from chebzeros import funcspace as fs


def test_oval_support_validation():
    with pytest.raises(ValueError):
        cz.OvalSupport(-1.0)
    with pytest.raises(ValueError):
        cz.OvalSupport(0.0)
    # h stays positive but R = 1 - 7.2 cos(3a) does not
    with pytest.raises(ValueError):
        cz.OvalSupport(1.0, ((0.0, 0.0), (0.0, 0.0), (0.9, 0.0)))
    # a NaN coefficient passed the positivity checks, an infinite one
    # failed them as "support function must stay positive"
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            cz.OvalSupport(1.0, ((0.1, 0.0), (0.0, bad)))
    oval = cz.OvalSupport(1.0, ((0.0, 0.0), (0.1, 0.0)))
    assert not oval.is_circle
    assert cz.OvalSupport(2.0).is_circle


def test_cos2_oracle_exactly_four():
    # h = 1 + 0.1 cos 2a gives R = 1 - 0.3 cos 2a
    oval = cz.OvalSupport(1.0, ((0.0, 0.0), (0.1, 0.0)))
    R = cz.radius_of_curvature(oval)
    ts = np.linspace(0, 2 * np.pi, 9)
    assert np.allclose(R(ts), 1.0 - 0.3 * np.cos(2 * ts), atol=1e-14)
    rep = cz.four_vertex_check(oval)
    assert rep.passed and rep.extrema == 4


def test_first_harmonic_is_translation():
    # pure first harmonic translates the circle: R stays constant
    oval = cz.OvalSupport(1.0, ((0.3, -0.2),))
    assert oval.is_circle
    assert not cz.OvalSupport(1.0, ((0.3, -0.2), (0.0, 1e-3))).is_circle
    rep = cz.four_vertex_check(oval)
    assert rep.passed and rep.degenerate and rep.extrema == 0


def test_R_orthogonality_structural():
    for seed in range(10):
        oval = cz.random_oval(harmonics=4, amplitude=0.8, rng_seed=seed)
        rc, rs = cz.verify_R_orthogonality(oval)
        assert rc <= 1e-10 and rs <= 1e-10


def test_R_orthogonality_samples_R_once(monkeypatch):
    # both harmonics come from one sample of R on the quadrature nodes,
    # and give the floats of the quadrature-sum reference
    oval = cz.random_oval(harmonics=4, amplitude=0.8, rng_seed=3)
    ts, ws = fs.quad_nodes(fs.circle())
    Rv = fs.sample(cz.radius_of_curvature(oval), ts)
    want = tuple(abs(float(ws @ (Rv * trig(ts)))) for trig in (np.cos, np.sin))
    calls = []
    R = cz.OvalSupport._R

    def logged(self, ts):
        calls.append(np.size(ts))
        return R(self, ts)

    monkeypatch.setattr(cz.OvalSupport, "_R", logged)
    assert cz.verify_R_orthogonality(oval) == want
    assert calls == [fs.quad_nodes(fs.circle())[0].size]


def test_four_vertex_over_seeds():
    for seed in range(10):
        oval = cz.random_oval(harmonics=3 + seed % 3, amplitude=0.7,
                              rng_seed=seed)
        rep = cz.four_vertex_check(oval)
        assert rep.passed
        assert rep.degenerate or rep.extrema >= 4


def test_blaschke_over_seeds():
    for seed in range(6):
        o1 = cz.random_oval(3, 0.6, rng_seed=seed)
        o2 = cz.random_oval(4, 0.5, rng_seed=seed + 100)
        rep = cz.blaschke_ratio_check(o1, o2)
        assert rep.passed
        assert not rep.reduces_to_four_vertex


def test_blaschke_against_circle_matches_plain_count():
    # translated circles too: a first harmonic leaves R = h0 constant
    circles = (cz.OvalSupport(2.0), cz.OvalSupport(1.0, ((0.3, -0.2),)),
               cz.random_oval(1, 0.5, rng_seed=7))
    for seed, circle in itertools.product(range(6), circles):
        o1 = cz.random_oval(3, 0.6, rng_seed=seed)
        rep = cz.blaschke_ratio_check(o1, circle)
        assert rep.reduces_to_four_vertex
        plain = cz.four_vertex_check(o1)
        assert rep.extrema == plain.extrema


def test_blaschke_proportional_degenerate():
    o = cz.OvalSupport(1.0, ((0.0, 0.0), (0.1, 0.0)))
    o2 = cz.OvalSupport(2.0, ((0.0, 0.0), (0.2, 0.0)))
    rep = cz.blaschke_ratio_check(o, o2)
    assert rep.passed and rep.degenerate


def test_random_oval_amplitude_contract():
    with pytest.raises(ValueError):
        cz.random_oval(3, 1.0)
    with pytest.raises(ValueError):
        cz.random_oval(3, -0.1)
    for bad in (2.0, True, "3"):
        with pytest.raises(ValueError, match="harmonics must be an integer"):
            cz.random_oval(bad, 0.5)
    assert len(cz.random_oval(np.int64(3), 0.5).coeffs) == 3
    assert cz.random_oval(0, 0.5).is_circle
    assert cz.random_oval(3, 0.0).is_circle
    oval = cz.random_oval(5, 0.99, rng_seed=11)
    ts = np.linspace(0, 2 * np.pi, 4096)
    assert np.min(cz.radius_of_curvature(oval)(ts)) > 0


def _reference_h(oval, ts):
    out = np.full_like(np.asarray(ts, dtype=float), oval.h0)
    for m, (a, b) in enumerate(oval.coeffs, start=1):
        out += a * np.cos(m * ts) + b * np.sin(m * ts)
    return out


def _reference_R(oval, ts):
    out = np.full_like(np.asarray(ts, dtype=float), oval.h0)
    for m, (a, b) in enumerate(oval.coeffs, start=1):
        out += (1.0 - m * m) * (a * np.cos(m * ts) + b * np.sin(m * ts))
    return out


@pytest.mark.parametrize("order", ["high_k_first", "low_k_first"])
def test_harmonic_table_gives_the_reference_bytes(monkeypatch, order):
    monkeypatch.setattr(fs, "_HARMONIC_ROWS", {})
    grid = fs.circle().grid(fs.DEFAULT_GRID_N)
    # non-grid arrays of the grid's length: shifted, and shifted past the
    # first two points
    inputs = [grid, fs.quad_nodes(fs.circle())[0], fs.circle().grid(4096),
              fs.circle().grid(16384), grid + 1e-3,
              np.concatenate([grid[:2], grid[2:] + 1e-3])]
    hs = range(6, -1, -1) if order == "high_k_first" else range(7)
    for H in hs:
        oval = cz.random_oval(H, 0.7, rng_seed=H)
        assert len(oval.coeffs) == H
        for ts in inputs:
            assert oval._h(ts).tobytes() == _reference_h(oval, ts).tobytes()
            assert oval._R(ts).tobytes() == _reference_R(oval, ts).tobytes()
    # only the two circle grids of at most DEFAULT_GRID_N points are kept
    assert sorted(fs._HARMONIC_ROWS) == [fs.CIRCLE_NODES, fs.DEFAULT_GRID_N]
    rows = fs._harmonics(grid, 6)
    assert len(rows) == 6
    for m, (c, s) in enumerate(rows, start=1):
        assert not c.flags.writeable and not s.flags.writeable
        assert c.tobytes() == np.cos(m * grid).tobytes()
        assert s.tobytes() == np.sin(m * grid).tobytes()
    for ts in inputs[2:]:
        assert fs._harmonics(ts, 6) is None
    assert fs._harmonics(grid[:-1], 1) is None
    assert sorted(fs._HARMONIC_ROWS) == [fs.CIRCLE_NODES, fs.DEFAULT_GRID_N]


def test_uncached_R_peaks_no_higher_than_the_reference():
    # on a grid the table does not keep, _R computes one harmonic at a
    # time; holding a (cos, sin) pair per harmonic doubled this peak
    oval = cz.random_oval(5, 0.7, rng_seed=2)
    ts = fs.circle().grid(16384)
    peaks = []
    for f in (_reference_R, cz.OvalSupport._R):
        f(oval, ts)
        tracemalloc.start()
        try:
            f(oval, ts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]


_GRID = fs.circle().grid(4096)
_DENSE = fs.circle().grid(65536)


def _grid_only_verdict(h0, coeffs):
    """OvalSupport's validation without the coefficient certificate: None
    when it accepts, else the ValueError message."""
    h0 = float(h0)
    cf = tuple((float(a), float(b)) for a, b in coeffs)
    if not np.isfinite(h0) or h0 <= 0:
        return "h0 must be positive"
    if not np.isfinite(cf).all():
        return "coefficients must be finite"
    if np.min(fs._trig_series(_GRID, h0, cf)) <= 0:
        return "support function must stay positive"
    if np.min(fs._trig_series(_GRID, h0, cf, curvature=True)) <= 0:
        return "oval must be strictly convex: h + h'' > 0"
    return None


def _verdict(h0, coeffs):
    try:
        cz.OvalSupport(h0, coeffs)
    except ValueError as e:
        return str(e)
    return None


def _near(c):
    return [c * (1 - 1e-12), c, c * (1 + 1e-12), c - 1e-3, c + 1e-3]


def _threshold_cases():
    cases = []
    for h0 in (1.0, 2.5):
        for c in _near(h0):
            # h = h0 - c at t = 0 on the grid; with phase atan2(0.8, 0.6)
            # h's minimum h0 - c falls between grid points
            cases += [(h0, ((-c, 0.0),)), (h0, ((0.6 * c, 0.8 * c),))]
    for m in (2, 3):
        for c in _near(1.0 / (m * m - 1)):
            # R = 1 - (m^2 - 1) c cos(mt), 1 - (m^2 - 1) c at t = 0
            cases.append((1.0, ((0.0, 0.0),) * (m - 1) + ((c, 0.0),)))
    for f in _near(1.0):
        # R(0) = 1 - 0.6 f - 0.4 f, the first harmonic only moves h
        cases.append((1.0, ((0.3, -0.1), (0.2 * f, 0.0), (0.05 * f, 0.0))))
    # h = 1 + 0.9 cos 3a stays positive, R = 1 - 7.2 cos 3a does not
    cases.append((1.0, ((0.0, 0.0), (0.0, 0.0), (0.9, 0.0))))
    return cases


def test_certificate_accepts_and_rejects_as_the_grid_check():
    cases = [(1.0, cz.random_oval(H, amp, rng_seed=s).coeffs)
             for H in range(1, 9) for amp in (0.3, 0.7, 0.9, 0.99)
             for s in range(4)]
    cases += _threshold_cases()
    verdicts = [_verdict(h0, cf) for h0, cf in cases]
    assert verdicts == [_grid_only_verdict(h0, cf) for h0, cf in cases]
    # both outcomes, both checks' messages, and both sides of the
    # certificate occur
    assert set(verdicts) == {None, "support function must stay positive",
                             "oval must be strictly convex: h + h'' > 0"}
    certified = {fv._positivity_certified(h0, cf) for h0, cf in cases
                 if _verdict(h0, cf) is None}
    assert certified == {True, False}


def test_certified_ovals_skip_the_grid(monkeypatch):
    sizes = []
    series = fs._trig_series

    def logged(ts, *args, **kwargs):
        sizes.append(np.size(ts))
        return series(ts, *args, **kwargs)

    monkeypatch.setattr(fs, "_trig_series", logged)
    for seed in range(10):
        cz.random_oval(4, 0.8, rng_seed=seed)
    assert sizes == []
    # S2 = 0.6 + 0.48 > h0, yet R = 1 - 0.6 cos 2a - 0.48 sin 3a > 0.12
    cz.OvalSupport(1.0, ((0.0, 0.0), (0.2, 0.0), (0.0, 0.06)))
    assert sizes == [4096, 4096]


def test_numpy_trig_is_within_the_certificate_budget():
    # _positivity_certified allows 2**-45 of error in np.cos and np.sin
    for m in range(1, 9):
        x = m * _GRID
        for f, ref in ((np.cos, math.cos), (np.sin, math.sin)):
            assert np.max(np.abs(f(x) - [ref(v) for v in x])) <= 2.0 ** -46


_FRACTIONS = st.one_of(st.floats(0.0, 1.2),
                       st.floats(1.0, 13.0).map(lambda k: 1.0 - 10.0 ** -k))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                min_size=1, max_size=8),
       st.floats(1e-3, 1e3), _FRACTIONS)
def test_certified_coefficients_are_positive_on_dense_grids(raw, h0, frac):
    # the coefficients are scaled so the larger of S1 and S2 is frac h0
    s1 = sum(math.hypot(a, b) for a, b in raw)
    s2 = sum((m * m - 1) * math.hypot(a, b)
             for m, (a, b) in enumerate(raw, start=1))
    k = frac * h0 / max(s1, s2) if max(s1, s2) > 0 else 1.0
    cf = tuple((k * a, k * b) for a, b in raw)
    assume(fv._positivity_certified(h0, cf))
    for ts in (_GRID, _DENSE):
        assert np.min(fs._trig_series(ts, h0, cf)) > 0
        assert np.min(fs._trig_series(ts, h0, cf, curvature=True)) > 0
