import tracemalloc

import numpy as np
import pytest

import chebzeros as cz
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
    for seed in range(6):
        o1 = cz.random_oval(3, 0.6, rng_seed=seed)
        circle = cz.OvalSupport(2.0)
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
