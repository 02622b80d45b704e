from itertools import product

import numpy as np
import pytest

import chebzeros as cz
from chebzeros import funcspace as fs
from chebzeros.chebsys import COUNTEREXAMPLE, NO_VIOLATION
from chebzeros.discrete import cyclic_sign_changes, hyperplane_crossings


# ---------------------------------------------------------------------------
# sign counting on vertex sequences


def test_cyclic_sign_changes_oracles():
    assert cyclic_sign_changes([1, -1, 1], closed=False) == 2
    assert cyclic_sign_changes([1, -1, 1], closed=True) == 2
    assert cyclic_sign_changes([1, 1, -1], closed=False) == 1
    assert cyclic_sign_changes([1, 1, -1], closed=True) == 2
    assert cyclic_sign_changes([1, -1, 1, -1], closed=True) == 4
    assert cyclic_sign_changes([1, 0, -1, 0, 1], closed=False) == 2
    assert cyclic_sign_changes([5.0], closed=True) == 0
    assert cyclic_sign_changes([0, 0, 0], closed=True) == 0


def test_cyclic_counts_always_even_when_closed():
    # parity lemma, checked exhaustively on all +-1 patterns
    for k in range(1, 11):
        for pattern in product((-1.0, 1.0), repeat=k):
            assert cyclic_sign_changes(pattern, closed=True) % 2 == 0


def test_cyclic_sign_changes_edges():
    # a sub-tolerance entry of opposite sign is dropped, not counted
    assert cyclic_sign_changes([1.0, -1e-30, 1.0], closed=False) == 0
    assert cyclic_sign_changes([1.0, -1e-30, 1.0], closed=True) == 0
    assert cyclic_sign_changes([0.0, 0.0], closed=False) == 0
    assert cyclic_sign_changes([0.0, 0.0], closed=True) == 0
    with pytest.raises(ValueError):
        cyclic_sign_changes([], closed=True)


# ---------------------------------------------------------------------------
# polyline containers


def test_polyline_validation():
    with pytest.raises(ValueError):
        cz.PolyLine(np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        cz.PolyLine(np.array([[0.0, 0.0], [1.0, 0.0]]), closed=True)
    with pytest.raises(ValueError):
        cz.PolyLine(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
    # closing edge must not degenerate either
    with pytest.raises(ValueError):
        cz.PolyLine(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
                    closed=True)
    P = cz.PolyLine(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), closed=True)
    assert P.k == 3 and P.d == 2
    assert P.edge_vectors().shape == (3, 2)


def test_massvector_validation():
    with pytest.raises(ValueError):
        cz.MassVector(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        cz.MassVector(np.array([1.0, np.nan]))


# ---------------------------------------------------------------------------
# convexity of polygonal lines


def _regular_polygon(k: int) -> cz.PolyLine:
    ang = fs.TWO_PI * np.arange(k) / k
    return cz.PolyLine(np.stack([np.cos(ang), np.sin(ang)], axis=1),
                       closed=True)


def test_octagon_certified_without_trials():
    rep = cz.polyline_convexity_check(_regular_polygon(8), trials=100)
    assert rep.convex
    assert rep.certified
    assert rep.trials_run == 0


def test_reflex_quad_flagged():
    V = np.array([[0.0, 0.0], [2.0, 1.0], [4.0, 0.0], [2.0, 3.0]])
    rep = cz.polyline_convexity_check(cz.PolyLine(V, closed=True), trials=200)
    assert rep.status == COUNTEREXAMPLE
    assert rep.crossings is not None and rep.crossings > 2
    if rep.witness is not None:
        assert hyperplane_crossings(cz.PolyLine(V, closed=True),
                                    rep.witness) == rep.crossings


def test_open_zigzag_flagged():
    V = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]])
    rep = cz.polyline_convexity_check(cz.PolyLine(V), trials=300)
    assert rep.status == COUNTEREXAMPLE


def test_star_polygon_flagged():
    # pentagram: all turns have equal cross-product sign but winding 2
    ang = fs.TWO_PI * (2 * np.arange(5)) / 5
    V = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rep = cz.polyline_convexity_check(cz.PolyLine(V, closed=True), trials=300)
    assert rep.status == COUNTEREXAMPLE


def test_moment_samples_3d_convex():
    ts = np.linspace(-1.0, 1.0, 9)
    V = np.stack([ts, ts ** 2, ts ** 3], axis=1)
    rep = cz.polyline_convexity_check(cz.PolyLine(V), trials=300, rng_seed=5)
    assert rep.status == NO_VIOLATION


def test_nonconvex_3d_flagged():
    V = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 0.0, 0.1],
                  [3.0, 1.0, 0.0], [4.0, 0.0, 0.0]])
    rep = cz.polyline_convexity_check(cz.PolyLine(V), trials=400, rng_seed=2)
    assert rep.status == COUNTEREXAMPLE


def test_hyperplane_crossings_through_vertex():
    P = _regular_polygon(4)
    hp = cz.Hyperplane(np.array([1.0, 0.0]), 1.0)  # touches vertex (1, 0)
    assert hyperplane_crossings(P, hp) is None
    hp2 = cz.Hyperplane(np.array([1.0, 0.0]), 0.3)
    assert hyperplane_crossings(P, hp2) == 2


def test_random_convex_polygon_certified():
    for seed in range(8):
        P = cz.random_convex_polygon(5 + seed, rng_seed=seed)
        rep = cz.polyline_convexity_check(P, trials=50)
        assert rep.certified and rep.convex


# ---------------------------------------------------------------------------
# mass construction


def test_square_masses_oracle():
    masses = cz.construct_masses(_regular_polygon(4), 1)
    expect = np.array([0.5, -0.5, 0.5, -0.5])
    sgn = np.sign(masses.masses[0])
    assert np.max(np.abs(masses.masses - sgn * expect)) < 1e-10


def test_hexagon_kernel_dimension():
    A = cz.vandermonde_moment_matrix(_regular_polygon(6), 1)
    from chebzeros._linalg import svd_kernel
    basis, rank, _ = svd_kernel(A)
    assert basis.shape == (6, 3)
    assert rank == 3


def test_construct_masses_trivial_kernel():
    with pytest.raises(ValueError):
        cz.construct_masses(_regular_polygon(3), 1)


def test_theorem6_bound_holds():
    for seed in range(5):
        P = cz.random_convex_polygon(9, rng_seed=seed)
        m = cz.construct_masses(P, 1, rng_seed=seed)
        rep = cz.theorem6_check(P, 1, m)
        assert rep.applicable and rep.passed
        assert rep.bound == 4
        assert rep.max_residual <= 1e-10


def test_theorem6_open_bound():
    ts = np.linspace(-1.0, 1.0, 8)
    P = cz.PolyLine(np.stack([ts, ts ** 2], axis=1))
    m = cz.construct_masses(P, 2)
    rep = cz.theorem6_check(P, 2, m)
    assert rep.applicable and rep.passed
    assert rep.bound == 5


def test_theorem6_nonconvex_refused():
    V = np.array([[0.0, 0.0], [2.0, 1.0], [4.0, 0.0], [2.0, 3.0]])
    P = cz.PolyLine(V, closed=True)
    rep = cz.theorem6_check(P, 1, np.array([1.0, -1.0, 1.0, -1.0]))
    assert not rep.applicable
    assert "not convex" in rep.message


def test_theorem6_bad_masses_refused():
    P = _regular_polygon(5)
    rep = cz.theorem6_check(P, 1, np.ones(5))
    assert not rep.applicable
    assert "annihilate" in rep.message


# ---------------------------------------------------------------------------
# normal fans


def test_edge_normals_rectangle():
    V = np.array([[-2.0, -1.0], [2.0, -1.0], [2.0, 1.0], [-2.0, 1.0]])
    N, L = cz.edge_normals_and_lengths(cz.PolyLine(V, closed=True))
    assert np.allclose(L, [4.0, 2.0, 4.0, 2.0])
    assert np.allclose(N, [[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])


def test_edge_normals_orientation_independent():
    V = np.array([[-2.0, -1.0], [2.0, -1.0], [2.0, 1.0], [-2.0, 1.0]])
    Ncw, Lcw = cz.edge_normals_and_lengths(cz.PolyLine(V[::-1].copy(),
                                                       closed=True))
    # outward normals again, in the reversed traversal order
    assert np.allclose(np.sort(Lcw), [2.0, 2.0, 4.0, 4.0])
    assert np.allclose(np.linalg.norm(Ncw, axis=1), 1.0)
    C = V.mean(axis=0)
    # every normal points away from the centroid
    mids = 0.5 * (V[::-1] + np.roll(V[::-1], -1, axis=0))
    assert np.all(np.sum((mids - C) * Ncw, axis=1) > 0)


def test_polygon_from_normals_square():
    N = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    L = np.array([2.0, 2.0, 2.0, 2.0])
    P = cz.polygon_from_normals(N, L)
    r = np.linalg.norm(P.vertices, axis=1)
    assert np.allclose(r, np.sqrt(2.0), atol=1e-9)
    N2, L2 = cz.edge_normals_and_lengths(P)
    assert np.allclose(L2, L, atol=1e-9)
    assert np.allclose(N2, N, atol=1e-9)


def test_polygon_from_normals_roundtrip():
    for seed in range(6):
        P = cz.random_convex_polygon(7, rng_seed=seed)
        N, L = cz.edge_normals_and_lengths(P)
        Q = cz.polygon_from_normals(N, L)
        N2, L2 = cz.edge_normals_and_lengths(Q)
        assert np.max(np.abs(N2 - N)) < 1e-9
        assert np.max(np.abs(L2 - L)) < 1e-9


def test_polygon_from_normals_rejects_open_fan():
    N = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    L = np.array([1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        cz.polygon_from_normals(N, L)  # lengths do not close up
    ang = np.array([0.1, 2.5, 1.3])  # not sorted around the circle
    N2 = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    with pytest.raises(ValueError):
        cz.polygon_from_normals(N2, np.ones(3))


# ---------------------------------------------------------------------------
# positive pairs and parallel-sided polygons


def test_proposition2_pair_bound():
    for seed in range(6):
        P = cz.random_convex_polygon(6 + seed % 3, rng_seed=seed)
        f, g = cz.proposition2_pair(P, rng_seed=seed)
        rep = cz.proposition2_check(P, f, g)
        assert rep.applicable and rep.passed
        assert rep.sign_changes >= 4


def test_proposition2_rejects_nonpositive():
    P = _regular_polygon(5)
    with pytest.raises(ValueError):
        cz.proposition2_check(P, np.ones(5), np.array([1, 1, -1, 1, 1]))


def test_proposition2_unequal_totals():
    P = _regular_polygon(5)
    rep = cz.proposition2_check(P, np.ones(5), 2 * np.ones(5))
    assert not rep.applicable
    assert "totals" in rep.message


def test_proposition2_identical_degenerate():
    P = _regular_polygon(5)
    rep = cz.proposition2_check(P, np.ones(5), np.ones(5))
    assert rep.applicable and rep.passed and rep.degenerate


def test_aleksandrov_rectangle_vs_square():
    N = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    rect = cz.polygon_from_normals(N, np.array([3.0, 1.0, 3.0, 1.0]))
    square = cz.polygon_from_normals(N, np.array([2.0, 2.0, 2.0, 2.0]))
    rep = cz.aleksandrov_check(rect, square)
    assert rep.applicable and rep.passed
    assert rep.sign_changes == 4
    assert np.allclose(rep.diffs, [1.0, -1.0, 1.0, -1.0])
    assert rep.prop2 is not None and rep.prop2.passed


def test_aleksandrov_identical_degenerate():
    P = cz.random_convex_polygon(6, rng_seed=1)
    rep = cz.aleksandrov_check(P, P)
    assert rep.applicable and rep.passed and rep.degenerate


def test_aleksandrov_fan_mismatch():
    rep = cz.aleksandrov_check(_regular_polygon(4), _regular_polygon(5))
    assert not rep.applicable and "side counts" in rep.message
    rot = _regular_polygon(4).vertices @ np.array(
        [[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]).T
    rep2 = cz.aleksandrov_check(_regular_polygon(4),
                                cz.PolyLine(rot, closed=True))
    assert not rep2.applicable and "fans" in rep2.message


def test_aleksandrov_perimeter_mismatch():
    N = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    sq1 = cz.polygon_from_normals(N, np.array([2.0, 2.0, 2.0, 2.0]))
    sq2 = cz.polygon_from_normals(N, np.array([3.0, 3.0, 3.0, 3.0]))
    rep = cz.aleksandrov_check(sq1, sq2)
    assert not rep.applicable and "perimeters" in rep.message


def test_aleksandrov_pair_bound():
    for seed in range(6):
        M1, M2 = cz.aleksandrov_pair(6 + seed % 4, rng_seed=seed)
        rep = cz.aleksandrov_check(M1, M2)
        assert rep.applicable
        assert rep.degenerate or rep.sign_changes >= 4


# ---------------------------------------------------------------------------
# text round trip


def test_polyline_text_roundtrip():
    P = cz.random_convex_polygon(5, rng_seed=3)
    Q = cz.parse_polyline(cz.format_polyline(P))
    assert Q.closed
    assert np.array_equal(Q.vertices, P.vertices)
    open_line = cz.PolyLine(np.array([[0.0, 0.0, 1.0], [1.0, 2.0, 3.0]]))
    R = cz.parse_polyline(cz.format_polyline(open_line))
    assert not R.closed and R.d == 3


def test_parse_polyline_errors():
    with pytest.raises(ValueError):
        cz.parse_polyline("1 2\n3\n")
    with pytest.raises(ValueError):
        cz.parse_polyline("1 two\n3 4\n")


# ---------------------------------------------------------------------------
# batched convexity probes against the trial-by-trial loop


def _reference_convexity_check(P, trials, rng_seed):
    """The trial-by-trial probe loop, kept as the reference."""
    from chebzeros.curves import Hyperplane, hyperplane_through
    from chebzeros.discrete import (PolyConvexityReport, _convex_certificate,
                                    _midpoint_secant_witness)
    if trials < 1:
        raise ValueError("need at least one trial")
    V = P.vertices
    d = P.d
    cert = _convex_certificate(V) if (P.closed and d == 2) else None
    if cert is True:
        return PolyConvexityReport(NO_VIOLATION, 0, certified=True)
    mids = 0.5 * (V + np.roll(V, -1, axis=0)) if P.closed else 0.5 * (V[:-1] + V[1:])
    scale = float(np.max(np.abs(V))) or 1.0
    for trial in range(trials):
        rng = fs.derived_rng(rng_seed, trial, 2)
        w = rng.standard_normal(d)
        w /= np.linalg.norm(w)
        proj = V @ w
        lo, hi = float(np.min(proj)), float(np.max(proj))
        if hi > lo:
            hp = Hyperplane(w, lo + (hi - lo) * rng.uniform(0.02, 0.98))
            c = hyperplane_crossings(P, hp)
            if c is not None and c > d:
                return PolyConvexityReport(COUNTEREXAMPLE, trial + 1, hp, c, cert)
        if mids.shape[0] >= d:
            sel = rng.choice(mids.shape[0], size=d, replace=False)
            pts = mids[sel] + 1e-3 * scale * rng.standard_normal((d, d))
            try:
                hp = hyperplane_through(pts)
            except ValueError:
                continue
            c = hyperplane_crossings(P, hp)
            if c is not None and c > d:
                return PolyConvexityReport(COUNTEREXAMPLE, trial + 1, hp, c, cert)
    if cert is False:
        hit = _midpoint_secant_witness(P, mids)
        if hit is not None:
            return PolyConvexityReport(COUNTEREXAMPLE, trials, hit[0], hit[1], False)
        return PolyConvexityReport(COUNTEREXAMPLE, trials, None, None, False)
    return PolyConvexityReport(NO_VIOLATION, trials, certified=cert)


def _assert_same_report(got, want):
    fields = ("status", "trials_run", "crossings", "certified")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert [type(getattr(got, f)) for f in fields] == \
        [type(getattr(want, f)) for f in fields]
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        assert got.witness.normal.tobytes() == want.witness.normal.tobytes()
        assert np.float64(got.witness.offset).tobytes() == \
            np.float64(want.witness.offset).tobytes()


def _probe_polylines():
    """Seeded open and closed polylines in R^2..R^4: samples of convex
    curves, Gaussian vertex clouds at several scales, and lines with
    fewer edge midpoints than dimensions."""
    out = []
    for s in range(120):
        rng = fs.derived_rng(2024, s)
        d, closed = 2 + s % 3, bool((s // 3) % 2)
        k = int(rng.integers(d + 2, 12))
        if s % 4 == 0:
            ang = np.sort(rng.uniform(0.0, fs.TWO_PI, k))
            V = np.stack([np.cos(ang), np.sin(ang), np.cos(2 * ang),
                          np.sin(2 * ang)], axis=1)[:, :d]
        elif s % 4 == 1:
            ts = np.sort(rng.uniform(-1.0, 1.0, k))
            V = np.stack([ts ** j for j in range(1, d + 1)], axis=1)
        else:
            V = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-2, 2)
        out.append(cz.PolyLine(V, closed))
    out += [cz.PolyLine(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 0.5]])),
            cz.PolyLine(np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 2.0, 0.0],
                                  [0.0, 1.0, 1.0, 3.0]]))]
    return out


@pytest.mark.parametrize("trials", [1, 7, 200])
def test_batched_convexity_matches_reference_loop(trials):
    for i, P in enumerate(_probe_polylines()):
        _assert_same_report(cz.polyline_convexity_check(P, trials, i),
                            _reference_convexity_check(P, trials, i))


@pytest.mark.parametrize("base", [2 ** 32, 2 ** 63 - 1, -1],
                         ids=["two-word", "max", "wrap"])
def test_batched_convexity_matches_reference_at_wide_seeds(base):
    # seeds of two 32-bit words, and -1 wrapping to 2**63 - 1
    for i, P in enumerate(_probe_polylines()):
        seed = base + i if base == 2 ** 32 else base
        _assert_same_report(cz.polyline_convexity_check(P, 30, seed),
                            _reference_convexity_check(P, 30, seed))


def _reference_draws(V, mids, scale, seed, trial):
    """One trial's draws from its own derived_rng stream."""
    d = V.shape[1]
    rng = fs.derived_rng(seed, trial, 2)
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    proj = V @ w
    lo, hi = float(np.min(proj)), float(np.max(proj))
    off = lo + (hi - lo) * rng.uniform(0.02, 0.98) if hi > lo else np.nan
    if mids.shape[0] < d:
        return w, off, None
    sel = rng.choice(mids.shape[0], size=d, replace=False)
    return w, off, mids[sel] + 1e-3 * scale * rng.standard_normal((d, d))


@pytest.mark.parametrize("seed", [0, -1])
@pytest.mark.parametrize("V", [
    np.full((5, 3), 0.25),                      # one point: no uniform drawn
    np.full((2, 3), -1.5),                      # and fewer midpoints than d
    np.array([[0.0, 1.0], [0.0, 1.0], [2.0, -1.0], [0.5, 0.5]]),
], ids=["point", "point-few-mids", "spread"])
def test_probe_draws_match_derived_rng(V, seed):
    from chebzeros import discrete
    mids = 0.5 * (V[:-1] + V[1:])
    for start, stop, stream in fs._probe_chunks(seed, 40, len(V), 2):
        W, off, pts = discrete._probe_draws(V, mids, 2.0, stream, start, stop)
        for i, t in enumerate(range(start, stop)):
            w, o, p = _reference_draws(V, mids, 2.0, seed, t)
            assert W[i].tobytes() == w.tobytes()
            assert np.float64(off[i]).tobytes() == np.float64(o).tobytes()
            assert (pts is None) == (p is None)
            if p is not None:
                assert pts[i].tobytes() == p.tobytes()


@pytest.mark.parametrize("rel", [1.0 - 1e-3, 1.0 + 1e-3])
def test_vertex_near_reject_band_is_confirmed(monkeypatch, rel):
    from chebzeros import discrete
    from chebzeros.curves import Hyperplane
    seed = 3
    ts = np.linspace(-1.0, 1.0, 6)
    V0 = np.stack([ts, ts ** 2, ts ** 3], axis=1)
    w, off, _ = _reference_draws(V0, 0.5 * (V0[:-1] + V0[1:]), 1.0, seed, 0)
    # a new vertex at distance rel * VERTEX_REJECT_TOL from trial 0's plane,
    # projecting inside the old range so that plane does not move
    p = 0.5 * (V0[2] + V0[3])
    x = p + (off + rel * discrete.VERTEX_REJECT_TOL - p @ w) * w / (w @ w)
    P = cz.PolyLine(np.insert(V0, 3, x, axis=0))
    V = P.vertices
    w1, off1, _ = _reference_draws(V, 0.5 * (V[:-1] + V[1:]),
                                   float(np.max(np.abs(V))), seed, 0)
    dist = abs(float(Hyperplane(w1, off1).value(x)))
    assert dist == pytest.approx(rel * discrete.VERTEX_REJECT_TOL, rel=1e-4)
    confirmed = []
    hit = discrete._probe_hit

    def spy(P, w, off, pts):
        confirmed.append(w)
        return hit(P, w, off, pts)

    monkeypatch.setattr(discrete, "_probe_hit", spy)
    for trials in (1, 200):
        _assert_same_report(cz.polyline_convexity_check(P, trials, seed),
                            _reference_convexity_check(P, trials, seed))
    assert confirmed and np.array_equal(confirmed[0], w1)


def test_seeds_hashed_for_first_chunk_then_budget(monkeypatch):
    # every probe loop hashes its first chunk of 5 or more trials alone and
    # the rest of the budget in one more call; shorter budgets, and a hit
    # in the first 2 trials, hash nothing
    from chebzeros import discrete
    hashed = []
    seeds = fs._trial_seeds

    def spy(seed, trials, *keys, start=0):
        hashed.append((keys, start, trials))
        return seeds(seed, trials, *keys, start=start)

    monkeypatch.setattr(fs, "_trial_seeds", spy)
    zigzag = cz.PolyLine(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0],
                                   [3.0, 1.0], [4.0, 0.0]]))
    assert discrete.polyline_convexity_check(zigzag, 10 ** 6, 0).trials_run <= 2
    ts = np.linspace(-1.0, 1.0, 9)
    convex = cz.PolyLine(np.stack([ts, ts ** 2], axis=1))
    c = cz.moment_curve(3)
    for trials in range(1, 7):
        assert discrete.polyline_convexity_check(convex, trials, 0).trials_run == trials
        assert cz.theorem4_check(c, trials).agree
        assert cz.convexity_check(c, trials).convex
        assert cz.verify_chebyshev(cz.trig_system(2), trials).status == NO_VIOLATION
    assert hashed == []
    assert discrete.polyline_convexity_check(convex, 300, 0).trials_run == 300
    assert hashed == [((2,), 2, 10), ((2,), 10, 300)]
    hashed.clear()
    assert cz.convexity_check(c, 200).convex
    assert cz.verify_chebyshev(cz.trig_system(2), 200).status == NO_VIOLATION
    assert hashed == [((1,), 2, 10), ((1,), 10, 200), ((), 2, 10), ((), 10, 200)]
    hashed.clear()
    assert cz.theorem4_check(c, 200).agree
    assert sorted(hashed) == [((), 2, 10), ((), 10, 200), ((1,), 2, 10), ((1,), 10, 200)]


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_convexity_verdict_does_not_depend_on_scale(scale):
    # the vertex reject band and the screen's band scale with max|V|: a
    # zigzag is refuted and a convex line kept at every scale
    zigzag = cz.PolyLine(scale * np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0],
                                           [3.0, 1.0], [4.0, 0.0]]))
    rep = cz.polyline_convexity_check(zigzag, 200, 0)
    assert rep.status == COUNTEREXAMPLE and rep.trials_run == 1
    assert rep.crossings == 4
    masses = np.array([1.0, -2.0, 2.0, -2.0, 1.0])
    assert cz.theorem6_check(zigzag, 1, masses).message == \
        "hypothesis violated: not convex"
    ts = np.linspace(-1.0, 1.0, 9)
    convex = cz.PolyLine(scale * np.stack([ts, ts ** 2], axis=1))
    assert cz.polyline_convexity_check(convex, 200, 0).status == NO_VIOLATION


def test_convex_polyline_screens_without_exact_probes(monkeypatch):
    from chebzeros import discrete
    calls = {"crossings": 0, "svd": 0}
    crossings, svd = discrete.hyperplane_crossings, np.linalg.svd

    def count_crossings(*a):
        calls["crossings"] += 1
        return crossings(*a)

    def count_svd(*a, **k):
        calls["svd"] += 1
        return svd(*a, **k)

    monkeypatch.setattr(discrete, "hyperplane_crossings", count_crossings)
    monkeypatch.setattr(np.linalg, "svd", count_svd)
    ts = np.linspace(-1.0, 1.0, 9)
    V = np.stack([ts, ts ** 2, ts ** 3], axis=1)
    rep = cz.polyline_convexity_check(cz.PolyLine(V), trials=300, rng_seed=5)
    assert rep.status == NO_VIOLATION and rep.trials_run == 300
    # chunks of 2, 8 and 32 trials and the last 258: one stacked SVD each
    assert calls == {"crossings": 0, "svd": 4}
