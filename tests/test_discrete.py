import math
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


def test_degree_one_moment_matrix_matches_monomial_values():
    # [1, V].T for n = 1: the floats and strides of the monomial powers
    from chebzeros.curves import monomial_multi_indices, monomial_values
    for s in range(30):
        rng = fs.derived_rng(77, s)
        d = 2 + s % 3
        V = rng.standard_normal((int(rng.integers(d + 2, 12)), d))
        V[::3, s % d] = -0.0
        P = cz.PolyLine(V, closed=bool(s % 2))
        A = cz.vandermonde_moment_matrix(P, 1)
        B = monomial_values(P.vertices, monomial_multi_indices(1, d)).T
        assert A.tobytes() == B.tobytes() and A.strides == B.strides
        assert np.signbit(A[1 + s % d, ::3]).all()


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nan_masses_raise_input_error(seed):
    # a NaN mass is bad input, not a failed bound (nan > tol is False)
    P = cz.random_convex_polygon(9, rng_seed=seed)
    at = int(fs.derived_rng(seed, 7).integers(P.k))
    m = cz.construct_masses(P, 1, rng_seed=seed).masses.copy()
    m[at] = np.nan
    with pytest.raises(ValueError, match="finite"):
        cz.theorem6_check(P, 1, m)
    f, g = cz.proposition2_pair(P, rng_seed=seed)
    f = f.masses.copy()
    f[at] = np.nan
    with pytest.raises(ValueError, match="finite"):
        cz.proposition2_check(P, f, g)


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
    # closure is tested relative to the perimeter: at 1e8 the rounding
    # residual of sum(l_i n_i) is about 2e-8
    N, L = cz.edge_normals_and_lengths(cz.random_convex_polygon(9, rng_seed=3))
    N2, L2 = cz.edge_normals_and_lengths(cz.polygon_from_normals(N, 1e8 * L))
    assert np.max(np.abs(N2 - N)) < 1e-9
    assert np.max(np.abs(L2 - 1e8 * L)) < 1e-9 * 1e8


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
    """The probe loop one trial at a time on each chunk's draws, kept as
    the reference."""
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
    for start, stop in fs._chunk_bounds(trials, P.k):
        draws = _reference_draws(V, mids, scale, rng_seed, start, stop)
        for trial, (w, off, pts) in enumerate(draws, start):
            if not np.isnan(off):
                hp = Hyperplane(w, off)
                c = hyperplane_crossings(P, hp)
                if c is not None and c > d:
                    return PolyConvexityReport(COUNTEREXAMPLE, trial + 1, hp, c, cert)
            if pts is not None:
                try:
                    hp = hyperplane_through(pts)
                except ValueError:
                    continue
                c = hyperplane_crossings(P, hp)
                if c is not None and c > d:
                    return PolyConvexityReport(COUNTEREXAMPLE, trial + 1, hp, c, cert)
    if cert is False:
        hit = _midpoint_secant_witness(P, mids, scale)
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


def _reference_draws(V, mids, scale, seed, start, stop):
    """(w, offset, secant points or None) of each trial start..stop-1 of a
    chunk, from the chunk's one derived_rng(seed, start, 2) stream: normals,
    offsets, a uniform block whose row-wise argsort selects the midpoints,
    perturbations, each for the whole chunk; then one trial at a time."""
    n, d, m = stop - start, V.shape[1], mids.shape[0]
    rng = fs.derived_rng(seed, start, 2)
    Z = rng.standard_normal((n, d))
    u = rng.uniform(0.02, 0.98, n)
    if m >= d:
        block, E = rng.random((n, m)), rng.standard_normal((n, d, d))
    out = []
    for i in range(n):
        w = Z[i] / np.linalg.norm(Z[i])
        proj = V @ w
        lo, hi = float(np.min(proj)), float(np.max(proj))
        off = lo + (hi - lo) * u[i] if hi > lo else np.nan
        pts = None if m < d else mids[np.argsort(block[i])[:d]] + 1e-3 * scale * E[i]
        out.append((w, off, pts))
    return out


_TS30 = np.linspace(-1.0, 1.0, 30)
_DRAW_LINES = {
    "point": np.full((5, 3), 0.25),             # one point: every offset NaN
    "point-few-mids": np.full((2, 3), -1.5),    # and fewer midpoints than d
    "spread": np.array([[0.0, 1.0], [0.0, 1.0], [2.0, -1.0], [0.5, 0.5]]),
    "d-mids": np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.2], [1.5, 2.0, 0.1],
                        [0.3, 1.0, 3.0]]),      # as many midpoints as d
    "30-vertices": np.stack([_TS30, _TS30 ** 2, _TS30 ** 3], axis=1),
}


@pytest.mark.parametrize("seed", [0, -1])
@pytest.mark.parametrize("V", list(_DRAW_LINES.values()), ids=list(_DRAW_LINES))
def test_probe_draws_match_derived_rng(V, seed):
    # each chunk's probe rows against the reference's trial-by-trial
    # arithmetic on the same chunk stream, bit for bit
    from chebzeros import discrete
    from chebzeros._linalg import _planes_through
    mids = 0.5 * (V[:-1] + V[1:])
    for start, stop in fs._chunk_bounds(40, len(V)):
        g = fs.derived_rng(seed, start, 2)
        H, trusted = discrete._probe_draws(V, mids, 2.0, g, stop - start)
        for i, (w, o, p) in enumerate(_reference_draws(V, mids, 2.0, seed, start, stop)):
            assert H[i, 0, :-1].tobytes() == w.tobytes()
            assert np.float64(-H[i, 0, -1]).tobytes() == np.float64(o).tobytes()
            assert H.shape[1] == (1 if p is None else 2) and trusted[i, 0]
            if p is not None:
                # the secant row of the reference points, bit for bit
                assert H[i, 1].tobytes() == _planes_through(p[None])[0][0].tobytes()


def test_chunk_selections_are_uniform_and_flat_rows_shift_nothing(monkeypatch):
    # 20 000 probes of an open convex line with m = 5 edge midpoints in the
    # plane: the secants' ordered midpoint pairs fall on all 20 pairs
    # evenly (chi-square of 19 degrees of freedom below its 0.999
    # quantile, 43.8); the perturbations, 1e-3 of scale, leave each
    # secant point nearest its midpoint
    from chebzeros import discrete
    planes, pts = discrete._planes_through, []

    def spy(p):
        pts.append(p)
        return planes(p)

    monkeypatch.setattr(discrete, "_planes_through", spy)
    ts = np.linspace(-1.0, 1.0, 6)
    P = cz.PolyLine(np.stack([ts, ts ** 2], axis=1))
    mids = 0.5 * (P.vertices[:-1] + P.vertices[1:])
    assert cz.polyline_convexity_check(P, 20000, 11).trials_run == 20000
    p = np.concatenate(pts)
    sel = np.argmin(np.linalg.norm(p[:, :, None] - mids, axis=3), axis=2)
    assert sel.shape == (20000, 2) and (sel[:, 0] != sel[:, 1]).all()
    counts = np.bincount(5 * sel[:, 0] + sel[:, 1], minlength=25)
    counts = counts[np.arange(25) % 6 != 0]  # the 20 pairs i != j
    assert np.sum((counts - 1000.0) ** 2 / 1000.0) < 43.8
    # a line projecting to a point gets NaN offsets, and its normals and
    # secant rows are those of a spread line with the same midpoints
    monkeypatch.undo()
    V = _DRAW_LINES["30-vertices"]
    mids = 0.5 * (V[:-1] + V[1:])
    flat, _ = discrete._probe_draws(np.zeros_like(V), mids, 1.0, fs.derived_rng(4, 2), 64)
    spread, _ = discrete._probe_draws(V, mids, 1.0, fs.derived_rng(4, 2), 64)
    assert np.isnan(flat[:, 0, -1]).all() and not np.isnan(spread[:, 0, -1]).any()
    assert flat[:, 0, :-1].tobytes() == spread[:, 0, :-1].tobytes()
    assert flat[:, 1].tobytes() == spread[:, 1].tobytes()


@pytest.mark.parametrize("rel", [1.0 - 1e-3, 1.0 + 1e-3])
def test_vertex_near_reject_band_is_confirmed(monkeypatch, rel):
    from chebzeros import discrete
    from chebzeros.curves import Hyperplane
    seed = 3
    ts = np.linspace(-1.0, 1.0, 6)
    V0 = np.stack([ts, ts ** 2, ts ** 3], axis=1)
    confirmed = []
    hit = discrete._probe_hit

    def spy(P, H):
        confirmed.append(H[0, :-1])
        return hit(P, H)

    monkeypatch.setattr(discrete, "_probe_hit", spy)
    for trials in (1, 200):
        # trial 0's plane is drawn with its first chunk (1 or 2 trials)
        stop = next(fs._chunk_bounds(trials, 7))[1]
        w, off, _ = _reference_draws(V0, 0.5 * (V0[:-1] + V0[1:]), 1.0, seed, 0, stop)[0]
        # a new vertex at distance rel * VERTEX_REJECT_TOL from trial 0's
        # plane, projecting inside the old range so that plane does not move
        p = 0.5 * (V0[2] + V0[3])
        x = p + (off + rel * discrete.VERTEX_REJECT_TOL - p @ w) * w / (w @ w)
        P = cz.PolyLine(np.insert(V0, 3, x, axis=0))
        V = P.vertices
        w1, off1, _ = _reference_draws(V, 0.5 * (V[:-1] + V[1:]),
                                       float(np.max(np.abs(V))), seed, 0, stop)[0]
        dist = abs(float(Hyperplane(w1, off1).value(x)))
        assert dist == pytest.approx(rel * discrete.VERTEX_REJECT_TOL, rel=1e-4)
        confirmed.clear()
        _assert_same_report(cz.polyline_convexity_check(P, trials, seed),
                            _reference_convexity_check(P, trials, seed))
        assert confirmed and np.array_equal(confirmed[0], w1)


def test_probe_loops_draw_one_derived_rng_per_trial(monkeypatch):
    # the curve loop draws trial t from derived_rng(seed, t, 1) and the
    # Chebyshev loop from derived_rng(seed, t), one stream per trial in
    # every chunk; theorem4_check runs both loops, and the polyline loop
    # keys one stream derived_rng(seed, start, 2) by each chunk's first trial
    from chebzeros import discrete
    calls = []
    derived = fs.derived_rng

    def spy(seed, *keys):
        calls.append((seed, *keys))
        return derived(seed, *keys)

    monkeypatch.setattr(fs, "derived_rng", spy)
    zigzag = cz.PolyLine(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0],
                                   [3.0, 1.0], [4.0, 0.0]]))
    assert discrete.polyline_convexity_check(zigzag, 10 ** 6, 3).trials_run <= 2
    assert calls == [(3, 0, 2)]
    ts = np.linspace(-1.0, 1.0, 9)
    convex = cz.PolyLine(np.stack([ts, ts ** 2], axis=1))
    c, trig = cz.moment_curve(3), cz.trig_system(2)
    for trials in [*range(1, 8), 200]:
        curve = [(3, t, 1) for t in range(trials)]
        cheb = [(3, t) for t in range(trials)]
        calls.clear()
        assert discrete.polyline_convexity_check(convex, trials, 3).trials_run == trials
        assert calls == [(3, a, 2) for a, _ in fs._chunk_bounds(trials, convex.k)]
        calls.clear()
        rep = cz.convexity_check(c, trials, 3)
        assert rep.convex and rep.trials_run == trials
        assert calls == curve
        calls.clear()
        rep = cz.verify_chebyshev(trig, trials, 3)
        assert rep.status == NO_VIOLATION and rep.trials_run == trials
        assert calls == cheb
        calls.clear()
        assert cz.theorem4_check(c, trials, 3).agree
        assert calls == curve + cheb


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
    # chunks of 2, 8 and 32 trials and the last 258, each screened by the
    # signed minors of its secants: no SVD and no exact probe
    assert calls == {"crossings": 0, "svd": 0}


def test_exact_probes_take_no_svd(monkeypatch):
    # a flagged trial's exact test, and the closing midpoint sweep, read
    # the kernel's secant rows: no SVD
    from chebzeros import discrete
    svd_calls, exact = [], []
    svd, hit = np.linalg.svd, discrete._probe_hit

    def count_svd(*a, **k):
        svd_calls.append(1)
        return svd(*a, **k)

    def exact_probe(P, H):
        before = len(svd_calls)
        out = hit(P, H)
        exact.append(len(svd_calls) - before)
        return out

    monkeypatch.setattr(np.linalg, "svd", count_svd)
    monkeypatch.setattr(discrete, "_probe_hit", exact_probe)
    ts = np.arange(8.0)
    for V, closed in ((np.column_stack([ts, ts % 2, np.sin(ts)]), False),
                      (np.column_stack([np.cos(ts), np.sin(2 * ts)]), True)):
        rep = cz.polyline_convexity_check(cz.PolyLine(V, closed), trials=50)
        assert rep.status == COUNTEREXAMPLE
    assert exact and set(exact) == {0}


def _reference_midpoint_sweep(P, mids, scale):
    """The midpoint sweep with hand-built planar normals, kept as the
    reference: pairs less than 1e-12 of scale apart are skipped."""
    for i in range(mids.shape[0]):
        for j in range(i + 1, mids.shape[0]):
            t = mids[j] - mids[i]
            nrm = float(np.linalg.norm(t))
            if nrm <= 1e-12 * scale:
                continue
            w = np.array([-t[1], t[0]]) / nrm
            base = float(w @ mids[i])
            for off in (base, base + 1e-7 * scale, base - 1e-7 * scale):
                hp = cz.Hyperplane(w, off)
                c = hyperplane_crossings(P, hp)
                if c is not None and c > P.d:
                    return hp, c
    return None


def test_midpoint_sweep_matches_pair_loop():
    # seeded closed planar polygons at scales 1e-3..1e3 and 1e10..1e16,
    # every other one with a repeated vertex (V[2] = V[0], so its first two
    # edge midpoints coincide): the kernel's sweep probes the same lines,
    # in the same order, as the hand-built loop, and skips the same pairs
    from chebzeros.discrete import _midpoint_secant_witness
    hits = repeated = 0
    for s in range(80):
        rng = fs.derived_rng(33, s)
        V = rng.standard_normal((int(rng.integers(4, 14)), 2))
        V *= 10.0 ** rng.uniform(-3.0, 3.0) * (1e13 if s % 4 == 3 else 1.0)
        if s % 2 == 0:
            V[2] = V[0]
        P = cz.PolyLine(V, closed=True)
        mids = 0.5 * (V + np.roll(V, -1, axis=0))
        scale = float(np.max(np.abs(V)))
        got = _midpoint_secant_witness(P, mids, scale)
        want = _reference_midpoint_sweep(P, mids, scale)
        assert (got is None) == (want is None), s
        if want is None:
            continue
        hits += 1
        repeated += s % 2 == 0
        assert got[1] == want[1], s
        assert np.allclose(got[0].normal, want[0].normal, rtol=0.0, atol=1e-12), s
        assert abs(got[0].offset - want[0].offset) <= 1e-12 * scale, s
    assert hits > 60 and repeated > 30


def test_next_matches_roll():
    from chebzeros.discrete import _next
    rng = fs.derived_rng(31)
    for k in range(1, 18):
        for a in (rng.standard_normal(k), rng.standard_normal((k, 3)),
                  np.sign(rng.standard_normal((k, 5))) * 0.0):
            want = np.roll(a, -1, axis=0)
            assert np.array_equal(_next(a), want)
            assert _next(a).tobytes() == want.tobytes() and _next(a).shape == want.shape


# ---------------------------------------------------------------------------
# the screen's secant planes from signed minors


def _probe_rows(W, off, pts):
    """A chunk's probes as _probe_draws gives them: each trial's random
    plane and its secant through pts, as rows (normal, -offset), and
    which rows are trusted."""
    from chebzeros._linalg import _planes_through
    S, trusted = _planes_through(pts)
    return (np.stack([np.column_stack([W, -off]), S], axis=1),
            np.column_stack([np.ones(len(W), bool), trusted]))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_planes_through_match_svd_null_vectors(d):
    from chebzeros._linalg import _planes_through
    pts = fs.derived_rng(26, d).uniform(-1.0, 1.0, (200, d, d))
    H, trusted = _planes_through(pts)
    assert trusted.all()
    assert np.allclose(np.linalg.norm(H[:, :d], axis=1), 1.0, rtol=0.0, atol=1e-15)
    v = np.linalg.svd(np.concatenate([pts, np.ones((200, d, 1))], axis=2))[2][:, -1]
    v /= np.linalg.norm(v[:, :d], axis=1, keepdims=True)
    v *= np.sign(np.sum(v * H, axis=1))[:, None]
    assert np.max(np.abs(v - H)) <= 1e-12
    assert np.max(np.abs(np.matmul(pts, H[:, :d, None])[..., 0] + H[:, d:])) <= 1e-14
    # a stacked row is the one-row plane, and hyperplane_through's, bit for
    # bit; dependent blocks (coincident, collinear or nearly so) and blocks
    # whose plane passes about 1e12 from the origin give a NaN row, and
    # hyperplane_through raises exactly there and on a repeated point
    rng = fs.derived_rng(30, d)
    far = pts[:40] + 10.0 ** rng.uniform(11.0, 13.0, (40, 1, 1)) * rng.standard_normal(d)
    blocks = np.concatenate([pts, _dependent_secant_points(d, rng), far, 1e-300 * pts[:5]])
    H, trusted = _planes_through(blocks)
    assert 0 < np.isnan(H[:, 0]).sum() < len(H) - 200
    for p, h, tr in zip(blocks, H, trusted):
        one = _planes_through(p[None])
        assert one[0][0].tobytes() == h.tobytes() and one[1][0] == tr
        repeated = any((p[i] == p[j]).all() for i in range(d) for j in range(i))
        if np.isnan(h).any():
            assert np.isnan(h).all()
        if np.isnan(h).any() or repeated:
            with pytest.raises(ValueError, match="affinely dependent"):
                cz.hyperplane_through(p)
        else:
            hp, want = cz.hyperplane_through(p), cz.Hyperplane(h[:d], -h[d])
            assert hp.normal.tobytes() == want.normal.tobytes()
            assert np.float64(hp.offset).tobytes() == np.float64(want.offset).tobytes()


def test_planes_through_tiny_point_sets():
    # each block is solved in units of its own max |x|, so a plane reads
    # at most 1e-13 s at its own points of size s; the SVD null vector of
    # the unscaled [P | 1] read up to 1.5e-4 s at s = 1e-12 and gave x = 0
    # for the first pair below
    pts = np.array([[1e-300, 0.0], [0.0, 1e-300]])
    assert np.max(np.abs(cz.hyperplane_through(pts).value(pts))) <= 1e-313
    for d in (2, 3, 4):
        blocks = fs.derived_rng(32, d).uniform(-1.0, 1.0, (300, d, d))
        for s in (1e-6, 1e-9, 1e-12):
            err = max(float(np.max(np.abs(cz.hyperplane_through(s * p).value(s * p))))
                      for p in blocks)
            assert err <= 1e-13 * s, (d, s, err / s)


def _dependent_secant_points(d, rng):
    """Point sets in R^d with two coincident points, d collinear ones (in
    the plane: two 1e-12 apart), or one point off an affine combination of
    the others by 1e-13."""
    base = rng.uniform(-1.0, 1.0, (3, d, d))
    base[0, 1] = base[0, 0]
    t = np.array([0.0, 0.25, 0.5, 1.0, -0.5][:d] if d > 2 else [0.0, 1e-12])
    base[1] = base[1, 0] + t[:, None] * (base[1, 1] - base[1, 0])
    lam = rng.dirichlet(np.ones(d - 1))
    base[2, -1] = lam @ base[2, :-1] + 1e-13 * rng.standard_normal(d)
    return base


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_dependent_secant_points_are_untrusted_and_flagged(d):
    from chebzeros import discrete
    from chebzeros._linalg import _planes_through
    rng = fs.derived_rng(27, d)
    bad = _dependent_secant_points(d, rng)
    assert not _planes_through(bad)[1].any()
    # a convex line, probes that clear it and one trusted secant: only
    # the trials with dependent secant points are flagged
    ts = np.linspace(-1.0, 1.0, 12)
    P = cz.PolyLine(np.stack([ts ** j for j in range(1, d + 1)], axis=1))
    W = np.tile(np.eye(d)[0], (4, 1))
    off = np.full(4, 2.0)
    s = np.array([-0.9, -0.55, 0.3, 0.62, 0.95][:d])  # no vertex there
    good = np.stack([s ** j for j in range(1, d + 1)], axis=1)
    assert _planes_through(good[None])[1][0]
    H, trusted = _probe_rows(W, off, np.concatenate([bad, good[None]]))
    flags = discrete._screen(P, H, trusted, float(np.max(np.abs(P.vertices))))
    assert flags.tolist() == [True, True, True, False]


def _nonconvex_lines():
    """Seeded non-convex open and closed lines in R^2..R^4: Gaussian
    clouds, zigzags, and moment-curve samples with one vertex dented, half
    of these squashed toward a hyperplane by 1e-7, where hits are rare."""
    out = []
    for s in range(24):
        rng = fs.derived_rng(28, s)
        d, closed = 2 + s % 3, bool((s // 3) % 2)
        k = int(rng.integers(d + 3, 14))
        if s % 4 == 0:
            V = rng.standard_normal((k, d))
        elif s % 4 == 1:
            V = np.column_stack([np.arange(k), np.arange(k) % 2,
                                 rng.standard_normal((k, d - 2))])
        else:
            ts = np.linspace(-1.0, 1.0, k)
            V = np.stack([ts ** j for j in range(1, d + 1)], axis=1)
            V[k // 2] += 0.05 * rng.standard_normal(d)
            V[:, -1] *= 1e-7 if s % 4 == 3 else 1.0
        out.append(cz.PolyLine(V * 10.0 ** rng.uniform(-2, 2), closed))
    return out


def test_screen_flags_every_trial_with_an_exact_hit():
    from chebzeros import discrete
    hits = unflagged = 0
    for i, P in enumerate(_nonconvex_lines()):
        V = P.vertices
        mids = 0.5 * (V + np.roll(V, -1, axis=0)) if P.closed else 0.5 * (V[:-1] + V[1:])
        scale = float(np.max(np.abs(V)))
        rng = fs.derived_rng(29, i)
        for start, stop in fs._chunk_bounds(60, P.k):
            W, off, pts = map(np.array, zip(*_reference_draws(V, mids, scale, i, start, stop)))
            # every other trial's secant points moved to within 1e-12 of
            # dependence: one point near an affine combination of the rest
            near = pts[::2]
            lam = rng.dirichlet(np.ones(P.d - 1), len(near))
            near[:, -1] = np.einsum("nk,nkj->nj", lam, near[:, :-1]) \
                + 1e-12 * scale * rng.standard_normal((len(near), P.d))
            H, trusted = _probe_rows(W, off, pts)
            flags = discrete._screen(P, H, trusted, scale)
            for t in range(stop - start):
                hit = discrete._probe_hit(P, H[t])
                hits += hit is not None
                assert hit is None or flags[t], (i, start + t)
                unflagged += not flags[t]
    assert hits > 100 and unflagged > 100


# ---------------------------------------------------------------------------
# the sign-regular certificate of theorem6_check's hypothesis


def _increasing_tuples(m: int, k: int) -> np.ndarray:
    """All C(m, k) increasing k-tuples of range(m), 1 <= k <= m, as rows of
    an intp array in the order of itertools.combinations.  Built a column
    at a time: each row repeats once per choice of its next entry."""
    T = np.arange(m - k + 1)[:, None]
    for j in range(1, k):
        last = T[:, -1]
        counts = m - k + j - last  # next entry: last + 1 .. m - k + j
        rows = np.repeat(np.arange(len(T)), counts)
        starts = np.cumsum(counts) - counts
        T = np.column_stack([T[rows], last[rows] + 1 + np.arange(rows.size) - starts[rows]])
    return T


def _all_minors_sign_regular(P):
    """The all-minors oracle of discrete._sign_regular: every (d+1)-minor
    of [1, (V - v_1) / max|V - v_1|] over increasing vertex tuples is
    trusted by _det_signs and all share one sign; None where
    _sign_regular does not decide."""
    from chebzeros._linalg import _det_signs
    m, d = P.k, P.d
    if (P.closed and (d == 2 or d % 2)) or m <= d + 1:
        return None
    U = P.vertices - P.vertices[0]
    A = np.insert(U / np.max(np.abs(U)), 0, 1.0, axis=1)
    sign, trusted = _det_signs(A[_increasing_tuples(m, d + 1)])
    return bool(trusted.all() and (sign == sign[0]).all())


def test_increasing_tuples_match_combinations():
    from itertools import combinations
    for m in range(1, 15):
        for k in sorted({1, 2, (m + 1) // 2, m}):
            want = np.array(list(combinations(range(m), k)), dtype=np.intp)
            assert np.array_equal(_increasing_tuples(m, k), want.reshape(-1, k))


def _certificate_polylines():
    """Seeded lines inscribed in convex curves (open moment curves in
    R^2..R^4, the closed trig curve in R^4), their vertices perturbed by
    1e-4..1e-1 of the spread so that some stop being convex, then mapped
    by a random affine map at scales 1e-6..1e6."""
    out = []
    for s in range(60):
        rng = fs.derived_rng(2026, s)
        closed = s % 4 == 3
        d = 4 if closed else 2 + s % 3
        k = int(rng.integers(d + 2, 13))
        if closed:
            t = np.sort(rng.uniform(0.0, fs.TWO_PI, k))
            V = np.stack([np.cos(t), np.sin(t), np.cos(2 * t), np.sin(2 * t)], axis=1)
        else:
            t = np.sort(rng.uniform(-1.0, 1.0, k))
            V = np.stack([t ** j for j in range(1, d + 1)], axis=1)
        V = V + 10.0 ** rng.uniform(-4, -1) * rng.standard_normal(V.shape)
        scale = 10.0 ** rng.uniform(-6, 6)
        A = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
        out.append(cz.PolyLine(scale * (V @ A + rng.standard_normal(d)), closed))
    return out


def _equivalence_polylines(scale):
    """Seeded open lines in R^2..R^4 and closed lines in R^4 and R^6, each
    scaled to max |V| = scale: moment and trig curves' inscribed lines, the
    same with their vertices perturbed by 1e-5..1e-1 of the spread,
    lines with one vertex put on an edge, random lines and zigzags, each
    under a random affine map."""
    out = []
    for s in range(150):
        rng = fs.derived_rng(4099, s)
        closed = s % 3 == 2
        d = (4 if s % 2 else 6) if closed else 2 + s % 3
        k = int(rng.integers(d + 2, 12 if d < 6 else 11))
        if closed:
            t = np.sort(rng.uniform(0.0, fs.TWO_PI, k))
            V = np.stack([f(j * t) for j in range(1, d // 2 + 1) for f in (np.cos, np.sin)],
                         axis=1)
        else:
            t = np.sort(rng.uniform(-1.0, 1.0, k))
            V = np.stack([t ** j for j in range(1, d + 1)], axis=1)
        kind = s % 5
        if kind == 1:
            V = V + 10.0 ** rng.uniform(-5, -1) * rng.standard_normal(V.shape)
        elif kind == 2:
            i, lam = int(rng.integers(0, k - 1)), rng.uniform(0.1, 0.9)
            V = np.insert(V, i + 1, lam * V[i] + (1.0 - lam) * V[i + 1], axis=0)
        elif kind == 3:
            V = rng.standard_normal(V.shape)
        elif kind == 4:
            V[1::2, 1:] *= -1.0  # a zigzag through the curve's vertices
        A = rng.standard_normal((d, d)) + 2.0 * np.eye(d)
        V = V @ A + rng.standard_normal(d)
        out.append(cz.PolyLine(scale * V / np.max(np.abs(V)), closed))
    return out


def test_certified_lines_get_no_probe_hit():
    from chebzeros import discrete
    certified = 0
    for i, P in enumerate(_certificate_polylines()):
        if discrete._sign_regular(P):
            certified += 1
            rep = cz.polyline_convexity_check(P, 2000, i)
            assert rep.status == NO_VIOLATION, i
    assert certified >= 15


def test_theorem6_report_matches_probe_only_path(monkeypatch):
    from chebzeros import discrete
    lines = _certificate_polylines() + _equivalence_polylines(1.0)
    masses = [cz.construct_masses(P, 1, i) for i, P in enumerate(lines)]
    got = [repr(cz.theorem6_check(P, 1, m)) for P, m in zip(lines, masses)]
    monkeypatch.setattr(discrete, "_sign_regular", lambda P: None)
    assert got == [repr(cz.theorem6_check(P, 1, m)) for P, m in zip(lines, masses)]


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_certificate_does_not_depend_on_scale(scale):
    from chebzeros import discrete
    ts = np.linspace(-1.0, 1.0, 9)
    t = fs.TWO_PI * np.arange(12) / 12
    zigzag = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0], [4.0, 0.0]])
    cases = [(zigzag, False, False),
             (np.stack([ts, ts ** 2], axis=1), False, True),
             (np.stack([ts, ts ** 2, ts ** 3], axis=1), False, True),
             (np.stack([np.cos(t), np.sin(t), np.cos(2 * t), np.sin(2 * t)], axis=1),
              True, True)]
    for V, closed, want in cases:
        b = np.linspace(-2.0, 3.0, V.shape[1])
        for a in (scale, -scale):
            assert discrete._sign_regular(cz.PolyLine(a * V + a * b, closed)) is want


def test_test_tuples_are_distinct_increasing_rows():
    from chebzeros import discrete
    for m in range(2, 15):
        for k in range(1, m):
            T = discrete._test_tuples(m, k)
            assert T.shape == (k * (m - k) + 1, k) and T.dtype == np.intp
            assert (T[:, 0] >= 0).all() and (T[:, -1] < m).all()
            assert (np.diff(T, axis=1) > 0).all()
            assert len({tuple(r) for r in T.tolist()}) == len(T)
            assert T[0].tolist() == list(range(k))
            # each row is [0, p) + [q, q + k - p): one gap at most
            assert ((np.diff(T, axis=1) > 1).sum(axis=1) <= 1).all()
    T = discrete._test_tuples(14, 5)
    assert len(T) == 46 and math.comb(14, 5) == 2002


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_sign_regular_equals_all_minors_oracle(scale):
    from chebzeros import discrete
    got = []
    for i, P in enumerate(_equivalence_polylines(scale)):
        want = _all_minors_sign_regular(P)
        assert want is not None
        assert discrete._sign_regular(P) is want, i
        got.append(want)
    assert got.count(True) >= 40 and got.count(False) >= 60


def test_sign_regular_decides_a_long_moment_line():
    # 40 vertices on the moment curve in R^4 have C(40, 5) = 658,008
    # 5-minors; the k(m - k) + 1 = 176 test minors certify the line
    from chebzeros import discrete
    t = np.linspace(-1.0, 1.0, 40)
    P = cz.PolyLine(np.stack([t ** j for j in range(1, 5)], axis=1), False)
    assert discrete._sign_regular(P) is True


def _exact_det_sign(M) -> int:
    """The sign of det M, M a float matrix read as the exact rationals
    it holds, by fraction-free (Bareiss) elimination."""
    from fractions import Fraction
    A = [[Fraction(x) for x in row] for row in M.tolist()]
    n, sign, prev = len(A), 1, Fraction(1)
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap], sign = A[swap], A[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) / prev
        prev = A[k][k]
    return sign * ((A[-1][-1] > 0) - (A[-1][-1] < 0))


def test_trusted_det_signs_are_the_exact_signs():
    # the certificate rests on this: every determinant sign _det_signs
    # trusts is the true sign of the float matrix
    from chebzeros import discrete
    from chebzeros._linalg import _det_signs
    rng = fs.derived_rng(8191, 0)
    stacks = []
    for n in range(3, 7):
        Q1 = np.linalg.qr(rng.standard_normal((200, n, n)))[0]
        Q2 = np.linalg.qr(rng.standard_normal((200, n, n)))[0]
        cond = 10.0 ** rng.uniform(2.0, 13.0, 200)
        sv = cond[:, None] ** -np.linspace(0.0, 1.0, n)
        stacks.append(np.einsum("kij,kj,klj->kil", Q1, sv, Q2))
    for s in range(40):
        rng = fs.derived_rng(8191, 1 + s)
        d = 2 + s % 4
        t = np.sort(rng.uniform(-1.0, 1.0, int(rng.integers(d + 2, 10))))
        V = np.stack([t ** j for j in range(1, d + 1)], axis=1)
        V = V + 10.0 ** rng.uniform(-9, -2) * rng.standard_normal(V.shape)
        U = V - V[0]
        A = np.insert(U / np.max(np.abs(U)), 0, 1.0, axis=1)
        stacks.append(A[discrete._test_tuples(len(A), d + 1)])
    trusted_total = untrusted_total = 0
    for Ms in stacks:
        sign, trusted = _det_signs(Ms)
        for M, sg in zip(Ms[trusted], sign[trusted]):
            assert _exact_det_sign(M) == sg
        trusted_total += int(trusted.sum())
        untrusted_total += int((~trusted).sum())
    assert trusted_total >= 600 and untrusted_total >= 50


def test_probe_screen_runs_only_where_undecided(monkeypatch):
    from chebzeros import discrete
    runs = []
    check = discrete.polyline_convexity_check

    def spy(P, *a):
        runs.append(P.k)
        return check(P, *a)

    monkeypatch.setattr(discrete, "polyline_convexity_check", spy)

    def screened(P):
        runs.clear()
        cz.theorem6_check(P, 1, np.ones(P.k))
        return runs == [P.k]

    ts = np.linspace(-1.0, 1.0, 30)
    t = fs.TWO_PI * np.arange(14) / 14
    undecided = [
        cz.PolyLine(np.stack([np.cos(t), np.sin(t), np.cos(2 * t)], axis=1), True),
        _regular_polygon(9),
        cz.PolyLine(np.stack([ts[:4] ** j for j in range(1, 4)], axis=1)),  # m = d + 1
    ]
    for P in undecided:
        assert discrete._sign_regular(P) is None
        assert screened(P)
    certified = [
        cz.PolyLine(np.stack([ts[:10], ts[:10] ** 2], axis=1)),
        cz.PolyLine(np.stack([ts[::3] ** j for j in range(1, 4)], axis=1)),
        cz.PolyLine(np.stack([ts ** j for j in range(1, 5)], axis=1)),  # C(30, 5) minors
        cz.PolyLine(np.stack([np.cos(t), np.sin(t), np.cos(2 * t), np.sin(2 * t)],
                             axis=1), True),
    ]
    for P in certified:
        assert discrete._sign_regular(P) is True
        assert not screened(P)
