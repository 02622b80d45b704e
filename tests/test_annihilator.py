import numpy as np
import pytest

import chebzeros as cz
from chebzeros import funcspace as fs


def test_poly_annihilator_roots_and_signs():
    f = cz.poly_annihilator([-0.5, 0.5], fs.interval(-1.0, 1.0))
    ts = np.array([-0.5, 0.5])
    assert np.allclose(f(ts), 0.0)
    assert f(np.array([0.0]))[0] < 0
    assert f(np.array([1.0]))[0] > 0


def test_trig_annihilator_two_point_oracle():
    # product of sin((t - 0)/2) * sin((t - pi)/2) = -sin(t)/2
    f = cz.trig_annihilator([0.0, np.pi])
    ts = np.linspace(0.0, 2 * np.pi, 17)
    assert np.allclose(f(ts), -0.5 * np.sin(ts), atol=1e-14)


def test_trig_annihilator_four_point_oracle():
    # equally spaced quadruple collapses to -sin(2t)/8
    f = cz.trig_annihilator([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    ts = np.linspace(0.0, 2 * np.pi, 33)
    assert np.allclose(f(ts), -np.sin(2 * ts) / 8.0, atol=1e-14)


def test_trig_annihilator_odd_count_rejected():
    with pytest.raises(ValueError):
        cz.trig_annihilator([0.0, 1.0, 2.0])


def test_default_annihilator_dispatch():
    pts = [0.3, 1.1]
    fi = cz.default_annihilator(pts, fs.interval(0.0, 2.0))
    fc = cz.default_annihilator(pts, fs.circle())
    rep_i = fs.count_sign_changes(fi, fs.interval(0.0, 2.0))
    rep_c = fs.count_sign_changes(fc, fs.circle())
    assert rep_i.count == 2
    assert rep_c.count == 2
    assert np.allclose(rep_i.locations, pts, atol=1e-8)


def test_prescription_feasibility():
    rp = cz.RootPrescription(simple_roots=(0.2,), double_roots=(0.5,))
    # 2p + q = 3
    assert rp.feasible_for(4)
    assert not rp.feasible_for(3)


def test_prescription_validation():
    with pytest.raises(ValueError):
        cz.RootPrescription(simple_roots=(0.2, 0.2), double_roots=())
    with pytest.raises(ValueError):
        cz.RootPrescription(simple_roots=(0.3,), double_roots=(0.3,))


def test_general_annihilator_simple_and_double():
    sys = cz.polynomial_system(3)
    rp = cz.RootPrescription(simple_roots=(-0.4,), double_roots=(0.3,))
    coeffs = cz.general_annihilator(sys, rp)
    assert coeffs.shape == (4,)
    assert np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-12)
    g = fs.combination(sys.basis, coeffs)
    ts = np.array([-0.4, 0.3])
    assert np.max(np.abs(g(ts))) < 1e-8
    # simple root flips sign, double root does not
    eps = 1e-3
    left, right = g(np.array([-0.4 - eps]))[0], g(np.array([-0.4 + eps]))[0]
    assert left * right < 0
    lo, hi = g(np.array([0.3 - eps]))[0], g(np.array([0.3 + eps]))[0]
    assert lo * hi > 0
    rep = fs.count_sign_changes(g, sys.dom)
    assert rep.count == 1


def test_general_annihilator_infeasible():
    sys = cz.polynomial_system(2)
    rp = cz.RootPrescription(simple_roots=(0.1,), double_roots=(0.4,))
    with pytest.raises(ValueError):
        cz.general_annihilator(sys, rp)


def test_general_annihilator_trig():
    sys = cz.trig_system(2)
    rp = cz.RootPrescription(simple_roots=(1.0, 2.5), double_roots=(4.0,))
    coeffs = cz.general_annihilator(sys, rp)
    g = fs.combination(sys.basis, coeffs)
    assert np.max(np.abs(g(np.array([1.0, 2.5, 4.0])))) < 1e-7
    rep = fs.count_sign_changes(g, sys.dom)
    assert rep.count == 2


def test_general_annihilator_decomposes_conditions_once(monkeypatch):
    # the first candidate is the kernel's last column, not a second SVD
    seen = []
    svd = np.linalg.svd

    def spy(A, *args, **kwargs):
        seen.append(np.asarray(A, dtype=float).tobytes())
        return svd(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    rp = cz.RootPrescription(simple_roots=(-0.3,), double_roots=(0.4,))
    cz.general_annihilator(cz.polynomial_system(4), rp)
    assert len(seen) == 1


@pytest.mark.parametrize("rp, checked, drawn", [
    (cz.RootPrescription((-0.3, 0.2), (0.6,)), 1, 0),
    (cz.RootPrescription((0.6626953894475845,), (0.8364323271261284,)), 3, 1),
])
def test_general_annihilator_draws_random_candidates_only_when_needed(
        monkeypatch, rp, checked, drawn):
    # a prescription whose first candidate verifies draws no random kernel
    # combination; one whose third verifies, after both kernel columns,
    # draws one
    from chebzeros import annihilator
    seen, draws = [], []
    verify, rng_of = annihilator._verify_candidate, fs.derived_rng

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def normal(self, *args, **kwargs):
            draws.append(kwargs)
            return self.rng.normal(*args, **kwargs)

    def spy(*args):
        seen.append(args)
        return verify(*args)

    monkeypatch.setattr(annihilator, "_verify_candidate", spy)
    monkeypatch.setattr(fs, "derived_rng", lambda *keys: Counted(rng_of(*keys)))
    cz.general_annihilator(cz.polynomial_system(4), rp)
    assert (len(seen), len(draws)) == (checked, drawn)


def test_annihilator_roots_must_be_one_dimensional():
    dom = fs.interval(-1.0, 1.0)
    for bad in (0.3, [[0.3, 0.5]], [[0.3], [0.5]]):
        with pytest.raises(ValueError, match="1-D"):
            cz.poly_annihilator(bad, dom)
    for bad in ([[1.0, 2.0]], [[1.0], [2.0]], 1.0):
        with pytest.raises(ValueError, match="1-D"):
            cz.trig_annihilator(bad)
