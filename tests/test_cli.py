import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from chebzeros import cli
from chebzeros import funcspace as fs

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# argument parsing units


def test_parse_system_kinds():
    s = cli.parse_system("poly:3")
    assert s.order_n == 4 and s.dom.a == -1.0
    s2 = cli.parse_system("poly:2:0:5")
    assert s2.dom.b == 5.0
    assert cli.parse_system("trig:2").order_n == 5
    s3 = cli.parse_system("power:1,2.5:1:3")
    assert s3.order_n == 3  # constant term plus the two powers
    with pytest.raises(ValueError):
        cli.parse_system("fourier:3")


def test_parse_curve_kinds():
    assert cli.parse_curve("moment:3").d == 3
    assert cli.parse_curve("moment:2:-2:2").dom.b == 2.0
    assert cli.parse_curve("trig:2").d == 4
    assert cli.parse_curve("expgraph").d == 2
    assert cli.parse_curve("smoothedpolygon:6").dom.is_circle
    assert cli.parse_curve("sinegraph").label == "sinegraph"
    with pytest.raises(ValueError):
        cli.parse_curve("helix:3")


def test_parse_func_kinds():
    dom = fs.interval(-1.0, 1.0)
    f = cli.parse_func("poly:0,1", dom)  # t
    assert f(np.array([0.25]))[0] == pytest.approx(0.25)
    g = cli.parse_func("roots:-0.5,0.5", dom)
    assert abs(g(np.array([0.5]))[0]) < 1e-12
    h = cli.parse_func("trig:1,0,1", fs.circle())  # 1 + sin t
    assert h(np.array([np.pi / 2]))[0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        cli.parse_func("spline:1", dom)


# ---------------------------------------------------------------------------
# verify reports


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "assertion1", "--trials", "2",
                       "--no-timing")
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == {"schema", "command", "seed", "trials_run",
                        "pass_count", "fail_count", "failures",
                        "error_count", "errors", "wall_time_ms"}
    assert rep["schema"] == 2
    assert rep["command"] == "verify assertion1"
    assert rep["fail_count"] == 0
    assert rep["error_count"] == 0 and rep["errors"] == []
    assert rep["pass_count"] == rep["trials_run"] > 0
    assert rep["wall_time_ms"] == 0


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "verify", "hurwitz", "--trials", "1",
                       "--harmonics", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance,ok,expected,observed"
    assert len(lines) > 1
    assert all(",1," in ln for ln in lines[1:])


def test_no_timing_reruns_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = cli.main(["verify", "theorem6", "--trials", "1", "--seed", "3",
                         "--no-timing", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_theorem6_overrides(capsys):
    code, out, _ = run(capsys, "verify", "theorem6", "--trials", "1",
                       "--n", "1", "--k", "9", "--no-timing")
    assert code == 0
    rep = json.loads(out)
    assert rep["fail_count"] == 0


def test_verify_all_smoke(capsys):
    code, out, _ = run(capsys, "verify", "all", "--trials", "1",
                       "--no-timing")
    assert code == 0
    rep = json.loads(out)
    assert rep["fail_count"] == 0
    assert rep["trials_run"] > 20
    # the instance list, verdicts and expectations are pinned to a
    # reference run (observed values may move in their last digits)
    code, out, _ = run(capsys, "verify", "all", "--trials", "1", "--seed", "0",
                       "--format", "csv")
    assert code == 0
    ref_text = (DATA / "verify_all_t1_s0.csv").read_text(encoding="utf-8")
    got, ref = (list(csv.DictReader(io.StringIO(text)))
                for text in (out, ref_text))
    columns = ("instance", "ok", "expected")
    assert len(got) == len(ref) == 77
    assert [[r[c] for c in columns] for r in got] == \
        [[r[c] for c in columns] for r in ref]


# ---------------------------------------------------------------------------
# synth payloads


def test_synth_ortho_oracle(capsys):
    code, out, _ = run(capsys, "synth", "ortho", "--system", "poly:1",
                       "--points=-0.3333333333333333,0.3333333333333333")
    assert code == 0
    payload = json.loads(out)
    expect = np.array([1.0, 10.0, 1.0]) / np.sqrt(102.0)
    got = np.asarray(payload["heights"])
    assert np.max(np.abs(np.abs(got) - expect)) < 1e-9
    assert payload["sign_changes"] == 2
    assert payload["max_residual"] <= 1e-8


def test_synth_ortho_readme_locations(capsys):
    # README's example; its refined locations print as these exact floats
    code, out, _ = run(capsys, "synth", "ortho", "--system", "poly:3",
                       "--points=-0.6,-0.1,0.4,0.8")
    assert code == 0
    assert json.loads(out)["locations"] == [-0.6000000000000001, -0.1, 0.4, 0.8]
    assert '"locations": [\n    -0.6000000000000001,\n    -0.1,\n    0.4,\n    0.8\n  ]' in out


def test_synth_weight_support(capsys):
    code, out, _ = run(capsys, "synth", "weight", "--system", "poly:1",
                       "--func", "roots:-0.6,-0.2,0.2,0.6")
    assert code == 0
    payload = json.loads(out)
    assert payload["support"] is not None
    assert payload["support"][1] == pytest.approx(0.2, abs=1e-6)


def test_synth_masses_roundtrip(tmp_path, capsys):
    import chebzeros as cz
    P = cz.random_convex_polygon(8, rng_seed=2)
    poly_file = tmp_path / "poly.txt"
    poly_file.write_text(cz.format_polyline(P))
    code, out, _ = run(capsys, "synth", "masses", "--poly", str(poly_file),
                       "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 8 and payload["closed"]
    assert payload["bound"] == 4
    assert payload["sign_changes"] >= 4
    assert payload["max_residual"] <= 1e-10


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_synth_masses_nonconvex_is_reported(tmp_path, capsys):
    poly_file = tmp_path / "zigzag.txt"
    poly_file.write_text("0 0 0\n1 1 0\n2 0 0.1\n3 1 0\n4 0 0\n5 1 0.2\n6 0 0\n")
    code, out, _ = run(capsys, "synth", "masses", "--poly", str(poly_file),
                       "--n", "1")
    payload = _strict_json(out)
    assert code == 1
    assert payload["applicable"] is False and payload["passed"] is False
    assert payload["message"] == "hypothesis violated: not convex"
    assert payload["max_residual"] is None and payload["sign_changes"] is None
    assert payload["bound"] == 4 and len(payload["masses"]) == 7


def test_synth_masses_moment_polyline_file(capsys):
    path = DATA / "moment3_polyline.txt"
    code, out, _ = run(capsys, "synth", "masses", "--poly", str(path), "--n", "1")
    payload = _strict_json(out)
    assert code == 0
    assert payload["applicable"] and payload["passed"] and payload["message"] == ""
    assert payload["k"] == 9 and not payload["closed"]
    assert payload["sign_changes"] >= payload["bound"] == 4


def test_synth_annihilator(capsys):
    code, out, _ = run(capsys, "synth", "annihilator", "--system", "poly:3",
                       "--simple", "-0.4", "--double", "0.3")
    assert code == 0
    payload = json.loads(out)
    co = np.asarray(payload["coeffs"])
    assert np.linalg.norm(co) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# curve payloads


def test_curve_convexity_witness(capsys):
    code, out, _ = run(capsys, "curve", "convexity", "--curve", "sinegraph")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "Counterexample"
    assert payload["witness_crossings"] > 2
    code2, out2, _ = run(capsys, "curve", "convexity", "--curve", "moment:2")
    payload2 = json.loads(out2)
    assert payload2["status"] == "NoViolationFound"


def test_curve_dimension(capsys):
    code, out, _ = run(capsys, "curve", "dimension", "--curve", "expgraph",
                       "--n", "2")
    assert code == 0
    assert json.loads(out)["dimension"] == 6


def test_payload_csv(capsys):
    code, out, _ = run(capsys, "curve", "dimension", "--curve", "moment:2",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(ln.startswith("dimension,") for ln in lines)


def test_verify_all_passes_trials_on(capsys, monkeypatch):
    seen = []

    def stub(args):
        seen.append(cli._trials(args, 5))
        yield "stub", "-", lambda: (True, "-")

    monkeypatch.setattr(cli, "FAMILIES", {"stub": stub})
    code, _, _ = run(capsys, "verify", "all", "--trials", "7", "--no-timing")
    assert code == 0
    code, _, _ = run(capsys, "verify", "all", "--no-timing")
    assert code == 0
    assert seen == [7, 3]


def test_verify_grid_reaches_theorem4_check(capsys, monkeypatch):
    grids = []
    real = cli.theorem4_check

    def spy(curve, **kw):
        grids.append(kw.get("grid_n"))
        return real(curve, **kw)

    monkeypatch.setattr(cli, "theorem4_check", spy)
    code, out, _ = run(capsys, "verify", "example5", "--grid", "1024",
                       "--no-timing")
    assert code == 0 and json.loads(out)["pass_count"] == 3
    assert grids == [1024]


def test_synth_annihilator_grid_reaches_general_annihilator(capsys, monkeypatch):
    grids = []
    real = cli.general_annihilator

    def spy(sys, rp, **kw):
        grids.append(kw.get("grid_n"))
        return real(sys, rp, **kw)

    monkeypatch.setattr(cli, "general_annihilator", spy)
    code, _, _ = run(capsys, "synth", "annihilator", "--system", "poly:3",
                     "--simple=-0.3,0.4", "--grid", "1024")
    assert code == 0
    assert grids == [1024]


def test_verify_zero_valued_flags_are_honoured(capsys):
    # --harmonics 0: trig order 1 on the circle, so m = 2
    code, out, _ = run(capsys, "verify", "hurwitz", "--harmonics", "0",
                       "--trials", "1", "--no-timing", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["instance"] for r in rows] == ["k=0 t=0", "k=0 minimal"]
    assert [r["expected"] for r in rows] == [">= 2", "== 2"]
    # --n 0: moment degree 0, bound 2
    code, out, _ = run(capsys, "verify", "theorem6", "--n", "0", "--k", "8",
                       "--trials", "1", "--no-timing", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["instance"], r["expected"]) for r in rows] == [("n=0 k=8 t=0", ">= 2")]


# ---------------------------------------------------------------------------
# error paths


def test_check_error_is_reported_apart_from_failures(capsys, monkeypatch):
    # a check that raises is an error record, not a violated bound
    def broken(oval):
        raise ValueError("quadrature broke")

    monkeypatch.setattr(cli, "verify_R_orthogonality", broken)
    code, out, _ = run(capsys, "verify", "fourvertex", "--trials", "2",
                       "--no-timing")
    assert code == 1
    rep = json.loads(out)
    assert rep["fail_count"] == 0 and rep["failures"] == []
    assert rep["error_count"] == 2
    assert rep["errors"][0] == {"instance": "oval t=0",
                                "expected": ">= 4, res <= 1e-10",
                                "message": "quadrature broke"}
    assert rep["pass_count"] == 2
    assert rep["pass_count"] + rep["fail_count"] + rep["error_count"] == \
        rep["trials_run"]
    code, out, _ = run(capsys, "verify", "fourvertex", "--trials", "1",
                       "--format", "csv")
    assert code == 1
    assert "oval t=0,0,\">= 4, res <= 1e-10\",error: quadrature broke" in out


def test_exit_2_on_small_grid(capsys):
    code, out, err = run(capsys, "verify", "fourvertex", "--trials", "1",
                         "--grid", "10")
    assert code == 2 and out == "" and "--grid" in err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_exit_2_on_bad_tol(capsys, tol):
    code, out, err = run(capsys, "verify", "theorem1", "--trials", "1",
                         f"--tol={tol}")
    assert code == 2 and out == "" and "--tol" in err


def test_exit_2_on_bad_inputs(capsys):
    code, _, err = run(capsys, "synth", "ortho", "--system", "poly:1",
                       "--points", "0.0,0.3,0.6")
    assert code == 2 and "points" in err
    code2, _, err2 = run(capsys, "curve", "convexity", "--curve", "helix:3")
    assert code2 == 2 and err2
    code3, _, err3 = run(capsys, "synth", "masses", "--poly",
                         "/nonexistent/poly.txt", "--n", "1")
    assert code3 == 2
    code4, _, err4 = run(capsys, "synth", "ortho", "--system", "poly:1")
    assert code4 == 2 and "needs" in err4


@pytest.mark.parametrize("func", ["poly:", "poly:,", "trig:"])
def test_exit_2_on_empty_func_spec(capsys, func):
    code, out, err = run(capsys, "synth", "weight", "--system", "poly:2",
                         "--func", func)
    assert code == 2 and out == "" and "needs" in err


def test_exit_2_on_zero_k(capsys):
    code, out, err = run(capsys, "verify", "theorem6", "--k", "0",
                         "--trials", "1")
    assert code == 2 and out == "" and "too small" in err


@pytest.mark.parametrize("flag", ["--harmonics", "--n"])
def test_exit_2_on_negative_counts(capsys, flag):
    family = "hurwitz" if flag == "--harmonics" else "theorem6"
    code, out, err = run(capsys, "verify", family, f"{flag}=-1", "--trials", "1")
    assert code == 2 and out == "" and flag in err
