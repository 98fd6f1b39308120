import hashlib
import json
import math
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from crystalsum import cli, qmodular
from crystalsum.cli import main
from crystalsum.freqalg import FreqBasis, sine
from crystalsum.hermite import ks_from_Q, leeyang_real_form
from crystalsum.measures import DiscreteMeasure, pair_from_hb
from crystalsum.qmodular import fplus
from crystalsum.spectra import exact_spectrum


def write_sin_pi_z(path: Path) -> str:
    q = sine(FreqBasis((0.5,)), (1,))
    path.write_text(json.dumps(q.to_json_dict()))
    return str(path)


GUINAND_SPEC = {"N": 4, "r": {"1": "2/3", "2": "-1/3", "4": "2/3"}}
POISSON_SPEC = {"N": 4, "r": {"1": "-2", "2": "5", "4": "-2"}}


def test_ks_poisson_pass(tmp_path):
    qfile = write_sin_pi_z(tmp_path / "q.json")
    out = tmp_path / "run"
    rc = main(["--out", str(out), "--tol", "1e-9", "ks", qfile,
               "--cutoff", "16", "--window", "-16.5", "16.5"])
    assert rc == 0
    pair = json.loads((out / "pair.json").read_text())
    weights = {round(a["x"], 6): a["w"][0] for a in pair["mu"]["atoms"]}
    assert weights[0.0] == pytest.approx(2 * math.pi, rel=1e-10)
    report = json.loads((out / "report.json").read_text())
    assert report["all_pass"]
    assert report["provenance"]["tool"] == "crystalsum"


def test_ks_rejects_rootless_Q(tmp_path):
    q = sine(FreqBasis((0.5,)), (1,)) + 2.0
    qfile = tmp_path / "q.json"
    qfile.write_text(json.dumps(q.to_json_dict()))
    out = tmp_path / "run"
    rc = main(["--out", str(out), "ks", str(qfile)])
    assert rc == 2
    assert not out.exists()  # no partial output


def test_ks_malformed_json(tmp_path):
    bad = tmp_path / "q.json"
    bad.write_text("{not json")
    out = tmp_path / "run"
    assert main(["--out", str(out), "ks", str(bad)]) == 2
    assert not out.exists()


def test_reproducibility_byte_identical(tmp_path):
    qfile = write_sin_pi_z(tmp_path / "q.json")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--out", str(out), "--seed", "3", "ks", qfile,
                     "--cutoff", "8", "--window", "-8.5", "8.5"]) == 0
        outs.append((out / "pair.json").read_bytes()
                    + (out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_eta_guinand_csv_and_reports(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(GUINAND_SPEC))
    out = tmp_path / "run"
    rc = main(["--out", str(out), "eta", "--spec-json", str(spec),
               "--order", "40"])
    assert rc == 0
    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0].startswith("# provenance:")
    assert lines[1] == "n,numerator,denominator"
    assert lines[2] == "0,1,1"
    assert lines[3] == "1,-2,3"
    assert lines[4] == "2,-4,9"
    assert lines[5] == "3,-40,81"
    report = json.loads((out / "selfdual_report.json").read_text())
    assert report["all_pass"] and report["sign"] == 1
    measure = json.loads((out / "measure.json").read_text())
    assert measure["dual_sign"] == 1
    xs = [a["x"] for a in measure["atoms"]]
    assert any(abs(x - math.sqrt(1 / 9)) < 1e-12 for x in xs)


def test_eta_writes_coefficients_past_the_int_digit_limit(tmp_path):
    # Guinand at order 1000 has 714-digit numerators; the limit guards the
    # parsing of input, not the writing of the program's exact results
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(GUINAND_SPEC))
    out = tmp_path / "run"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rc = main(["--out", str(out), "eta", "--spec-json", str(spec), "--order", "1000"])
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert rc == 0
    rows = (out / "series.csv").read_text().splitlines()[2:]
    exact = fplus(qmodular.EtaProductSpec(4, {1: F(2, 3), 2: F(-1, 3), 4: F(2, 3)}),
                  F(1000)).relative_coefficients()
    assert max(len(str(c.numerator)) for c in exact) > 640
    assert rows == [f"{j},{c.numerator},{c.denominator}" for j, c in enumerate(exact)]


def test_eta_sparse_series_tail_stays_finite(tmp_path):
    # 110 entries up to n = 47961: the tail bound's lead term used to
    # overflow in growth^(gap) and end the run with exit 2
    out = tmp_path / "run"
    assert main(["--out", str(out), "eta", "--family-l", "1", "--order", "6000"]) == 0
    report = json.loads((out / "selfdual_report.json").read_text())
    assert report["all_pass"] is True
    assert all(isinstance(v, float) for v in report["functional_equation_residuals"].values())


def test_eta_poisson_theta_csv(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(POISSON_SPEC))
    out = tmp_path / "run"
    assert main(["--out", str(out), "eta", "--spec-json", str(spec),
                 "--order", "30"]) == 0
    rows = (out / "series.csv").read_text().splitlines()[2:]
    coeffs = {int(r.split(",")[0]): int(r.split(",")[1]) for r in rows}
    assert coeffs[0] == 1 and coeffs[1] == 2 and coeffs[4] == 2
    assert coeffs[2] == 0 and coeffs[3] == 0


# sha256 of the README eta commands' series.csv after its provenance line
@pytest.mark.parametrize("argv, digest", [
    (["--spec-json", "{spec}", "--order", "300"],
     "17df8004686212bf1e7e5d1d27edd6e2dca49b208421a5e96a6d471ce144ebc6"),
    (["--family-l", "1", "--order", "200", "--minus"],
     "75ca423e9a5195da3449b0c4f5e43eeff3d11267bb02010e0c90ee010ee90398"),
], ids=["guinand-300", "minus-l1-200"])
def test_readme_eta_csv_bytes_are_pinned(tmp_path, argv, digest):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(GUINAND_SPEC))
    out = tmp_path / "run"
    assert main(["--out", str(out), "eta", *(a.format(spec=spec) for a in argv)]) == 0
    body = (out / "series.csv").read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(body).hexdigest() == digest


def test_eta_csv_rows_follow_the_declared_unit(tmp_path):
    # eta(2z) = q^{1/12} prod (1 - q^{2j}) lives on even steps only, but the
    # eta-product lattice 1/12 + Z>=0 has unit 1, so the odd rows print zeros
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"N": 4, "r": {"2": "1"}}))
    out = tmp_path / "run"
    assert main(["--out", str(out), "eta", "--spec-json", str(spec), "--order", "6"]) == 0
    rows = (out / "series.csv").read_text().splitlines()[2:]
    assert rows == ["0,1,1", "1,0,1", "2,-1,1", "3,0,1", "4,-1,1"]


def test_eta_rejects_bad_exponents(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"N": 4, "r": {"1": "1", "2": "1", "4": "-2"}}))
    out = tmp_path / "run"
    assert main(["--out", str(out), "eta", "--spec-json", str(spec)]) == 2
    assert not out.exists()


def test_eta_family_minus(tmp_path):
    out = tmp_path / "run"
    rc = main(["--out", str(out), "eta", "--family-l", "1",
               "--order", "200", "--minus"])
    assert rc == 0
    report = json.loads((out / "selfdual_report.json").read_text())
    assert report["sign"] == -1 and report["all_pass"]
    rows = (out / "series.csv").read_text().splitlines()[2:]
    assert rows[0] == "0,1,1"
    assert rows[1] == "1,-33,1"
    assert rows[2] == "2,288,1"


def test_spectrum_csv(tmp_path):
    qfile = write_sin_pi_z(tmp_path / "q.json")
    pair_out = tmp_path / "pair_run"
    assert main(["--out", str(pair_out), "ks", qfile, "--cutoff", "6",
                 "--window", "-6.5", "6.5"]) == 0
    out = tmp_path / "spec_run"
    rc = main(["--out", str(out), "spectrum", str(pair_out / "pair.json"),
               "--lambdas", "0", "1", "2", "-1", "--y", "0.3",
               "--T", "2000", "--cutoff", "4"])
    assert rc == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 4
    by_lam = {float(r[0]): r for r in rows}
    assert float(by_lam[0.0][1]) == pytest.approx(math.pi, rel=1e-12)
    assert float(by_lam[1.0][1]) == pytest.approx(2 * math.pi, rel=1e-12)
    assert float(by_lam[-1.0][1]) == 0.0   # nonnegative spectrum
    assert float(by_lam[1.0][5]) < 1e-3    # numeric agrees


def test_spectrum_empty_lambda_list(tmp_path):
    qfile = write_sin_pi_z(tmp_path / "q.json")
    pair_out = tmp_path / "p"
    assert main(["--out", str(pair_out), "ks", qfile, "--cutoff", "16",
                 "--window", "-16.5", "16.5"]) == 0
    out = tmp_path / "s"
    assert main(["--out", str(out), "spectrum",
                 str(pair_out / "pair.json")]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert len(lines) == 2  # provenance + header only


def test_kernel_report(tmp_path):
    qfile = write_sin_pi_z(tmp_path / "q.json")
    pair_out = tmp_path / "p"
    assert main(["--out", str(pair_out), "ks", qfile, "--cutoff", "16",
                 "--window", "-16.5", "16.5"]) == 0
    out = tmp_path / "k"
    rc = main(["--out", str(out), "kernel", str(pair_out / "pair.json"),
               "--points", "0,1", "1,2", "--R", "200"])
    assert rc == 0
    rep = json.loads((out / "kernel_report.json").read_text())
    assert rep["all_within_tail"]
    assert rep["n_roots"] == 401
    for e in rep["entries"]:
        assert e["eform_diff"] <= 1e-8
        assert e["within_tail"]


def test_kernel_rejects_real_axis_points(tmp_path):
    qfile = write_sin_pi_z(tmp_path / "q.json")
    pair_out = tmp_path / "p"
    assert main(["--out", str(pair_out), "ks", qfile, "--cutoff", "16",
                 "--window", "-16.5", "16.5"]) == 0
    out = tmp_path / "k"
    assert main(["--out", str(out), "kernel", str(pair_out / "pair.json"),
                 "--points", "0.5,0"]) == 2


def test_selfdual_command(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(GUINAND_SPEC))
    eta_out = tmp_path / "eta"
    assert main(["--out", str(eta_out), "eta", "--spec-json", str(spec),
                 "--order", "300"]) == 0
    out = tmp_path / "sd"
    rc = main(["--out", str(out), "selfdual",
               str(eta_out / "measure.json"), "--ys", "0.5", "1", "2"])
    assert rc == 0
    rep = json.loads((out / "selfdual_report.json").read_text())
    assert rep["all_pass"]


def test_pair_check_command(tmp_path):
    qfile = write_sin_pi_z(tmp_path / "q.json")
    pair_out = tmp_path / "p"
    assert main(["--out", str(pair_out), "ks", qfile, "--cutoff", "16",
                 "--window", "-16.5", "16.5"]) == 0
    out = tmp_path / "pc"
    rc = main(["--out", str(out), "--tol", "1e-8", "pair-check",
               str(pair_out / "pair.json"), "--count", "6"])
    assert rc == 0
    rep = json.loads((out / "pair_check_report.json").read_text())
    assert rep["all_pass"] and len(rep["reports"]) == 6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # window_tail overflows past 1e308
def test_pair_check_never_passes_a_non_finite_tail(tmp_path):
    qfile = write_sin_pi_z(tmp_path / "q.json")
    pair_out = tmp_path / "p"
    assert main(["--out", str(pair_out), "ks", qfile, "--cutoff", "16",
                 "--window", "-16.5", "16.5"]) == 0
    pair = json.loads((pair_out / "pair.json").read_text())
    pair["mu"]["window"] = [-16.5, 1e308]
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(pair))
    out = tmp_path / "pc"
    rc = main(["--out", str(out), "pair-check", str(wide), "--count", "2"])
    rep = json.loads((out / "pair_check_report.json").read_text())
    assert rc == (0 if rep["all_pass"] else 1)
    for r in rep["reports"]:
        finite = all(map(math.isfinite, [r["residual"], *r["tails"]]))
        assert finite or r["verdict"] == "inconclusive"


@pytest.mark.parametrize("N, codes", [(2**70, {2}), (999_999_999_989, {0, 1})],
                         ids=["2^70", "prime-below-the-bound"])
def test_eta_level_is_bounded_and_its_divisors_are_quick(tmp_path, N, codes):
    # trial division to sqrt(N) finds the divisors; a level past
    # qmodular.MAX_LEVEL is refused before the search
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"N": N, "r": {"1": "1/2", str(N): "1/2"}}))
    t = time.perf_counter()
    rc = main(["--out", str(tmp_path / "run"), "eta", "--spec-json", str(spec)])
    assert rc in codes and time.perf_counter() - t < 1.0


# raw JSON text: 1e400 parses to an infinite float
BAD_ETA_SPECS = {"r_list": '{"N": 4, "r": [1, 2]}',
                 "r_zero_den": '{"N": 4, "r": {"1": "1/0", "2": "1", "4": "1/0"}}',
                 "r_null": '{"N": 4, "r": {"1": null, "2": "1", "4": null}}',
                 "N_inf": '{"N": 1e400, "r": {"1": "1"}}',
                 "N_true": '{"N": true, "r": {"1": "1"}}',
                 "N_str": '{"N": "4", "r": {"1": "2/3", "2": "-1/3", "4": "2/3"}}',
                 "N_huge": '{"N": 1180591620717411303424, "r": {"1": "1"}}'}


@pytest.mark.parametrize("argv", [
    ["ks", "{q}", "--cutoff", "-1"],
    ["ks", "{q}", "--window", "5", "-5"],
    ["kernel", "{H}", "--R", "0"],
    ["spectrum", "{H}", "--lambdas", "1", "--T", "-3"],
    ["spectrum", "{H}", "--T", "-3"],
    ["spectrum", "{H}", "--y", "-1"],
    ["eta", "--spec-json", "{r_list}"],
    ["eta", "--spec-json", "{r_zero_den}"],
    ["eta", "--spec-json", "{r_null}"],
    ["eta", "--spec-json", "{N_inf}"],
    ["eta", "--family-l", "1/0"],
    ["eta", "--family-l", "1", "--order", "1/0"],
    ["eta", "--family-l", "1", "--window", "3", "-3"],
    ["eta", "--family-l", "1", "--window", "2", "2"],
    ["eta", "--family-l", "1", "--window", "nan", "5"],
    ["eta", "--family-l", "1", "--window", "0", "inf"],
    ["spectrum", "{H}", "--lambdas", "1", "--T", "inf"],
    ["spectrum", "{H}", "--lambdas", "1", "--y", "inf"],
    ["spectrum", "{H}", "--T", "nan"],
    ["ks", "{q}", "--count", "0"],
    ["pair-check", "{pair}", "--count", "0"],
    ["--tol", "-1", "ks", "{q}"],
    ["--tol", "nan", "pair-check", "{pair}"],
    ["--tol", "inf", "pair-check", "{pair}"],
    ["--tol", "0", "selfdual", "{measure}"],
    # non-finite values, each rejected where it enters the library
    ["ks", "{q}", "--cutoff", "inf"],
    ["spectrum", "{H}", "--cutoff", "inf"],
    ["spectrum", "{H}", "--lambdas", "inf"],
    ["spectrum", "{H}", "--lambdas", "nan"],
    ["spectrum", "{H}", "--cutoff", "4", "--lambdas", "1", "nan"],
    ["kernel", "{H}", "--R", "inf"],
    ["kernel", "{H}", "--points", "0,nan"],
    ["eta", "--family-l", "1", "--order", "1e400"],
    ["eta", "--family-l", "1", "--order", "1e12", "--minus"],
    ["eta", "--spec-json", "{guinand}", "--order", "1e12"],
    ["selfdual", "{measure}", "--ys", "nan"],
    ["selfdual", "{measure}", "--ys", "inf"],
    ["selfdual", "{measure}", "--ys"],
    # work bounds: just above each limit, so a build without the check
    # spends seconds, not memory
    ["spectrum", "{H}", "--lambdas", "1", "--T", "2e6"],
    ["spectrum", "{H}", "--T", "1e300"],
    ["pair-check", "{pair}", "--count", "10001"],
    ["ks", "{q}", "--count", "10001"],
    # validation data that would make every grid sample NaN, or is no grid
    ["kernel", "{pair_inf_grid}"],
    ["kernel", "{pair_nx_frac}"],
    ["kernel", "{pair_nx_str}"],
    ["kernel", "{pair_nan_E}"],
    ["ks", "{q_nan}"],
    # the exact spectrum's atom bound, just above it
    ["spectrum", "{H}", "--cutoff", "1e5", "--lambdas", "1"],
    ["ks", "{q}", "--cutoff", "1e5"],
    # the root scan's grid bound
    ["kernel", "{H}", "--R", "1e8"],
    ["ks", "{q}", "--window", "-1e8", "1e8"],
    # kernel points at or beyond the window radius have no tail bound
    ["kernel", "{H}", "--points", "25,1", "--R", "20"],
    ["kernel", "{H}", "--points", "1e300,1", "--R", "20"],
    # malformed JSON: a wrong shape or type, each read where the JSON is read
    ["ks", "{q_c_short}"],
    ["ks", "{q_den_float}"],
    ["pair-check", "{pair_w_short}"],
    ["pair-check", "{pair_meta_str}"],
    ["pair-check", "{pair_antipodal_str}"],
    ["selfdual", "{measure_sign_str}"],
    ["selfdual", "{measure_sign_list}"],
    ["selfdual", "{measure_sign_2}"],
    ["selfdual", "{measure_sign_true}"],
    ["selfdual", "{measure_prov_b0}"],
    ["spectrum", "{top_list}"],
    ["kernel", "{top_list}"],
    ["spectrum", "{pair_E_c_short}"],
    ["kernel", "{pair_E_c_short}"],
    # the kernel's work bound: 101 points are 10201 (w, z) entries
    ["kernel", "{H}", "--points", *["0,1"] * 101],
    # the eta spec's level and a measure's positions and window are JSON numbers
    ["eta", "--spec-json", "{N_true}"],
    ["eta", "--spec-json", "{N_str}"],
    ["eta", "--spec-json", "{N_huge}"],
    # weights are finite numbers, as positions and windows are
    ["pair-check", "{pair_w_inf}"],
    ["pair-check", "{pair_w_nan}"],
    ["selfdual", "{measure_w_inf}"],
    ["selfdual", "{measure_x_str}"],
    ["selfdual", "{measure_x_true}"],
    ["selfdual", "{measure_window_str}"],
    ["selfdual", "{measure_window_nan}"],
    ["selfdual", "{measure_window_reversed}"],
])
def test_invalid_input_exits_2_with_an_error_line(tmp_path, capsys, argv):
    files = {"q": write_sin_pi_z(tmp_path / "q.json"), "H": tmp_path / "H.json",
             "pair": tmp_path / "pair.json", "measure": tmp_path / "measure.json"}
    H = ks_from_Q(sine(FreqBasis((0.5,)), (1,)))
    files["H"].write_text(json.dumps(H.to_json_dict()))
    files["pair"].write_text(json.dumps(pair_from_hb(H, 4.0, (-4.5, 4.5))
                                        .to_json_dict()))
    measure = DiscreteMeasure([0.0], [1.0], (-1.0, 1.0), dual_sign=1).to_json_dict()
    files["measure"].write_text(json.dumps(measure))
    bad = {**BAD_ETA_SPECS, "guinand": json.dumps(GUINAND_SPEC),
           **bad_validation_inputs(json.loads(files["pair"].read_text()),
                                   H.to_json_dict(), json.loads(Path(files["q"]).read_text()),
                                   measure)}
    for name, text in bad.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(text)
    out = tmp_path / "run"
    argv = [a.format(**files) for a in argv]
    assert main(["--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()
    if "1e8" in argv:  # the CLI's scan bound names the option and its limit
        option = "--R" if "--R" in argv else "--window"
        assert option in err and "grid points" in err
        assert f"{cli.MAX_SCAN_GRID_POINTS:,}" in err
    if "20" in argv:  # names the point and the radius
        assert "point (" in err and "--R 20" in err


@pytest.mark.parametrize("refused, accepted", [
    (["ks", "{q}", "--window", "-10", "10"], ["ks", "{q}", "--window", "-6", "6"]),
    (["kernel", "{H}", "--R", "10"], ["kernel", "{H}", "--R", "6"]),
])
def test_scan_bound_refuses_before_any_grid(tmp_path, capsys, monkeypatch, refused, accepted):
    # at step 1/8, a window of width 20 needs 161 grid points and width 12 needs 97
    monkeypatch.setattr(cli, "MAX_SCAN_GRID_POINTS", 100)
    files = {"q": write_sin_pi_z(tmp_path / "q.json"), "H": tmp_path / "H.json"}
    files["H"].write_text(json.dumps(ks_from_Q(sine(FreqBasis((0.5,)), (1,))).to_json_dict()))
    assert main(["--out", str(tmp_path / "ok"), *(a.format(**files) for a in accepted)]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a root scan started")
    monkeypatch.setattr(cli, "pair_from_hb", refuse)
    monkeypatch.setattr(cli, "kernel_context", refuse)
    out = tmp_path / "run"
    assert main(["--out", str(out), *(a.format(**files) for a in refused)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {refused[2]} needs 161 root-scan grid points, more than " \
                  "the 100 allowed\n"
    assert not out.exists()


def bad_validation_inputs(pair, H, q, measure):
    """JSON texts: pairs whose meta.H has a bad grid or a NaN in E, a Q with
    a NaN coefficient (json writes them as Infinity and NaN), and Q, pair,
    H and measure JSON with a value of the wrong shape or type."""
    def pair_with(edit):
        h = json.loads(json.dumps(H))
        edit(h)
        return json.dumps({**pair, "meta": {**pair["meta"], "H": h}})

    def edited(d, edit):
        d = json.loads(json.dumps(d))
        edit(d)
        return json.dumps(d)
    grid = lambda **kw: lambda h: h["certificate"]["grid"].update(kw)
    prov = {"form": "sqrt", "n": 1, "b": 0, "N": 4}
    return {"pair_inf_grid": pair_with(grid(x=[-math.inf, math.inf])),
            "pair_nx_frac": pair_with(grid(nx=2.5)),
            "pair_nx_str": pair_with(grid(nx="400")),
            "pair_nan_E": pair_with(lambda h: h["E"]["terms"][0].update(c=[math.nan, 0.0])),
            "q_nan": edited(q, lambda d: d["terms"][0].update(c=[math.nan, -0.5])),
            "q_c_short": edited(q, lambda d: d["terms"][0].update(c=[0.0])),
            "q_den_float": edited(q, lambda d: d.update(denominator=1.5)),
            "pair_w_short": edited(pair, lambda d: d["mu"]["atoms"][0].update(w=[1.0])),
            "pair_w_inf": edited(pair, lambda d: d["mu"]["atoms"][5].update(w=[math.inf, 0.0])),
            "pair_w_nan": edited(pair, lambda d: d["a"]["atoms"][0].update(w=[1.0, math.nan])),
            "measure_w_inf": edited(measure, lambda d: d["atoms"][0].update(w=[1.0, -math.inf])),
            "pair_meta_str": edited(pair, lambda d: d.update(meta="x")),
            "pair_antipodal_str": edited(pair, lambda d: d["meta"].update(real_antipodal="no")),
            "pair_E_c_short": pair_with(lambda h: h["E"]["terms"][0].update(c=[1.0])),
            "measure_sign_str": edited(measure, lambda d: d.update(dual_sign="1")),
            "measure_sign_list": edited(measure, lambda d: d.update(dual_sign=[1])),
            "measure_sign_2": edited(measure, lambda d: d.update(dual_sign=2)),
            "measure_sign_true": edited(measure, lambda d: d.update(dual_sign=True)),
            # two atoms, so that merging compares their radicands
            "measure_prov_b0": edited(measure, lambda d: d.update(atoms=[
                {"x": -0.5, "w": [1.0, 0.0], "prov": prov},
                {"x": 0.5, "w": [1.0, 0.0], "prov": prov}])),
            "measure_x_str": edited(measure, lambda d: d["atoms"][0].update(x="0.0")),
            "measure_x_true": edited(measure, lambda d: d["atoms"][0].update(x=True)),
            "measure_window_str": edited(measure, lambda d: d.update(window=["-1", "1"])),
            "measure_window_nan": edited(measure, lambda d: d.update(window=[-1.0, math.nan])),
            # no atoms, so no support check meets the reversed window
            "measure_window_reversed": edited(measure, lambda d: d.update(
                atoms=[], window=[1.0, -1.0])),
            "top_list": "[1]"}


@pytest.mark.parametrize("lam", ["1.4142135624", "1.41421356237",
                                 "1.4142135623730951"])
def test_spectrum_matches_irrational_atoms_within_the_merge_tolerance(tmp_path, lam):
    th = math.pi / 4
    U = [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
    H = ks_from_Q(leeyang_real_form(U, [(1, 0), (0, 1)],
                                    FreqBasis((1.0, math.sqrt(2)))))
    hfile = tmp_path / "H.json"
    hfile.write_text(json.dumps(H.to_json_dict()))
    atom, = (c for _, val, c in exact_spectrum(H, 2.0).sorted_atoms()
             if val == math.sqrt(2))
    out = tmp_path / "run"
    assert main(["--out", str(out), "spectrum", str(hfile), "--lambdas", lam,
                 "--cutoff", "2", "--T", "20"]) == 0
    row = (out / "spectrum.csv").read_text().splitlines()[2].split(",")
    assert complex(float(row[1]), float(row[2])) == atom
    assert atom.real == pytest.approx(-2 * math.pi, rel=1e-4)


@pytest.mark.parametrize("argv, unused", [
    (["eta", "--family-l", "1", "--minus"], "fplus"),
    (["eta", "--spec-json", "{spec}", "--minus"], "fplus"),
    (["eta", "--family-l", "1"], "fminus"),
])
def test_eta_builds_only_the_requested_series(tmp_path, monkeypatch, argv, unused):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{unused} was called")
    monkeypatch.setattr(qmodular, unused, refuse)
    monkeypatch.setattr(cli, unused, refuse)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"N": 4, "r": {"1": "1", "2": "-1", "4": "1"}}))
    argv = [a.format(spec=spec) for a in argv]
    assert main(["--out", str(tmp_path / "run"), *argv]) == 0


def test_eta_empty_measure_does_not_pass(tmp_path):
    out = tmp_path / "run"
    assert main(["--out", str(out), "eta", "--family-l", "1",
                 "--order", "0"]) == 1
    assert json.loads((out / "measure.json").read_text())["atoms"] == []
    report = json.loads((out / "selfdual_report.json").read_text())
    assert report["all_pass"] is False
    assert {r["verdict"] for r in report["gaussian_reports"]} == {"inconclusive"}


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("argv, same_as", [
    (["ks", "{q}", "--window", "-1e1", "1e1", "--count", "2"],
     ["ks", "{q}", "--window", "-10", "10", "--count", "2"]),
    (["spectrum", "{H}", "--lambdas", "-1e-3", "1", "--T", "50"],
     ["spectrum", "{H}", "--lambdas", "-0.001", "1", "--T", "50"]),
    (["kernel", "{H}", "--points", "-0.5,1", "--R", "20"],
     ["kernel", "{H}", "--points=-0.5,1", "--R", "20"]),
])
def test_negative_numbers_in_any_spelling_are_values(tmp_path, argv, same_as):
    files = {"q": write_sin_pi_z(tmp_path / "q.json"), "H": tmp_path / "H.json"}
    files["H"].write_text(json.dumps(ks_from_Q(sine(FreqBasis((0.5,)), (1,))).to_json_dict()))
    trees = []
    for name, args in (("a", argv), ("b", same_as)):
        assert main(["--out", str(tmp_path / name), *(a.format(**files) for a in args)]) == 0
        trees.append(_tree(tmp_path / name))
    assert trees[0] == trees[1] and trees[0]


def test_spectrum_negative_lambda_without_cutoff(tmp_path):
    # with no --cutoff, the default stays nonnegative below a negative lambda
    H = ks_from_Q(sine(FreqBasis((0.5,)), (1,)))
    hfile = tmp_path / "H.json"
    hfile.write_text(json.dumps(H.to_json_dict()))
    out = tmp_path / "run"
    assert main(["--out", str(out), "spectrum", str(hfile), "--lambdas", "-5",
                 "--T", "50"]) == 0
    row = (out / "spectrum.csv").read_text().splitlines()[2].split(",")
    assert float(row[0]) == -5 and float(row[1]) == float(row[2]) == 0.0
