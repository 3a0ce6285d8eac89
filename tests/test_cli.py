"""Command line front end: argument handling, output formats, exit
codes, and determinism."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from rmtcorr import cli
from rmtcorr.cli import main
from rmtcorr.engine import CorrelationRequest, CorrelationResult, evaluate
from rmtcorr.ensembles import EnsembleSpec
from rmtcorr.kernels import IncrementedPoint


@pytest.fixture
def gauss_cfg(tmp_path):
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps({"N": 4, "family": "gaussian", "scale": 1.0}))
    return str(path)


@pytest.fixture
def ht_cfg(tmp_path):
    path = tmp_path / "ht.json"
    path.write_text(json.dumps(
        {"N": 4, "family": "higher_trace", "M1": 4, "M2": 1, "b": "auto"}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_corr_csv_grid(capsys, gauss_cfg):
    code, out, _ = run(capsys, "corr", "--ensemble", gauss_cfg,
                       "--grid", "-2:2:9", "--method", "closed_form_gue",
                       "--variant", "R")
    assert code == 0
    lines = out.strip().splitlines()
    header = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#") and not l.startswith("method")]
    assert any("version:" in l for l in header)
    assert any("config_hash:" in l for l in header)
    assert any("conventions:" in l for l in header)
    assert any("integral_r1:" in l for l in header)
    assert len(data) == 9
    row = data[4].split(",")
    assert row[0] == "closed_form_gue" and row[1] == "R"
    assert abs(float(row[3])) < 1e-12  # grid midpoint x = 0
    assert float(row[4]) > 0  # density positive


def test_corr_json_format(capsys, ht_cfg):
    code, out, _ = run(capsys, "corr", "--ensemble", ht_cfg,
                       "--grid", "0:1:3", "--method", "closed_form_higher_trace",
                       "--variant", "R", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["header"]["version"]
    assert doc["columns"][:3] == ["method", "variant", "k"]
    assert len(doc["rows"]) == 3
    assert "integral_r1" in doc["footer"]


def test_corr_deterministic(capsys, gauss_cfg):
    a = run(capsys, "corr", "--ensemble", gauss_cfg, "--grid", "-1:1:5")
    b = run(capsys, "corr", "--ensemble", gauss_cfg, "--grid", "-1:1:5")
    assert a == b


def test_corr_k2_metric(capsys, gauss_cfg):
    code, out, _ = run(capsys, "corr", "--ensemble", gauss_cfg, "--k", "2",
                       "--grid", "-1:1:3", "--metric", "+-",
                       "--variant", "Rhat")
    assert code == 0
    data = [l for l in out.strip().splitlines()
            if not l.startswith("#") and not l.startswith("method")]
    assert len(data) == 9


def test_corr_output_file(capsys, tmp_path, gauss_cfg):
    dest = tmp_path / "out.csv"
    code, out, _ = run(capsys, "corr", "--ensemble", gauss_cfg,
                       "--grid", "-1:1:3", "--output", str(dest))
    assert code == 0
    assert dest.exists() and "value_re" in dest.read_text()


@pytest.fixture
def gauss6_cfg(tmp_path):
    path = tmp_path / "gauss6.json"
    path.write_text(json.dumps({"N": 6, "family": "gaussian"}))
    return str(path)


@pytest.mark.parametrize("variant", ["R", "Rhat"])
@pytest.mark.parametrize("metric, levels", [("+", 6.0), ("-", -6.0)])
def test_corr_footer_integrates_r1(capsys, gauss6_cfg, variant, metric, levels):
    # R_1 is value_re for R and value_im for Rhat; it integrates to +-N
    code, out, _ = run(capsys, "corr", "--ensemble", gauss6_cfg, "--grid", "-9:9:401",
                       "--variant", variant, "--metric", metric)
    assert code == 0
    footer = float(out.strip().splitlines()[-1].split(":")[1])
    assert abs(footer - levels) < 1e-9


def counting_engine(monkeypatch):
    """Count the CLI's evaluate_grid calls: the rows of each call, and the
    one-row calls that raise."""
    calls = {"evaluate_grid": 0, "rows": [], "one_row_failures": 0}

    def counted(spec, k, probe, *args, fn=cli.evaluate_grid):
        calls["evaluate_grid"] += 1
        calls["rows"].append(len(probe))
        try:
            return fn(spec, k, probe, *args)
        except Exception:
            calls["one_row_failures"] += len(probe) == 1
            raise
    monkeypatch.setattr(cli, "evaluate_grid", counted)
    return calls


def test_corr_bad_format_exits_2_before_evaluating(capsys, monkeypatch, gauss6_cfg):
    calls = counting_engine(monkeypatch)
    code, out, err = run(capsys, "corr", "--ensemble", gauss6_cfg, "--grid", "36:40:5",
                         "--method", "closed_form_gue", "--variant", "Rhat",
                         "--format", "xml")
    assert code == 2 and out == "" and "failure" not in err
    assert calls["evaluate_grid"] == 0


def test_corr_evaluates_its_table_in_one_call(capsys, monkeypatch, gauss6_cfg):
    calls = counting_engine(monkeypatch)
    code, out, _ = run(capsys, "corr", "--ensemble", gauss6_cfg, "--k", "2",
                       "--grid", "-3:3:3", "--metric", "+-", "--variant", "Rhat")
    assert code == 0 and calls["evaluate_grid"] == 1 and calls["rows"] == [9]
    rows = [line.split(",") for line in out.splitlines()
            if line[:1] not in ("#", "m")]
    assert [(float(r[3]), float(r[4])) for r in rows] == \
        [(x, y) for x in (-3.0, 0.0, 3.0) for y in (-3.0, 0.0, 3.0)]


@pytest.mark.filterwarnings("error")
def test_corr_grid_keeps_per_point_failures(capsys, monkeypatch, gauss6_cfg):
    # exp(x^2/2) is not finite past x ~ 37.7: the grid call raises, and the
    # table is split in halves, (36, 37) | (38 | (39 | 40)), down to the
    # failing points, each evaluated alone and reported
    calls = counting_engine(monkeypatch)
    code, out, err = run(capsys, "corr", "--ensemble", gauss6_cfg, "--grid", "36:40:5",
                         "--method", "closed_form_gue", "--variant", "Rhat")
    assert code == 1 and calls["evaluate_grid"] == 7 and calls["one_row_failures"] == 3
    assert calls["rows"] == [5, 2, 3, 1, 2, 1, 1]
    rows = [line for line in out.splitlines() if line[:1] not in ("#", "m")]
    assert [float(r.split(",")[3]) for r in rows] == [36.0, 37.0]
    failures = err.strip().splitlines()
    assert [f.split(":")[0] for f in failures] == [
        f"numeric failure at ({x},)" for x in (38.0, 39.0, 40.0)]
    assert all("overflows" in f for f in failures)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_corr_evaluates_only_failing_points_alone(capsys, monkeypatch, gauss6_cfg):
    # the three points at either end of -38:38:601 fail; halving the table
    # evaluates just those six alone, and prints what evaluating every
    # point alone prints
    calls = counting_engine(monkeypatch)
    code, out, err = run(capsys, "corr", "--ensemble", gauss6_cfg, "--grid", "-38:38:601",
                         "--method", "closed_form_gue", "--variant", "Rhat")
    xs = np.linspace(-38.0, 38.0, 601)
    spec = EnsembleSpec.gaussian(6)
    alone, failed = [], []
    for x in xs:
        try:
            v = evaluate(CorrelationRequest(spec, 1, [IncrementedPoint(x)], "Rhat",
                                            "closed_form_gue")).value
            alone.append((x, complex(v)))
        except ValueError:
            failed.append(f"numeric failure at ({x},)")
    assert code == 1 and len(failed) == 6
    assert calls["one_row_failures"] == 6
    # at most two calls per level of halving for each failing point
    assert calls["evaluate_grid"] <= 1 + 2 * 6 * math.ceil(math.log2(601))
    rows = [line.split(",") for line in out.splitlines() if line[:1] not in ("#", "m")]
    assert [(float(r[3]), complex(float(r[4]), float(r[5]))) for r in rows] == alone
    assert [f.split(":")[0] for f in err.strip().splitlines()] == failed


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_corr_non_finite_value_is_a_numeric_failure(capsys, tmp_path):
    # the convolution factors overflow at N = 400 (N = 300 gives R(0) = 7.79)
    path = tmp_path / "gauss400.json"
    path.write_text(json.dumps({"N": 400, "family": "gaussian"}))
    code, out, err = run(capsys, "corr", "--ensemble", str(path), "--grid", "0:1:2")
    assert code == 1 and "nan" not in out
    assert [f.split(":")[0] for f in err.strip().splitlines()] == [
        f"numeric failure at ({x},)" for x in (0.0, 1.0)]
    assert "not finite" in err


def test_corr_bad_method_exits_2(capsys, gauss_cfg):
    code, _, err = run(capsys, "corr", "--ensemble", gauss_cfg,
                       "--grid", "-1:1:3", "--method", "bogus")
    assert code == 2
    assert "convolution" in err  # valid methods are enumerated


def test_failed_parse_leaves_the_parser_as_a_fresh_one(capsys, gauss_cfg):
    # the parser is built once per process; a parse that fails with exit 2
    # must not change what the next call prints
    argv = ["corr", "--ensemble", gauss_cfg, "--grid", "-1:1:5", "--k", "2",
            "--metric", "+-", "--variant", "Rhat"]
    cli.build_parser.cache_clear()
    fresh = run(capsys, *argv)
    assert fresh[0] == 0
    code, _, err = run(capsys, "corr", "--ensemble", gauss_cfg, "--k", "two", "--bogus")
    assert code == 2 and "usage: rmtcorr corr" in err
    assert run(capsys, *argv) == fresh
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, *argv) == fresh


def test_corr_bad_grid_exits_2(capsys, gauss_cfg):
    code, _, err = run(capsys, "corr", "--ensemble", gauss_cfg,
                       "--grid", "nonsense")
    assert code == 2


@pytest.mark.parametrize("grid", ["nan:1:3", "-inf:1:3", "0:inf:3", "nan:nan:1"])
def test_corr_non_finite_grid_exits_2(capsys, gauss_cfg, grid):
    code, out, err = run(capsys, "corr", "--ensemble", gauss_cfg, "--grid", grid)
    assert code == 2 and out == ""
    assert "finite" in err


def test_corr_missing_config_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "corr", "--ensemble",
                       str(tmp_path / "nope.json"), "--grid", "-1:1:3")
    assert code == 2
    assert "not found" in err


def test_corr_invalid_config_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"N": 3, "family": "higher_trace",
                                "M1": 1, "M2": 1}))
    code, _, err = run(capsys, "corr", "--ensemble", str(path),
                       "--grid", "-1:1:3")
    assert code == 2


@pytest.mark.parametrize("cfg", [
    None,  # the path is a directory
    {"N": 4, "family": "gaussian", "scale": "1"},
    {"N": None, "family": "gaussian"},
    {"N": float("inf"), "family": "gaussian"},
    {"N": 4, "family": "norm_dependent", "spread": [1, 2]},
    [1, 2],
    "gaussian",
    # a misspelt or extra key is refused, not dropped
    {"N": 4, "family": "gaussian", "sclae": 0.5},
    {"N": 4, "family": "higher_trace", "M1": 4, "M2": 1, "M3": 2},
    {"N": 4, "family": "norm_dependent", "spread": {"type": "spike", "t0": 0.4, "f": 1}},
    # above the trace-power cap: refused once on loading, not at every point
    {"N": 4, "family": "higher_trace", "M1": 7, "M2": 2},
])
def test_corr_malformed_config_exits_2(capsys, tmp_path, cfg):
    path = tmp_path / "cfg.json"
    if cfg is None:
        path.mkdir()
    else:
        path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "corr", "--ensemble", str(path), "--grid", "0:1:2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_corr_non_integer_dimension_exits_2(capsys, tmp_path):
    path = tmp_path / "n.json"
    path.write_text(json.dumps({"N": 4.7, "family": "higher_trace", "M1": 4.9, "M2": 1}))
    code, _, err = run(capsys, "corr", "--ensemble", str(path), "--grid", "-1:1:3")
    assert code == 2 and "not an integer" in err


def test_corr_numeric_b_exits_2(capsys, tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"N": 4, "family": "higher_trace",
                                "M1": 4, "M2": 1, "b": 0.3}))
    code, _, err = run(capsys, "corr", "--ensemble", str(path), "--grid", "-1:1:3")
    assert code == 2 and "derived" in err


def test_no_command_exits_2(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_verify_pass_suites(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "pairing")
    assert code == 0
    assert "pairing(N=2..6): PASS" in out
    code, out, _ = run(capsys, "verify", "--suite", "duality", "--k", "1",
                       "--N", "3")
    assert code == 0
    assert "PASS" in out


def test_verify_duality_bound_scales_with_coefficients(capsys):
    # round-off of 1.5e-10 on coefficients of 2.2e5, once read as a failure
    code, out, _ = run(capsys, "verify", "--suite", "duality", "--k", "2",
                       "--N", "4", "--seed", "108")
    assert code == 0
    assert "duality(k=2,N=4): PASS max_deviation=1.455e-10" in out


def test_verify_line_ends_with_elapsed(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "pairing")
    assert code == 0
    line = next(ln for ln in out.splitlines() if ln.startswith("pairing("))
    assert re.fullmatch(r"pairing\(N=2\.\.6\): PASS max_deviation=\S+ elapsed=\d+\.\d+s", line)


@pytest.mark.parametrize("seed,dev", [("7", "6.372e-01"), ("3", "1.157e-01")])
def test_verify_hciz_draws_one_haar_sample_for_its_three_pairs(capsys, monkeypatch, seed, dev):
    # the line of three single-pair calls on one seed, from one stacked call
    ER = np.sort(np.random.default_rng(int(seed)).uniform(-2, 2, (3, 2, 2)), axis=-1)
    single = [cli.hciz_mc(E, R, 200000, int(seed)) for E, R in ER]
    devs = [abs(v - cli.hciz_exact(E, R)) / (3 * e) for (v, e), (E, R) in zip(single, ER)]
    assert f"{max(devs):.3e}" == dev
    calls = []
    hciz_mc = cli.hciz_mc
    monkeypatch.setattr(cli, "hciz_mc", lambda E, R, *a: calls.append(np.shape(E)) or hciz_mc(E, R, *a))
    code, out, _ = run(capsys, "verify", "--suite", "hciz", "--seed", seed)
    assert code == 0 and calls == [(3, 2)]
    assert re.fullmatch(rf"hciz\(N=2\): PASS max_deviation={dev} elapsed=\d+\.\d+s",
                        out.splitlines()[-1])


@pytest.mark.parametrize("N,seed", [("1", "7"), ("1", "3"), ("2", "7"), ("2", "11")])
def test_verify_hciz_at_small_n(capsys, monkeypatch, N, seed):
    # at N=1 every phase is exp(i E R), so the jackknife error is 0 and
    # the deviation is measured against the round-off of the mean; an
    # exact value off by 1e-9 still fails
    code, out, _ = run(capsys, "verify", "--suite", "hciz", "--N", N, "--seed", seed)
    assert code == 0 and f"hciz(N={N}): PASS" in out
    exact = cli.hciz_exact
    monkeypatch.setattr(cli, "hciz_exact", lambda E, R: exact(E, R) + (1e-9 if N == "1" else 0.05))
    code, out, _ = run(capsys, "verify", "--suite", "hciz", "--N", N, "--seed", seed)
    assert code == 1 and f"hciz(N={N}): FAIL" in out


@pytest.mark.parametrize("suite,name", [("hciz", "hciz(N=2)"), ("mc", "mc(N=4)")])
def test_verify_mc_suites_pass_at_default_seed(capsys, suite, name):
    code, out, _ = run(capsys, "verify", "--suite", suite)
    assert code == 0
    assert f"{name}: PASS max_deviation=" in out


@pytest.mark.parametrize("N", ["1", "4"])
def test_verify_mc_passes_empty_tail_bins_and_fails_a_wrong_density(capsys, monkeypatch, N):
    # tail bins expecting under one sample hold none: the Poisson floor
    # keeps them from failing at N=1, and a density 2% off still fails
    code, out, _ = run(capsys, "verify", "--suite", "mc", "--N", N, "--seed", "3")
    assert code == 0 and f"mc(N={N}): PASS" in out
    evaluate_grid = cli.evaluate_grid
    monkeypatch.setattr(cli, "evaluate_grid", lambda *args: CorrelationResult(
        1.02 * evaluate_grid(*args).value, 0.0))
    code, out, _ = run(capsys, "verify", "--suite", "mc", "--N", N, "--seed", "3")
    assert code == 1 and f"mc(N={N}): FAIL" in out


@pytest.mark.parametrize("seed", ["302", "1306"])
def test_verify_kernel_identity_next_to_kernel_zeros(capsys, monkeypatch, seed):
    # these seeds draw points next to a zero of the kernel, where the
    # deviation is measured on the scale of the series' terms; a kernel
    # summed to N + 1 still fails
    code, out, _ = run(capsys, "verify", "--suite", "kernel-identity", "--seed", seed)
    assert code == 0 and "kernel-identity(N=20): PASS" in out
    kernel = cli.fundamental_kernel
    monkeypatch.setattr(cli, "fundamental_kernel", lambda N, p, s2: kernel(N + 1, p, s2))
    code, out, _ = run(capsys, "verify", "--suite", "kernel-identity", "--seed", seed)
    assert code == 1 and "kernel-identity(N=20): FAIL" in out


def test_threads_flag_is_rejected(capsys):
    code, _, _ = run(capsys, "--threads", "2", "verify", "--suite", "pairing")
    assert code == 2


def test_seed_belongs_to_verify_only(capsys, gauss_cfg):
    # every corr route is deterministic, so corr takes no seed
    code, _, _ = run(capsys, "corr", "--ensemble", gauss_cfg, "--grid", "-1:1:3",
                     "--seed", "1")
    assert code == 2
    code, out, _ = run(capsys, "corr", "--ensemble", gauss_cfg, "--grid", "-1:1:3")
    assert code == 0 and "# seed:" not in out
    code, out, _ = run(capsys, "verify", "--suite", "pairing", "--seed", "3")
    assert code == 0 and "# seed: 3\n" in out


def test_verify_unknown_suite_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2


CLI_WITHOUT_SCIPY = """
import contextlib, io, sys
import rmtcorr.cli
codes = []
for method in rmtcorr.cli.METHODS:
    for grid in ("-3:3:7", "6.6:8:3"):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(rmtcorr.cli.main(["corr", "--ensemble", sys.argv[1], "--method", method,
                                           "--variant", "Rhat", "--grid", grid]))
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(rmtcorr.cli.main(["verify", "--suite", "all"]))
print(codes)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_import_leaves_scipy_integrate_unloaded(gauss6_cfg):
    # scipy costs more to import than the rest of the package: only the
    # half-line pairing needs scipy.integrate, and imports it there, and
    # the Faddeeva function is the package's own.  Rhat tables through
    # every route, bulk and tail, and every verification suite load no
    # scipy module at all.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", CLI_WITHOUT_SCIPY, gauss6_cfg], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    codes, modules = out.stdout.splitlines()
    assert codes == str([0] * (2 * len(cli.METHODS) + 1))
    assert modules == "[]"


@pytest.mark.parametrize("metric", ["++", "+-", "-+", "--"])
def test_corr_k2_every_metric(capsys, ht_cfg, metric):
    # argparse before Python 3.12 turns the value of --metric=-- into []
    code, out, _ = run(capsys, "corr", "--ensemble", ht_cfg, "--k", "2", "--grid", "-1:1:2",
                       "--metric", metric, "--variant", "Rhat")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()
            if not line.startswith("#") and not line.startswith("method")]
    got = [complex(float(r[5]), float(r[6])) for r in rows]
    sides = [1 if s == "+" else -1 for s in metric]
    pts = [(float(r[3]), float(r[4])) for r in rows]
    ref = cli.evaluate_grid(cli._load_spec(ht_cfg), 2, pts, "Rhat", "convolution", sides).value
    assert np.array_equal(got, ref)
