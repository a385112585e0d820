import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import reference_dump_json
from wentropy import closedform as cf
from wentropy import cli, gaussian, verify
from wentropy.cli import main
from wentropy.quadrature import McEstimate
from wentropy.verify import VerifyConfig, _check_monte_carlo, _gibbs, _worst
from wentropy.wdic import default_log_prior, wdic

DATA_DIR = Path(__file__).parent / "data"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(code, *args, **kwargs):
    """Run ``code`` in a new interpreter that imports this checkout's wentropy."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, check=True, **kwargs
    )


def parse_csv(text):
    lines = text.strip().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    header = next(l for l in lines if not l.startswith("#"))
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    return comments, header.split(","), rows


def test_scan_example1_figure_grid(capsys, tmp_path):
    out = tmp_path / "scan.csv"
    code, _, _ = run(
        capsys,
        ["scan", "--example", "1", "--rho=-0.7:0.7:29", "--x3=-3:3:31",
         "--out", str(out)],
    )
    assert code == 0
    comments, header, rows = parse_csv(out.read_text())
    assert comments[0] == "# wentropy scan schema v1"
    assert header == ["rho", "x3", "D_paper", "D_corrected", "Dw_wick", "Dw_printed", "gibbs_gap"]
    assert len(rows) == 29 * 31
    corrected = [float(r[3]) for r in rows]
    assert all(v >= 0.0 for v in corrected)


def test_scan_values_at_zero_coupling(capsys):
    code, out, _ = run(
        capsys, ["scan", "--example", "1", "--rho", "0:0.1:2", "--x3", "0:0.1:2"]
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    first = dict(zip(header, rows[0]))
    assert float(first["rho"]) == 0.0 and float(first["x3"]) == 0.0
    assert float(first["D_paper"]) == pytest.approx(1.0, abs=1e-14)
    assert float(first["D_corrected"]) == pytest.approx(0.0, abs=1e-14)
    assert float(first["Dw_wick"]) == pytest.approx(0.0, abs=1e-14)


def test_scan_rejects_invalid_range(capsys):
    code, _, err = run(
        capsys, ["scan", "--example", "2", "--rho", "0.2:0.6:5", "--x3", "0:1:4"]
    )
    assert code == 2
    assert "rho outside (0, 0.5)" in err
    code, _, err = run(
        capsys, ["scan", "--example", "1", "--rho", "0:0.9:4", "--x3", "0:1:4"]
    )
    assert code == 2
    assert "1 - rho^2 - rho^4" in err


def test_scan_rejects_single_step_range(capsys):
    code, _, err = run(
        capsys, ["scan", "--example", "1", "--rho", "0:0.5:1", "--x3", "0:1:4"]
    )
    assert code == 2
    assert "steps >= 2" in err


@pytest.mark.parametrize("x3", ["-inf:3:4", "0:inf:4", "-1e308:1e308:3"])
def test_scan_rejects_non_finite_range_naming_the_flag(capsys, x3):
    code, out, err = run(capsys, ["scan", "--example", "1", "--rho=0.1:0.2:2", f"--x3={x3}"])
    assert code == 2 and out == ""
    assert err == f"error: --x3 needs finite lo, hi and hi - lo, got {x3!r}\n"


@pytest.mark.parametrize("modes, message", [
    ("paper,corrected,wick", "D_paper is inf at rho=0.1, x3=5e+199"),
    ("corrected,wick", "D_corrected is inf at rho=0.1, x3=5e+199"),
    ("wick", "Dw_wick is nan at rho=0.1, x3=5e+199"),
])
def test_scan_rejects_non_finite_values_and_writes_nothing(capsys, tmp_path, modes, message):
    # a RuntimeWarning from numpy would fail this test (pytest turns it into an error)
    out = tmp_path / "scan.csv"
    code, stdout, err = run(
        capsys,
        ["scan", "--example", "1", "--rho=0.1:0.2:2", "--x3=0:1e200:3",
         "--modes", modes, "--out", str(out)],
    )
    assert code == 2 and stdout == "" and not out.exists()
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("example, printed", [
    (1, {"example1_relative_de_paper": 4, "example1_relative_we_paper": 4}),
    # the second family's printed Dw makes 7 sub-calls, once per row too
    (2, {"example2_relative_de_paper": 4, "example2_relative_we_paper": 4,
         "example2_theta_paper": 4, "example2_upsilon_paper": 12,
         "example2_lambda_bar_paper": 12}),
], ids=["example1", "example2"])
def test_scan_works_once_per_rho_row(capsys, monkeypatch, example, printed):
    # one moment table and one central moment per scan, on the grid
    # PairConditional, and one call of each printed formula per row, not per x3
    calls = {"shifted_moments": 0, "central_moment": 0, **dict.fromkeys(printed, 0)}
    for name in calls:

        def counted(*args, _name=name, _fill=getattr(cf, name)):
            calls[_name] += 1
            return _fill(*args)

        monkeypatch.setattr(cf, name, counted)
    argv = ["scan", "--example", str(example), "--rho=0.1:0.4:4", "--x3=-2:2:9"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and len(parse_csv(out)[2]) == 4 * 9
    assert calls == {"shifted_moments": 1, "central_moment": 1, **printed}


@pytest.mark.parametrize("example, rho", [(1, "-0.7:0.7:29"), (1, "-0.5:0.5:3"), (2, "0.01:0.49:29")])
def test_scan_validates_three_batches_whatever_the_rho_count(capsys, monkeypatch, example, rho):
    # the batched base, its pair and its conditional: one stacked validation
    # each, of the covariances' batch; the conditional has a mean per x3
    batches, validate = [], gaussian.validate

    def counted(dist):
        batches.append((dist.batch, dist.cov.shape[2:]))
        validate(dist)

    monkeypatch.setattr(gaussian, "validate", counted)
    code, _, _ = run(capsys, ["scan", "--example", str(example), f"--rho={rho}", "--x3=-3:3:31"])
    n = int(rho.split(":")[2])
    assert code == 0 and batches == [((n,), (n,)), ((n, 1), (n, 1)), ((n, 31), (n, 1))]


def test_scan_names_the_first_non_finite_value_by_x3_then_column(capsys, tmp_path, monkeypatch):
    # point 1 is bad in the last column, point 2 in an earlier one: point 1 is named
    def poisoned(fill, k, bad):
        def values(*args):
            out = np.array(fill(*args), dtype=float)
            out[..., k] = bad  # at x3 index k on every rho row
            return out
        return values

    monkeypatch.setattr(cf, "gibbs_gap", poisoned(cf.gibbs_gap, 1, np.nan))
    monkeypatch.setattr(cf, "relative_de_pair", poisoned(cf.relative_de_pair, 2, -np.inf))
    out = tmp_path / "scan.csv"
    code, stdout, err = run(
        capsys, ["scan", "--example", "1", "--rho=0.1:0.2:2", "--x3=0:1:3", "--out", str(out)]
    )
    assert code == 2 and stdout == "" and not out.exists()
    assert err == "error: gibbs_gap is nan at rho=0.1, x3=0.5\n"


def test_scan_reports_the_first_error_in_rho_order(capsys):
    # rho = 0.9 is outside the first family, but the rho = 0.1 row overflows
    # first, so that is what is reported, as when each row was built in turn
    argv = ["scan", "--example", "1", "--rho=0.1:0.9:3", "--x3=0:1e200:3"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: D_paper is inf at rho=0.1, x3=5e+199\n"
    code, out, err = run(capsys, ["scan", "--example", "1", "--rho=0.1:0.9:3", "--x3=0:1:3"])
    assert code == 2 and out == ""
    assert err == "error: rho=0.9 violates 1 - rho^2 - rho^4 > 0\n"
    code, out, err = run(capsys, ["scan", "--example", "2", "--rho=0.5:0.6:2", "--x3=0:1:3"])
    assert code == 2 and err == "error: rho outside (0, 0.5): 0.5\n"


def test_scan_modes_subset(capsys):
    code, out, _ = run(
        capsys,
        ["scan", "--example", "2", "--rho", "0.1:0.4:3", "--x3", "0:1:2",
         "--modes", "corrected,wick"],
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["rho", "x3", "D_corrected", "Dw_wick", "gibbs_gap"]
    assert len(rows) == 6


def test_scan_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["scan", "--example", "2", "--rho=0.05:0.45:9", "--x3=-2:2:7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_scan_config_file_flags_win(capsys, tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("example = 1\nrho = 0:0.2:3\nx3 = 0:1:2\nmodes = corrected\n")
    code, out, _ = run(capsys, ["scan", "--config", str(cfg)])
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["rho", "x3", "D_corrected", "gibbs_gap"]
    assert len(rows) == 6
    # explicit flag overrides the config value
    code, out, _ = run(capsys, ["scan", "--config", str(cfg), "--x3", "0:1:3"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 9


def test_config_rejects_keys_that_are_not_flags_of_the_command(capsys, tmp_path):
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"cov": np.eye(2).tolist()}))
    cfg = tmp_path / "moment.cfg"
    cfg.write_text("cov = cov.json\nr = 2,2\nshfit = 1,2\n")
    code, out, err = run(capsys, ["moment", "--cov", str(cov), "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert "'shfit'" in err
    # a real flag of another command is no key for this one
    cfg.write_text("example = 1\nrho = 0:0.2:3\nx3 = 0:1:2\nseed = 3\n")
    code, _, err = run(capsys, ["scan", "--config", str(cfg)])
    assert code == 2
    assert "'seed'" in err
    cfg.write_text("r = 2,2\nshift = 1,2\n")
    code, out, _ = run(capsys, ["moment", "--cov", str(cov), "--config", str(cfg)])
    assert code == 0
    assert out.splitlines()[0] == "value: 10"


def test_config_value_gets_its_flags_type_and_choices(capsys, tmp_path):
    # a bad value from a config file is the same usage error as the flag's,
    # even when an explicit flag overrides it
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("example = 3\nrho = 0:0.2:3\nx3 = 0:1:2\n")
    for argv in (
        ["scan", "--example", "3", "--rho", "0:0.2:3", "--x3", "0:1:2"],
        ["scan", "--config", str(cfg)],
        ["scan", "--config", str(cfg), "--example", "1"],
    ):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --example: invalid choice: 3 (choose from 1, 2)" in err


def test_config_comment_is_a_line_and_a_hash_in_a_value_is_kept(capsys, tmp_path):
    out = tmp_path / "run#1.csv"
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        f"# a comment line\n   # an indented one\nexample = 1\nrho = 0:0.2:3\n"
        f"x3 = 0:1:2\nout = {out}\n"
    )
    assert run(capsys, ["scan", "--config", str(cfg)]) == (0, "", "")
    assert out.exists() and not (tmp_path / "run").exists()
    # a '#' after a value is part of it, so this mode is unknown
    cfg.write_text("example = 1\nrho = 0:0.2:3\nx3 = 0:1:2\nmodes = wick # note\n")
    code, _, err = run(capsys, ["scan", "--config", str(cfg)])
    assert (code, err) == (2, "error: unknown mode 'wick # note'; choose from "
                              "('paper', 'corrected', 'wick')\n")


def test_parser_defaults_are_the_library_defaults():
    parser = cli._build_parser()
    verify_args = parser.parse_args(["verify"])
    for field in dataclasses.fields(VerifyConfig):
        value = getattr(verify_args, field.name)
        assert (value, type(value)) == (field.default, type(field.default))
    wdic_args = parser.parse_args(["wdic"])
    scale = inspect.signature(default_log_prior).parameters["scale"].default
    rule = inspect.signature(wdic).parameters["theta_hat_rule"].default
    assert (wdic_args.prior_scale, type(wdic_args.prior_scale)) == (scale, float)
    assert wdic_args.theta_hat == rule


def test_moment_identity_covariance(capsys, tmp_path):
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"mean": [0, 0, 0], "cov": np.eye(3).tolist()}))
    code, out, _ = run(capsys, ["moment", "--cov", str(cov), "--r", "2,2,2"])
    assert code == 0
    assert out.splitlines() == ["value: 1", "matchings: 15"]


def test_moment_shifted_conditional_value(capsys, tmp_path):
    rho, x3 = 0.5, 2.0
    cov = tmp_path / "cov.json"
    cov.write_text(
        json.dumps({"cov": [[1 - rho**4, rho], [rho, 1.0]]})
    )
    code, out, _ = run(
        capsys,
        ["moment", "--cov", str(cov), "--r", "2,2", "--shift", f"{rho**2 * x3},0"],
    )
    assert code == 0
    lines = out.splitlines()
    assert float(lines[0].split(": ")[1]) == pytest.approx(1.6875, abs=1e-15)
    assert lines[1] == "matchings: 3"


def test_moment_negative_shift_attached_with_equals(capsys, tmp_path):
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"cov": np.eye(2).tolist()}))
    code, out, _ = run(capsys, ["moment", "--cov", str(cov), "--shift=-1,2", "--r", "2,2"])
    assert code == 0
    # E[(Y1 - 1)^2] E[(Y2 + 2)^2] = 2 * 5
    assert out.splitlines()[0] == "value: 10"


def test_consecutive_calls_carry_no_option_over(capsys, tmp_path):
    # one parser serves every call in a process; a flag given to one call
    # must not reach the next
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"cov": np.eye(2).tolist()}))
    moment = ["moment", "--cov", str(cov), "--r", "2,2"]
    assert run(capsys, moment + ["--shift=1,1"])[:2] == (0, "value: 4\nmatchings: 3\n")
    assert run(capsys, moment)[:2] == (0, "value: 1\nmatchings: 3\n")
    scan = ["scan", "--example", "2", "--rho", "0.1:0.4:3", "--x3", "0:1:2"]
    _, header, _ = parse_csv(run(capsys, scan + ["--modes", "corrected"])[1])
    assert header == ["rho", "x3", "D_corrected", "gibbs_gap"]
    _, header, _ = parse_csv(run(capsys, scan)[1])
    assert header == ["rho", "x3", "D_paper", "D_corrected", "Dw_wick", "Dw_printed", "gibbs_gap"]


def test_moment_odd_order(capsys, tmp_path):
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"cov": np.eye(3).tolist()}))
    code, out, _ = run(capsys, ["moment", "--cov", str(cov), "--r", "1,1,1"])
    assert code == 0
    assert out.splitlines() == ["value: 0", "matchings: 0"]


@pytest.mark.parametrize("shift, value", [("1e30,1e30", "inf"), ("1e200,-1e200", "nan")])
def test_moment_rejects_non_finite_value(capsys, tmp_path, shift, value):
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"cov": [[1, 0.5], [0.5, 1]]}))
    code, out, err = run(capsys, ["moment", "--cov", str(cov), "--r", "6,6", f"--shift={shift}"])
    assert code == 2 and out == ""
    assert err == f"error: value is {value}: the moment is outside the float range\n"


def test_moment_rejects_a_central_moment_outside_the_float_range(capsys, tmp_path):
    # E[Y1^6 Y2^6] grows as the sixth power of the variances: inf, then exit 2
    cov = tmp_path / "cov.json"
    cov.write_text(json.dumps({"cov": [[1e60, 0.0], [0.0, 1e60]]}))
    code, out, err = run(capsys, ["moment", "--cov", str(cov), "--r", "6,6"])
    assert (code, out) == (2, "")
    assert err == "error: value is inf: the moment is outside the float range\n"


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
def test_moment_refuses_non_finite_covariance(capsys, tmp_path, entry):
    cov = tmp_path / "cov.json"
    cov.write_text(f'{{"cov": [[{entry}, 0.5], [0.5, 1]]}}')
    code, out, err = run(capsys, ["moment", "--cov", str(cov), "--r", "2,2"])
    assert (code, out, err) == (2, "", "error: cov must be finite\n")


@pytest.mark.parametrize("cov", [[[[1, 0], [0, 1]]] * 2, [[[1.0]]], [[1, 0.5]], [1, 2]])
@pytest.mark.parametrize("extra", [["--r", "2,2"], ["--r", "2,2", "--shift=1,1"], ["--r", "1,2"]])
def test_moment_refuses_a_cov_that_is_not_one_square_matrix(capsys, tmp_path, cov, extra):
    # the moment functions take a (d, d, *batch) stack of covariances; the command
    # takes one matrix and refuses a stack, whatever the order or shift
    path = tmp_path / "cov.json"
    path.write_text(json.dumps({"cov": cov}))
    code, out, err = run(capsys, ["moment", "--cov", str(path)] + extra)
    assert (code, out) == (2, "")
    assert err == f"error: cov must be square, got shape {np.shape(cov)}\n"


@pytest.mark.parametrize(
    "text", ['{"mean": [0]}', "5", "null", '"cov"'], ids=["no-cov-key", "number", "null", "string"]
)
def test_moment_bad_file_exits_2(capsys, tmp_path, text):
    cov = tmp_path / "cov.json"
    cov.write_text(text)
    code, out, err = run(capsys, ["moment", "--cov", str(cov), "--r", "2"])
    assert (code, out) == (2, "")
    assert err == f"error: {cov}: JSON object must contain a 'cov' matrix\n"


def test_moment_malformed_cov_json_exits_2(capsys, tmp_path):
    cov = tmp_path / "cov.json"
    cov.write_text('{"cov": [[1, 0], [0, 1]')
    with pytest.raises(json.JSONDecodeError) as decode:
        json.loads(cov.read_text())
    code, out, err = run(capsys, ["moment", "--cov", str(cov), "--r", "2,2"])
    assert (code, out, err) == (2, "", f"error: {decode.value}\n")


STRINGS = ['say "hi"', "back\\slash", "ctl\x00\x07\x1f\n\t\r", "naïve ∑ 日本 \U0001f600", ""]
JSON_PINS = {
    "float": [math.nan, math.inf, -math.inf, -0.0, 0.1, 1e300, 5e-324],
    "np.float64": [np.float64(v) for v in (math.nan, math.inf, -math.inf, -0.0, 0.1)],
    "np.float32": [np.float32(0.1), np.float32(math.inf)],
    "scalars": [np.int64(-7), 3, True, False, np.bool_(True), np.bool_(False), None],
    "empty": [{}, [], ()],
    "nested": {"a": [1, (2.5, {"b": [], "c": {}})], "d": {"e": {"f": (None,)}}},
    "ndarray": np.array([[1.0, math.nan], [-0.0, math.inf]]),
    "string values": STRINGS,
    "string keys": {text: i for i, text in enumerate(STRINGS)},
    "other keys": {3: "int", 1.5: "float", None: "none", True: "bool"},
}


@pytest.mark.parametrize("name", list(JSON_PINS))
def test_dump_json_bytes_match_one_dumps_per_string(name):
    # the C escaper gives the bytes of json.dumps on each string, key or value
    obj = JSON_PINS[name]
    assert cli._dump_json(obj) == reference_dump_json(obj)
    assert cli._dump_json({"x": [obj]}, 2) == reference_dump_json({"x": [obj]}, 2)
    if isinstance(obj, list):
        for item in obj:
            assert cli._dump_json(item) == reference_dump_json(item), item


def test_dump_json_prints_non_finite_floats_as_strings():
    got = [cli._dump_json(v) for v in (np.float64(math.inf), -math.inf, np.float64(math.nan))]
    assert got == ['"inf"', '"-inf"', '"nan"']
    assert json.loads(cli._dump_json({text: text for text in STRINGS})) == {t: t for t in STRINGS}


def test_wdic_golden_classical_reduction(capsys):
    code, out, _ = run(
        capsys,
        ["wdic", "--data", str(DATA_DIR / "toy_data.csv"),
         "--draws", str(DATA_DIR / "toy_draws.csv")],
    )
    assert code == 0
    got = json.loads(out)
    golden = json.loads((DATA_DIR / "toy_golden.json").read_text())
    assert got["wdic"] == golden["wdic"]
    assert got["pwd"] == golden["pwd"]
    assert got["dev_at_hat"] == golden["dev_at_hat"]
    assert got["theta_hat"] == golden["theta_hat"]


def test_wdic_sampler_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["wdic", "--data", str(DATA_DIR / "toy_data.csv"),
            "--sample", "1500,300,0.4,42"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert 0.0 < payload["acceptance_rate"] < 1.0


def test_wdic_scores_a_far_outlier_instead_of_refusing_it(capsys, tmp_path):
    # y = 60 under normal-mean(sd=1) near mu = 2 has log density about -1700:
    # far below log(smallest double), still a density, as the sampler takes it
    data = tmp_path / "outlier.csv"
    data.write_text("y_1,weight\n" + "0,1\n" * 30 + "60,1\n")
    code, out, err = run(capsys, ["wdic", "--data", str(data), "--sample", "2000,500,0.5,3"])
    assert (code, err) == (0, "")
    got = json.loads(out)
    assert all(math.isfinite(got[key]) for key in ("wdic", "pwd", "dev_at_hat", "pwd_mcse", "ess"))
    assert 0.5 < got["pwd"] < 1.5  # one parameter


@pytest.mark.parametrize(
    "extra, golden_name",
    [
        ([], "toy_sample_golden.json"),
        (["--model", "normal", "--weights-center", "0.5"], "toy_sample_normal_golden.json"),
    ],
    ids=["normal-mean", "normal-central-weights"],
)
def test_wdic_sampler_golden(capsys, extra, golden_name):
    # pins the sampler's random stream, not only its run-to-run determinism
    code, out, _ = run(
        capsys,
        ["wdic", "--data", str(DATA_DIR / "toy_data.csv"), "--sample", "1500,300,0.4,42"]
        + extra,
    )
    assert code == 0
    got = json.loads(out)
    golden = json.loads((DATA_DIR / golden_name).read_text())
    assert {key: got[key] for key in golden} == golden
    assert list(got) == [
        "wdic", "pwd", "dev_at_hat", "theta_hat", "acceptance_rate", "pwd_mcse", "ess"
    ]


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--sample", "2000,500,nan,1"], "step_size must be positive and finite, got nan"),
        (["--sample", "2000,500,inf,1"], "step_size must be positive and finite, got inf"),
        (["--sample", "2000,1950,0.4,1"], "need at least 100 draws, got 50"),
        (["--prior-scale", "0"], "prior scale must be positive and finite, got 0.0"),
        (["--prior-scale=-1"], "prior scale must be positive and finite, got -1.0"),
        (["--prior-scale", "nan"], "prior scale must be positive and finite, got nan"),
        (["--prior-scale", "inf"], "prior scale must be positive and finite, got inf"),
        (["--prior-scale", "1e-200"], "prior scale 1e-200 leaves the float range when squared"),
        (["--prior-scale", "1e200"], "prior scale 1e+200 leaves the float range when squared"),
        (["--prior-scale", "1e-154"],
         "prior scale 1e-154 overflows the log prior at the model bound 50.0"),
        (["--prior-scale", "1e-160"],
         "prior scale 1e-160 overflows the log prior at the model bound 50.0"),
    ],
    ids=[
        "step-nan", "step-inf", "50-draws", "scale-0", "scale--1", "scale-nan", "scale-inf",
        "scale-1e-200", "scale-1e200", "scale-1e-154", "scale-1e-160",
    ],
)
def test_wdic_refuses_bad_sampler_input_before_sampling(capsys, monkeypatch, extra, message):
    entered = []
    monkeypatch.setattr(cli, "metropolis_sample", lambda *args: entered.append(args))
    argv = ["wdic", "--data", str(DATA_DIR / "toy_data.csv")]
    if "--sample" not in extra:
        argv += ["--sample", "1500,300,0.4,42"]
    code, out, err = run(capsys, argv + extra)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert entered == []


BAD_WDIC_INPUT = {
    "y-1e155-sample": (
        [1e155, 0.0, 0.0], ["--sample", "1500,300,0.4,42"],
        "observations overflow the normal model's sum of squares",
    ),
    "y-1e155-draws": (
        [1e155, 0.0, 0.0], ["--draws", str(DATA_DIR / "toy_draws.csv")],
        "observations overflow the normal model's sum of squares",
    ),
    "y-all-1e200-sample": (
        [1e200] * 3, ["--sample", "1500,300,0.4,42"],
        "observations overflow the normal model's sum of squares",
    ),
    "y-nan": (
        [0.1, math.nan, 0.2], ["--sample", "1500,300,0.4,42"],
        "observations contains non-finite entries",
    ),
    "center-1e100": (
        None, ["--draws", str(DATA_DIR / "toy_draws.csv"), "--weights-center=1e100"],
        "pwd_mcse is inf: the result is outside the float range",
    ),
    "center-1e160": (
        None, ["--draws", str(DATA_DIR / "toy_draws.csv"), "--weights-center=1e160"],
        "weights contains non-finite entries",
    ),
    "center-nan": (
        None, ["--draws", str(DATA_DIR / "toy_draws.csv"), "--weights-center=nan"],
        "centers contains non-finite entries",
    ),
    "draws-and-sample": (
        None, ["--draws", str(DATA_DIR / "toy_draws.csv"), "--sample", "1500,300,0.4,42"],
        "provide exactly one of --draws FILE or --sample steps,burnin,step,seed",
    ),
    "neither-draws-nor-sample": (
        None, [], "provide exactly one of --draws FILE or --sample steps,burnin,step,seed",
    ),
    "sample-three-parts": (
        None, ["--sample", "1500,300,0.4"],
        "--sample must be steps,burnin,step,seed, got '1500,300,0.4'",
    ),
}


@pytest.mark.parametrize("case", list(BAD_WDIC_INPUT))
def test_wdic_bad_input_exits_2_with_one_error_line(capsys, tmp_path, case):
    # in process, where a numpy RuntimeWarning is an error: none may escape
    column, extra, message = BAD_WDIC_INPUT[case]
    data = DATA_DIR / "toy_data.csv"
    if column is not None:
        data = tmp_path / "data.csv"
        data.write_text("y_1,weight\n" + "".join(f"{v!r},1\n" for v in column))
    out = tmp_path / "out.json"
    argv = ["wdic", "--data", str(data), "--out", str(out)] + extra
    assert run(capsys, argv) == (2, "", f"error: {message}\n")
    assert not out.exists()


USAGE_ERRORS = {
    "config-line-without-equals": (
        ["scan", "--config", "{cfg}"], "{cfg}:2: expected 'key = value', got 'rho 0:0.2:3\\n'",
    ),
    "range-not-lo-hi-steps": (
        ["scan", "--example", "1", "--rho=0.1:0.2", "--x3=0:1:2"],
        "--rho must be lo:hi:steps, got '0.1:0.2'",
    ),
    "range-lo-not-below-hi": (
        ["scan", "--example", "1", "--rho=0.1:0.2:2", "--x3=1:1:3"],
        "--x3 needs lo < hi, got '1:1:3'",
    ),
    "missing-required-option": (
        ["scan", "--example", "1", "--x3=0:1:2"], "missing required option --rho",
    ),
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_error_exits_2_with_one_error_line(capsys, tmp_path, case):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("example = 1\nrho 0:0.2:3\nx3 = 0:1:2\n")
    argv, message = USAGE_ERRORS[case]
    argv = [arg.format(cfg=cfg) for arg in argv]
    assert run(capsys, argv) == (2, "", f"error: {message.format(cfg=cfg)}\n")


def test_wdic_refuses_a_config_theta_hat_before_sampling(capsys, tmp_path, monkeypatch):
    entered = []
    monkeypatch.setattr(cli, "metropolis_sample", lambda *args: entered.append(args))
    cfg = tmp_path / "wdic.cfg"
    cfg.write_text("theta-hat = median\n")
    argv = ["wdic", "--data", str(DATA_DIR / "toy_data.csv"), "--sample", "200000,100,0.4,1"]
    with pytest.raises(SystemExit) as raised:
        main(argv + ["--config", str(cfg)])
    assert raised.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --theta-hat: invalid choice: 'median'" in err
    assert entered == []


def test_wdic_zero_weights(capsys, tmp_path):
    data = tmp_path / "zero.csv"
    rows = "\n".join(f"{v},0" for v in (0.1, -0.4, 1.2, 0.8))
    data.write_text("y_1,weight\n" + rows + "\n")
    draws = tmp_path / "draws.csv"
    draws.write_text("theta_1\n" + "\n".join("0.1" for _ in range(120)) + "\n")
    code, out, _ = run(capsys, ["wdic", "--data", str(data), "--draws", str(draws)])
    assert code == 0
    got = json.loads(out)
    assert got["wdic"] == 0.0 and got["pwd"] == 0.0


def test_wdic_weights_center_override(capsys, tmp_path):
    out = tmp_path / "r.json"
    argv = ["wdic", "--data", str(DATA_DIR / "toy_data.csv"),
            "--draws", str(DATA_DIR / "toy_draws.csv"),
            "--weights-center", "2.0", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    weighted = json.loads(out.read_text())
    golden = json.loads((DATA_DIR / "toy_golden.json").read_text())
    assert weighted["wdic"] != golden["wdic"]


def test_wdic_malformed_data_diagnostics(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("y_1,weight\n0.1,1\nnope,1\n")
    code, _, err = run(
        capsys, ["wdic", "--data", str(bad), "--draws", str(DATA_DIR / "toy_draws.csv")]
    )
    assert code == 2
    assert "row 3" in err
    bad.write_text("a,b\n0.1,1\n")
    code, _, err = run(
        capsys, ["wdic", "--data", str(bad), "--draws", str(DATA_DIR / "toy_draws.csv")]
    )
    assert code == 2
    assert "y_1" in err


def test_verify_default_passes_and_reports_lambda(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        ["verify", "--mc-samples", "50000", "--discrete-cases", "10", "--out", str(out)],
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    lam11 = next(
        c for c in report["checks"]
        if c["formula"] == "Lambda_11" and c["point"] == "Sigma=I"
    )
    assert lam11["paper_value"] == 1.0
    assert lam11["wick_value"] == 3.0
    assert lam11["verdict"] == "DISCREPANT"
    lam33 = next(
        c for c in report["checks"]
        if c["formula"] == "Lambda_33" and c["point"] == "Sigma=I"
    )
    assert lam33["verdict"] == "CONFIRMED"
    xi_rec = next(c for c in report["checks"] if c["formula"] == "Xi-identity")
    assert xi_rec["verdict"] == "CONFIRMED"


def test_verify_worst_point_ignores_rounding_level_perturbations():
    # a deviation that is the same at every point up to the last bits (like a
    # constant printed defect) must report the same point however the last
    # bits fall; a real maximum is still found
    rng = np.random.default_rng(5)
    for dev in (0.4718592, 3.0e-15, 0.0):
        for _ in range(20):
            noise = rng.uniform(-4e-16, 4e-16, size=8)
            devs = [dev * (1 + e) + abs(e) for e in noise]
            assert _worst(devs) == 0
    assert _worst([1.0, 1.0 + 2e-9, 1.0 + 2e-9 * (1 + 1e-15)]) == 1
    assert _worst([1e-13, 2e-12]) == 1


def test_verify_worst_point_is_the_first_nan():
    # max() passes over a NaN that is not first: a NaN deviation must be reported
    assert _worst([0.1, math.nan, 0.2]) == 1
    assert _worst([math.nan, 1.0]) == 0
    assert _worst([0.1, math.inf, 0.2, math.inf]) == 1


def test_a_nan_kl_fails_the_relative_de_oracle_and_names_its_point(monkeypatch):
    def nan_at_one_point(f, g):
        kl = gaussian.gaussian_kl(f, g).copy()
        kl[3, 7] = math.nan
        return kl

    monkeypatch.setattr(verify, "gaussian_kl", nan_at_one_point)
    checks = []
    verify._check_relative_de(checks, VerifyConfig())
    (record,) = [c for c in checks if c["formula"] == "relative-de-corrected-vs-kl"]
    rhos, x3s = np.linspace(-0.7, 0.7, 29), np.linspace(-3.0, 3.0, 31)
    assert record["point"] == {"example": 1, "rho": rhos[3], "x3": x3s[7]}
    assert math.isnan(record["quadrature_value"]) and math.isnan(record["abs_dev"])
    assert record["verdict"] == "FAIL"


def test_gibbs_implication_fails_only_below_the_floor_at_a_nonnegative_gap():
    # a nonnegative condition gap forces a divergence of at least GIBBS_FLOOR,
    # by quadrature and by wick mode; a negative gap forces nothing
    point = {"example": 1, "rho": 0.3, "x3": 0.5}

    def verdict(gap, rel_w, rel_q):
        return _gibbs(point, gap, rel_w, rel_q)["verdict"]

    for gap in (0.0, 0.7):
        assert verdict(gap, -2e-8, 0.1) == "FAIL"
        assert verdict(gap, 0.1, -2e-8) == "FAIL"
        assert verdict(gap, -1e-8, -1e-8) == "OK"
        assert verdict(gap, 0.0, 0.2) == "OK"
    for rel in (-2e-8, -1.0, 0.0, 3.0):
        assert verdict(-0.1, rel, rel) == "OK"
    # a divergence that is not finite is a broken oracle, whatever the gap
    for gap, bad in ((-0.1, math.nan), (0.7, math.nan), (0.7, math.inf), (-0.1, -math.inf)):
        assert verdict(gap, bad, 0.1) == "FAIL"
        assert verdict(gap, 0.1, bad) == "FAIL"
    record = _gibbs(point, 0.2, -2e-8, -1e-9)
    assert record["point"] == {**point, "condition_gap": 0.2}
    assert (record["wick_value"], record["quadrature_value"]) == (-2e-8, -1e-9)
    assert record["abs_dev"] == 2e-8


@pytest.mark.parametrize("k, verdict", [(3.5, "OK"), (-3.5, "OK"), (4.5, "FAIL"), (-4.5, "FAIL")])
def test_monte_carlo_check_allows_four_standard_errors(monkeypatch, k, verdict):
    # pins both the factor and the standard error it scales, around the exact
    # rule's weighted divergence (cross entropy minus conditional entropy)
    rels, pair_quadratures = [], verify._pair_quadratures

    def recording_pair_quadratures(cond, pair):
        values = pair_quadratures(cond, pair)
        rels.append(values[2])
        return values

    stderr = 1e-3
    monkeypatch.setattr(verify, "_pair_quadratures", recording_pair_quadratures)
    monkeypatch.setattr(
        verify, "relative_wde_monte_carlo",
        lambda *args: McEstimate(rels[-1] + k * stderr, stderr),
    )
    checks = []
    _check_monte_carlo(checks, VerifyConfig())
    (record,) = checks
    assert record["formula"] == "mc-vs-quadrature"
    assert record["quadrature_value"] == rels[-1]
    assert record["point"]["stderr"] == stderr
    assert record["verdict"] == verdict


def test_verify_builds_each_case_once(monkeypatch):
    # PairConditionals: one grid per family for the 20 pair cases, one for the
    # relative-de scan and two single points (5); the counts do not depend on
    # the x3 grid.  Each conditions its base once (5).  The exact rule and the
    # relative-de KL oracle read the grids' batched pairs and conditionals, so
    # there is no other condition call.  Validations: 6 family bases, and 5
    # PairConditionals of a base, a pair and a conditional each (15; a batch is one)
    counts = {"validate": 0, "pair": 0, "condition": 0}
    validate, post_init = gaussian.validate, cf.PairConditional.__post_init__
    condition = gaussian.condition

    def counting_validate(dist):
        counts["validate"] += 1
        validate(dist)

    def counting_post_init(pc):
        counts["pair"] += 1
        post_init(pc)

    def counting_condition(dist, kept, given, value):
        counts["condition"] += 1
        return condition(dist, kept, given, value)

    monkeypatch.setattr(gaussian, "validate", counting_validate)
    monkeypatch.setattr(cf.PairConditional, "__post_init__", counting_post_init)
    monkeypatch.setattr(gaussian, "condition", counting_condition)
    monkeypatch.setattr(cf, "condition", counting_condition)  # imported by name
    assert not hasattr(verify, "condition")
    verify.run_verify(
        VerifyConfig(mc_samples=1000, discrete_cases=1)
    )
    assert counts == {"validate": 21, "pair": 5, "condition": 5}


def test_verify_pair_cases_hold_only_validated_gaussians(monkeypatch):
    validated = []
    validate = gaussian.validate

    def recording_validate(dist):
        validated.append(dist)
        validate(dist)

    monkeypatch.setattr(gaussian, "validate", recording_validate)
    cases = verify._pair_cases(verify._family_bases())
    held = [g for _, grid in cases.values() for g in (grid.base, grid.pair, grid.cond)]
    assert [(g.batch, g.cov.shape[2:]) for g in held] == [
        ((2,), (2,)), ((2, 1), (2, 1)), ((2, 4), (2, 1)),
        ((3,), (3,)), ((3, 1), (3, 1)), ((3, 4), (3, 1)),
    ]
    assert all(any(g is seen for seen in validated) for g in held)


def test_run_verify_twice_in_one_process_gives_equal_reports():
    # densities and divergences are finished in place on their own new
    # arrays: a second run sees no cached array written by the first
    first = verify.run_verify()
    second = verify.run_verify()
    assert json.dumps(first) == json.dumps(second)
    assert first["n_checks"] == 228 and first["ok"]


def test_verify_checks_the_trivariate_entropies_against_the_exact_rule():
    report = verify.run_verify(VerifyConfig(mc_samples=1000, discrete_cases=1))
    oracles = [
        c for c in report["checks"]
        if c["formula"] == "weighted-entropy-trivariate" and c["mode"] == "wick-vs-quadrature"
    ]
    assert len(oracles) == 6
    for c in oracles:
        assert c["abs_dev"] <= verify.EXACT_RTOL * max(1.0, abs(c["quadrature_value"]))
        assert c["verdict"] == "OK"


def test_cli_and_verify_leave_numpy_polynomial_unimported():
    # its first import takes milliseconds that every command would pay
    code = (
        "import sys\n"
        "import wentropy.cli\n"
        "print('numpy.polynomial' in sys.modules)\n"
        "from wentropy.verify import VerifyConfig, run_verify\n"
        "run_verify(VerifyConfig(mc_samples=1000, discrete_cases=1))\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    done = run_fresh(code, text=True)
    assert done.stdout.split() == ["False", "False"]


def test_verify_failure_exits_1_names_the_formulas_and_writes_the_report(
    capsys, tmp_path, monkeypatch
):
    # an exact-rule oracle off by 1e-9 fails every record it checks directly
    rule = verify.wde_gauss_hermite
    monkeypatch.setattr(verify, "wde_gauss_hermite", lambda *args: rule(*args) + 1e-9)
    out = tmp_path / "report.json"
    code, _, err = run(
        capsys, ["verify", "--mc-samples", "1000", "--discrete-cases", "1", "--out", str(out)]
    )
    assert code == 1
    report = json.loads(out.read_text())  # report written despite the failure
    assert report["n_failed"] > 0
    assert err == (
        f"{report['n_failed']} oracle check(s) failed: "
        "cond-wde-pair, cross-wde-pair, weighted-entropy-trivariate\n"
    )


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("discrete-cases", "0", "discrete_cases must be at least 1, got 0"),
        ("discrete-cases", "-3", "discrete_cases must be at least 1, got -3"),
        ("mc-samples", "999", "need at least 1000 samples, got 999"),
    ],
    ids=["discrete-cases-0", "discrete-cases--3", "mc-samples-999"],
)
def test_verify_rejects_fewer_than_one_discrete_case(
    capsys, tmp_path, monkeypatch, key, value, message
):
    # the configuration is refused before any check of the basket runs
    entered = []
    for name in [n for n in vars(verify) if n.startswith("_check_")]:
        monkeypatch.setattr(verify, name, lambda checks, cfg, name=name: entered.append(name))
    out = tmp_path / "report.json"
    code, stdout, err = run(capsys, ["verify", f"--{key}={value}", "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert message in err
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code, _, err = run(capsys, ["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert message in err
    assert not out.exists()
    assert entered == []
    name = key.replace("-", "_")
    field = next(f for f in dataclasses.fields(VerifyConfig) if f.name == name)
    with pytest.raises(ValueError, match=message):
        VerifyConfig(**{name: type(field.default)(value)})


@pytest.mark.parametrize(
    "argv, seed",
    [
        (["verify", "--seed=-1"], -1),
        (["wdic", "--data", str(DATA_DIR / "toy_data.csv"), "--sample", "3000,100,0.1,-4"], -4),
    ],
    ids=["verify", "wdic"],
)
def test_a_negative_seed_is_refused_before_anything_is_drawn(
    capsys, tmp_path, monkeypatch, argv, seed
):
    entered = []
    monkeypatch.setattr(cli, "metropolis_sample", lambda *args: entered.append(args))
    for name in [n for n in vars(verify) if n.startswith("_check_")]:
        monkeypatch.setattr(verify, name, lambda checks, cfg, name=name: entered.append(name))
    out = tmp_path / "out.json"
    code, stdout, err = run(capsys, argv + ["--out", str(out)])
    assert (code, stdout, err) == (2, "", f"error: seed must be non-negative, got {seed}\n")
    assert not out.exists()
    assert entered == []


def test_verify_refuses_the_removed_grid_settings(capsys, tmp_path, monkeypatch):
    # the pair grids' size and tolerance went with the grids: an old flag is a
    # usage error and an old config file fails loudly instead of being ignored
    entered = []
    for name in [n for n in vars(verify) if n.startswith("_check_")]:
        monkeypatch.setattr(verify, name, lambda checks, cfg, name=name: entered.append(name))
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as raised:
        main(["verify", "--pair-points", "192", "--out", str(out)])
    assert raised.value.code == 2
    assert "unrecognized arguments: --pair-points 192" in capsys.readouterr().err
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("tol-quad = 1e-4\n")
    code, stdout, err = run(capsys, ["verify", "--config", str(cfg), "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert "unknown config key 'tol-quad'" in err
    assert not out.exists()
    assert entered == []
    assert {f.name for f in dataclasses.fields(VerifyConfig)} == {
        "seed", "mc_samples", "discrete_cases"
    }


SAMPLE_GOLDEN = json.loads((DATA_DIR / "wdic_sample_golden.json").read_text())


@pytest.mark.parametrize("case", sorted(SAMPLE_GOLDEN))
def test_wdic_sampler_matches_golden_bytes(capsys, case):
    # 200 seeded rows, long chains: the sampler's stream, accept decisions and
    # every digit of the output, recorded once
    golden = SAMPLE_GOLDEN[case]
    argv = ["wdic", "--data", str(DATA_DIR / "wdic_sample_data.csv")] + golden["args"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == golden["stdout"]


def test_scan_matches_golden_bytes(capsys, tmp_path):
    # all-mode scans of both families, recorded once: scan output must not move by a byte
    grids = {1: "--rho=-0.7:0.7:8", 2: "--rho=0.01:0.49:8"}
    for example, rho in grids.items():
        out = tmp_path / f"scan_{example}.csv"
        argv = ["scan", "--example", str(example), rho, "--x3=-3:3:7", "--out", str(out)]
        assert main(argv) == 0
        golden = DATA_DIR / f"scan_golden_{example}.csv"
        assert out.read_bytes() == golden.read_bytes()


def test_scan_grid_matches_golden_bytes():
    # odd grids recorded once: the first family's holds rho = 0 and both hold x3 = 0.
    # Each scan runs in a new interpreter, as the console script does: more array
    # calls of the printed formulas in this process would change when CPython 3.11
    # specializes their float arithmetic for later tests, and the sign of a NaN
    # that arithmetic makes from two NaNs depends on it (test_closedform compares it)
    grids = {1: "--rho=-0.7:0.7:15", 2: "--rho=0.05:0.45:9"}
    scan = "import sys\nfrom wentropy.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    for example, rho in grids.items():
        done = run_fresh(scan, "scan", "--example", str(example), rho, "--x3=-3:3:13")
        golden = DATA_DIR / f"scan_grid_golden_{example}.csv"
        assert done.stdout == golden.read_bytes()


def test_verify_matches_golden_bytes(capsys, tmp_path):
    # a small basket, recorded once: every oracle passes and every finding is
    # pinned by its bytes; the FAIL verdict and exit 1 are pinned by
    # test_verify_failure_exits_1_names_the_formulas_and_writes_the_report
    out = tmp_path / "report.json"
    argv = ["verify", "--mc-samples", "1000", "--discrete-cases", "2", "--out", str(out)]
    assert run(capsys, argv)[0] == 0
    assert out.read_bytes() == (DATA_DIR / "verify_golden_small.json").read_bytes()


@pytest.mark.parametrize("seed", [VerifyConfig().seed, 1])
def test_default_verify_keeps_the_recorded_checks_and_verdicts(seed):
    # the default basket pads most of its 50 discrete pmfs into their batch's
    # shape, which the small golden's two pmfs, each alone in its batch, never do
    signature = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "verify_signature.json"
    report = verify.run_verify(VerifyConfig(seed=seed))
    checks = [[c["formula"], c["mode"], c["verdict"]] for c in report["checks"]]
    assert checks == json.loads(signature.read_text())["checks"]
    assert report["n_failed"] == 0


@pytest.mark.parametrize("seed, golden", [(None, "default"), (1, "seed1")])
def test_default_verify_matches_golden_bytes(seed, golden):
    # the whole default report, every abs_dev bit included, in a new interpreter
    # as the console script runs it
    script = "import sys\nfrom wentropy.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    args = ["verify"] + ([] if seed is None else ["--seed", str(seed)])
    done = run_fresh(script, *args)
    assert done.stdout == (DATA_DIR / f"verify_golden_{golden}.json").read_bytes()
